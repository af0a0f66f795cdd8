//! Property-based tests for the code constructions: structural invariants
//! that must hold for *every* input, not just sampled ones.

use beep_bits::BitVec;
use beep_codes::{
    BeepCode, BeepCodeParams, CodeError, CombinedCode, DistanceCode, DistanceCodeParams,
    KautzSingleton, MessageDecoder, SetDecoder,
};
use proptest::prelude::*;

fn input_bits(bits: usize) -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<bool>(), bits).prop_map(|b| BitVec::from_bools(&b))
}

/// An 8-bit distance code whose length (8·expansion) spans one to three
/// words, with and without a partial last word.
fn small_distance_code(expansion: usize, seed: u64) -> DistanceCode {
    DistanceCode::with_seed(DistanceCodeParams::new(8, expansion).unwrap(), seed)
}

/// 8-bit messages drawn from a 16-value range, so pools repeat entries.
fn messages(values: &[u64]) -> Vec<BitVec> {
    values.iter().map(|&v| BitVec::from_u64_lsb(v, 8)).collect()
}

proptest! {
    #[test]
    fn beep_codewords_always_have_design_weight(
        r in input_bits(12),
        seed in any::<u64>(),
        k in 1usize..10,
        c in 3usize..10,
    ) {
        let params = BeepCodeParams::new(12, k, c).unwrap();
        let code = BeepCode::with_seed(params, seed);
        let cw = code.encode(&r);
        prop_assert_eq!(cw.len(), params.length());
        prop_assert_eq!(cw.count_ones(), params.weight());
    }

    #[test]
    fn beep_encoding_is_a_function(r in input_bits(12), seed in any::<u64>()) {
        let params = BeepCodeParams::new(12, 4, 7).unwrap();
        let c1 = BeepCode::with_seed(params, seed);
        let c2 = BeepCode::with_seed(params, seed);
        prop_assert_eq!(c1.encode(&r), c2.encode(&r));
    }

    #[test]
    fn distance_codewords_have_design_length(m in input_bits(10), seed in any::<u64>()) {
        let params = DistanceCodeParams::new(10, 20).unwrap();
        let code = DistanceCode::with_seed(params, seed);
        prop_assert_eq!(code.encode(&m).len(), 200);
    }

    #[test]
    fn combined_code_figure1_structure(r in input_bits(8), m in input_bits(10), seed in any::<u64>()) {
        // beep: a=8, k=3, c=5 → weight 40; distance: len 40.
        let beep = BeepCode::with_seed(BeepCodeParams::new(8, 3, 5).unwrap(), seed);
        let dist = DistanceCode::with_seed(DistanceCodeParams::with_length(10, 40).unwrap(), seed);
        let cc = CombinedCode::new(beep, dist).unwrap();
        let cd = cc.encode(&r, &m);
        let carrier = cc.beep_code().encode(&r);
        let payload = cc.distance_code().encode(&m);
        // CD(r,m) ⊆ C(r), zero outside, payload readable back at 1-positions.
        prop_assert!(cd.is_subset_of(&carrier));
        prop_assert_eq!(cd.count_ones(), payload.count_ones());
        prop_assert_eq!(CombinedCode::project(&cd, &carrier).unwrap(), payload);
    }

    #[test]
    fn noiseless_set_decode_accepts_every_transmitted_word(
        inputs in prop::collection::hash_set(0u64..4096, 1..=5),
        seed in any::<u64>(),
    ) {
        let params = BeepCodeParams::new(12, 5, 7).unwrap();
        let code = BeepCode::with_seed(params, seed);
        let decoder = SetDecoder::new(&code, 0.0);
        let words: Vec<BitVec> = inputs
            .iter()
            .map(|&v| code.encode(&BitVec::from_u64_lsb(v, 12)))
            .collect();
        let sup = beep_bits::superimpose(&words).unwrap();
        // Completeness is unconditional: a transmitted codeword has zero
        // ones outside the superimposition, so it is always accepted.
        for &v in &inputs {
            prop_assert!(decoder.accepts(&BitVec::from_u64_lsb(v, 12), &sup));
        }
    }

    #[test]
    fn message_decoder_identifies_exact_codeword(
        m in 0u64..1024,
        decoys in prop::collection::hash_set(0u64..1024, 1..8),
        seed in any::<u64>(),
    ) {
        let params = DistanceCodeParams::new(10, 20).unwrap();
        let code = DistanceCode::with_seed(params, seed);
        let decoder = MessageDecoder::new(&code);
        let message = BitVec::from_u64_lsb(m, 10);
        let received = code.encode(&message);
        let mut candidates: Vec<BitVec> = decoys
            .into_iter()
            .map(|v| BitVec::from_u64_lsb(v, 10))
            .collect();
        candidates.push(message.clone());
        let decoded = decoder.decode_candidates(&received, &candidates).unwrap();
        // Distance 0 to the true codeword; any other candidate is at
        // positive distance (codewords are distinct w.o.p.), so the true
        // message wins.
        prop_assert_eq!(decoded.message, message);
        prop_assert_eq!(decoded.distance, 0);
    }

    #[test]
    fn message_codebook_decodes_like_decode_candidates(
        pool in prop::collection::vec(0u64..16, 0..24),
        sent in 0u64..16,
        flips in prop::collection::vec(0usize..160, 0..40),
        expansion in 1usize..20,
        seed in any::<u64>(),
    ) {
        let code = small_distance_code(expansion, seed);
        let decoder = MessageDecoder::new(&code);
        let pool = messages(&pool);
        let codebook = decoder.codebook(&pool);
        // A noisy codeword of some message (possibly outside the pool).
        let mut received = code.encode_u64(sent);
        for &i in &flips {
            received.flip(i % received.len());
        }
        prop_assert_eq!(
            codebook.decode(&received),
            decoder.decode_candidates(&received, &pool)
        );
    }

    #[test]
    fn message_codebook_first_duplicate_wins_with_zero_margin(
        m in 0u64..16,
        rest in prop::collection::vec(0u64..16, 0..8),
        expansion in 1usize..20,
        seed in any::<u64>(),
    ) {
        let code = small_distance_code(expansion, seed);
        let decoder = MessageDecoder::new(&code);
        let mut pool = messages(&[m, m]);
        pool.extend(messages(&rest));
        let received = code.encode_u64(m);
        let decoded = decoder.codebook(&pool).decode(&received).unwrap();
        prop_assert_eq!(&decoded.message, &pool[0]);
        prop_assert_eq!(decoded.distance, 0);
        prop_assert_eq!(decoded.margin, Some(0));
        prop_assert_eq!(Ok(decoded), decoder.decode_candidates(&received, &pool));
    }

    #[test]
    fn message_codebook_ties_break_toward_the_earlier_candidate(
        m1 in 0u64..256,
        offset in 1u64..256,
        expansion in 1usize..20,
        seed in any::<u64>(),
    ) {
        let code = small_distance_code(expansion, seed);
        let decoder = MessageDecoder::new(&code);
        let (a, b) = (m1, (m1 + offset) % 256);
        let (ca, cb) = (code.encode_u64(a), code.encode_u64(b));
        // Equidistant string: agree with both codewords where they agree,
        // take half the differing positions from each. Needs an even
        // number of differing positions.
        let differing: Vec<usize> = (0..ca.len()).filter(|&i| ca.get(i) != cb.get(i)).collect();
        if differing.len().is_multiple_of(2) {
            let mut received = ca.clone();
            for &i in differing.iter().step_by(2) {
                received.set(i, cb.get(i));
            }
            for pool in [messages(&[a, b]), messages(&[b, a])] {
                let decoded = decoder.codebook(&pool).decode(&received).unwrap();
                prop_assert_eq!(&decoded.message, &pool[0]);
                prop_assert_eq!(decoded.margin, Some(0));
                prop_assert_eq!(Ok(decoded), decoder.decode_candidates(&received, &pool));
            }
        }
    }

    #[test]
    fn message_codebook_single_candidate_has_no_margin(
        m in 0u64..16,
        received in input_bits(72),
        seed in any::<u64>(),
    ) {
        let code = small_distance_code(9, seed);
        let decoder = MessageDecoder::new(&code);
        let pool = messages(&[m]);
        let decoded = decoder.codebook(&pool).decode(&received).unwrap();
        prop_assert_eq!(&decoded.message, &pool[0]);
        prop_assert_eq!(decoded.distance, code.encode(&pool[0]).hamming_distance(&received));
        prop_assert_eq!(decoded.margin, None);
        prop_assert_eq!(Ok(decoded), decoder.decode_candidates(&received, &pool));
    }

    #[test]
    fn message_codebook_errors_match_decode_candidates(
        pool in prop::collection::vec(0u64..16, 0..4),
        wrong_len in 0usize..200,
        seed in any::<u64>(),
    ) {
        let code = small_distance_code(9, seed);
        let decoder = MessageDecoder::new(&code);
        let pool = messages(&pool);
        let codebook = decoder.codebook(&pool);
        // An empty pool has no nearest codeword.
        let received = BitVec::zeros(72);
        if pool.is_empty() {
            prop_assert_eq!(codebook.decode(&received), Err(CodeError::NoCandidates));
        }
        prop_assert_eq!(
            codebook.decode(&received),
            decoder.decode_candidates(&received, &pool)
        );
        // A received string of the wrong length is rejected before scoring.
        let wrong_len = if wrong_len == 72 { 73 } else { wrong_len };
        let wrong = BitVec::zeros(wrong_len);
        prop_assert_eq!(
            codebook.decode(&wrong),
            Err(CodeError::ReceivedLength { expected: 72, actual: wrong_len })
        );
        prop_assert_eq!(
            codebook.decode(&wrong),
            decoder.decode_candidates(&wrong, &pool)
        );
    }

    #[test]
    fn message_codebook_over_all_messages_matches_exhaustive(
        sent in 0u64..256,
        flips in prop::collection::vec(0usize..72, 0..24),
        seed in any::<u64>(),
    ) {
        let code = small_distance_code(9, seed);
        let decoder = MessageDecoder::new(&code);
        let all: Vec<BitVec> = (0..256).map(|v| BitVec::from_u64_lsb(v, 8)).collect();
        let mut received = code.encode_u64(sent);
        for &i in &flips {
            received.flip(i);
        }
        prop_assert_eq!(
            decoder.codebook(&all).decode(&received),
            decoder.decode_exhaustive(&received)
        );
    }

    #[test]
    fn kautz_singleton_subset_structure(m in 0u64..4096, k in 1usize..6) {
        let code = KautzSingleton::new(12, k).unwrap();
        let cw = code.encode(&BitVec::from_u64_lsb(m, 12));
        let q = code.params().field_size() as usize;
        prop_assert_eq!(cw.len(), q * q);
        prop_assert_eq!(cw.count_ones(), q);
        // Self-covering always holds.
        prop_assert!(code.covered(&BitVec::from_u64_lsb(m, 12), &cw));
    }
}
