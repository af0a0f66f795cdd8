//! Golden pins for Algorithm 1 delivery.
//!
//! One simulated Broadcast CONGEST round is a pure function of
//! `(graph, outgoing, params, network seed, round rng seed)`. These tests
//! pin an FNV fingerprint of every node's delivered inbox plus the full
//! [`RoundStats`] of [`BroadcastSimulator::simulate_round`] on fixed
//! seeds, so a change to carrier/decoy sampling, set decoding, the
//! phase-2 message pool or nearest-codeword tie-breaking fails loudly
//! here instead of silently shifting every recorded Algorithm 1 result.
//!
//! The undersized configuration (`c_ε = 2` at ε = 0.25, 32 decoys) is
//! chosen so false positives, decoy acceptances and message errors all
//! occur: it pins the decoy, false-positive and tie-break paths, not only
//! the clean-delivery path.
//!
//! If you change delivery *deliberately*, regenerate the constants below
//! (run with `--nocapture`; each test prints its computed values) and
//! document the break in CHANGES.md.

use beep_congest::{Message, MessageWriter};
use beep_core::{BroadcastSimulator, RoundStats, SimulationParams};
use beep_net::{topology, BeepNetwork, Graph, Noise};
use rand::rngs::StdRng;
use rand::SeedableRng;

const B: usize = 16;

/// FNV-1a over each node's inbox: its length, then every message's words.
fn delivery_fingerprint(delivered: &[Vec<Message>]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for inbox in delivered {
        absorb(inbox.len() as u64);
        for m in inbox {
            for &word in m.to_bitvec().as_words() {
                absorb(word);
            }
        }
    }
    hash
}

/// Every node but those `≡ 3 (mod 7)` transmits; values repeat mod 40 so
/// the message pool deduplicates.
fn outgoing(n: usize) -> Vec<Option<Message>> {
    (0..n)
        .map(|v| (v % 7 != 3).then(|| MessageWriter::new().push_uint((v % 40) as u64, B).finish(B)))
        .collect()
}

/// Simulates two consecutive rounds and returns each round's
/// `(fingerprint, stats)`.
fn run(graph: Graph, params: SimulationParams, seed: u64) -> Vec<(u64, RoundStats)> {
    let n = graph.node_count();
    let sim = BroadcastSimulator::new(params, B, graph.max_degree()).unwrap();
    let mut net = BeepNetwork::new(graph, Noise::bernoulli(params.epsilon), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let out = outgoing(n);
    let computed: Vec<(u64, RoundStats)> = (0..2)
        .map(|_| {
            let outcome = sim.simulate_round(&mut net, &out, &mut rng).unwrap();
            (delivery_fingerprint(&outcome.delivered), outcome.stats)
        })
        .collect();
    for (fingerprint, stats) in &computed {
        println!("round_sim golden: {fingerprint:#018X} {stats:?}");
    }
    computed
}

fn gnp_64() -> Graph {
    topology::gnp(64, 8.0 / 63.0, &mut StdRng::seed_from_u64(7)).unwrap()
}

fn regular_128() -> Graph {
    topology::random_regular(128, 4, &mut StdRng::seed_from_u64(8)).unwrap()
}

#[test]
fn gnp_64_calibrated_round_is_pinned() {
    let computed = run(gnp_64(), SimulationParams::calibrated(0.1), 11);
    let clean = RoundStats {
        rounds: 1,
        transmitters: 55,
        decoys_scored: 256,
        ..RoundStats::default()
    };
    assert_eq!(
        computed,
        vec![
            (0x41F5_07C7_D076_D538, clean),
            (0x41F5_07C7_D076_D538, clean)
        ]
    );
}

#[test]
fn random_regular_128_calibrated_round_is_pinned() {
    let computed = run(regular_128(), SimulationParams::calibrated(0.1), 12);
    let clean = RoundStats {
        rounds: 1,
        transmitters: 110,
        decoys_scored: 512,
        ..RoundStats::default()
    };
    assert_eq!(
        computed,
        vec![
            (0x48DC_F69C_A149_0383, clean),
            (0x48DC_F69C_A149_0383, clean)
        ]
    );
}

#[test]
fn undersized_round_pins_decoy_false_positive_and_tie_paths() {
    let params = SimulationParams {
        expansion: 2,
        ..SimulationParams::calibrated(0.25)
    }
    .with_decoys(32);
    let computed = run(regular_128(), params, 12);
    for (_, stats) in &computed {
        assert!(stats.false_positives > 0, "{stats:?}");
        assert!(stats.decoy_acceptances > 0, "{stats:?}");
        assert!(stats.message_errors > 0, "{stats:?}");
    }
    let noisy = |false_negatives, false_positives, decoy_acceptances, message_errors| RoundStats {
        rounds: 1,
        transmitters: 110,
        false_negatives,
        false_positives,
        decoys_scored: 4096,
        decoy_acceptances,
        message_errors,
        imperfect_rounds: 1,
    };
    assert_eq!(
        computed,
        vec![
            (0x9366_EB6A_CCC0_3EBC, noisy(8, 9, 4, 69)),
            (0x8F52_E234_3E24_756D, noisy(11, 10, 1, 74)),
        ]
    );
}
