//! The noisy beeping channel (Ashkenazi, Gelles & Leshem).

use crate::error::NetError;
use beep_bits::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::sync::OnceLock;

/// Derives the seed of the noise RNG stream for one `(seed, round, shard)`
/// cell — the determinism contract of the sharded round engine.
///
/// Every noisy round of the bit-parallel kernel draws its channel flips
/// from `StdRng::seed_from_u64(noise_stream_seed(seed, round, shard))`, one
/// independent stream per shard per round. Because the stream is keyed by
/// *position* rather than threaded through one sequential RNG, the noisy
/// transcript depends only on `(graph, noise, seed, actions, shard_count)`
/// — never on how many threads computed it, nor on their scheduling.
///
/// The two multipliers are distinct odd 64-bit mixing constants
/// (SplitMix64's golden-ratio increment and the rrmxmx mixer multiplier),
/// so `(round, shard)` and `(shard, round)` key different streams; a plain
/// `seed ^ round ^ shard` would collide on every swapped pair. This
/// function is pinned by the golden-transcript tests: changing it silently
/// shifts every recorded noisy experiment, so it fails loudly instead.
#[must_use]
pub fn noise_stream_seed(seed: u64, round: u64, shard: u64) -> u64 {
    seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ shard.wrapping_mul(0x9FB2_1C65_1E98_DF25)
}

/// The reserved shard index of the per-(node, phase) protocol coin stream.
///
/// Randomized protocols built on the engine (currently `beep_ben_or` in
/// `beep-apps`) derive node `v`'s phase-`p` coin via [`protocol_coin`] —
/// counter-keyed like everything else, so transcripts stay pure functions
/// of `(graph, channel, faults, seed, actions, shard_count)` and coins
/// never perturb (or collide with) the channel, fault-realization, or
/// adaptive-policy streams. Listed in
/// [`RESERVED_STREAMS`](crate::RESERVED_STREAMS); coin golden values are
/// pinned by `noise_stream_golden.rs`.
pub const PROTOCOL_COIN_STREAM: u64 = u64::MAX - 3;

/// Node `node`'s fair coin for phase `phase` of a randomized protocol
/// seeded with `seed`.
///
/// The draw is `StdRng::seed_from_u64(noise_stream_seed(seed, phase,
/// PROTOCOL_COIN_STREAM) ^ (node + 1)·M)` with `M` an odd 64-bit mixing
/// constant (the rrmxmx finalizer multiplier), so distinct nodes key
/// distinct streams and node 0 is not the unmixed phase key. Pinned by the
/// coin-stream golden test; change it only with a documented break.
#[must_use]
pub fn protocol_coin(seed: u64, node: usize, phase: u64) -> bool {
    let key = noise_stream_seed(seed, phase, PROTOCOL_COIN_STREAM)
        ^ (node as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    StdRng::seed_from_u64(key).random_bool(0.5)
}

/// The channel model applied to every bit a node receives.
///
/// ```
/// use beep_net::Noise;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// // The noiseless channel is the identity; ε ∈ (0, ½) flips each bit
/// // independently with probability ε.
/// assert!(Noise::Noiseless.apply(true, &mut rng));
/// let noisy = Noise::bernoulli(0.25);
/// assert_eq!(noisy.epsilon(), 0.25);
/// let flips = (0..10_000).filter(|_| noisy.apply(false, &mut rng)).count();
/// assert!((2_000..3_000).contains(&flips));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Noise {
    /// The noiseless beeping model of Cornejo & Kuhn: received bits are
    /// exact.
    Noiseless,
    /// The noisy beeping model: each received bit is flipped independently
    /// uniformly at random with the given probability `ε ∈ (0, ½)`.
    Bernoulli(f64),
}

impl Noise {
    /// Constructs a Bernoulli channel after validating `ε ∈ (0, ½)` — the
    /// open interval the paper requires (at `ε = ½` the channel carries no
    /// information; at `ε = 0` use [`Noise::Noiseless`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidNoise`] if `epsilon` is outside
    /// `(0, 0.5)` (including NaN).
    pub fn try_bernoulli(epsilon: f64) -> Result<Self, NetError> {
        if epsilon > 0.0 && epsilon < 0.5 {
            Ok(Noise::Bernoulli(epsilon))
        } else {
            Err(NetError::InvalidNoise { epsilon })
        }
    }

    /// [`Noise::try_bernoulli`] for contexts where `ε` is a literal or
    /// otherwise known-valid — the panicking convenience every example and
    /// test uses.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside `(0, 0.5)`. Use
    /// [`Noise::try_bernoulli`] when `ε` comes from user input or
    /// configuration.
    #[must_use]
    pub fn bernoulli(epsilon: f64) -> Self {
        match Self::try_bernoulli(epsilon) {
            Ok(noise) => noise,
            Err(e) => panic!("{e}"),
        }
    }

    /// The flip probability (0 for the noiseless channel).
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        match *self {
            Noise::Noiseless => 0.0,
            Noise::Bernoulli(e) => e,
        }
    }

    /// Passes one bit through the channel.
    #[must_use]
    pub fn apply<R: Rng + ?Sized>(&self, bit: bool, rng: &mut R) -> bool {
        match *self {
            Noise::Noiseless => bit,
            Noise::Bernoulli(e) => {
                if rng.random_bool(e) {
                    !bit
                } else {
                    bit
                }
            }
        }
    }

    /// Whether the channel flips nothing: the noiseless channel, and any
    /// rate that is not `> 0` (zero, negative, NaN) or so small that
    /// `1 − ε` rounds to 1 (where `ln(1 − ε) = 0` would otherwise turn
    /// every gap into 0 and flip every bit).
    pub(crate) fn flips_nothing(&self) -> bool {
        match *self {
            Noise::Noiseless => true,
            Noise::Bernoulli(e) => e.is_nan() || e <= 0.0 || 1.0 - e == 1.0,
        }
    }

    /// Passes a whole frame of received bits through the channel at once:
    /// each bit of `bits` is flipped independently with probability `ε`,
    /// except at positions set in `protect` (the engine passes the beeper
    /// set there when self-hearing is configured noise-free).
    ///
    /// Instead of one Bernoulli draw per bit, flip positions are generated
    /// by geometric gap sampling (inversion of the geometric CDF), so a
    /// frame of `n` bits costs `O(ε·n + 1)` RNG draws. Each gap is read
    /// from a per-rate threshold table (see
    /// [`apply_to_words`](Self::apply_to_words)), yet the noisy channel is
    /// still far from free: on a 2-core x86-64 box, a 6,912-round frame on
    /// G(64, 8/63) at ε = 0.1 costs about 27× the noiseless frame (≈ 100
    /// vs 3.8 ns per round: a `StdRng` seed and ~7 draws per round), down
    /// from about 48× when every draw called `ln`. The per-bit marginal is
    /// exactly `Bernoulli(ε)` and flips stay i.i.d.; only the *stream* of
    /// RNG draws differs from bit-by-bit [`Noise::apply`], so scalar and
    /// batched runs under noise are each deterministic in
    /// `(graph, noise, seed, actions)` but not bit-equal to one another.
    pub fn apply_frame<R: Rng + ?Sized>(
        &self,
        bits: &mut BitVec,
        protect: Option<&BitVec>,
        rng: &mut R,
    ) {
        let hi = bits.len();
        self.apply_to_words(bits.as_words_mut(), 0, hi, protect, rng);
    }

    /// The word-slice core of [`apply_frame`](Self::apply_frame): flips
    /// bits at *global* positions `lo..hi` (with `lo` word-aligned) inside
    /// `words`, whose first word holds bits `lo..lo + 64`. `protect` is
    /// indexed by global position.
    ///
    /// This is the form the sharded round engine uses: each shard owns a
    /// disjoint word range of the received frame and passes it here with
    /// its own counter-keyed RNG stream (see [`noise_stream_seed`]), so
    /// channel
    /// noise is identical no matter how many threads ran the round.
    ///
    /// The pass draws `x = next_u64() >> 11` and skips
    /// `G(x) = ⌊ln(1 − x·2⁻⁵³) / ln(1 − ε)⌋` unflipped bits before the
    /// next flip, stopping once `G(x) ≥ hi − i`. `G` is evaluated exactly
    /// but mostly without `ln`: a table of the thresholds where `G` steps,
    /// built once per rate `ε < 1` per process, answers every draw except
    /// those within a guard band of a threshold or past the table's tail,
    /// which fall back to the formula.
    ///
    /// # Panics
    ///
    /// Panics if `lo` is not a multiple of 64, or if `hi - lo` exceeds the
    /// bit capacity of `words`.
    pub fn apply_to_words<R: Rng + ?Sized>(
        &self,
        words: &mut [u64],
        lo: usize,
        hi: usize,
        protect: Option<&BitVec>,
        rng: &mut R,
    ) {
        let Noise::Bernoulli(e) = *self else {
            return;
        };
        if self.flips_nothing() {
            return;
        }
        assert!(lo.is_multiple_of(64), "shard start {lo} not word-aligned");
        assert!(
            hi.saturating_sub(lo) <= words.len() * 64,
            "range {lo}..{hi} exceeds {} words",
            words.len()
        );
        let table = if e < 1.0 { GapSampler::cached(e) } else { None };
        match table {
            Some(sampler) => {
                flip_gaps(words, lo, hi, protect, rng, |x, rest| sampler.skip(x, rest))
            }
            None => {
                let denom = (1.0 - e).ln();
                flip_gaps(words, lo, hi, protect, rng, |x, rest| {
                    formula_skip(x, denom, rest)
                });
            }
        }
    }
}

/// The geometric-skip loop: draws `x = next_u64() >> 11`, asks `skip` for
/// the gap before the next flip (`None` once it reaches past `hi`), and
/// flips that bit unless it is protected.
fn flip_gaps<R: Rng + ?Sized>(
    words: &mut [u64],
    lo: usize,
    hi: usize,
    protect: Option<&BitVec>,
    rng: &mut R,
    mut skip: impl FnMut(u64, usize) -> Option<usize>,
) {
    let mut i = lo;
    while i < hi {
        let Some(gap) = skip(rng.next_u64() >> 11, hi - i) else {
            break;
        };
        i += gap;
        if !protect.is_some_and(|p| p.get(i)) {
            words[(i - lo) / 64] ^= 1u64 << (i % 64);
        }
        i += 1;
    }
}

/// `2⁵³`: draws are `x ∈ [0, 2⁵³)`, the uniform `u = x·2⁻⁵³`.
const UNIT: u64 = 1 << 53;

/// The gap function as a float, computed exactly as the stream defines it:
/// `ln(1 − x·2⁻⁵³) / ln(1 − ε)` with `denom = ln(1 − ε)`. Geometric(ε) on
/// {0, 1, 2, …} once floored: the number of unflipped bits before the next
/// flip.
fn gap_formula(x: u64, denom: f64) -> f64 {
    let u = x as f64 * (1.0 / UNIT as f64);
    (1.0 - u).ln() / denom
}

/// One draw of the pass by the formula: the gap if it is below `rest`,
/// `None` to stop. `rest` is an integer, so comparing the float gap with
/// it decides `⌊gap⌋ ≥ rest`.
fn formula_skip(x: u64, denom: f64, rest: usize) -> Option<usize> {
    let gap = gap_formula(x, denom);
    if gap >= rest as f64 {
        None
    } else {
        Some(gap as usize)
    }
}

/// Half-width of the band around each threshold inside which a draw is
/// answered by the formula, so exactness does not depend on `ln` being
/// monotone there.
const GUARD: u64 = 64;

/// Most thresholds one table holds.
const MAX_THRESHOLDS: usize = 1024;

/// The table stops where `P(gap ≥ K) = (1 − ε)^K` falls to about
/// `2^-TAIL_LOG2`.
const TAIL_LOG2: f64 = 20.0;

/// Rates memoized per process; a process that uses more rates answers
/// the rest by the formula.
const MEMO_SLOTS: usize = 64;

/// An exact, mostly `ln`-free evaluation of the gap function `G` for one
/// rate.
///
/// `thresholds[k]` is the smallest `x` with `G(x) ≥ k` for `k ∈ 0..=K`,
/// followed by a `u64::MAX` sentinel. The index buckets draws by
/// `z = 2⁵³ − x`: one row per `⌊log₂ z⌋` from `base` up to 53, split by
/// the next `bits` bits of `z`, with every smaller `z` (all of them past
/// the last threshold) folded into row `base`. `start[b]` is the largest
/// `k` whose threshold lies at or below every `x` of bucket `b`, so a draw
/// costs one index load plus a short walk up the thresholds. `bits` grows
/// as the rate falls (6 at ε ≥ 1/64, up to 12) so a bucket holds about
/// one threshold.
#[derive(Debug)]
struct GapSampler {
    key: u64,
    denom: f64,
    thresholds: Vec<u64>,
    base: u32,
    bits: u32,
    start: Vec<u16>,
}

impl GapSampler {
    /// The process-wide sampler for `epsilon`, built on first use; `None`
    /// once [`MEMO_SLOTS`] other rates hold every slot. The caller keeps
    /// `epsilon` in `(0, 1)` and rules out rates that flip nothing.
    fn cached(epsilon: f64) -> Option<&'static GapSampler> {
        static MEMO: [OnceLock<GapSampler>; MEMO_SLOTS] = [const { OnceLock::new() }; MEMO_SLOTS];
        let key = epsilon.to_bits();
        MEMO.iter()
            .map(|slot| slot.get_or_init(|| GapSampler::new(epsilon)))
            .find(|sampler| sampler.key == key)
    }

    /// Builds the table for a rate `ε < 1` with `1 − ε ≠ 1`, so that
    /// `ln(1 − ε)` is finite and negative. Each threshold costs a few `ln`
    /// calls: a gallop from the analytic guess `(1 − (1 − ε)^k)·2⁵³`, then
    /// a bisection against the formula.
    fn new(epsilon: f64) -> Self {
        let denom = (1.0 - epsilon).ln();
        debug_assert!(denom < 0.0 && denom.is_finite(), "ε = {epsilon}");
        let len = (TAIL_LOG2 * std::f64::consts::LN_2 / -denom).ceil() as usize;
        let mut thresholds = vec![0];
        for k in 1..=len.clamp(1, MAX_THRESHOLDS) {
            let Some(t) = threshold(k, denom) else { break };
            thresholds.push(t);
        }
        Self::with_thresholds(epsilon, thresholds)
    }

    /// Indexes `thresholds` (`thresholds[0] = 0`, then non-decreasing) and
    /// appends the sentinel.
    fn with_thresholds(epsilon: f64, mut thresholds: Vec<u64>) -> Self {
        let denom = (1.0 - epsilon).ln();
        // Bucket width ≈ the z-ratio 1 − ε between thresholds.
        let bits = (-(-denom).log2()).ceil().clamp(6.0, 12.0) as u32;
        let z_tail = UNIT - thresholds[thresholds.len() - 1];
        let base = (63 - z_tail.leading_zeros()).saturating_sub(1).max(bits);
        thresholds.push(u64::MAX);
        let start = (0..(54 - base) << bits)
            .map(|b| {
                let (e, m) = (base + (b >> bits), u64::from(b) & ((1 << bits) - 1));
                // The largest z with this key (row `base` also holds every
                // smaller z, all of which have larger x).
                let z_max = ((((1 << bits) + m + 1) << (e - bits)) - 1).min(UNIT);
                let x_min = UNIT - z_max;
                (thresholds.partition_point(|&t| t <= x_min) - 1) as u16
            })
            .collect();
        GapSampler {
            key: epsilon.to_bits(),
            denom,
            thresholds,
            base,
            bits,
            start,
        }
    }

    /// `K`, the index of the last threshold.
    fn last(&self) -> usize {
        self.thresholds.len() - 2
    }

    /// Exactly [`formula_skip`]`(x, ln(1 − ε), rest)`.
    #[inline]
    fn skip(&self, x: u64, rest: usize) -> Option<usize> {
        let t = &self.thresholds;
        let z = UNIT - x;
        let e = (63 - z.leading_zeros()).max(self.base);
        let bucket = (((e - self.base) << self.bits) as usize)
            | ((z >> (e - self.bits)) as usize & ((1 << self.bits) - 1));
        let mut k = usize::from(self.start[bucket]);
        while x >= t[k + 1] {
            k += 1;
        }
        // Now t[k] ≤ x < t[k + 1]: G(x) = k below the last threshold,
        // G(x) ≥ K at or past it.
        if x - t[k] >= GUARD && t[k + 1] - x > GUARD {
            if k >= rest {
                return None;
            }
            if k < self.last() {
                return Some(k);
            }
        }
        formula_skip(x, self.denom, rest)
    }
}

/// The smallest `x < 2⁵³` with `G(x) ≥ k` (`k ≥ 1`), or `None` when even
/// the largest draw falls short of `k`.
fn threshold(k: usize, denom: f64) -> Option<u64> {
    let reaches = |x: u64| gap_formula(x, denom) >= k as f64;
    let top = UNIT - 1;
    if !reaches(top) {
        return None;
    }
    let guess = ((-(k as f64 * denom).exp_m1() * UNIT as f64) as u64).min(top);
    // Gallop to a bracket with `!reaches(below)` and `reaches(above)`;
    // G(0) = 0 < k bounds the downward gallop, `reaches(top)` the upward.
    let (mut below, mut above);
    let mut step = 1;
    if reaches(guess) {
        above = guess;
        loop {
            below = above.saturating_sub(step);
            if !reaches(below) {
                break;
            }
            above = below;
            step *= 2;
        }
    } else {
        below = guess;
        loop {
            above = (below + step).min(top);
            if reaches(above) {
                break;
            }
            below = above;
            step *= 2;
        }
    }
    while above - below > 1 {
        let mid = below + (above - below) / 2;
        if reaches(mid) {
            above = mid;
        } else {
            below = mid;
        }
    }
    Some(above)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(Noise::Noiseless.apply(true, &mut rng));
            assert!(!Noise::Noiseless.apply(false, &mut rng));
        }
        assert_eq!(Noise::Noiseless.epsilon(), 0.0);
    }

    #[test]
    fn bernoulli_flip_rate_is_close_to_epsilon() {
        let mut rng = StdRng::seed_from_u64(2);
        let noise = Noise::bernoulli(0.2);
        let flips = (0..20_000).filter(|_| noise.apply(false, &mut rng)).count();
        assert!((3500..=4500).contains(&flips), "flips = {flips}");
        assert_eq!(noise.epsilon(), 0.2);
    }

    #[test]
    fn bernoulli_is_symmetric_across_bit_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let noise = Noise::bernoulli(0.3);
        let zeros_flipped = (0..20_000).filter(|_| noise.apply(false, &mut rng)).count();
        let ones_flipped = (0..20_000).filter(|_| !noise.apply(true, &mut rng)).count();
        let diff = (zeros_flipped as i64 - ones_flipped as i64).abs();
        assert!(diff < 600, "asymmetry {zeros_flipped} vs {ones_flipped}");
    }

    #[test]
    #[should_panic(expected = "outside (0, 1/2)")]
    fn epsilon_zero_rejected() {
        let _ = Noise::bernoulli(0.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1/2)")]
    fn epsilon_half_rejected() {
        let _ = Noise::bernoulli(0.5);
    }

    #[test]
    fn try_bernoulli_validates_without_panicking() {
        assert_eq!(Noise::try_bernoulli(0.25), Ok(Noise::Bernoulli(0.25)));
        for bad in [0.0, 0.5, 1.0, -0.1, f64::NAN] {
            let err = Noise::try_bernoulli(bad).unwrap_err();
            assert!(matches!(err, NetError::InvalidNoise { .. }), "ε = {bad}");
        }
    }

    #[test]
    fn batched_flip_rate_matches_epsilon() {
        // Statistical contract of the geometric-skip sampler: the per-bit
        // flip marginal is ε, within binomial tolerance.
        let mut rng = StdRng::seed_from_u64(4);
        for eps in [0.05, 0.2, 0.45] {
            let noise = Noise::bernoulli(eps);
            let n = 40_000;
            let mut bits = BitVec::zeros(n);
            noise.apply_frame(&mut bits, None, &mut rng);
            let rate = bits.count_ones() as f64 / n as f64;
            let sigma = (eps * (1.0 - eps) / n as f64).sqrt();
            assert!(
                (rate - eps).abs() < 5.0 * sigma,
                "ε = {eps}: measured {rate}"
            );
        }
    }

    #[test]
    fn batched_flips_are_position_uniform() {
        // Every position must be flippable — guards against off-by-one in
        // the gap arithmetic (first and last bit included).
        let mut rng = StdRng::seed_from_u64(5);
        let noise = Noise::bernoulli(0.3);
        let n = 64;
        let mut seen = vec![0usize; n];
        for _ in 0..2_000 {
            let mut bits = BitVec::zeros(n);
            noise.apply_frame(&mut bits, None, &mut rng);
            for i in bits.iter_ones() {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "positions never flipped: {:?}",
            seen.iter().enumerate().filter(|(_, &c)| c == 0).count()
        );
        // First and last position flip at rate ≈ ε like any other.
        for &edge in &[0, n - 1] {
            let rate = seen[edge] as f64 / 2_000.0;
            assert!((rate - 0.3).abs() < 0.06, "position {edge}: rate {rate}");
        }
    }

    #[test]
    fn protected_positions_never_flip() {
        let mut rng = StdRng::seed_from_u64(6);
        let noise = Noise::bernoulli(0.45);
        let n = 500;
        let protect = BitVec::from_fn(n, |i| i % 3 == 0);
        let mut bits = BitVec::zeros(n);
        for _ in 0..50 {
            noise.apply_frame(&mut bits, Some(&protect), &mut rng);
            assert!(!bits.intersects(&protect), "a protected bit flipped");
            bits.clear();
        }
    }

    #[test]
    fn stream_seed_separates_round_and_shard() {
        // The swapped-pair collision a plain XOR would have: (round, shard)
        // and (shard, round) must key different streams.
        assert_ne!(noise_stream_seed(7, 1, 3), noise_stream_seed(7, 3, 1));
        assert_ne!(noise_stream_seed(7, 0, 1), noise_stream_seed(7, 1, 0));
        // And the key is a pure function of its inputs.
        assert_eq!(noise_stream_seed(7, 2, 5), noise_stream_seed(7, 2, 5));
    }

    #[test]
    fn apply_to_words_stays_inside_its_range() {
        // Flips land only in [lo, hi) even though the slice has headroom.
        let noise = Noise::bernoulli(0.45);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let mut bits = BitVec::zeros(256);
            let (lo, hi) = (64, 140);
            let words = &mut bits.as_words_mut()[lo / 64..];
            noise.apply_to_words(words, lo, hi, None, &mut rng);
            for i in bits.iter_ones() {
                assert!((lo..hi).contains(&i), "flip at {i} escaped {lo}..{hi}");
            }
        }
    }

    #[test]
    fn apply_to_words_matches_apply_frame_at_full_range() {
        // apply_frame is defined as the lo = 0, hi = len special case; the
        // two must consume the RNG stream identically.
        let noise = Noise::bernoulli(0.2);
        let mut a = BitVec::zeros(300);
        let mut b = BitVec::zeros(300);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        noise.apply_frame(&mut a, None, &mut rng_a);
        noise.apply_to_words(b.as_words_mut(), 0, 300, None, &mut rng_b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn apply_to_words_rejects_unaligned_start() {
        let mut words = [0u64; 2];
        let mut rng = StdRng::seed_from_u64(10);
        Noise::bernoulli(0.1).apply_to_words(&mut words, 3, 64, None, &mut rng);
    }

    /// Flips `Noise::Bernoulli(eps)` makes on a silent 128-node cycle in
    /// one engine round under network seed `seed`.
    fn phantom_beeps(eps: f64, seed: u64) -> usize {
        let graph = crate::topology::cycle(128).unwrap();
        let mut net = crate::BeepNetwork::new(graph, Noise::Bernoulli(eps), seed);
        net.run_round_bitset(&BitVec::zeros(128))
            .unwrap()
            .count_ones()
    }

    #[test]
    fn zero_rate_flips_nothing() {
        assert!(Noise::Bernoulli(0.0).is_noiseless());
        assert_eq!(phantom_beeps(0.0, 1), 0);
    }

    #[test]
    fn nan_rate_flips_nothing() {
        assert!(Noise::Bernoulli(f64::NAN).is_noiseless());
        assert_eq!(phantom_beeps(f64::NAN, 1), 0);
    }

    #[test]
    fn rate_below_the_last_ulp_flips_nothing() {
        // 1 − 1e-17 rounds to 1, so ln(1 − ε) = 0 like at ε = 0.
        assert!(Noise::Bernoulli(1e-17).is_noiseless());
        assert_eq!(phantom_beeps(1e-17, 1), 0);
    }

    #[test]
    fn rate_above_one_half_still_flips_at_its_rate() {
        assert!(!Noise::Bernoulli(0.7).is_noiseless());
        let flips: usize = (0..20).map(|seed| phantom_beeps(0.7, seed)).sum();
        let rate = flips as f64 / (20.0 * 128.0);
        assert!((rate - 0.7).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn rate_one_flips_every_bit() {
        assert!(!Noise::Bernoulli(1.0).is_noiseless());
        assert_eq!(phantom_beeps(1.0, 1), 128);
    }

    /// The rates the gap table is checked at: a truncated table (1e-4,
    /// 0.01), the workloads' rates, and rates at and above ½.
    const EXACTNESS_RATES: [f64; 8] = [1e-4, 0.01, 0.05, 0.1, 0.2, 0.3, 0.49, 0.7];

    /// Every draw within `W` of a threshold is checked: twice the guard
    /// band, so both its inside and the fast path next to it are covered.
    const W: u64 = 128;

    /// How far the skewed table moves a threshold: half the guard band.
    const SKEW: u64 = 32;

    /// Asserts the sampler answers exactly as the formula for draw `x`,
    /// across remaining ranges inside, at the edge of, and past the table.
    fn assert_exact(sampler: &GapSampler, eps: f64, x: u64) {
        let denom = (1.0 - eps).ln();
        let last = sampler.last();
        for rest in [1, 2, 5, 64, last, last + 1, last + 64, 1 << 40] {
            assert_eq!(
                sampler.skip(x, rest),
                formula_skip(x, denom, rest),
                "ε = {eps}, x = {x}, rest = {rest}"
            );
        }
    }

    #[test]
    fn gap_thresholds_are_where_the_formula_steps() {
        for eps in EXACTNESS_RATES {
            let sampler = GapSampler::new(eps);
            let denom = (1.0 - eps).ln();
            let t = &sampler.thresholds;
            let last = sampler.last();
            assert!((1..=MAX_THRESHOLDS).contains(&last), "ε = {eps}: {last}");
            if last < MAX_THRESHOLDS {
                // The table reaches the tail it promises.
                assert!((1.0 - eps).powi(last as i32) <= 2f64.powi(-19), "ε = {eps}");
            }
            assert_eq!(t[0], 0);
            assert_eq!(t[last + 1], u64::MAX);
            for k in 1..=last {
                let kf = k as f64;
                assert!(gap_formula(t[k], denom) >= kf, "ε = {eps}, k = {k}");
                assert!(gap_formula(t[k] - 1, denom) < kf, "ε = {eps}, k = {k}");
                assert!(t[k - 1] < t[k], "ε = {eps}, k = {k}");
            }
        }
    }

    #[test]
    fn gap_sampler_matches_the_formula_on_random_draws() {
        let mut rng = StdRng::seed_from_u64(11);
        for eps in EXACTNESS_RATES {
            let sampler = GapSampler::new(eps);
            for _ in 0..100_000 {
                assert_exact(&sampler, eps, rng.next_u64() >> 11);
            }
        }
    }

    #[test]
    fn gap_sampler_matches_the_formula_around_every_threshold() {
        for eps in EXACTNESS_RATES {
            let sampler = GapSampler::new(eps);
            for &t in &sampler.thresholds[1..=sampler.last()] {
                for x in t - W..=(t + W).min(UNIT - 1) {
                    assert_exact(&sampler, eps, x);
                }
            }
        }
    }

    #[test]
    fn gap_sampler_matches_the_formula_past_the_table() {
        // Draws at or past the last threshold: `rest` ≤ K breaks without
        // `ln`, `rest` > K takes the formula; `assert_exact` covers both.
        let mut rng = StdRng::seed_from_u64(12);
        for eps in EXACTNESS_RATES {
            let sampler = GapSampler::new(eps);
            let tail = sampler.thresholds[sampler.last()];
            for x in (UNIT - W..UNIT).chain(tail - W..tail + W) {
                assert_exact(&sampler, eps, x);
            }
            for _ in 0..20_000 {
                assert_exact(&sampler, eps, rng.random_range(tail..UNIT));
            }
        }
    }

    #[test]
    fn gap_guard_band_absorbs_threshold_error() {
        // Thresholds off by up to SKEW either way (what a non-monotone
        // `ln` could cost) must not change a single answer.
        for eps in EXACTNESS_RATES {
            let exact = GapSampler::new(eps);
            let last = exact.last();
            let skewed: Vec<u64> = (0..=last)
                .map(|k| match k % 3 {
                    _ if k == 0 => 0,
                    0 => exact.thresholds[k] - SKEW,
                    1 => exact.thresholds[k] + SKEW,
                    _ => exact.thresholds[k] + 1,
                })
                .collect();
            let sampler = GapSampler::with_thresholds(eps, skewed);
            for &t in &exact.thresholds[1..=last] {
                for x in t - W..=(t + W).min(UNIT - 1) {
                    assert_exact(&sampler, eps, x);
                }
            }
        }
    }

    /// The pass straight from the stream's definition, one `ln` per draw:
    /// the reference the table-driven pass must reproduce bit for bit.
    fn ln_pass(eps: f64, words: &mut [u64], hi: usize, rng: &mut StdRng) {
        let denom = (1.0 - eps).ln();
        let mut i = 0;
        while i < hi {
            let u: f64 = rng.random();
            let gap = (1.0 - u).ln() / denom;
            if gap >= (hi - i) as f64 {
                break;
            }
            i += gap as usize;
            words[i / 64] ^= 1u64 << (i % 64);
            i += 1;
        }
    }

    #[test]
    fn gap_table_pass_reproduces_the_ln_pass() {
        for eps in EXACTNESS_RATES {
            for (seed, n) in [(1u64, 64usize), (2, 300), (3, 4096)] {
                let mut expected = BitVec::zeros(n);
                let mut rng = StdRng::seed_from_u64(seed);
                ln_pass(eps, expected.as_words_mut(), n, &mut rng);
                let mut bits = BitVec::zeros(n);
                let mut rng_b = StdRng::seed_from_u64(seed);
                Noise::Bernoulli(eps).apply_frame(&mut bits, None, &mut rng_b);
                assert_eq!(bits, expected, "ε = {eps}, n = {n}");
                // The same number of draws: the streams end in step.
                assert_eq!(rng.next_u64(), rng_b.next_u64(), "ε = {eps}, n = {n}");
            }
        }
    }

    #[test]
    fn noiseless_apply_frame_is_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut bits = BitVec::from_fn(100, |i| i % 7 == 0);
        let before = bits.clone();
        Noise::Noiseless.apply_frame(&mut bits, None, &mut rng);
        assert_eq!(bits, before);
    }
}
