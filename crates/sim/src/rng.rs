//! Deterministic pseudo-random number generation for the simulator.
//!
//! Experiment reproducibility must not depend on an external crate's
//! version-to-version stream changes, so the simulator carries its own
//! small, well-known generators: [`SplitMix64`] (used for seeding) and
//! [`Xoshiro256StarStar`] (the workhorse). Both follow the public-domain
//! reference implementations by Blackman & Vigna; the unit tests pin the
//! reference output vectors so any drift is caught immediately.
//!
//! The paper's protocols need only unbiased coin flips
//! ([`Rng::coin`]); the richer methods serve workload generation and the
//! Monte-Carlo harness.

/// Minimal RNG interface used throughout the workspace.
pub trait Rng {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// An unbiased coin flip: `true` with probability 1/2.
    ///
    /// This is the only randomness the paper's protocols consume ("flip an
    /// unbiased coin").
    fn coin(&mut self) -> bool {
        // Use the high bit; low bits of some generators are weaker.
        self.next_u64() >> 63 == 1
    }

    /// Uniform value in `0..bound` via Lemire-style rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Rejection sampling on the top range to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Picks an index into a non-empty slice of integer weights,
    /// proportionally to weight.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty or sum to zero.
    fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "weights must sum to a positive value");
        let mut x = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            let w = u64::from(w);
            if x < w {
                return i;
            }
            x -= w;
        }
        unreachable!("weighted pick fell through")
    }
}

/// SplitMix64: a tiny, fast generator used to expand seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The generator's state after `n` draws from `SplitMix64::new(seed)`,
    /// computed in O(1).
    ///
    /// Each draw advances the internal state by the golden-ratio increment
    /// and only then mixes, so the state after `n` draws is a single
    /// multiply-add away from the seed. This is what lets the parallel sweep
    /// hand any trial its own derived stream without replaying the trials
    /// before it.
    #[inline]
    pub fn jump(seed: u64, n: u64) -> Self {
        SplitMix64 {
            state: seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** 1.0 — the simulator's default generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates the generator from a 64-bit seed, expanding it with
    /// [`SplitMix64`] as the xoshiro authors recommend.
    #[inline]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar { s }
    }

    /// Creates the generator from a full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (a fixed point of the generator).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be non-zero");
        Xoshiro256StarStar { s }
    }

    /// Forks an independent generator (seeded from this one's stream), for
    /// per-thread or per-process randomness.
    pub fn fork(&mut self) -> Self {
        let seed = self.next_u64();
        Xoshiro256StarStar::new(seed)
    }

    /// The `index`-th generator in the family derived from `root_seed`,
    /// in O(1).
    ///
    /// Equivalent to seeding a [`SplitMix64`] with `root_seed` and taking
    /// its `index`-th fork — i.e. `Xoshiro256StarStar::new` on the
    /// `index + 1`-th SplitMix64 output — but without replaying the stream,
    /// thanks to [`SplitMix64::jump`]. The parallel sweep uses this so a
    /// trial's randomness depends only on `(root_seed, index)`, never on
    /// which worker thread runs it or in what order.
    pub fn stream(root_seed: u64, index: u64) -> Self {
        let mut sm = SplitMix64::jump(root_seed, index);
        Xoshiro256StarStar::new(sm.next_u64())
    }
}

impl Rng for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A scripted "RNG" that plays back fixed coin outcomes — used by tests to
/// drive a randomized protocol down a chosen branch.
///
/// `next_u64` yields all-ones for a scripted `true` and zero for `false`, so
/// both [`Rng::coin`] and small [`Rng::weighted`] picks are steerable.
/// Panics if the script runs dry, making under-specified tests loud.
#[derive(Debug, Clone)]
pub struct ScriptedCoins {
    script: Vec<bool>,
    next: usize,
}

impl ScriptedCoins {
    /// Creates the playback source.
    pub fn new(script: impl IntoIterator<Item = bool>) -> Self {
        ScriptedCoins {
            script: script.into_iter().collect(),
            next: 0,
        }
    }

    /// How many outcomes have been consumed.
    pub fn consumed(&self) -> usize {
        self.next
    }
}

impl Rng for ScriptedCoins {
    fn next_u64(&mut self) -> u64 {
        let b = *self
            .script
            .get(self.next)
            .expect("ScriptedCoins ran out of outcomes");
        self.next += 1;
        if b {
            u64::MAX
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference outputs for seed 1234567 (from the public-domain
        // splitmix64.c reference implementation).
        let mut r = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn xoshiro_matches_reference_vector() {
        // Reference outputs of xoshiro256** for state [1,2,3,4]
        // (from the reference implementation).
        let mut r = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
        let got: Vec<u64> = (0..5).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                11520,
                0,
                1509978240,
                1215971899390074240,
                1216172134540287360
            ]
        );
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut r = Xoshiro256StarStar::new(42);
        let heads = (0..100_000).filter(|_| r.coin()).count();
        assert!((45_000..55_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Xoshiro256StarStar::new(7);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn weighted_respects_weights() {
        let mut r = Xoshiro256StarStar::new(9);
        let mut counts = [0u32; 3];
        for _ in 0..90_000 {
            counts[r.weighted(&[1, 2, 0])] += 1;
        }
        assert_eq!(counts[2], 0);
        assert!(counts[1] > counts[0]);
        let ratio = f64::from(counts[1]) / f64::from(counts[0]);
        assert!((1.8..2.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn jump_matches_sequential_draws() {
        for n in [0u64, 1, 2, 17, 1000] {
            let mut seq = SplitMix64::new(987);
            for _ in 0..n {
                seq.next_u64();
            }
            assert_eq!(SplitMix64::jump(987, n), seq, "n = {n}");
        }
    }

    #[test]
    fn stream_matches_splitmix_fork_chain() {
        let mut parent = SplitMix64::new(31337);
        for index in 0..20 {
            let forked = Xoshiro256StarStar::new(parent.next_u64());
            assert_eq!(
                Xoshiro256StarStar::stream(31337, index),
                forked,
                "index = {index}"
            );
        }
    }

    #[test]
    fn streams_are_pairwise_distinct() {
        let mut outputs: Vec<u64> = (0..100)
            .map(|i| Xoshiro256StarStar::stream(5, i).next_u64())
            .collect();
        outputs.sort_unstable();
        outputs.dedup();
        assert_eq!(outputs.len(), 100);
    }

    #[test]
    fn forked_generators_diverge() {
        let mut a = Xoshiro256StarStar::new(5);
        let mut b = a.fork();
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256StarStar::new(99);
        let mut b = Xoshiro256StarStar::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn scripted_coins_play_back() {
        let mut c = ScriptedCoins::new([true, false, true]);
        assert!(c.coin());
        assert!(!c.coin());
        assert!(c.coin());
        assert_eq!(c.consumed(), 3);
    }

    #[test]
    #[should_panic(expected = "ran out")]
    fn scripted_coins_panic_when_exhausted() {
        let mut c = ScriptedCoins::new([true]);
        c.coin();
        c.coin();
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_bound_panics() {
        let mut r = SplitMix64::new(0);
        r.below(0);
    }
}
