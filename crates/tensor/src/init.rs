//! Random initialisation. Every stochastic component in the workspace is
//! seeded through [`TensorRng`] so that experiments are reproducible.

use crate::Tensor;

/// SplitMix64's increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 step of `x`: a well-mixed `u64` per input. The workspace
/// derives independent RNG streams with it — one seed per `(seed, domain,
/// index)` tuple instead of sequential state shared across logical streams
/// (epoch shuffles, per-bag dropout, synthetic corpora).
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seedable random source for tensor initialisation and sampling.
///
/// Self-contained xoshiro256** generator (Blackman & Vigna) seeded through
/// SplitMix64, so the workspace carries no external RNG dependency and every
/// stochastic component draws from one reproducible stream. A clone
/// replays the same stream from the point it was taken.
#[derive(Clone)]
pub struct TensorRng {
    state: [u64; 4],
}

impl TensorRng {
    /// Creates a deterministic RNG from a seed.
    pub fn seed(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into four non-zero words.
        let word = |i: u64| mix64(seed.wrapping_add(i.wrapping_mul(GOLDEN_GAMMA)));
        TensorRng {
            state: [word(0), word(1), word(2), word(3)],
        }
    }

    /// Next raw 64-bit output (xoshiro256**).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.f32() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// If `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "TensorRng::below: empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal sample (Box–Muller; no extra dependency needed).
    pub fn normal(&mut self) -> f32 {
        // Box–Muller transform from two uniforms in (0, 1].
        let u1: f32 = 1.0 - self.f32();
        let u2: f32 = self.f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.f32() < p
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        // 24 high-quality bits → the full f32 mantissa range in [0, 1).
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `u64`.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

impl Tensor {
    /// Tensor with i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut TensorRng) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.uniform(lo, hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// Tensor with i.i.d. normal entries, mean 0 and the given std-dev.
    pub fn rand_normal(shape: &[usize], std: f32, rng: &mut TensorRng) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.normal() * std).collect();
        Tensor::from_vec(data, shape)
    }

    /// Xavier/Glorot uniform initialisation for a `[fan_in, fan_out]` weight.
    ///
    /// Entries are uniform in `±sqrt(6 / (fan_in + fan_out))` — the standard
    /// initialisation the paper's stack (and most CNN/RNN RE models) uses.
    pub fn xavier(fan_in: usize, fan_out: usize, rng: &mut TensorRng) -> Tensor {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Tensor::rand_uniform(&[fan_in, fan_out], -bound, bound, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = TensorRng::seed(7);
        let mut b = TensorRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::seed(1);
        let mut b = TensorRng::seed(2);
        assert_ne!(a.u64(), b.u64());
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = TensorRng::seed(3);
        let t = Tensor::rand_uniform(&[100], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = TensorRng::seed(11);
        let t = Tensor::rand_normal(&[20_000], 2.0, &mut rng);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn xavier_bound() {
        let mut rng = TensorRng::seed(5);
        let w = Tensor::xavier(30, 50, &mut rng);
        let bound = (6.0f32 / 80.0).sqrt();
        assert_eq!(w.shape(), &[30, 50]);
        assert!(w.data().iter().all(|&x| x.abs() <= bound));
        // not degenerate
        assert!(w.data().iter().any(|&x| x.abs() > bound * 0.5));
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = TensorRng::seed(13);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((hits as f32 / 10_000.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = TensorRng::seed(17);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..50).collect::<Vec<_>>(),
            "shuffle left slice in order (astronomically unlikely)"
        );
    }

    #[test]
    fn below_in_range() {
        let mut rng = TensorRng::seed(9);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}
