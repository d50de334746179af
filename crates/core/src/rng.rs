//! Deterministic random-number plumbing.
//!
//! Every stochastic component in the workspace (fading draws, sensor noise,
//! traffic arrivals, weight initialization) takes an explicit RNG so that
//! experiments are reproducible bit-for-bit from a seed. [`SeedRng`] is a
//! small, fast, splittable PCG-XSH-RR 64/32 generator implemented in-house
//! so the workspace does not depend on `rand`'s optional `small_rng`
//! feature; it also implements [`rand::RngCore`] for interoperability.
//!
//! Distribution helpers (normal, exponential, Poisson) live here as methods
//! because `rand_distr` is outside the approved dependency set.

use rand::RngCore;

const PCG_MULT: u64 = 6364136223846793005;

/// A deterministic, seedable, splittable PCG32 random-number generator.
///
/// # Example
///
/// ```
/// use zeiot_core::rng::SeedRng;
/// let mut a = SeedRng::new(42);
/// let mut b = SeedRng::new(42);
/// assert_eq!(a.uniform(), b.uniform());  // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedRng {
    state: u64,
    inc: u64,
}

impl SeedRng {
    /// Creates a generator from a seed, using the default stream.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0xda3e39cb94b95bdb)
    }

    /// Creates a generator from a seed on a specific stream; generators with
    /// the same seed but different streams produce independent sequences.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.step();
        rng.state = rng.state.wrapping_add(seed);
        rng.step();
        rng
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated device its own stream while keeping one master seed.
    pub fn split(&mut self) -> Self {
        let seed = self.next_u64();
        let stream = self.next_u64();
        Self::with_stream(seed, stream)
    }

    /// The generator for sweep point `index` of a run seeded with
    /// `master`. Unlike [`SeedRng::split`] this is a pure function of
    /// `(master, index)` — it consumes no state from any other generator —
    /// so every sweep point gets the same stream no matter which thread
    /// evaluates it or in what order. This is the primitive behind the
    /// bench harness's thread-count-invariant parallel sweeps.
    ///
    /// # Example
    ///
    /// ```
    /// use zeiot_core::rng::SeedRng;
    /// let mut early = SeedRng::for_point(42, 3);
    /// let mut late = SeedRng::for_point(42, 3);
    /// assert_eq!(early.uniform(), late.uniform());
    /// assert_ne!(
    ///     SeedRng::for_point(42, 3).uniform(),
    ///     SeedRng::for_point(42, 4).uniform(),
    /// );
    /// ```
    pub fn for_point(master: u64, index: u64) -> Self {
        // Two splitmix64 finalizations decorrelate consecutive indices and
        // give seed/stream independent diffusion of the same input.
        let base = master ^ index.wrapping_mul(0x9e3779b97f4a7c15);
        let seed = splitmix64(base);
        let stream = splitmix64(base ^ 0x6a09e667f3bcc909);
        Self::with_stream(seed, stream)
    }

    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
    }

    /// The next `u32` from the stream.
    pub fn next_u32_raw(&mut self) -> u32 {
        let old = self.state;
        self.step();
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        let hi = (self.next_u32_raw() as u64) << 21;
        let lo = (self.next_u32_raw() as u64) >> 11;
        ((hi | lo) as f64) * (1.0 / 9007199254740992.0)
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Multiply-shift rejection-free mapping is fine for simulation use.
        ((self.uniform() * n as f64) as usize).min(n - 1)
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// A standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.uniform();
            if u1 > f64::MIN_POSITIVE {
                let u2 = self.uniform();
                let r = (-2.0 * u1.ln()).sqrt();
                return r * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// A normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        mean + std_dev * self.normal()
    }

    /// An exponential sample with the given rate λ.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return -u.ln() / rate;
            }
        }
    }

    /// A Poisson sample with the given mean λ (Knuth's method for small λ,
    /// normal approximation above 30).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda > 0.0, "lambda must be positive");
        if lambda > 30.0 {
            let x = self.normal_with(lambda, lambda.sqrt());
            return x.max(0.0).round() as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len())])
        }
    }
}

/// The splitmix64 finalizer: a full-avalanche bijection on `u64`.
///
/// Exported because other deterministic derivations in the workspace
/// (sweep-point seeding here, trace-id derivation and trace sampling in
/// `zeiot-obs`) want the same well-studied mixer rather than each
/// inventing an ad-hoc hash.
///
/// # Example
///
/// ```
/// use zeiot_core::rng::splitmix64;
/// assert_eq!(splitmix64(7), splitmix64(7)); // pure function
/// assert_ne!(splitmix64(7), splitmix64(8)); // full avalanche
/// ```
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl RngCore for SeedRng {
    fn next_u32(&mut self) -> u32 {
        self.next_u32_raw()
    }

    fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32_raw() as u64;
        let lo = self.next_u32_raw() as u64;
        (hi << 32) | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let bytes = self.next_u32_raw().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeedRng::new(7);
        let mut b = SeedRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeedRng::new(1);
        let mut b = SeedRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = SeedRng::new(99);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn for_point_is_a_pure_function_of_master_and_index() {
        let mut a = SeedRng::for_point(7, 2);
        // Deriving other points in between must not disturb point 2.
        let _ = SeedRng::for_point(7, 0).next_u64();
        let _ = SeedRng::for_point(7, 1).next_u64();
        let mut b = SeedRng::for_point(7, 2);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn for_point_streams_are_mutually_independent() {
        for (i, j) in [(0u64, 1u64), (1, 2), (0, 63), (500, 501)] {
            let mut a = SeedRng::for_point(99, i);
            let mut b = SeedRng::for_point(99, j);
            let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
            assert!(same < 4, "points {i} and {j} correlate");
        }
    }

    #[test]
    fn for_point_differs_across_masters() {
        let mut a = SeedRng::for_point(1, 0);
        let mut b = SeedRng::for_point(2, 0);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SeedRng::new(5);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = SeedRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SeedRng::new(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SeedRng::new(17);
        let rate = 4.0;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = SeedRng::new(19);
        for lambda in [0.5, 3.0, 50.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| rng.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda={lambda} mean={mean}"
            );
        }
    }

    #[test]
    fn below_covers_all_values() {
        let mut rng = SeedRng::new(29);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SeedRng::new(31);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SeedRng::new(37);
        let empty: &[u8] = &[];
        assert!(rng.choose(empty).is_none());
        assert!(rng.choose(&[1, 2, 3]).is_some());
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = SeedRng::new(41);
        let mut buf = [0u8; 7];
        rng.fill_bytes(&mut buf);
        // Overwhelmingly unlikely to remain all zeros.
        assert!(buf.iter().any(|&b| b != 0));
    }
}
