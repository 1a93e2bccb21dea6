//! Input generation. Every workload draws its data and its statement
//! stream from a [`Rng`] seeded by `--seed`, and every expected result is
//! computed here, from the generator, never from the engine under test.

/// SplitMix64: small, fast, and identical on every platform, so one seed
/// gives the same inputs everywhere.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1A4_F00D)
    }

    /// An independent stream for one purpose of one workload.
    pub fn fork(&self, salt: u64) -> Rng {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// A random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Zipf-distributed ranks over `0..n`: rank `r` has weight `1/(r+1)^s`.
/// Sampling is a binary search over the precomputed cumulative weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                total += 1.0 / (r as f64).powf(s);
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit() * self.cdf[self.cdf.len() - 1];
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }
}

/// A padding string of `len` characters that varies with `n`, so stored
/// tuples do not compress to one repeated image.
pub fn pad(n: u64, len: usize) -> String {
    let digits = format!("{n:020}");
    digits.chars().cycle().take(len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let low = draws.iter().filter(|&&r| r < 10).count();
        assert!(low > 2_000, "ranks 0..10 drew {low} of 10000");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = Rng::new(3).permutation(500);
        p.sort_unstable();
        assert_eq!(p, (0..500).collect::<Vec<u64>>());
    }
}
