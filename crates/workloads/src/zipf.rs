//! A Zipf-distributed sampler over `0..n`.
//!
//! Used by the hot/cold archetypes: media and graphics codes touch a small
//! popular region very often and a long tail rarely, which is exactly the
//! behaviour frequency-based replacement exploits.

use rand::Rng;

/// Samples ranks from a Zipf distribution with exponent `s` over `n`
/// items, by inversion of a precomputed CDF (exact).
///
/// A guide table over `[0, 1)` in `n.next_power_of_two()` equal buckets
/// holds, per bucket edge, the first rank whose CDF value reaches it, so a
/// draw searches only the ranks whose CDF crosses its own bucket — the
/// same rank a search of the whole CDF returns, in O(1) expected time.
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use workloads::Zipf;
///
/// let z = Zipf::new(1000, 1.0);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut first = 0u32;
/// for _ in 0..10_000 {
///     if z.sample(&mut rng) == 0 {
///         first += 1;
///     }
/// }
/// // Rank 0 receives ~1/H(1000) ~ 13% of samples.
/// assert!(first > 800, "rank 0 sampled {first} times");
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]`: the first rank whose CDF value is `>= b / buckets`, for
    /// `b` in `0..=buckets` (`n` where none is).
    guide: Vec<u32>,
    /// Number of guide buckets, a power of two (so `u * buckets` is exact).
    buckets: f64,
}

impl Zipf {
    /// Builds the sampler for `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or above `u32::MAX`, or `s` is negative/NaN.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(
            u32::try_from(n).is_ok(),
            "Zipf supports at most 2^32-1 items"
        );
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Edge `b / buckets <= c` exactly when `b <= ⌊c · buckets⌋` (the
        // power-of-two scale is exact), so rank `r` is the first rank of
        // every edge up to `⌊cdf[r] · buckets⌋` not claimed by a lower rank
        // (the CDF is non-decreasing).
        let buckets = n.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets + 1);
        for (rank, &c) in cdf.iter().enumerate() {
            let last = ((c * buckets as f64) as usize).min(buckets);
            if guide.len() <= last {
                guide.resize(last + 1, rank as u32);
            }
        }
        guide.resize(buckets + 1, n as u32);
        Zipf {
            cdf,
            guide,
            buckets: buckets as f64,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler covers zero items (never true — see `new`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The rank a uniform variate `u` in `[0, 1)` maps to: the first rank
    /// whose CDF value is `>= u` (the last rank if none is).
    ///
    /// `u`'s bucket `b = ⌊u · buckets⌋` has edges `b / buckets <= u <
    /// (b + 1) / buckets` (exact: a power-of-two scale), so that rank lies
    /// in `guide[b]..=guide[b + 1]`, and searching only that range finds it.
    fn rank(&self, u: f64) -> usize {
        let b = ((u * self.buckets) as usize).min(self.guide.len() - 2);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)).min(self.cdf.len() - 1)
    }

    /// Draws one rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank(rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn guide_table_equals_a_full_search() {
        let shapes = [
            (1, 2.0),
            (3, 5.0),
            (4, 0.0),
            (5, 0.0),
            (256, 1.4),
            (1000, 1.0),
            (4096, 0.9),
            (6144, 1.0),
        ];
        let mut rng = SmallRng::seed_from_u64(8);
        for (n, s) in shapes {
            let z = Zipf::new(n, s);
            let cdf = &z.cdf;
            let full = |u: f64| cdf.partition_point(|&c| c < u).min(n - 1);
            let below_one = [1.0 - f64::EPSILON / 2.0, 1.0 - f64::EPSILON, 1.0 - 1e-12];
            let at_cdf = cdf.iter().flat_map(|&c| {
                [
                    c,
                    f64::from_bits(c.to_bits() - 1),
                    f64::from_bits(c.to_bits() + 1),
                ]
            });
            let edges = (0..=64).map(|b| b as f64 / 64.0);
            // `gen::<f64>()`'s variates: the top 53 bits of a word.
            let random: Vec<f64> = (0..20_000)
                .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
                .collect();
            let us = [0.0]
                .into_iter()
                .chain(below_one)
                .chain(at_cdf)
                .chain(edges)
                .chain(random)
                .filter(|u| (0.0..1.0).contains(u));
            for u in us {
                assert_eq!(z.rank(u), full(u), "n {n} s {s} u {u:e}");
            }
        }
    }

    #[test]
    fn ranks_in_range() {
        let z = Zipf::new(50, 1.2);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn popularity_is_monotone() {
        let z = Zipf::new(20, 1.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 20];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts[1] > counts[10]);
        assert!(counts[2] > counts[19]);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut counts = [0u32; 4];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 25_000.0).abs() < 1500.0, "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn single_item_always_zero() {
        let z = Zipf::new(1, 2.0);
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(!z.is_empty());
        assert_eq!(z.len(), 1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }
}
