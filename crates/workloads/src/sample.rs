//! Exact fast paths for the generators' random draws.
//!
//! The instruction weaver takes every decision from raw xoshiro256++
//! words. Each helper here returns, for every word, exactly what the
//! straightforward `rand` expression it replaces returns, so streams are
//! bit-identical to the float formulas they used to evaluate:
//!
//! * `Words` — the generator's own word stream, drawn in bulk into a
//!   small lookahead buffer;
//! * `Coin` — `gen_bool(p)` as one precomputed integer compare;
//! * `fixed_below` — `gen::<f64>() < x` as one integer compare;
//! * [`GeomSampler`] — the geometric dependency distance without `ln`.

use rand::rngs::SmallRng;
use rand::RngCore;

/// Words held by [`Words`] (2 KB): refills are rare and run as one tight
/// loop over the xoshiro state.
const WORDS: usize = 256;

/// A lookahead buffer over a [`SmallRng`]: yields exactly the words the
/// rng would, in the same order, but lets a caller read a few words
/// ahead ([`Words::peek`]) and consume a computed number of them at once.
#[derive(Debug, Clone)]
pub(crate) struct Words {
    rng: SmallRng,
    buf: [u64; WORDS],
    pos: usize,
}

impl Words {
    pub(crate) fn new(rng: SmallRng) -> Words {
        Words {
            rng,
            buf: [0; WORDS],
            pos: WORDS,
        }
    }

    /// Makes at least `n` (≤ 256) unread words available to `peek`.
    #[inline(always)]
    pub(crate) fn reserve(&mut self, n: usize) {
        if WORDS - self.pos < n {
            self.refill();
        }
    }

    /// Moves the unread words to the front and draws the rest.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        let keep = WORDS - self.pos;
        self.buf.copy_within(self.pos.., 0);
        for w in &mut self.buf[keep..] {
            *w = self.rng.next_u64();
        }
        self.pos = 0;
    }

    /// The `i`-th unread word (`i` below the last `reserve`).
    #[inline(always)]
    pub(crate) fn peek(&self, i: usize) -> u64 {
        self.buf[self.pos + i]
    }

    /// Marks `n` peeked words as read.
    #[inline(always)]
    pub(crate) fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

impl RngCore for Words {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.reserve(1);
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }
}

/// `gen_bool(p)` on one word: true iff the word is below `p · 2^64`.
/// Like `gen_bool`, it always consumes its word, and `p ≥ 1` (`p ≤ 0`)
/// is always true (false).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Coin {
    below: u64,
    always: bool,
}

impl Coin {
    pub(crate) fn new(p: f64) -> Coin {
        Coin {
            // `gen_bool`'s own scale; NaN and p ≤ 0 give 0 (never).
            below: if p > 0.0 && p < 1.0 {
                (p * (u64::MAX as f64 + 1.0)) as u64
            } else {
                0
            },
            always: p >= 1.0,
        }
    }

    #[inline(always)]
    pub(crate) fn hit(self, word: u64) -> bool {
        (word < self.below) | self.always
    }
}

/// A fair coin: `gen_bool(0.5)` is true iff the word's top bit is clear.
#[inline(always)]
pub(crate) fn half(word: u64) -> bool {
    word < 1 << 63
}

/// The uniform `[0, 1)` variate `gen::<f64>()` makes of a word: its top
/// 53 bits, scaled (exactly) by 2^-53.
#[inline(always)]
pub(crate) fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The bound `b` with `m · 2^-bits < x ⇔ m < b` for every integer
/// `0 ≤ m < 2^bits`: a float compare of a fixed-point variate against
/// `x` as one integer compare. `unit(w) < x` is `(w >> 11) < fixed_below(x, 53)`.
///
/// Scaling by a power of two is exact, so `m · 2^-bits < x ⇔ m < x · 2^bits
/// ⇔ m < ⌈x · 2^bits⌉`. NaN and `x ≤ 0` give 0 (never); `x ≥ 1` gives
/// `2^bits` (always).
pub(crate) fn fixed_below(x: f64, bits: u32) -> u64 {
    let scale = (1u64 << bits) as f64;
    (x * scale).ceil().clamp(0.0, scale) as u64
}

/// Floor applied to the uniform variate before taking its log.
const U_MIN: f64 = 1e-12;

/// Relative half-width of the band around each threshold inside which
/// [`GeomSampler`] evaluates the float formula instead.
const GUARD: f64 = 1e-9;

/// The variate's 53-bit integer `m = w >> 11` (so `u = m · 2^-53`) at
/// and above which `u >= U_MIN`, so the floor does not apply.
const M_MIN: u64 = 9008;

/// Bucket key of 2^13, the binade just below [`M_MIN`]: the exponent and
/// top six mantissa bits of `m` as an `f64`.
const KEY_MIN: usize = (1023 + 13) << 6;

/// Buckets from 2^13 to 2^53: 40 binades of 64.
const BUCKETS: usize = 40 << 6;

/// Threshold slots: `1..=255`, then empty ones so that `k + 2` stays in
/// range for any `k <= 255` and `k + 1` for any `k <= 257`.
const T_LEN: usize = 259;

/// Per-threshold bounds on `m`, the variate's 53-bit integer.
#[derive(Debug, Clone, Copy, Default)]
struct Bound {
    /// `u <= t[j]` exactly when `m <= at_most`.
    at_most: u64,
    /// The table result `k = j` stands when `below < m < above`: `u`
    /// lies outside the guard bands of `t[j]` and `t[j + 1]`, and `u >=
    /// U_MIN`.
    above: u64,
    below: u64,
}

#[derive(Debug, Clone)]
struct Tables {
    bound: [Bound; T_LEN],
    /// Per bucket of `m`, the `k` of the bucket's top.
    start: [u8; BUCKETS],
}

/// `ln(1 - 1/mean)`, the float the formula divides by.
fn ln_q(mean: f64) -> f64 {
    (1.0 - 1.0 / mean).ln()
}

impl Tables {
    fn new(mean: f64) -> Tables {
        let ln_q = ln_q(mean);
        // t[j] = q^(j-1) by repeated multiplication: one `exp`, then one
        // rounding per step.
        let q = if ln_q < 0.0 && ln_q > f64::NEG_INFINITY {
            ln_q.exp()
        } else {
            0.0
        };
        let mut t = [0.0; T_LEN];
        t[1] = 1.0;
        for j in 2..256 {
            t[j] = t[j - 1] * q;
        }
        let scale = (1u64 << 53) as f64;
        let mut bound = [Bound::default(); T_LEN];
        for j in 1..T_LEN {
            let below = t.get(j + 1).map_or(0.0, |t| t * (1.0 + GUARD));
            bound[j] = Bound {
                // `m · 2^-53 <= t ⇔ m <= ⌊t · 2^53⌋`, exact as in `fixed_below`.
                at_most: (t[j] * scale) as u64,
                above: fixed_below(t[j] * (1.0 - GUARD), 53),
                below: ((below * scale) as u64).max(M_MIN - 1),
            };
        }
        // Merge walk: bucket tops rise, so the largest `j` whose
        // threshold the bucket's last `m` still meets only falls; `j = 1`
        // (`t[1] = 1`) is met by every `m`.
        let mut start = [0u8; BUCKETS];
        let mut j = 255;
        for (i, s) in start.iter_mut().enumerate() {
            // Bucket `i` ends at `(64 + i % 64 + 1) · 2^(13 + i / 64 - 6)`.
            let last = ((64 + i as u64 % 64 + 1) << (7 + i / 64)) - 1;
            while bound[j].at_most < last {
                j -= 1;
            }
            *s = j as u8;
        }
        Tables { bound, start }
    }
}

/// Geometric distances in `1..=255` with a given mean, sampled from one
/// word exactly as the formula
///
/// ```text
/// u = max(gen::<f64>(), 1e-12)
/// k = (1 + ln(u) / ln(1 - 1/mean)).clamp(1, 255) as u8
/// ```
///
/// does ([`GeomSampler::formula`]), but without a logarithm.
///
/// **Method.** Write `L = ln(1 - 1/mean)` (the float the formula divides
/// by, so `L < 0`). In exact arithmetic `k >= j ⇔ u <= t[j]` with
/// `t[j] = e^{(j-1)L}`, so `k` is the largest `j` with `u <= t[j]`. The
/// thresholds are computed once and kept as bounds on the variate's
/// integer `m = u · 2^53`, where every compare is exact. A 2,560-entry
/// table indexed by the exponent and top six mantissa bits of `m` holds,
/// per bucket, the `k` of the bucket's top, and two compares against the
/// next two thresholds finish the search. Buckets span 1/64 of a binade,
/// so for means up to ~130 no bucket holds more than two thresholds;
/// where one does, the result fails the guard below and falls back.
///
/// **Why it equals the formula.** Within `GUARD` (relative 1e-9) of a
/// threshold the sampler evaluates the formula itself, so only variates
/// outside every band take the table result, and two float errors must
/// both stay inside the band:
///
/// * the formula's: `ln(u)`, the division and the `1 +` are each within
///   ~1 ulp, so the computed `d` is within 3e-13 of the exact
///   `1 + ln(u)/L` for every `d <= 255`. It can only cross the integer
///   `j` for a `u` whose exact `d` is that close to `j`, i.e. a `u`
///   within relative `3e-13 · |L|` of `e^{(j-1)L}`; `|L| <= 37` for every
///   mean (`1 - 1/mean` is 0 or at least 2^-53), so within 1.1e-11;
/// * the table's: `q = e^L` is within 1 ulp and each `t[j] = t[j-1] · q`
///   adds one rounding, so `t[j]` is within relative `254 · 3 · 2^-53`,
///   about 1e-13, of `e^{(j-1)L}` while it stays a normal float (and
///   below 1e-300 once it does not), and the band edges
///   `t[j] · (1 ± 1e-9)` are one more rounding away.
///
/// Both are at least a hundred times smaller than the band, so outside it
/// the table and the formula agree on every compare.
///
/// For `mean = 1` (`L = -∞`) and for means so large that `1 - 1/mean`
/// rounds to 1 (`L = 0`, including `∞`), the formula returns 1 for every
/// variate; all thresholds past `t[1]` are then 0, which gives 1 too.
#[derive(Debug, Clone)]
pub(crate) struct GeomSampler {
    ln_q: f64,
    tables: Tables,
}

impl GeomSampler {
    /// The sampler for distances with mean `mean` (>= 1, possibly ∞).
    ///
    /// # Panics
    ///
    /// Panics unless `mean >= 1`.
    pub(crate) fn new(mean: f64) -> GeomSampler {
        assert!(mean >= 1.0, "mean must be >= 1, got {mean}");
        GeomSampler {
            ln_q: ln_q(mean),
            tables: Tables::new(mean),
        }
    }

    /// The reference formula on the variate `u` (before the `1e-12`
    /// floor); the sampler's fallback inside the guard bands.
    fn formula(&self, u: f64) -> u8 {
        let u = u.max(U_MIN);
        (1.0 + u.ln() / self.ln_q).clamp(1.0, 255.0) as u8
    }

    /// The table result for the word, or `None` within a guard band or
    /// below the floor.
    #[inline(always)]
    fn lookup(&self, word: u64) -> Option<u8> {
        let m = word >> 11;
        let tables = &self.tables;
        let key = ((m.max(M_MIN) as f64).to_bits() >> 46) as usize;
        let b = usize::from(tables.start[key - KEY_MIN]);
        let k = b
            + usize::from(m <= tables.bound[b + 1].at_most)
            + usize::from(m <= tables.bound[b + 2].at_most);
        let (hi, lo) = (tables.bound[k].above, tables.bound[k].below);
        (m > lo && m < hi).then_some(k as u8)
    }

    /// One distance from one raw word.
    #[inline(always)]
    pub(crate) fn sample(&self, word: u64) -> u8 {
        match self.lookup(word) {
            Some(k) => k,
            None => self.formula(unit(word)),
        }
    }

    /// Whether `word` falls in a guard band (takes the formula path).
    #[cfg(test)]
    fn falls_back(&self, word: u64) -> bool {
        self.lookup(word).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::mock::StepRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;

    #[test]
    fn words_replay_the_rng_stream_across_refills() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut w = Words::new(SmallRng::seed_from_u64(5));
        for round in 0..2000 {
            // Mixed peeks, bulk consumes and single draws.
            let n = round % 7;
            w.reserve(n);
            for i in 0..n {
                assert_eq!(w.peek(i), {
                    let mut r = rng.clone();
                    for _ in 0..i {
                        r.next_u64();
                    }
                    r.next_u64()
                });
            }
            let take = n / 2;
            w.consume(take);
            for _ in 0..take {
                rng.next_u64();
            }
            assert_eq!(w.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn coin_equals_gen_bool() {
        let ps = [
            -1.0,
            0.0,
            1e-30,
            1e-12,
            0.03,
            0.25,
            0.5,
            0.92,
            1.0 - f64::EPSILON,
            1.0,
            2.0,
            f64::NAN,
        ];
        for p in ps {
            let coin = Coin::new(p);
            let below = (p * (u64::MAX as f64 + 1.0)) as u64;
            let words = [0, 1, below.wrapping_sub(1), below, below.wrapping_add(1)];
            let mut rng = SmallRng::seed_from_u64(p.to_bits());
            for w in words.into_iter().chain((0..2000).map(|_| rng.next_u64())) {
                let expect = StepRng::new(w, 0).gen_bool(p);
                assert_eq!(coin.hit(w), expect, "p {p} word {w:#x}");
            }
        }
        assert!(half(0) && !half(1 << 63));
    }

    #[test]
    fn m_min_is_the_first_variate_above_the_floor() {
        assert_eq!(M_MIN, fixed_below(U_MIN, 53));
        assert!(unit((M_MIN - 1) << 11) < U_MIN && unit(M_MIN << 11) >= U_MIN);
    }

    #[test]
    fn fixed_below_equals_the_float_compare() {
        let xs = [
            -0.5,
            0.0,
            1e-300,
            0.05,
            0.1,
            0.35,
            0.4,
            0.55,
            0.999,
            1.0,
            1.5,
            f64::NAN,
        ];
        for bits in [24, 53] {
            let scale = (1u64 << bits) as f64;
            for x in xs {
                let b = fixed_below(x, bits);
                let m = (x * scale) as u64;
                for m in [0, 1, m.saturating_sub(1), m, m + 1, (1 << bits) - 1] {
                    let m = m.min((1 << bits) - 1);
                    assert_eq!(m as f64 / scale < x, m < b, "x {x} m {m} bits {bits}");
                }
            }
        }
    }

    const MEANS: [f64; 8] = [1.0, 1.0 + 1e-9, 2.0, 5.0, 8.0, 12.0, 1e6, f64::INFINITY];

    /// The dependency-distance formula, written out independently of the
    /// sampler.
    fn reference(mean: f64, word: u64) -> u8 {
        let u = unit(word).max(1e-12);
        (1.0 + u.ln() / (1.0 - 1.0 / mean).ln()).clamp(1.0, 255.0) as u8
    }

    /// One sampler per mean, built once for all proptest cases.
    fn samplers() -> &'static [GeomSampler] {
        static SAMPLERS: OnceLock<Vec<GeomSampler>> = OnceLock::new();
        SAMPLERS.get_or_init(|| MEANS.iter().map(|&m| GeomSampler::new(m)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        fn sampler_equals_the_formula_on_random_words(word in any::<u64>()) {
            for (&mean, g) in MEANS.iter().zip(samplers()) {
                prop_assert_eq!(g.sample(word), reference(mean, word), "mean {} word {:#x}", mean, word);
                prop_assert_eq!(g.formula(unit(word)), reference(mean, word));
            }
        }
    }

    /// Words whose variate lies within `ulps` steps of 2^-53 of `t`, with
    /// the low (discarded) bits varied too.
    fn words_near(t: f64, ulps: u64) -> impl Iterator<Item = u64> {
        let m = (t * (1u64 << 53) as f64) as u64;
        let top = (1u64 << 53) - 1;
        (m.saturating_sub(ulps)..=(m + ulps).min(top))
            .flat_map(|m| [m << 11, m << 11 | 0x7FF, m << 11 | 0x2A5])
    }

    #[test]
    fn sampler_equals_the_formula_at_every_threshold() {
        let top = 1.0 - f64::EPSILON / 2.0;
        for mean in MEANS {
            let g = GeomSampler::new(mean);
            let ln_q = (1.0 - 1.0 / mean).ln();
            let mut fallbacks = 0;
            let mut checked = 0;
            // Thresholds t[k] = q^(k-1), plus the variate's extremes: 0,
            // the 1e-12 floor and just below 1.
            let thresholds = (2..=256).map(|k| ((k - 1) as f64 * ln_q).exp());
            let edges = [0.0, U_MIN, 1.0 - GUARD, top];
            for t in thresholds.chain(edges) {
                for w in words_near(t, 4) {
                    assert_eq!(g.sample(w), reference(mean, w), "mean {mean} word {w:#x}");
                    fallbacks += usize::from(g.falls_back(w));
                    checked += 1;
                }
            }
            // Every sampler falls back just below 1 (the band of t[1] = 1).
            assert!(g.falls_back(((1u64 << 53) - 1) << 11), "mean {mean}");
            // For these means many thresholds lie far enough above 2^-53
            // that words a few steps off one land inside its band.
            if (2.0..=1e6).contains(&mean) {
                assert!(
                    fallbacks > 255,
                    "mean {mean}: only {fallbacks} of {checked} near-threshold words fell back"
                );
            }
        }
    }

    #[test]
    fn sampler_falls_back_rarely_on_random_words() {
        let mut rng = SmallRng::seed_from_u64(3);
        for mean in [2.0, 5.0, 8.0, 12.0] {
            let g = GeomSampler::new(mean);
            let n = 200_000;
            let fallbacks = (0..n).filter(|_| g.falls_back(rng.next_u64())).count();
            assert!(fallbacks * 10_000 < n, "mean {mean}: {fallbacks} of {n}");
        }
    }
}
