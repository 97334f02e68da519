//! The benchmark's cells: five benchmarks on the paper's CPU and L2, their
//! per-run reference statistics, and the checks every timed cell must pass.

use crate::golden;
use adaptive_cache::{AdaptiveCache, AdaptiveConfig, DipConfig, SbarConfig};
use cache_sim::{Cache, CacheModel, CacheStats, Geometry, PolicyKind};
use cpu_model::{belady, capture_functional, replay_into, replay_l2, CpuConfig};
use cpu_model::{FunctionalStats, L2Complex, L2Trace};
use cpu_model::{Pipeline, RunStats};
use experiments::{L2Kind, CACHE_SEED, PAPER_L2};
use std::fmt;
use workloads::Benchmark;

/// One benchmark per generator family: phased (`ammp`, the adaptive cache
/// switches policy), rescan (`art-1`, LFU-friendly), pointer chase (`mcf`,
/// miss-heavy), stack distance (`parser`) and Zipf (`crafty`, hit-heavy).
pub const BENCHES: [&str; 5] = ["ammp", "art-1", "mcf", "parser", "crafty"];

/// Instruction budget of every cell. Each cell starts with empty caches.
pub const CELL_INSTS: u64 = 2_000_000;

/// The L2 organisations of the replay sweep, by metric slug. Index
/// [`ADAPTIVE_8BIT`] is the paper's design point; index [`LRU`] the baseline.
pub fn orgs() -> [(&'static str, L2Kind); 6] {
    [
        ("lru", L2Kind::Plain(PolicyKind::Lru)),
        ("lfu5", L2Kind::Plain(PolicyKind::LFU5)),
        (
            "adaptive-full",
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        ),
        (
            "adaptive-8bit",
            L2Kind::Adaptive(AdaptiveConfig::paper_default()),
        ),
        ("sbar", L2Kind::Sbar(SbarConfig::paper_default())),
        ("dip", L2Kind::Dip(DipConfig::paper_default())),
    ]
}
pub const LRU: usize = 0;
pub const ADAPTIVE_8BIT: usize = 3;
pub const SBAR: usize = 4;

pub fn config() -> CpuConfig {
    CpuConfig::paper_default()
}

pub fn l2_geometry() -> Geometry {
    Geometry::new(PAPER_L2.0, PAPER_L2.1, PAPER_L2.2).expect("the paper's L2 geometry is valid")
}

pub fn adaptive_l2() -> AdaptiveCache {
    AdaptiveCache::new(l2_geometry(), AdaptiveConfig::paper_default(), CACHE_SEED)
}

pub fn lru_l2() -> Cache<PolicyKind> {
    Cache::new(l2_geometry(), PolicyKind::Lru, CACHE_SEED)
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The five benchmarks with the workload seed mixed into each spec's
/// seed; seed 0 keeps the suite's own seeds.
pub fn suite(seed: u64) -> Vec<Benchmark> {
    let all = workloads::extended_suite();
    BENCHES
        .iter()
        .map(|name| {
            let mut b = all
                .iter()
                .find(|b| b.name == *name)
                .expect("every benchmark is in the extended suite")
                .clone();
            if seed != 0 {
                b.spec.seed = splitmix(b.spec.seed ^ splitmix(seed));
            }
            b
        })
        .collect()
}

/// The statistics a cell is checked on: L2 hits and misses (so MPKI),
/// the Figure-7 imitation counters, and cycles (0 for functional cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellStats {
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub imit_a: u64,
    pub imit_b: u64,
    pub cycles: u64,
}

impl CellStats {
    pub fn of(l2: &CacheStats, imitations: (u64, u64), cycles: u64) -> CellStats {
        CellStats {
            l2_hits: l2.hits,
            l2_misses: l2.misses,
            imit_a: imitations.0,
            imit_b: imitations.1,
            cycles,
        }
    }
}

impl fmt::Display for CellStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "l2 hits {} misses {} (mpki {:.4}) imitations A {} B {} cycles {} (cpi {:.4})",
            self.l2_hits,
            self.l2_misses,
            self.l2_misses as f64 * 1000.0 / CELL_INSTS as f64,
            self.imit_a,
            self.imit_b,
            self.cycles,
            self.cycles as f64 / CELL_INSTS as f64
        )
    }
}

/// Per-benchmark reference results, computed untimed before any timing.
pub struct Reference {
    /// Captured L2 reference stream of the cell.
    pub trace: L2Trace,
    /// Functional run, adaptive 8-bit L2, via capture + replay.
    pub func: FunctionalStats,
    pub func_cell: CellStats,
    pub lru_misses: u64,
    /// Timed run, adaptive 8-bit L2, one unchunked `Pipeline::run`.
    pub timed: RunStats,
    pub timed_cell: CellStats,
    pub lru_cycles: u64,
}

impl Reference {
    pub fn compute(bench: &Benchmark) -> Reference {
        let cfg = config();
        let trace = capture_functional(&cfg, bench.spec.generator(), CELL_INSTS);
        let mut cx = L2Complex::new(adaptive_l2());
        let func = replay_into(&trace, &mut cx);
        let func_cell = CellStats::of(cx.l2().stats(), cx.l2().imitation_totals(), 0);
        let mut lru = L2Complex::new(lru_l2());
        let lru_misses = replay_into(&trace, &mut lru).l2_misses;

        let mut pipe = Pipeline::new(cfg, adaptive_l2());
        let timed = pipe.run(bench.spec.generator(), CELL_INSTS);
        let timed_cell = CellStats::of(&timed.l2, pipe.l2().imitation_totals(), timed.cycles);
        let lru_cycles = Pipeline::new(cfg, lru_l2())
            .run(bench.spec.generator(), CELL_INSTS)
            .cycles;
        Reference {
            trace,
            func,
            func_cell,
            lru_misses,
            timed,
            timed_cell,
            lru_cycles,
        }
    }
}

/// Counts checked operations and prints a diff for every failed one.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one checked operation; `diff` is empty when it passed.
    pub fn check(&mut self, what: &str, diff: Vec<String>) {
        self.attempted += 1;
        if diff.is_empty() {
            return;
        }
        self.failed += 1;
        eprintln!("MISMATCH {what}:");
        for line in diff {
            eprintln!("  {line}");
        }
    }

    pub fn panicked(&mut self, what: &str, payload: &(dyn std::any::Any + Send)) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        self.check(what, vec![format!("panicked: {msg}")]);
    }
}

/// `expected` vs `actual`, one line per differing field, or nothing.
pub fn diff<T: PartialEq + fmt::Debug>(field: &str, expected: T, actual: T) -> Vec<String> {
    if expected == actual {
        Vec::new()
    } else {
        vec![format!("{field}: expected {expected:?}, got {actual:?}")]
    }
}

pub fn diff_cell(expected: &CellStats, actual: &CellStats) -> Vec<String> {
    if expected == actual {
        Vec::new()
    } else {
        vec![format!("expected {expected}"), format!("got      {actual}")]
    }
}

/// Verifies the references: on seed 0 against the pinned digests, on any
/// seed for internal consistency (the timed and functional runs present
/// the L2 with the same reference stream).
pub fn verify_references(seed: u64, suite: &[Benchmark], refs: &[Reference], checks: &mut Checks) {
    for (b, r) in suite.iter().zip(refs) {
        let mut d = diff(
            "timed vs functional L2 misses",
            r.func_cell.l2_misses,
            r.timed_cell.l2_misses,
        );
        if seed == 0 {
            let g = &golden::GOLDEN[BENCHES.iter().position(|n| *n == b.name).expect("bench")];
            d.extend(diff_cell(&g.func, &r.func_cell));
            d.extend(diff_cell(&g.timed, &r.timed_cell));
            d.extend(diff("lru misses", g.org_misses[LRU], r.lru_misses));
            d.extend(diff("lru cycles", g.lru_cycles, r.lru_cycles));
        }
        checks.check(&format!("reference {}", b.name), d);
    }
}

/// Adaptive-against-LRU gains over the cells, in percent:
/// `(l2_mpki_gain, cpi_gain)`.
pub fn gains(refs: &[Reference]) -> (f64, f64) {
    let lru_misses: u64 = refs.iter().map(|r| r.lru_misses).sum();
    let misses: u64 = refs.iter().map(|r| r.func_cell.l2_misses).sum();
    let lru_cycles: u64 = refs.iter().map(|r| r.lru_cycles).sum();
    let cycles: u64 = refs.iter().map(|r| r.timed_cell.cycles).sum();
    (
        100.0 * (lru_misses as f64 - misses as f64) / lru_misses as f64,
        100.0 * (lru_cycles as f64 - cycles as f64) / lru_cycles as f64,
    )
}

/// Checks a cell whose expected L2 misses are pinned (seed 0) or were
/// first observed in this run (any seed).
pub fn check_pinned(
    checks: &mut Checks,
    what: &str,
    pinned: Option<u64>,
    first_seen: &mut Option<u64>,
    actual: u64,
) {
    let expected = *pinned.as_ref().or(first_seen.as_ref()).unwrap_or(&actual);
    first_seen.get_or_insert(actual);
    checks.check(what, diff("l2 misses", expected, actual));
}

/// Builds one of [`orgs`] over the paper's L2 geometry.
pub fn build_org(kind: &L2Kind) -> Box<dyn CacheModel> {
    kind.build(l2_geometry())
}

/// Prints the seed-0 digest table of `golden.rs` from the current code.
pub fn pin() {
    let fmt_cell = |c: &CellStats| {
        format!(
            "cell({}, {}, {}, {}, {})",
            c.l2_hits, c.l2_misses, c.imit_a, c.imit_b, c.cycles
        )
    };
    println!("pub const GOLDEN: [Golden; 5] = [");
    for b in suite(0) {
        let r = Reference::compute(&b);
        let org_misses: Vec<u64> = orgs()
            .iter()
            .map(|(_, kind)| replay_l2(&r.trace, &mut *build_org(kind)).l2_misses)
            .collect();
        let opt = belady(&r.trace, l2_geometry(), 0).misses;
        println!("    // {}", b.name);
        println!(
            "    Golden {{ func: {}, timed: {}, lru_cycles: {}, org_misses: {:?}, opt_misses: {} }},",
            fmt_cell(&r.func_cell),
            fmt_cell(&r.timed_cell),
            r.lru_cycles,
            org_misses,
            opt
        );
    }
    println!("];");
}
