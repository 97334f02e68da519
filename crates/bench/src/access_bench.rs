//! The `cachesim bench` throughput harness.
//!
//! Measures simulated accesses/second for the headline cache
//! organisations.
//!
//! Methodology: one address stream (the documented uniform-random
//! SplitMix64 stream over a 20 000-block footprint, ~31% miss rate on
//! the paper's 512 KB/64 B/8-way L2), each engine warmed, then timed
//! over repeated passes. Best-of-repetitions is reported, the standard
//! practice for shortest-plausible-time micro-measurement.

use adaptive_cache::{AdaptiveCache, AdaptiveConfig, DipCache, DipConfig, SbarCache, SbarConfig};
use cache_sim::{BlockAddr, Cache, CacheModel, Geometry, PolicyKind, ReplacementPolicy};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// Probe-batch width of the software-pipelined plain-cache driver: one
/// L2-trace chunk is decomposed (vector shifts/masks) and its record
/// lines prefetched while the *previous* chunk's accesses resolve.
/// Width 4 measured best on the warm headline stream (one `decompose4`
/// vector op per chunk; wider batches spill the in-flight array).
const PIPELINE_WIDTH: usize = 4;

/// How many references ahead the adaptive driver sends
/// [`CacheModel::prefetch_hint`]: far enough for the walk's scattered
/// record lines to arrive, near enough that the lines are not evicted
/// again before use. Distances past ~4 measured slower on the warm
/// headline stream (the prefetches win nothing and cost issue slots).
const LOOKAHEAD: usize = 4;

/// Software-pipelined plain-cache pass: decompose + prefetch chunk
/// `i+1` with [`Cache::probe_batch`] while resolving chunk `i` with
/// [`Cache::access_located`]. Access-for-access identical to the naive
/// loop (decomposition is pure and prefetches are hints).
fn pipelined_cache_pass<P: ReplacementPolicy>(c: &mut Cache<P>, addrs: &[BlockAddr]) -> u64 {
    const K: usize = PIPELINE_WIDTH;
    let mut h = 0u64;
    let chunks = addrs.chunks_exact(K);
    let rem = chunks.remainder();
    let mut inflight: Option<[(usize, cache_sim::StoredTag); K]> = None;
    for chunk in chunks {
        let blocks: &[BlockAddr; K] = chunk.try_into().expect("chunks_exact");
        let located = c.probe_batch(blocks);
        if let Some(prev) = inflight.replace(located) {
            for (set, stored) in prev {
                h += u64::from(c.access_located(set, stored, false).hit);
            }
        }
    }
    if let Some(prev) = inflight {
        for (set, stored) in prev {
            h += u64::from(c.access_located(set, stored, false).hit);
        }
    }
    for &b in rem {
        h += u64::from(c.access(b, false).hit);
    }
    h
}

/// Lookahead pass for the composite organisations: hint access `i + D`
/// while performing access `i`, so the adaptive walk's scattered record
/// lines (real + shadows + history) are in flight before they are
/// needed.
fn lookahead_pass<M: CacheModel>(m: &mut M, addrs: &[BlockAddr]) -> u64 {
    let mut h = 0u64;
    for (i, &b) in addrs.iter().enumerate() {
        if let Some(&ahead) = addrs.get(i + LOOKAHEAD) {
            m.prefetch_hint(ahead);
        }
        h += u64::from(m.access(b, false).hit);
    }
    h
}

/// Result row for one cache organisation.
#[derive(Debug, Serialize)]
pub struct OrgResult {
    pub name: String,
    /// Simulated accesses per wall-clock second (best repetition).
    pub accesses_per_sec: f64,
    pub ns_per_access: f64,
}

/// The whole `results/bench_access.json` document.
#[derive(Debug, Serialize)]
pub struct BenchReport {
    pub schema: String,
    pub geometry: String,
    pub stream: String,
    pub accesses_per_repetition: u64,
    pub repetitions: u32,
    pub quick: bool,
    pub organisations: Vec<OrgResult>,
}

/// The documented headline stream: SplitMix64-mixed indices over a
/// 20 000-block footprint (~31% misses on the paper L2 geometry).
fn addresses(n: usize) -> Vec<BlockAddr> {
    (0..n as u64)
        .map(|i| {
            let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 31;
            BlockAddr::new(x % 20_000)
        })
        .collect()
}

/// Times one pass of `chunk` and folds it into the best-of accumulator.
#[inline]
fn timed_pass(best_ns: &mut f64, mut chunk: impl FnMut() -> u64) {
    let start = Instant::now();
    let sink = chunk();
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(sink);
    if ns < *best_ns {
        *best_ns = ns;
    }
}

/// Warms an organisation, then keeps its best timed pass.
fn measure(
    name: &str,
    addrs: &[BlockAddr],
    reps: u32,
    mut chunk: impl FnMut(&[BlockAddr]) -> u64,
) -> OrgResult {
    for _ in 0..3 {
        chunk(addrs);
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        timed_pass(&mut best, || chunk(addrs));
    }
    let n = addrs.len() as f64;
    OrgResult {
        name: name.to_string(),
        accesses_per_sec: n / (best * 1e-9),
        ns_per_access: best / n,
    }
}

/// Runs the access-throughput suite. `quick` shrinks repetitions for CI
/// smoke runs; results stay directionally meaningful but noisier.
pub fn run(quick: bool) -> BenchReport {
    let geom = Geometry::new(512 * 1024, 64, 8).unwrap();
    let n = 10_000usize;
    let reps: u32 = if quick { 30 } else { 300 };
    let addrs = addresses(n);

    let mut organisations = Vec::new();

    for (name, policy) in [
        ("plain_lru", PolicyKind::Lru),
        ("plain_lfu5", PolicyKind::LFU5),
    ] {
        let mut cache = Cache::new(geom, policy, 7);
        organisations.push(measure(name, &addrs, reps, |a| {
            let mut h = 0u64;
            for &b in a {
                h += u64::from(cache.access(b, false).hit);
            }
            h
        }));
    }

    // The batched probe driver, reported as its own row so the
    // `probe_batch`/`access_located` pipeline is measured transparently
    // against the plain row above: on streams whose directory stays
    // cache-resident (this one) the prefetches are pure overhead, while
    // cold or larger-footprint streams profit from them.
    {
        let mut cache = Cache::new(geom, PolicyKind::Lru, 7);
        organisations.push(measure("plain_lru_batched", &addrs, reps, |a| {
            pipelined_cache_pass(&mut cache, a)
        }));
    }

    for (name, config) in [
        ("adaptive_full", AdaptiveConfig::paper_full_tags()),
        ("adaptive_8bit", AdaptiveConfig::paper_default()),
    ] {
        let mut cache = AdaptiveCache::new(geom, config, 7);
        organisations.push(measure(name, &addrs, reps, |a| {
            lookahead_pass(&mut cache, a)
        }));
    }

    // SBAR and DIP probe one or two resident structures per access;
    // lookahead hints measured neutral (SBAR) to slightly negative (DIP)
    // here, so their drivers stay plain loops.
    {
        let mut sbar = SbarCache::new(geom, SbarConfig::paper_default(), 7);
        organisations.push(measure("sbar", &addrs, reps, |a| {
            let mut h = 0u64;
            for &b in a {
                h += u64::from(sbar.access(b, false).hit);
            }
            h
        }));
    }
    {
        let mut dip = DipCache::new(geom, DipConfig::paper_default(), 7);
        organisations.push(measure("dip", &addrs, reps, |a| {
            let mut h = 0u64;
            for &b in a {
                h += u64::from(dip.access(b, false).hit);
            }
            h
        }));
    }

    BenchReport {
        schema: "adaptive-caches/bench_access/v1".to_string(),
        geometry: "512KB, 64B lines, 8-way".to_string(),
        stream: format!("splitmix64(i) % 20000, n={n}"),
        accesses_per_repetition: n as u64,
        repetitions: reps,
        quick,
        organisations,
    }
}

/// Writes the report as pretty JSON under `path`, creating parent
/// directories as needed.
pub fn write_report(report: &BenchReport, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

/// One-line human summary per organisation, printed alongside the JSON.
pub fn print_report(report: &BenchReport) {
    println!(
        "access throughput — {} — stream: {} — best of {} reps",
        report.geometry, report.stream, report.repetitions
    );
    for org in &report.organisations {
        println!(
            "  {:<14} {:>7.1} M acc/s  ({:>5.2} ns/acc)",
            org.name,
            org.accesses_per_sec / 1e6,
            org.ns_per_access
        );
    }
}
