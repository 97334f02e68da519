//! Shared last-level caches in a multi-core environment — the paper's
//! first stated piece of future work:
//!
//! > "We plan on evaluating adaptive caching policies for shared
//! > last-level caches in a multi-core environment. We believe that the
//! > combination of memory traffic from dissimilar threads or
//! > applications will provide even more opportunities for the adaptive
//! > mechanism to help performance."
//!
//! This module implements that experiment functionally: N cores with
//! private L1 I/D caches share one L2 organisation; the cores' reference
//! streams are interleaved round-robin (a fair-bandwidth idealisation),
//! with each core's data placed in a disjoint region of the physical
//! address space, as distinct processes would be.

use crate::runner::L2Kind;
use cache_sim::{Address, Cache, CacheModel, CacheStats, Geometry, PolicyKind};
use cpu_model::{CpuConfig, FetchBlocks};
use serde::{Deserialize, Serialize};
use workloads::{Benchmark, Inst, TraceGen};

/// Address-space offset between cores (1 GB apart: different regions,
/// same set index distribution).
const CORE_SPACING: u64 = 1 << 30;

/// Result of a shared-L2 run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharedRunStats {
    /// Benchmarks run, in core order.
    pub benchmarks: Vec<String>,
    /// L2 organisation label.
    pub l2: String,
    /// Instructions executed per core.
    pub insts_per_core: u64,
    /// Per-core L1D miss counts (traffic each core pushed to the L2).
    pub l1d_misses: Vec<u64>,
    /// Shared-L2 statistics.
    pub l2_stats: CacheStats,
}

impl SharedRunStats {
    /// Shared-L2 misses per thousand instructions (all cores).
    pub fn l2_mpki(&self) -> f64 {
        let total = self.insts_per_core * self.benchmarks.len() as u64;
        self.l2_stats.mpki(total)
    }
}

struct Core {
    trace: TraceGen,
    l1i: Cache<PolicyKind>,
    l1d: Cache<PolicyKind>,
    l1i_geom: Geometry,
    l1d_geom: Geometry,
    base: u64,
    fetch: FetchBlocks,
    retired: u64,
}

/// Runs `benches` on a shared L2 of kind `kind`, interleaving their
/// memory traffic round-robin, one instruction per core per turn.
///
/// # Panics
///
/// Panics if `benches` is empty.
pub fn run_shared_l2(benches: &[&Benchmark], kind: &L2Kind, insts_per_core: u64) -> SharedRunStats {
    assert!(!benches.is_empty(), "need at least one core");
    let config = CpuConfig::paper_default();
    let l2_geom = Geometry::new(
        config.l2.size_bytes,
        config.l2.line_bytes,
        config.l2.associativity,
    )
    .expect("valid L2");
    let mut l2 = kind.build(l2_geom);

    let l1i_geom = cpu_model::l1_geometry(config.l1i);
    let l1d_geom = cpu_model::l1_geometry(config.l1d);
    let mut cores: Vec<Core> = benches
        .iter()
        .enumerate()
        .map(|(i, b)| Core {
            trace: b.spec.generator(),
            l1i: Cache::new(l1i_geom, PolicyKind::Lru, 0x10 + i as u64),
            l1d: Cache::new(l1d_geom, PolicyKind::Lru, 0x20 + i as u64),
            l1i_geom,
            l1d_geom,
            base: i as u64 * CORE_SPACING,
            fetch: FetchBlocks::new(l1i_geom.line_bytes()),
            retired: 0,
        })
        .collect();

    let total = insts_per_core * cores.len() as u64;
    let mut executed = 0u64;
    while executed < total {
        for core in cores.iter_mut() {
            if core.retired >= insts_per_core {
                continue;
            }
            let inst: Inst = core.trace.next().expect("infinite trace");
            core.retired += 1;
            executed += 1;

            // Instruction fetch through the private L1I.
            let pc = core.base + inst.pc;
            if core.fetch.enters(pc) {
                let out = core
                    .l1i
                    .access(core.l1i_geom.block_of(Address::new(pc)), false);
                if !out.hit {
                    l2.access(l2_geom.block_of(Address::new(pc)), false);
                }
            }

            // Data access through the private L1D, then the shared L2.
            if let Some(addr) = inst.mem_addr() {
                let addr = core.base + addr;
                let write = matches!(inst.kind, workloads::InstKind::Store { .. });
                let out = core
                    .l1d
                    .access(core.l1d_geom.block_of(Address::new(addr)), write);
                if let Some(ev) = out.eviction {
                    if ev.dirty {
                        let byte = ev.block.raw() << core.l1d_geom.offset_bits();
                        l2.access(l2_geom.block_of(Address::new(byte)), true);
                    }
                }
                if !out.hit {
                    l2.access(l2_geom.block_of(Address::new(addr)), false);
                }
            }
        }
    }

    SharedRunStats {
        benchmarks: benches.iter().map(|b| b.name.clone()).collect(),
        l2: kind.label(),
        insts_per_core,
        l1d_misses: cores.iter().map(|c| c.l1d.stats().misses).collect(),
        l2_stats: *l2.stats(),
    }
}

/// The dissimilar-thread pairings evaluated by the multi-core experiment:
/// one LFU-leaning and one LRU-leaning program per pair, plus a
/// memory-hog/compute pairing.
pub fn paper_future_work_pairs() -> Vec<(&'static str, &'static str)> {
    vec![
        ("art-1", "lucas"),
        ("xanim", "bzip2"),
        ("tiff2rgba", "gap"),
        ("mcf", "parser"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_cache::AdaptiveConfig;
    use workloads::primary_suite;

    fn by_name<'a>(suite: &'a [Benchmark], name: &str) -> &'a Benchmark {
        suite.iter().find(|b| b.name == name).unwrap()
    }

    #[test]
    fn shared_run_accounts_all_cores() {
        let suite = primary_suite();
        let pair = [by_name(&suite, "art-1"), by_name(&suite, "lucas")];
        let s = run_shared_l2(&pair, &L2Kind::Plain(PolicyKind::Lru), 20_000);
        assert_eq!(s.benchmarks, vec!["art-1", "lucas"]);
        assert_eq!(s.l1d_misses.len(), 2);
        assert!(s.l2_stats.accesses > 0);
    }

    #[test]
    fn cores_do_not_share_data() {
        // Same benchmark twice: the address offset must double the
        // combined footprint (no accidental sharing).
        let suite = primary_suite();
        let b = by_name(&suite, "applu");
        let one = run_shared_l2(&[b], &L2Kind::Plain(PolicyKind::Lru), 40_000);
        let two = run_shared_l2(&[b, b], &L2Kind::Plain(PolicyKind::Lru), 40_000);
        assert!(
            two.l2_stats.misses > one.l2_stats.misses,
            "duplicated cores must add misses ({} vs {})",
            two.l2_stats.misses,
            one.l2_stats.misses
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "simulation-heavy; run with --release")]
    fn adaptivity_helps_dissimilar_threads() {
        let suite = primary_suite();
        let pair = [by_name(&suite, "art-1"), by_name(&suite, "lucas")];
        let insts = 1_200_000;
        let lru = run_shared_l2(&pair, &L2Kind::Plain(PolicyKind::Lru), insts);
        let lfu = run_shared_l2(&pair, &L2Kind::Plain(PolicyKind::LFU5), insts);
        let adaptive = run_shared_l2(
            &pair,
            &L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
            insts,
        );
        let best = lru.l2_stats.misses.min(lfu.l2_stats.misses);
        assert!(
            (adaptive.l2_stats.misses as f64) < best as f64 * 1.1,
            "adaptive {} vs best component {best} on mixed traffic",
            adaptive.l2_stats.misses
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_core_list_rejected() {
        let _ = run_shared_l2(&[], &L2Kind::Plain(PolicyKind::Lru), 100);
    }
}
