//! Cross-crate integration tests: full benchmark → hierarchy → pipeline
//! stacks, determinism, and the headline adaptivity behaviours.

use adaptive_cache::{SbarCache, SbarConfig};
use adaptive_caches::prelude::*;
use cache_sim::Cache;
use cpu_model::{run_functional, FunctionalStats, Hierarchy};
use experiments::{run_functional_l2, run_timed, L2Kind, PAPER_L2};
use workloads::{extended_suite, primary_suite};

fn paper_geom() -> Geometry {
    Geometry::new(512 * 1024, 64, 8).unwrap()
}

#[test]
fn every_extended_benchmark_runs_through_the_hierarchy() {
    for b in extended_suite() {
        let mut h = Hierarchy::new(
            &CpuConfig::paper_default(),
            Cache::new(paper_geom(), PolicyKind::Lru, 1),
        );
        let s = run_functional(&mut h, b.spec.generator(), 5_000);
        assert_eq!(s.instructions, 5_000, "{}", b.name);
        assert!(s.data_accesses > 0, "{} produced no memory traffic", b.name);
    }
}

#[test]
fn chunked_functional_run_equals_an_unbroken_one() {
    // The current fetch block is hierarchy state, so resuming one
    // generator call by call fetches exactly as one unbroken run.
    let cfg = CpuConfig::paper_default();
    let hierarchy = || Hierarchy::new(&cfg, Cache::new(paper_geom(), PolicyKind::Lru, 1));
    let suite = extended_suite();
    for name in ["gcc-1", "art-1"] {
        let b = suite.iter().find(|b| b.name == name).unwrap();
        let mut whole_h = hierarchy();
        let whole = run_functional(&mut whole_h, b.spec.generator(), 30_000);

        let mut h = hierarchy();
        let mut gen = b.spec.generator();
        let (mut insts, mut data, mut fetches, mut chunks) = (0, 0, 0, 0);
        let mut last = None;
        // Uneven chunks, down to single instructions, so boundaries fall
        // inside fetch blocks.
        for n in [1, 1, 2, 3, 5, 37, 1000].into_iter().cycle() {
            if insts >= whole.instructions {
                break;
            }
            let s = run_functional(&mut h, &mut gen, n.min(whole.instructions - insts));
            insts += s.instructions;
            data += s.data_accesses;
            fetches += s.inst_fetches;
            chunks += 1;
            last = Some(s);
        }
        assert!(chunks > 100);
        let chunked = FunctionalStats {
            instructions: insts,
            data_accesses: data,
            inst_fetches: fetches,
            ..last.unwrap()
        };
        assert_eq!(chunked, whole, "{name}");
        assert_eq!(h.l1i_stats().hits, whole_h.l1i_stats().hits, "{name}");
        assert_eq!(h.l1i_stats().misses, whole_h.l1i_stats().misses, "{name}");
    }
}

#[test]
fn timed_and_functional_agree_on_the_reference_stream() {
    // The timed pipeline and the functional driver must expose the same
    // L2 demand stream (timing must not change what is simulated).
    let b = &primary_suite()[1]; // applu
    let functional =
        run_functional_l2(b, &L2Kind::Plain(PolicyKind::Lru), PAPER_L2, 40_000).unwrap();
    let timed = run_timed(
        b,
        &L2Kind::Plain(PolicyKind::Lru),
        CpuConfig::paper_default(),
        40_000,
    )
    .unwrap();
    assert_eq!(
        functional.stats.l2_misses, timed.l2.misses,
        "functional and timed L2 misses diverge"
    );
    assert_eq!(functional.stats.l1d_misses, timed.l1d.misses);
}

#[test]
fn runs_are_deterministic_end_to_end() {
    let b = &primary_suite()[4];
    let kind = L2Kind::Adaptive(AdaptiveConfig::paper_default());
    let s1 = run_timed(b, &kind, CpuConfig::paper_default(), 60_000).unwrap();
    let s2 = run_timed(b, &kind, CpuConfig::paper_default(), 60_000).unwrap();
    assert_eq!(s1, s2, "identical configs must give identical results");
}

#[test]
fn adaptive_never_explodes_relative_to_lru() {
    // The stability claim at small scale: on every primary benchmark the
    // adaptive cache's misses stay within a small factor of LRU's.
    let adaptive = L2Kind::Adaptive(AdaptiveConfig::paper_full_tags());
    let lru = L2Kind::Plain(PolicyKind::Lru);
    for b in primary_suite() {
        let a = run_functional_l2(&b, &adaptive, PAPER_L2, 150_000)
            .unwrap()
            .stats
            .l2_misses;
        let l = run_functional_l2(&b, &lru, PAPER_L2, 150_000)
            .unwrap()
            .stats
            .l2_misses;
        assert!(
            (a as f64) < (l as f64) * 1.25 + 2000.0,
            "{}: adaptive {a} vs LRU {l}",
            b.name
        );
    }
}

#[test]
fn adaptive_equals_component_when_both_components_match() {
    // Degenerate configuration: adapting between LRU and LRU must behave
    // exactly like a plain LRU cache (Algorithm 1 always finds the
    // component victim in the real cache).
    let geom = Geometry::new(16 * 1024, 64, 4).unwrap();
    let cfg = AdaptiveConfig::with_policies(PolicyKind::Lru, PolicyKind::Lru);
    let mut adaptive = AdaptiveCache::new(geom, cfg, 5);
    let mut plain = Cache::new(geom, PolicyKind::Lru, 5);
    let mut x = 77u64;
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let block = cache_sim::BlockAddr::new(x % 1500);
        let a = adaptive.access(block, false);
        let p = plain.access(block, false);
        assert_eq!(a.hit, p.hit, "divergence at access");
    }
    assert_eq!(adaptive.stats().misses, plain.stats().misses);
}

#[test]
fn sbar_and_adaptive_agree_on_direction() {
    // On a strongly LFU-friendly stream both organisations must beat LRU.
    let b = primary_suite()
        .into_iter()
        .find(|b| b.name == "art-1")
        .unwrap();
    let insts = 1_500_000; // several rescan repetitions
    let lru = run_functional_l2(&b, &L2Kind::Plain(PolicyKind::Lru), PAPER_L2, insts)
        .unwrap()
        .stats
        .l2_misses;
    let adaptive = run_functional_l2(
        &b,
        &L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        PAPER_L2,
        insts,
    )
    .unwrap()
    .stats
    .l2_misses;
    let sbar = run_functional_l2(
        &b,
        &L2Kind::Sbar(SbarConfig::paper_default()),
        PAPER_L2,
        insts,
    )
    .unwrap()
    .stats
    .l2_misses;
    assert!(adaptive < lru, "adaptive {adaptive} vs lru {lru}");
    assert!(sbar < lru, "sbar {sbar} vs lru {lru}");
}

#[test]
fn sbar_followers_switch_policies_live() {
    // Drive an SBAR cache through alternating phases and confirm the
    // global selector actually flips (the follower sets then apply the
    // winning policy to their current contents).
    let geom = Geometry::new(64 * 1024, 64, 8).unwrap();
    let mut cache = SbarCache::new(geom, SbarConfig::paper_default(), 3);
    for i in 0..400_000u64 {
        let group = i / 4;
        let block = if (i / 100_000) % 2 == 0 {
            // LFU-friendly rescan mix
            if i % 4 < 3 {
                group % 768
            } else {
                768 + group % 8192
            }
        } else {
            // LRU-friendly shifting window
            10_000 + (i / 5_000) * 192 + (i * 7919) % 192
        };
        cache.access(cache_sim::BlockAddr::new(block), false);
    }
    assert!(
        cache.policy_switches() >= 1,
        "selector never flipped across phases"
    );
}

#[test]
fn pipeline_cpi_orders_follow_memory_boundedness() {
    // mcf (pointer chase) must be far more memory-bound than parser
    // (temporal reuse) under identical configuration.
    let suite = primary_suite();
    let mcf = suite.iter().find(|b| b.name == "mcf").unwrap();
    let parser = suite.iter().find(|b| b.name == "parser").unwrap();
    let kind = L2Kind::Plain(PolicyKind::Lru);
    let cfg = CpuConfig::paper_default();
    let c_mcf = run_timed(mcf, &kind, cfg, 100_000).unwrap().cpi();
    let c_parser = run_timed(parser, &kind, cfg, 100_000).unwrap().cpi();
    assert!(
        c_mcf > c_parser * 3.0,
        "mcf CPI {c_mcf:.2} vs parser {c_parser:.2}"
    );
}

#[test]
fn store_buffer_sweep_is_monotone_at_the_ends() {
    let b = &primary_suite()[1]; // applu: store-heavy streaming
    let kind = L2Kind::Plain(PolicyKind::Lru);
    let tiny = run_timed(
        b,
        &kind,
        CpuConfig::paper_default().store_buffer(1),
        100_000,
    )
    .unwrap();
    let huge = run_timed(
        b,
        &kind,
        CpuConfig::paper_default().store_buffer(256),
        100_000,
    )
    .unwrap();
    assert!(
        tiny.cycles > huge.cycles,
        "store buffer pressure must cost cycles ({} vs {})",
        tiny.cycles,
        huge.cycles
    );
}

#[test]
fn prelude_exports_compile() {
    // The facade's prelude must expose everything the README promises.
    let _g: Geometry = Geometry::new(4096, 64, 4).unwrap();
    let _p: PolicyKind = PolicyKind::Lru;
    let _c: AdaptiveConfig = AdaptiveConfig::paper_default();
    let _h = HistoryKind::paper_default();
    let _t = TagMode::Full;
    let _cfg = CpuConfig::paper_default();
}

#[test]
fn dip_is_competitive_but_adaptive_wins_lfu_side() {
    // DIP (insertion dueling, no shadow tags) must crush LRU on a
    // thrashing scan, but cannot match the adaptive cache where
    // frequency protection matters.
    use adaptive_cache::DipConfig;
    let suite = primary_suite();
    let applu = suite.iter().find(|b| b.name == "applu").unwrap();
    let insts = 600_000;
    let lru = run_functional_l2(applu, &L2Kind::Plain(PolicyKind::Lru), PAPER_L2, insts)
        .unwrap()
        .stats
        .l2_misses;
    let dip = run_functional_l2(
        applu,
        &L2Kind::Dip(DipConfig::paper_default()),
        PAPER_L2,
        insts,
    )
    .unwrap()
    .stats
    .l2_misses;
    assert!(
        (dip as f64) < (lru as f64) * 0.95,
        "DIP {dip} should beat LRU {lru} on a thrashing scan"
    );
}
