//! Experiments beyond the paper's evaluation: its two future-work
//! directions (a shared L2, adaptive prefetching) and comparisons with
//! DIP set dueling (Qureshi et al., ISCA 2007), its set-dueling
//! successor.

use super::{mpki, suite_table};
use crate::multicore::{paper_future_work_pairs, run_shared_l2};
use crate::report::Table;
use crate::runner::L2Kind;
use adaptive_cache::{AdaptiveConfig, DipConfig, SbarConfig};
use cache_sim::{Cache, Geometry, PolicyKind};
use cpu_model::prefetch::PrefetchKind;
use cpu_model::{run_functional, CpuConfig, Hierarchy};
use workloads::primary_suite;

/// Future work 1: adaptive replacement for a shared L2 fed by two
/// dissimilar threads (combined L2 MPKI per pair, `insts / 2` per core).
pub fn multicore_shared_l2(insts: u64) -> Table {
    let suite = primary_suite();
    let kinds = [
        L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        L2Kind::Plain(PolicyKind::LFU5),
        L2Kind::Plain(PolicyKind::Lru),
    ];
    let mut t = Table::new(
        "Future work: shared L2 with two dissimilar threads (combined L2 MPKI)",
        "pair",
        kinds.iter().map(|k| k.label()).collect(),
    );
    for (a, b) in paper_future_work_pairs() {
        let pair: Vec<_> = [a, b]
            .iter()
            .map(|n| {
                suite
                    .iter()
                    .find(|x| x.name == *n)
                    .expect("pair is in the suite")
            })
            .collect();
        let row = kinds
            .iter()
            .map(|k| run_shared_l2(&pair, k, insts / 2).l2_mpki())
            .collect();
        t.push_row(format!("{a}+{b}"), row);
    }
    t.push_average();
    t
}

/// Future work 2: adaptive hybrid prefetching ("hit/miss is replaced
/// with useful/not-useful prefetch"). Demand L2 MPKI with no
/// prefetcher, next-line, stride and the adaptive hybrid.
pub fn prefetch_adaptivity(insts: u64) -> Table {
    let kinds = [
        ("none", PrefetchKind::None),
        ("next-line", PrefetchKind::NextLine),
        ("stride", PrefetchKind::Stride),
        ("adaptive", PrefetchKind::Adaptive),
    ];
    let cfg = CpuConfig::paper_default();
    let geom = Geometry::new(cfg.l2.size_bytes, cfg.l2.line_bytes, cfg.l2.associativity)
        .expect("paper geometry is valid");
    suite_table(
        "Future work: L2 prefetching (demand L2 MPKI)",
        kinds.iter().map(|(n, _)| n.to_string()).collect(),
        &kinds,
        |b, (_, k)| {
            let mut h = Hierarchy::new(&cfg, Cache::new(geom, PolicyKind::Lru, 7));
            h.set_prefetcher(k.build());
            run_functional(&mut h, b.spec.generator(), insts).l2_mpki()
        },
    )
}

/// The adaptive cache vs DIP set dueling. DIP needs no shadow tags but
/// can only move LRU's insertion position; the adaptive cache can
/// combine arbitrary policies.
pub fn related_dip(insts: u64) -> Table {
    let kinds = [
        ("LRU", L2Kind::Plain(PolicyKind::Lru)),
        (
            "Adaptive",
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        ),
        ("SBAR", L2Kind::Sbar(SbarConfig::paper_default())),
        ("DIP", L2Kind::Dip(DipConfig::paper_default())),
    ];
    labelled_mpki_table(
        "Related work: adaptive replacement vs DIP set dueling (L2 MPKI)",
        &kinds,
        insts,
    )
}

/// Adaptivity over DIP's insertion policy: adaptive caches whose
/// components are BIP (thrash protection) and LFU or LRU. Neither the
/// 2006 paper nor the DIP paper evaluated this pairing; here it is a
/// configuration change.
pub fn synthesis(insts: u64) -> Table {
    let kinds = [
        ("LRU", L2Kind::Plain(PolicyKind::Lru)),
        (
            "Adaptive LRU/LFU",
            L2Kind::Adaptive(AdaptiveConfig::paper_full_tags()),
        ),
        ("DIP", L2Kind::Dip(DipConfig::paper_default())),
        (
            "Adaptive BIP/LFU",
            L2Kind::Adaptive(AdaptiveConfig::with_policies(
                PolicyKind::Bip,
                PolicyKind::LFU5,
            )),
        ),
        (
            "Adaptive BIP/LRU",
            L2Kind::Adaptive(AdaptiveConfig::with_policies(
                PolicyKind::Bip,
                PolicyKind::Lru,
            )),
        ),
    ];
    labelled_mpki_table(
        "Synthesis: adaptivity over DIP's insertion policy (L2 MPKI)",
        &kinds,
        insts,
    )
}

fn labelled_mpki_table(title: &str, kinds: &[(&str, L2Kind)], insts: u64) -> Table {
    suite_table(
        title,
        kinds.iter().map(|(n, _)| n.to_string()).collect(),
        kinds,
        |b, (_, k)| mpki(b, k, insts),
    )
}
