//! One module per table/figure of the paper's evaluation (Section 4),
//! plus the ablations and extension experiments, all listed in one
//! [`registry()`]. The registry is the only list of artefacts: the
//! `cachesim fig` subcommand runs it and `tests/figures_golden.rs` pins
//! every entry's output.
//!
//! | module | paper artefact |
//! |---|---|
//! | [`table1`] | Table 1 — simulated processor configuration |
//! | [`fig03`] | Figure 3 — L2 MPKI, Adaptive vs LFU vs LRU |
//! | [`fig04`] | Figure 4 — CPI, same three organisations |
//! | [`fig05`] | Figure 5 — partial-tag size sweep |
//! | [`fig06`] | Figure 6 — adaptive vs bigger conventional caches |
//! | [`fig07`] | Figure 7 — per-set policy-choice phase maps |
//! | [`fig08`] | Figure 8 — FIFO/MRU adaptivity |
//! | [`fig09`] | Figure 9 — benefit vs associativity |
//! | [`fig10`] | Figure 10 — store-buffer size sweep |
//! | [`sec44`] | Section 4.4 — five-policy adaptivity |
//! | [`sec46`] | Section 4.6 — adaptivity at the L1s |
//! | [`sec47`] | Section 4.7 — SBAR set sampling |
//! | [`headline()`](headline()) | Section 4.2 — headline scalars over both suites |
//! | [`storage`] | Section 3.2 — SRAM storage overheads |
//! | [`extensions`] | beyond the paper — shared L2, prefetching, DIP, synthesis |
//!
//! The ablations live in [`crate::ablation`].

pub mod extensions;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod headline;
pub mod sec44;
pub mod sec46;
pub mod sec47;
pub mod storage;
pub mod table1;

pub use extensions::{multicore_shared_l2, prefetch_adaptivity, related_dip, synthesis};
pub use fig03::fig03_mpki;
pub use fig04::fig04_cpi;
pub use fig05::fig05_partial_tags;
pub use fig06::fig06_vs_bigger;
pub use fig07::{fig07_phase_map, PhaseMap};
pub use fig08::fig08_fifo_mru;
pub use fig09::fig09_associativity;
pub use fig10::fig10_store_buffer;
pub use headline::headline;
pub use sec44::sec44_five_policy;
pub use sec46::sec46_l1_adaptivity;
pub use sec47::{sec47_overheads, sec47_sbar};
pub use storage::storage_table;
pub use table1::table1_config;

use crate::ablation::{
    history_ablation, lfu_counter_ablation, sbar_leader_ablation, xor_tag_ablation,
};
use crate::report::Table;
use crate::runner::{parallel_map, run_functional_l2, run_timed, L2Kind, PAPER_L2};
use cpu_model::CpuConfig;
use serde::{Deserialize, Serialize};
use workloads::{primary_suite, Benchmark};

/// What one registry entry produces. It is serialisable so a resumed
/// `cachesim fig` run re-emits it from the journal unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Output {
    /// Printed on stdout.
    pub text: String,
    /// Written as `results/<name>.{csv,json}`; `None` for Table 1, which
    /// is text only.
    pub table: Option<Table>,
}

impl From<Table> for Output {
    fn from(table: Table) -> Self {
        Output {
            text: format!("{table}\n"),
            table: Some(table),
        }
    }
}

/// One artefact of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The `cachesim fig` name, which is also the artefact stem.
    pub name: &'static str,
    /// Part of the paper's own evaluation (`cachesim fig paper`) rather
    /// than an ablation or extension.
    pub paper: bool,
    /// Per-benchmark instruction budget in, output out.
    pub run: fn(u64) -> Output,
}

const fn paper(name: &'static str, run: fn(u64) -> Output) -> Entry {
    Entry {
        name,
        paper: true,
        run,
    }
}

const fn extra(name: &'static str, run: fn(u64) -> Output) -> Entry {
    Entry {
        name,
        paper: false,
        run,
    }
}

static REGISTRY: [Entry; 24] = [
    paper("table1", |_| Output {
        text: format!("{}\n", table1_config()),
        table: None,
    }),
    paper("table_storage", |_| storage_table().into()),
    paper("fig03_mpki", |i| fig03_mpki(i).into()),
    paper("fig04_cpi", |i| fig04_cpi(i).into()),
    paper("fig05_partial_tags", |i| fig05_partial_tags(i).into()),
    paper("fig06_vs_bigger", |i| fig06_vs_bigger(i).into()),
    paper("fig07_ammp", |i| fig07::output("ammp", i)),
    paper("fig07_mgrid", |i| fig07::output("mgrid", i)),
    paper("fig08_fifo_mru", |i| fig08_fifo_mru(i).into()),
    paper("fig09_associativity", |i| fig09_associativity(i).into()),
    paper("fig10_store_buffer", |i| fig10_store_buffer(i).into()),
    paper("headline", |i| headline(i).into()),
    paper("sec44_five_policy", |i| sec44_five_policy(i).into()),
    paper("sec46_l1", |i| sec46_l1_adaptivity(i).into()),
    paper("sec47_sbar", |i| sec47_sbar(i).into()),
    paper("sec47_overheads", |_| sec47_overheads().into()),
    extra("ablation_history", |i| history_ablation(i).into()),
    extra("ablation_lfu", |i| lfu_counter_ablation(i).into()),
    extra("ablation_sbar", |i| sbar_leader_ablation(i).into()),
    extra("ablation_xor_tags", |i| xor_tag_ablation(i).into()),
    extra("multicore_shared_l2", |i| multicore_shared_l2(i).into()),
    extra("prefetch_adaptivity", |i| prefetch_adaptivity(i).into()),
    extra("related_dip", |i| related_dip(i).into()),
    extra("synthesis", |i| synthesis(i).into()),
];

/// Every artefact, in the order `cachesim fig all` prints them.
pub fn registry() -> &'static [Entry] {
    &REGISTRY
}

/// The loop most figures share: one row per primary-suite benchmark,
/// one value per `kinds` entry from `cell`, then the average row.
/// `parallel_map` keeps suite order, so the table is deterministic.
pub(crate) fn suite_table<K: Sync>(
    title: &str,
    columns: Vec<String>,
    kinds: &[K],
    cell: impl Fn(&Benchmark, &K) -> f64 + Sync,
) -> Table {
    let mut table = Table::new(title, "benchmark", columns);
    let rows = parallel_map(&primary_suite(), |b| {
        let values: Vec<f64> = kinds.iter().map(|k| cell(b, k)).collect();
        (b.name.clone(), values)
    });
    for (label, values) in rows {
        table.push_row(label, values);
    }
    table.push_average();
    table
}

/// L2 MPKI of a functional run on the paper's L2.
pub(crate) fn mpki(b: &Benchmark, kind: &L2Kind, insts: u64) -> f64 {
    run_functional_l2(b, kind, PAPER_L2, insts)
        .expect("paper geometry is valid")
        .stats
        .l2_mpki()
}

/// CPI of a timed run on the paper's processor.
pub(crate) fn cpi(b: &Benchmark, kind: &L2Kind, insts: u64) -> f64 {
    run_timed(b, kind, CpuConfig::paper_default(), insts)
        .expect("paper geometry is valid")
        .cpi()
}

#[cfg(test)]
mod registry_tests {
    #[test]
    fn registry_names_are_unique_artifact_stems() {
        let reg = super::registry();
        let mut names: Vec<_> = reg.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate registry stems");
    }
}
