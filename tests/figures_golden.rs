//! Golden results: every entry of the figure registry, run at a small
//! instruction budget, must reproduce the CSV (or, for text-only
//! entries, the text) committed under `tests/golden/`.
//!
//! A mismatch names the artefact, row and column with the golden and
//! the new value. The fresh outputs are written next to the test's
//! build artefacts (path in the failure message); when a change to the
//! numbers is deliberate, copy them over `tests/golden/` and record the
//! cause in CHANGES.md.

use experiments::figures::{fig07_phase_map, registry, Output};
use std::path::Path;

/// Per-benchmark instruction budget of every entry but Figure 7.
const BUDGET: u64 = 10_000;

/// Figure 7's entries floor their budget at 2M instructions, so the
/// maps are pinned through `fig07_phase_map` directly. The L2 sees its
/// first replacements after ~100k instructions; 200k with 20k-cycle
/// quanta gives a few dozen quanta with both colours present.
const FIG07_INSTS: u64 = 200_000;
const FIG07_QUANTUM: u64 = 20_000;

fn run(name: &str, entry_run: fn(u64) -> Output) -> Output {
    match name.strip_prefix("fig07_") {
        Some(bench) => fig07_phase_map(bench, FIG07_INSTS, FIG07_QUANTUM, 32).output(),
        None => entry_run(BUDGET),
    }
}

/// `(golden file name, content)`: the table's CSV, or the text when the
/// entry has no table.
fn artefact(name: &str, out: &Output) -> (String, String) {
    match &out.table {
        Some(t) => (format!("{name}.csv"), t.to_csv()),
        None => (format!("{name}.txt"), out.text.clone()),
    }
}

/// Cell-by-cell comparison of two CSV renderings of one table.
fn csv_diff(stem: &str, golden: &str, fresh: &str) -> Vec<String> {
    let parse = |s: &str| -> Vec<Vec<String>> {
        s.lines()
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect()
    };
    let (g, f) = (parse(golden), parse(fresh));
    let mut diffs = Vec::new();
    if g.first() != f.first() {
        diffs.push(format!(
            "{stem}: header {:?} -> {:?}",
            g.first().map(|h| h.join(",")),
            f.first().map(|h| h.join(","))
        ));
        return diffs;
    }
    let columns = &g[0];
    for i in 1..g.len().max(f.len()) {
        match (g.get(i), f.get(i)) {
            (Some(gr), Some(fr)) if gr[0] != fr[0] => diffs.push(format!(
                "{stem}: row {i} is {:?}, golden {:?}",
                fr[0], gr[0]
            )),
            (Some(gr), Some(fr)) => {
                for (c, (gv, fv)) in gr.iter().zip(fr).enumerate().skip(1) {
                    if gv != fv {
                        diffs.push(format!(
                            "{stem}: row {} column {}: golden {gv}, now {fv}",
                            gr[0], columns[c]
                        ));
                    }
                }
            }
            (Some(gr), None) => diffs.push(format!("{stem}: row {} is missing", gr[0])),
            (None, Some(fr)) => diffs.push(format!("{stem}: extra row {}", fr[0])),
            (None, None) => unreachable!(),
        }
    }
    diffs
}

#[test]
fn every_registry_entry_matches_its_golden() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let fresh_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_golden");
    std::fs::create_dir_all(&fresh_dir).unwrap();

    let mut expected_files = Vec::new();
    let mut diffs = Vec::new();
    for e in registry() {
        let (file, fresh) = artefact(e.name, &run(e.name, e.run));
        std::fs::write(fresh_dir.join(&file), &fresh).unwrap();
        match std::fs::read_to_string(golden_dir.join(&file)) {
            Err(err) => diffs.push(format!("{file}: no golden ({err})")),
            Ok(golden) if file.ends_with(".csv") => diffs.extend(csv_diff(e.name, &golden, &fresh)),
            Ok(golden) if golden != fresh => diffs.push(format!(
                "{file}: text differs\n--- golden\n{golden}\n--- now\n{fresh}"
            )),
            Ok(_) => {}
        }
        expected_files.push(file);
    }
    for f in std::fs::read_dir(&golden_dir).unwrap() {
        let name = f.unwrap().file_name().to_string_lossy().into_owned();
        if !expected_files.contains(&name) {
            diffs.push(format!("{name}: golden has no registry entry"));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} golden mismatch(es); fresh outputs are in {}:\n{}",
        diffs.len(),
        fresh_dir.display(),
        diffs.join("\n")
    );
}
