//! End-to-end and per-layer benchmark of the adaptive-cache simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `functional-direct`, `timed-pipeline`, `l2-replay-sweep`,
//! `instrumented-audit` (see `perfbench/NOTES.md`). `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ledger. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--pin` prints the seed-0 digest table of `golden.rs`.

mod cells;
mod golden;
mod layers;
mod run;
mod timing;

use cells::Checks;
use run::Workload;
use std::process::ExitCode;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

/// Removes every `AC_*` variable, so replay, telemetry, SIMD and budget
/// switches cannot leak into a run. Runs before any thread starts.
fn clear_ac_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("AC_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// The commit of the checkout, read from `./.git` only, never from a
/// repository in a parent directory.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let cleared = clear_ac_env();
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            cells::pin();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} | nproc {} simd {:?} git {} | cleared {:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cache_sim::simd::active_level(),
        git_sha(),
        cleared
    );
    let mut checks = Checks::default();
    let metrics = if args.trace {
        layers::run(args.workload, args.seed, args.seconds, &mut checks)
    } else {
        run::run(args.workload, args.seed, args.seconds, &mut checks)
    };
    for m in &metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&checks, &metrics));
    ExitCode::SUCCESS
}
