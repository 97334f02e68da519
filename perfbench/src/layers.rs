//! The traced run: times calls into each layer's public functions over
//! whole cells, keeps the spans in memory, writes them at the end and
//! reports per-layer self times and exact per-layer counts.
//!
//! A layer that runs inside another (decode inside replay, the hierarchy
//! inside the pipeline) is measured as a separate call on the same input
//! and linked to it as a child; a span's self time is its duration minus
//! its children's.

use crate::cells::{self, Checks, Reference, ADAPTIVE_8BIT, CELL_INSTS, LRU, SBAR};
use crate::run::{self, Workload};
use crate::timing::{self, median, Samples};
use crate::Metric;
use cpu_model::{belady, capture_functional, config_fingerprint, decode_trace, encode_trace};
use cpu_model::{replay_l2, run_functional, Hierarchy, Pipeline};
use experiments::{replay_cache, run_functional_l2, PAPER_L2};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use workloads::{Benchmark, Inst};

struct Span {
    layer: &'static str,
    cell: String,
    round: usize,
    /// Spans measured separately on the same input that run inside this
    /// one; one child may belong to several parents.
    children: Vec<usize>,
    start_ns: u128,
    dur_ns: f64,
}

struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn time<R>(
        &mut self,
        layer: &'static str,
        cell: &str,
        round: usize,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let t = Instant::now();
        let r = f();
        let dur_ns = t.elapsed().as_nanos() as f64;
        self.spans.push(Span {
            layer,
            cell: cell.to_string(),
            round,
            children: Vec::new(),
            start_ns: t.duration_since(self.epoch).as_nanos(),
            dur_ns,
        });
        (self.spans.len() - 1, r)
    }

    fn link(&mut self, child: usize, parent: usize) {
        self.spans[parent].children.push(child);
    }

    /// Median over rounds of each `(layer, cell)` span's self time, in ns.
    fn self_medians(&self) -> BTreeMap<(&'static str, String), f64> {
        let mut by: BTreeMap<(&'static str, String), Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let children: f64 = s.children.iter().map(|&c| self.spans[c].dur_ns).sum();
            by.entry((s.layer, s.cell.clone()))
                .or_default()
                .push(s.dur_ns - children);
        }
        by.into_iter().map(|(k, v)| (k, median(&v))).collect()
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{i},\"children\":{:?},\"layer\":\"{}\",\"cell\":\"{}\",\"round\":{},\"start_ns\":{},\"dur_ns\":{}}}\n",
                s.children, s.layer, s.cell, s.round, s.start_ns, s.dur_ns
            ));
        }
        timing::write_out(path, &out)
    }
}

/// Exact per-cell quantities that do not depend on timing.
struct Counts {
    events: u64,
    bytes: u64,
    org_hits: [(u64, u64); 6],
}

/// One hub-off round over every benchmark.
fn round(
    round: usize,
    suite: &[Benchmark],
    refs: &[Reference],
    buf: &mut Vec<Inst>,
    sp: &mut Spans,
    checks: &mut Checks,
) -> Vec<Counts> {
    let cfg = cells::config();
    let geom = cells::l2_geometry();
    let orgs = cells::orgs();
    let fp = config_fingerprint();
    let mut counts = Vec::new();
    for (b, r) in suite.iter().zip(refs) {
        let name = b.name.as_str();
        sp.time("workloads.gen", name, round, || {
            black_box(
                b.spec
                    .generator()
                    .take(CELL_INSTS as usize)
                    .fold(0u64, |a, i| a ^ i.pc),
            )
        });
        buf.clear();
        buf.extend(b.spec.generator().take(CELL_INSTS as usize));
        let (func, fs) = sp.time("cpu_model.hierarchy", name, round, || {
            let mut h = Hierarchy::new(&cfg, cells::adaptive_l2());
            run_functional(&mut h, buf.iter().copied(), CELL_INSTS)
        });
        checks.check(
            &format!("buffered functional {name}"),
            cells::diff("stats", r.func, fs),
        );
        let (pipe, ps) = sp.time("cpu_model.pipeline", name, round, || {
            Pipeline::new(cfg, cells::adaptive_l2()).run(buf.iter().copied(), CELL_INSTS)
        });
        sp.link(func, pipe);
        checks.check(
            &format!("buffered timed {name}"),
            cells::diff("stats", &r.timed, &ps),
        );
        let (_, trace) = sp.time("cache_sim.l1", name, round, || {
            capture_functional(&cfg, buf.iter().copied(), CELL_INSTS)
        });
        let d = cells::diff("front stats", r.trace.front_stats(), trace.front_stats());
        checks.check(&format!("buffered capture {name}"), d);

        let (dec, _) = sp.time("cpu_model.replay_decode", name, round, || {
            black_box(trace.events().fold(0u64, |a, e| a ^ e.addr))
        });
        replay_cache::clear();
        sp.time("cpu_model.capture", name, round, || {
            replay_cache::get_or_capture(b, &cfg, CELL_INSTS)
        });
        let mut org_hits = [(0, 0); 6];
        for (o, (slug, kind)) in orgs.iter().enumerate() {
            let cell = format!("{name} x {slug}");
            let (build, mut l2) = sp.time("experiments.l2_build", &cell, round, || {
                cells::build_org(kind)
            });
            let (replay, s) = sp.time(org_layer(o), name, round, || replay_l2(&trace, &mut *l2));
            sp.link(dec, replay);
            let (whole, res) = sp.time("experiments.run_functional_l2", &cell, round, || {
                run_functional_l2(b, kind, PAPER_L2, CELL_INSTS)
            });
            sp.link(build, whole);
            sp.link(replay, whole);
            let d = cells::diff("cell vs replay", Some(s), res.ok().map(|m| m.stats));
            checks.check(&format!("run_functional_l2 {cell}"), d);
            org_hits[o] = (l2.stats().hits, l2.stats().accesses);
            let expected = match o {
                ADAPTIVE_8BIT => Some(r.func.l2_misses),
                LRU => Some(r.lru_misses),
                _ => None,
            };
            if let Some(e) = expected {
                checks.check(
                    &format!("replay {cell}"),
                    cells::diff("l2 misses", e, s.l2_misses),
                );
            }
        }
        let (_, bytes) = sp.time("cpu_model.codec_encode", name, round, || {
            encode_trace(&trace, fp)
        });
        let (_, decoded) = sp.time("cpu_model.codec_decode", name, round, || {
            decode_trace(&bytes, fp)
        });
        let ok = decoded.map(|d| d.len() == trace.len()).unwrap_or(false);
        checks.check(
            &format!("codec {name}"),
            cells::diff("decoded events match", true, ok),
        );
        let (_, opt) = sp.time("cpu_model.belady", name, round, || belady(&trace, geom, 0));
        let bound = r.func_cell.l2_misses.min(r.lru_misses);
        checks.check(
            &format!("belady {name}"),
            cells::diff("OPT within bound", true, opt.misses <= bound),
        );
        counts.push(Counts {
            events: trace.len() as u64,
            bytes: bytes.len() as u64,
            org_hits,
        });
    }
    counts
}

fn org_layer(o: usize) -> &'static str {
    [
        "core.l2.lru",
        "core.l2.lfu5",
        "core.l2.adaptive-full",
        "core.l2.adaptive-8bit",
        "core.l2.sbar",
        "core.l2.dip",
    ][o]
}

/// Exact telemetry counts of one instrumented round.
struct HubCounts {
    events_seen: u64,
    windows: u64,
    accesses: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

fn window_count(hub: &ac_telemetry::Telemetry) -> u64 {
    hub.timelines().iter().map(|t| t.windows.len() as u64).sum()
}

fn counter(hub: &ac_telemetry::Telemetry, name: &'static str) -> u64 {
    hub.counters().get(name).map_or(0, |m| m.values().sum())
}

/// Instrumented replays (adaptive 8-bit and SBAR) with the hub installed.
fn hub_round(
    round: usize,
    suite: &[Benchmark],
    refs: &[Reference],
    hub: &ac_telemetry::Telemetry,
    sp: &mut Spans,
    checks: &mut Checks,
) -> HubCounts {
    let orgs = cells::orgs();
    let seen0 = hub.events_seen();
    let windows0 = window_count(hub);
    let mut accesses = 0;
    for (b, r) in suite.iter().zip(refs) {
        for o in [ADAPTIVE_8BIT, SBAR] {
            let mut l2 = cells::build_org(&orgs[o].1);
            let (_, s) = sp.time(hub_layer(o), &b.name, round, || {
                replay_l2(&r.trace, &mut *l2)
            });
            accesses += l2.stats().accesses;
            if o == ADAPTIVE_8BIT {
                checks.check(
                    &format!("instrumented replay {}", b.name),
                    cells::diff("stats", r.func, s),
                );
            }
        }
    }
    let seen = hub.events_seen() - seen0;
    let windows = window_count(hub) - windows0;
    // The sweep's replay-cache behaviour: one capture per benchmark, then
    // every organisation's cell replays it.
    let (hits0, caps0) = (
        counter(hub, "replay_cache_hits_total"),
        counter(hub, "replay_cache_captures_total"),
    );
    if round == 0 {
        replay_cache::clear();
        for b in suite {
            for (_, kind) in &orgs {
                let res = run_functional_l2(b, kind, PAPER_L2, CELL_INSTS);
                checks.check(
                    &format!("instrumented cell {}", b.name),
                    cells::diff("ok", true, res.is_ok()),
                );
            }
        }
    }
    let hits = counter(hub, "replay_cache_hits_total") - hits0;
    let caps = counter(hub, "replay_cache_captures_total") - caps0;
    HubCounts {
        events_seen: seen,
        windows,
        accesses,
        cache_hits: hits,
        cache_lookups: hits + caps,
    }
}

fn hub_layer(o: usize) -> &'static str {
    if o == ADAPTIVE_8BIT {
        "telemetry.replay.adaptive-8bit"
    } else {
        "telemetry.replay.sbar"
    }
}

/// The traced run of `w`: an untraced timed phase (for the tracing
/// overhead), hub-off layer rounds, then hub-on rounds.
pub fn run(w: Workload, seed: u64, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let (_, s) = run::setup(w, seed);
    let refs = run::references(seed, &s.suite, checks);
    let mut untraced: Option<Samples> = None;
    if w != Workload::InstrumentedAudit {
        untraced = Some(run::timed_phase(w, seed, &s, &refs, seconds / 2.0, checks));
    }
    let mut sp = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut buf = Vec::with_capacity(CELL_INSTS as usize);
    let start = Instant::now();
    let mut counts = Vec::new();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        counts = round(rounds, &s.suite, &refs, &mut buf, &mut sp, checks);
        rounds += 1;
    }
    drop(buf);
    let hub = run::install_hub();
    if w == Workload::InstrumentedAudit {
        untraced = Some(run::timed_phase(w, seed, &s, &refs, seconds / 2.0, checks));
    }
    let hc = hub_round(0, &s.suite, &refs, hub, &mut sp, checks);
    for r in 1..rounds {
        hub_round(r, &s.suite, &refs, hub, &mut sp, checks);
    }
    let path = format!(".bench_out/{}-seed{}.spans.jsonl", w.name(), seed);
    if let Err(e) = sp.write(&path) {
        checks.check("write spans", vec![format!("{path}: {e}")]);
    }
    let untraced = untraced.expect("untraced phase ran").p50();
    metrics(
        w,
        &s.suite,
        &refs,
        &counts,
        &hc,
        &sp.self_medians(),
        untraced,
        rounds,
    )
}

#[allow(clippy::too_many_arguments)]
fn metrics(
    w: Workload,
    suite: &[Benchmark],
    refs: &[Reference],
    counts: &[Counts],
    hc: &HubCounts,
    m: &BTreeMap<(&'static str, String), f64>,
    untraced_p50: f64,
    rounds: usize,
) -> Vec<Metric> {
    let orgs = cells::orgs();
    let n = suite.len() as f64;
    let insts = CELL_INSTS as f64;
    let get =
        |layer: &'static str, cell: &str| m.get(&(layer, cell.to_string())).copied().unwrap_or(0.0);
    let sum = |layer: &'static str| suite.iter().map(|b| get(layer, &b.name)).sum::<f64>();
    let sum_cells = |layer: &'static str| {
        suite
            .iter()
            .flat_map(|b| {
                orgs.iter()
                    .map(move |(slug, _)| format!("{} x {slug}", b.name))
            })
            .map(|c| get(layer, &c))
            .sum::<f64>()
    };
    let events: f64 = counts.iter().map(|c| c.events as f64).sum();
    let bytes: f64 = counts.iter().map(|c| c.bytes as f64).sum();
    let front: Vec<_> = refs.iter().map(|r| r.trace.front_stats()).collect();
    let ratio = |num: u64, den: u64| num as f64 / den as f64;

    let mut out = Vec::new();
    for b in suite {
        out.push(Metric::new(
            format!("workloads.gen_ns_per_inst.{}", b.name),
            get("workloads.gen", &b.name) / insts,
            "ns",
        ));
    }
    out.push(Metric::new(
        "cache_sim.l1_ns_per_inst",
        sum("cache_sim.l1") / (n * insts),
        "ns",
    ));
    out.push(Metric::new(
        "cache_sim.l1d_miss_ratio",
        ratio(
            front.iter().map(|f| f.l1d_misses).sum(),
            front.iter().map(|f| f.data_accesses).sum(),
        ),
        "ratio",
    ));
    out.push(Metric::new(
        "cache_sim.l1i_miss_ratio",
        ratio(
            front.iter().map(|f| f.l1i_misses).sum(),
            front.iter().map(|f| f.inst_fetches).sum(),
        ),
        "ratio",
    ));
    for (o, (slug, _)) in orgs.iter().enumerate() {
        out.push(Metric::new(
            format!("core.l2_ns_per_access.{slug}"),
            sum(org_layer(o)) / events,
            "ns",
        ));
    }
    for (b, c) in suite.iter().zip(counts) {
        let v = get(org_layer(ADAPTIVE_8BIT), &b.name) / c.events as f64;
        out.push(Metric::new(
            format!("core.l2_ns_per_access.{}", b.name),
            v,
            "ns",
        ));
    }
    for (o, (slug, _)) in orgs.iter().enumerate() {
        let (h, a) = counts.iter().fold((0, 0), |(h, a), c| {
            (h + c.org_hits[o].0, a + c.org_hits[o].1)
        });
        out.push(Metric::new(
            format!("core.l2_hit_ratio.{slug}"),
            ratio(h, a),
            "ratio",
        ));
    }
    let (ia, ib) = refs.iter().fold((0, 0), |(a, b), r| {
        (a + r.func_cell.imit_a, b + r.func_cell.imit_b)
    });
    out.push(Metric::new(
        "core.imitation_b_frac",
        ratio(ib, ia + ib),
        "ratio",
    ));
    let pipeline_self = sum("cpu_model.pipeline") / (n * insts);
    out.push(Metric::new(
        "cpu_model.pipeline_self_ns_per_inst",
        pipeline_self,
        "ns",
    ));
    out.push(Metric::new(
        "cpu_model.capture_ns_per_inst",
        sum("cpu_model.capture") / (n * insts),
        "ns",
    ));
    let decode = sum("cpu_model.replay_decode");
    out.push(Metric::new(
        "cpu_model.replay_decode_ns_per_event",
        decode / events,
        "ns",
    ));
    out.push(Metric::new(
        "cpu_model.codec_encode_ns_per_byte",
        sum("cpu_model.codec_encode") / bytes,
        "ns",
    ));
    out.push(Metric::new(
        "cpu_model.codec_decode_ns_per_byte",
        sum("cpu_model.codec_decode") / bytes,
        "ns",
    ));
    out.push(Metric::new(
        "cpu_model.belady_ns_per_event",
        sum("cpu_model.belady") / events,
        "ns",
    ));
    out.push(Metric::new(
        "cpu_model.l2_events_per_kinst",
        events * 1000.0 / (n * insts),
        "count",
    ));
    out.push(Metric::new(
        "cpu_model.trace_bytes_per_event",
        bytes / events,
        "B",
    ));
    let cells_n = n * orgs.len() as f64;
    out.push(Metric::new(
        "experiments.l2_build_us",
        sum_cells("experiments.l2_build") / cells_n / 1e3,
        "us",
    ));
    let overhead = sum_cells("experiments.run_functional_l2");
    out.push(Metric::new(
        "experiments.cell_overhead_us",
        overhead / cells_n / 1e3,
        "us",
    ));
    out.push(Metric::new(
        "experiments.replay_cache_hit_ratio",
        ratio(hc.cache_hits, hc.cache_lookups),
        "ratio",
    ));
    let instrumented = sum("telemetry.replay.adaptive-8bit") + sum("telemetry.replay.sbar");
    let plain = sum(org_layer(ADAPTIVE_8BIT)) + sum(org_layer(SBAR)) + 2.0 * decode;
    out.push(Metric::new(
        "telemetry.overhead_ns_per_access",
        (instrumented - plain) / hc.accesses as f64,
        "ns",
    ));
    out.push(Metric::new(
        "telemetry.events_per_kaccess",
        ratio(hc.events_seen * 1000, hc.accesses),
        "count",
    ));
    out.push(Metric::new(
        "telemetry.timeline_windows",
        hc.windows as f64,
        "count",
    ));

    // The traced cell of this workload as a sum of layer self times.
    let l2_a8 = sum(org_layer(ADAPTIVE_8BIT));
    let parts: Vec<(&str, f64)> = match w {
        Workload::FunctionalDirect => vec![
            ("workloads.gen", sum("workloads.gen")),
            ("cache_sim.l1 (capture)", sum("cache_sim.l1")),
            ("core.l2 adaptive-8bit", l2_a8),
            ("cpu_model.replay_decode", decode),
        ],
        Workload::TimedPipeline => vec![
            ("workloads.gen", sum("workloads.gen")),
            ("cpu_model.hierarchy", sum("cpu_model.hierarchy")),
            ("cpu_model.pipeline (self)", sum("cpu_model.pipeline")),
        ],
        Workload::L2ReplaySweep => {
            let l2: f64 = (0..orgs.len()).map(|o| sum(org_layer(o))).sum();
            vec![
                ("experiments.l2_build", sum_cells("experiments.l2_build")),
                ("core.l2 (all organisations)", l2),
                ("cpu_model.replay_decode", decode * orgs.len() as f64),
                ("experiments.run_functional_l2 (self)", overhead),
            ]
        }
        Workload::InstrumentedAudit => vec![
            ("cpu_model.codec_encode", sum("cpu_model.codec_encode")),
            ("cpu_model.codec_decode", sum("cpu_model.codec_decode")),
            (
                "telemetry + core.l2 adaptive-8bit",
                sum("telemetry.replay.adaptive-8bit"),
            ),
            ("telemetry + core.l2 sbar", sum("telemetry.replay.sbar")),
            ("cpu_model.belady", sum("cpu_model.belady")),
        ],
    };
    let cells_in_workload = if w == Workload::L2ReplaySweep {
        cells_n
    } else {
        n
    };
    let traced: f64 = parts.iter().map(|(_, v)| v).sum::<f64>() / (cells_in_workload * insts);
    let overhead_pct = 100.0 * (traced - untraced_p50) / untraced_p50;
    println!(
        "traced cell of {} ({} rounds), ns per simulated instruction:",
        w.name(),
        rounds
    );
    for (layer, v) in &parts {
        let per = v / (cells_in_workload * insts);
        println!("  {layer:<40} {per:>10.3}  {:>5.1}%", 100.0 * per / traced);
    }
    println!("  sum of self times {traced:.3}, untraced p50 {untraced_p50:.3}, overhead {overhead_pct:.2}%");
    out.push(Metric::new("trace.overhead_pct", overhead_pct, "%"));
    out
}
