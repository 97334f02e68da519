//! The four workloads, untraced: set-up, verification, warm-up and the
//! timed closed loop that gives the end-to-end metrics.

use crate::cells::{
    self, CellStats, Checks, Reference, ADAPTIVE_8BIT, BENCHES, CELL_INSTS, LRU, SBAR,
};
use crate::golden::GOLDEN;
use crate::timing::{self, Samples};
use crate::Metric;
use adaptive_cache::{AdaptiveCache, SbarCache, SbarConfig};
use cache_sim::CacheModel;
use cpu_model::{belady, config_fingerprint, decode_trace, encode_trace, replay_into};
use cpu_model::{run_functional, FunctionalStats, Hierarchy, L2Complex, L2Trace, Pipeline};
use experiments::{replay_cache, run_functional_l2, CACHE_SEED, PAPER_L2};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Benchmark, TraceGen};

/// Instructions per timed chunk of a direct cell (a few ms of work).
pub const CHUNK_INSTS: u64 = 25_000;
/// Untimed rounds before timing starts.
const WARMUP_ROUNDS: usize = 16;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS_DIRECT: usize = 31;
const SETUP_REPS_REPLAY: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FunctionalDirect,
    TimedPipeline,
    L2ReplaySweep,
    InstrumentedAudit,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FunctionalDirect,
        Workload::TimedPipeline,
        Workload::L2ReplaySweep,
        Workload::InstrumentedAudit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FunctionalDirect => "functional-direct",
            Workload::TimedPipeline => "timed-pipeline",
            Workload::L2ReplaySweep => "l2-replay-sweep",
            Workload::InstrumentedAudit => "instrumented-audit",
        }
    }

    /// Tail percentile: the highest with ten chunks beyond it at this
    /// host's usual chunk count in a 15 s run (900 to 5,500 chunks).
    fn tail_percentile(self) -> u32 {
        match self {
            Workload::FunctionalDirect | Workload::TimedPipeline => 99,
            Workload::L2ReplaySweep | Workload::InstrumentedAudit => 98,
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A cell that runs in chunks and is checked when its budget is spent.
pub trait Chunked {
    fn new(b: &Benchmark) -> Self;
    fn chunk(&mut self, insts: u64);
    fn done(&self) -> u64;
    fn diff(&self, r: &Reference) -> Vec<String>;
}

/// A functional cell: the adaptive 8-bit L2 hierarchy fed straight from
/// the generator, resumed chunk by chunk.
pub struct FuncCell {
    h: Hierarchy<AdaptiveCache>,
    gen: TraceGen,
    done: u64,
    data: u64,
    fetches: u64,
    chunks: u64,
    last: FunctionalStats,
}

impl Chunked for FuncCell {
    fn new(b: &Benchmark) -> FuncCell {
        FuncCell {
            h: Hierarchy::new(&cells::config(), cells::adaptive_l2()),
            gen: b.spec.generator(),
            done: 0,
            data: 0,
            fetches: 0,
            chunks: 0,
            last: FunctionalStats::default(),
        }
    }

    fn chunk(&mut self, insts: u64) {
        let s = run_functional(&mut self.h, &mut self.gen, insts);
        self.done += s.instructions;
        self.data += s.data_accesses;
        self.fetches += s.inst_fetches;
        self.chunks += 1;
        self.last = s;
    }

    fn done(&self) -> u64 {
        self.done
    }

    /// Differences against the capture + replay reference. A chunk
    /// boundary re-fetches the current instruction block (an L1I hit), so
    /// `inst_fetches` may exceed the reference by up to one per chunk.
    fn diff(&self, r: &Reference) -> Vec<String> {
        let actual = FunctionalStats {
            instructions: self.done,
            data_accesses: self.data,
            inst_fetches: r.func.inst_fetches,
            ..self.last
        };
        let mut d = cells::diff("functional stats", r.func, actual);
        let extra = self.fetches.wrapping_sub(r.func.inst_fetches);
        if extra > self.chunks {
            d.push(format!(
                "inst_fetches {} vs reference {} over {} chunks",
                self.fetches, r.func.inst_fetches, self.chunks
            ));
        }
        let l2 = self.h.l2();
        d.extend(cells::diff_cell(
            &r.func_cell,
            &CellStats::of(l2.stats(), l2.imitation_totals(), 0),
        ));
        d
    }
}

/// A timed cell: `Pipeline` with the adaptive 8-bit L2, resumed chunk by
/// chunk on a persistent generator.
pub struct TimedCell {
    pipe: Pipeline<AdaptiveCache>,
    gen: TraceGen,
}

impl Chunked for TimedCell {
    fn new(b: &Benchmark) -> TimedCell {
        TimedCell {
            pipe: Pipeline::new(cells::config(), cells::adaptive_l2()),
            gen: b.spec.generator(),
        }
    }

    fn chunk(&mut self, insts: u64) {
        self.pipe.run(&mut self.gen, insts);
    }

    fn done(&self) -> u64 {
        self.pipe.instructions()
    }

    fn diff(&self, r: &Reference) -> Vec<String> {
        let s = self.pipe.stats();
        let mut d = cells::diff("run stats", &r.timed, &s);
        let cell = CellStats::of(&s.l2, self.pipe.l2().imitation_totals(), s.cycles);
        d.extend(cells::diff_cell(&r.timed_cell, &cell));
        d
    }
}

/// Set-up state: the suite, plus the captured traces of the replay
/// workloads (each cell's modelled caches are built empty per cell).
pub struct Setup {
    pub suite: Vec<Benchmark>,
    pub traces: Vec<Arc<L2Trace>>,
}

/// Suite, cache and trace-capture set-up, repeated; returns the median
/// time in seconds.
pub fn setup(w: Workload, seed: u64) -> (f64, Setup) {
    fn direct<C: Chunked>(seed: u64) -> Setup {
        let suite = cells::suite(seed);
        drop(suite.iter().map(C::new).collect::<Vec<C>>());
        Setup {
            suite,
            traces: Vec::new(),
        }
    }
    match w {
        Workload::FunctionalDirect => {
            timing::median_of(SETUP_REPS_DIRECT, || direct::<FuncCell>(seed))
        }
        Workload::TimedPipeline => {
            timing::median_of(SETUP_REPS_DIRECT, || direct::<TimedCell>(seed))
        }
        Workload::L2ReplaySweep | Workload::InstrumentedAudit => {
            timing::median_of(SETUP_REPS_REPLAY, || {
                replay_cache::clear();
                let suite = cells::suite(seed);
                let traces = suite
                    .iter()
                    .map(|b| replay_cache::get_or_capture(b, &cells::config(), CELL_INSTS).0)
                    .collect();
                Setup { suite, traces }
            })
        }
    }
}

/// Untimed per-run references, checked before anything is timed.
pub fn references(seed: u64, suite: &[Benchmark], checks: &mut Checks) -> Vec<Reference> {
    let refs: Vec<Reference> = suite.iter().map(Reference::compute).collect();
    cells::verify_references(seed, suite, &refs, checks);
    refs
}

fn timed<T: FnOnce() -> R, R>(f: T) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// The direct workloads' loop: round-robin chunks over one cell per
/// benchmark; a finished cell is checked and replaced by a fresh one.
fn direct_loop<C: Chunked>(
    suite: &[Benchmark],
    refs: &[Reference],
    seconds: f64,
    checks: &mut Checks,
) -> Samples {
    let mut cells: Vec<C> = suite.iter().map(C::new).collect();
    let mut step = |i: usize, checks: &mut Checks| -> Duration {
        let cell = &mut cells[i];
        let (t, r) = timed(|| catch_unwind(AssertUnwindSafe(|| cell.chunk(CHUNK_INSTS))));
        let what = format!("cell {}", suite[i].name);
        match r {
            Err(p) => {
                checks.panicked(&what, p.as_ref());
                *cell = C::new(&suite[i]);
            }
            Ok(()) if cell.done() >= CELL_INSTS => {
                checks.check(&what, cell.diff(&refs[i]));
                *cell = C::new(&suite[i]);
            }
            Ok(()) => {}
        }
        t
    };
    for _ in 0..WARMUP_ROUNDS {
        for i in 0..suite.len() {
            step(i, &mut Checks::default());
        }
    }
    timing::rounds(seconds, suite.len(), |i| (step(i, checks), CHUNK_INSTS))
}

/// Expected L2 misses of a sweep or audit cell: pinned on seed 0.
fn pinned(seed: u64, bench: usize, f: impl Fn(&crate::golden::Golden) -> u64) -> Option<u64> {
    (seed == 0).then(|| f(&GOLDEN[bench]))
}

fn sweep_loop(
    seed: u64,
    s: &Setup,
    refs: &[Reference],
    seconds: f64,
    checks: &mut Checks,
) -> Samples {
    let orgs = cells::orgs();
    let n = s.suite.len() * orgs.len();
    let mut first_seen = vec![None; n];
    let mut step = |cell: usize, checks: &mut Checks| -> Duration {
        let (b, o) = (cell / orgs.len(), cell % orgs.len());
        let (t, r) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_functional_l2(&s.suite[b], &orgs[o].1, PAPER_L2, CELL_INSTS)
            }))
        });
        let what = format!("cell {} x {}", BENCHES[b], orgs[o].0);
        match r {
            Err(p) => checks.panicked(&what, p.as_ref()),
            Ok(Err(e)) => checks.check(&what, vec![format!("error: {e}")]),
            Ok(Ok(res)) => match o {
                ADAPTIVE_8BIT => {
                    checks.check(
                        &what,
                        cells::diff("functional stats", refs[b].func, res.stats),
                    );
                }
                LRU => {
                    checks.check(
                        &what,
                        cells::diff("l2 misses", refs[b].lru_misses, res.stats.l2_misses),
                    );
                }
                _ => cells::check_pinned(
                    checks,
                    &what,
                    pinned(seed, b, |g| g.org_misses[o]),
                    &mut first_seen[cell],
                    res.stats.l2_misses,
                ),
            },
        }
        t
    };
    for cell in 0..n {
        step(cell, &mut Checks::default());
    }
    timing::rounds(seconds, n, |cell| (step(cell, checks), CELL_INSTS))
}

/// The audit of one captured trace, in separately timed steps: ACRS
/// encode, decode, instrumented replays of the decoded trace into
/// adaptive 8-bit and SBAR, and the Belady oracle.
const AUDIT_STEPS: usize = 5;

#[derive(Default)]
struct AuditState {
    bytes: Vec<u8>,
    decoded: Option<L2Trace>,
    adaptive: Option<(FunctionalStats, CellStats)>,
    sbar_misses: u64,
    opt_misses: u64,
}

fn audit_step(step: usize, trace: &L2Trace, st: &mut AuditState) -> Result<(), String> {
    let fp = config_fingerprint();
    let geom = cells::l2_geometry();
    if step == 0 {
        *st = AuditState::default();
        st.bytes = encode_trace(trace, fp);
        return Ok(());
    }
    if step == 1 {
        st.decoded = Some(decode_trace(&st.bytes, fp).map_err(|e| format!("decode: {e}"))?);
        return Ok(());
    }
    let decoded = st.decoded.as_ref().ok_or("no decoded trace")?;
    match step {
        2 => {
            let mut a = L2Complex::new(cells::adaptive_l2());
            let stats = replay_into(decoded, &mut a);
            st.adaptive = Some((
                stats,
                CellStats::of(a.l2().stats(), a.l2().imitation_totals(), 0),
            ));
        }
        3 => {
            let mut s = L2Complex::new(SbarCache::new(
                geom,
                SbarConfig::paper_default(),
                CACHE_SEED,
            ));
            st.sbar_misses = replay_into(decoded, &mut s).l2_misses;
        }
        _ => st.opt_misses = belady(decoded, geom, 0).misses,
    }
    Ok(())
}

/// Installs the in-memory telemetry hub at the sampling rate the
/// environment switch uses, with no artifact directory.
pub fn install_hub() -> &'static ac_telemetry::Telemetry {
    if let Some(hub) = ac_telemetry::hub() {
        return hub;
    }
    let cfg = ac_telemetry::TelemetryConfig::default()
        .with_sample_rate(ac_telemetry::DEFAULT_ENV_SAMPLE_RATE);
    ac_telemetry::Telemetry::install(cfg).expect("no other recorder is installed")
}

/// Full equality of a decoded trace with the original.
fn roundtrip_diff(trace: &L2Trace) -> Vec<String> {
    let fp = config_fingerprint();
    match decode_trace(&encode_trace(trace, fp), fp) {
        Err(e) => vec![format!("decode: {e}")],
        Ok(d) => {
            let mut out = cells::diff("front stats", trace.front_stats(), d.front_stats());
            out.extend(cells::diff("events", trace.len(), d.len()));
            if !trace.events().eq(d.events()) {
                out.push("event streams differ".to_string());
            }
            out
        }
    }
}

fn audit_loop(
    seed: u64,
    s: &Setup,
    refs: &[Reference],
    seconds: f64,
    checks: &mut Checks,
) -> Samples {
    for (b, t) in s.suite.iter().zip(&s.traces) {
        checks.check(&format!("trace round trip {}", b.name), roundtrip_diff(t));
    }
    install_hub();
    let mut first_seen = vec![(None, None); s.suite.len()];
    let mut state: Vec<AuditState> = s.suite.iter().map(|_| AuditState::default()).collect();
    let mut broken = vec![false; s.suite.len()];
    let mut step = |cell: usize, checks: &mut Checks| -> Duration {
        let (b, k) = (cell / AUDIT_STEPS, cell % AUDIT_STEPS);
        let what = format!("audit {}", BENCHES[b]);
        if k == 0 {
            broken[b] = false;
        }
        if broken[b] {
            return Duration::ZERO;
        }
        let st = &mut state[b];
        let (t, r) = timed(|| catch_unwind(AssertUnwindSafe(|| audit_step(k, &s.traces[b], st))));
        match r {
            Err(p) => {
                broken[b] = true;
                checks.panicked(&what, p.as_ref());
            }
            Ok(Err(e)) => {
                broken[b] = true;
                checks.check(&what, vec![e]);
            }
            Ok(Ok(())) if k == AUDIT_STEPS - 1 => {
                let r = &refs[b];
                let (stats, cell) = st.adaptive.expect("replayed in step 2");
                let mut d = cells::diff("functional stats", r.func, stats);
                d.extend(cells::diff_cell(&r.func_cell, &cell));
                if st.opt_misses > cell.l2_misses.min(r.lru_misses) {
                    d.push(format!(
                        "Belady misses {} exceed adaptive {} or LRU {}",
                        st.opt_misses, cell.l2_misses, r.lru_misses
                    ));
                }
                checks.check(&what, d);
                let (sbar, opt) = &mut first_seen[b];
                let g_sbar = pinned(seed, b, |g| g.org_misses[SBAR]);
                cells::check_pinned(
                    checks,
                    &format!("{what} sbar"),
                    g_sbar,
                    sbar,
                    st.sbar_misses,
                );
                let g_opt = pinned(seed, b, |g| g.opt_misses);
                cells::check_pinned(checks, &format!("{what} belady"), g_opt, opt, st.opt_misses);
            }
            Ok(Ok(())) => {}
        }
        t
    };
    let n = s.suite.len() * AUDIT_STEPS;
    for cell in 0..n {
        step(cell, &mut Checks::default());
    }
    // A trace's audit accounts for its cell's instructions once.
    let insts = |cell: usize| {
        if cell.is_multiple_of(AUDIT_STEPS) {
            CELL_INSTS
        } else {
            0
        }
    };
    timing::rounds(seconds, n, |cell| (step(cell, checks), insts(cell)))
}

/// The timed phase of `w`, after set-up and references.
pub fn timed_phase(
    w: Workload,
    seed: u64,
    s: &Setup,
    refs: &[Reference],
    seconds: f64,
    checks: &mut Checks,
) -> Samples {
    match w {
        Workload::FunctionalDirect => direct_loop::<FuncCell>(&s.suite, refs, seconds, checks),
        Workload::TimedPipeline => direct_loop::<TimedCell>(&s.suite, refs, seconds, checks),
        Workload::L2ReplaySweep => sweep_loop(seed, s, refs, seconds, checks),
        Workload::InstrumentedAudit => audit_loop(seed, s, refs, seconds, checks),
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(w: Workload, seed: u64, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let (setup_s, s) = setup(w, seed);
    let refs = references(seed, &s.suite, checks);
    for (b, (t, r)) in s.suite.iter().zip(s.traces.iter().zip(&refs)) {
        let d = cells::diff("captured events", r.trace.len(), t.len());
        checks.check(&format!("set-up capture {}", b.name), d);
    }
    let samples = timed_phase(w, seed, &s, &refs, seconds, checks);
    let tail = samples.tail(w.tail_percentile());
    let path = format!(".bench_out/{}-seed{}.chunks.json", w.name(), seed);
    if let Err(e) = samples.write(&path) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    let (mpki_gain, cpi_gain) = cells::gains(&refs);
    // Reported, but not gated: on a shared host they follow the other
    // load on the host (see NOTES.md).
    println!(
        "timed phase: {} chunks over {} cells in {:.2} s; minst_per_s {:.4} Minst/s; \
         ns_per_inst.p50 {:.3} ns; ns_per_inst.tail {:.3} ns (p{} of {} chunks)",
        samples.chunks(),
        samples.per_cell.len(),
        samples.wall.as_secs_f64(),
        samples.minst_per_s(),
        samples.p50(),
        tail.value,
        tail.percentile,
        tail.samples
    );
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ns_per_inst.best", samples.best(), "ns"),
        Metric::new("peak_rss_mb", samples.peak_rss_mb, "MB"),
        Metric::new("sim.l2_mpki_gain_pct", mpki_gain, "%"),
        Metric::new("sim.cpi_gain_pct", cpi_gain, "%"),
    ]
}
