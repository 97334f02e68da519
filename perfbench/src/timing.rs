//! Chunk timing: a closed round-robin loop over cells and the statistics
//! reported from it.

use std::time::{Duration, Instant};

/// Chunk times of one timed phase, in ns, per cell.
pub struct Samples {
    pub per_cell: Vec<Vec<f64>>,
    /// Simulated instructions one chunk of each cell accounts for. A
    /// workload that splits a unit of work into several timed steps gives
    /// the unit's instructions to one step and 0 to the others.
    pub cell_insts: Vec<u64>,
    pub insts: u64,
    pub wall: Duration,
    /// Peak resident set size when timing starts, after set-up,
    /// verification and warm-up: a fixed amount of work, whereas the
    /// timed phase's work grows with host speed.
    pub peak_rss_mb: f64,
}

/// Visits cells `0..cells` round-robin, one chunk each, until `seconds`
/// have passed at the end of a round (so every cell has the same number
/// of chunks). `chunk(i)` runs one chunk of cell `i` and returns its own
/// measured time and the instructions it accounts for.
pub fn rounds(
    seconds: f64,
    cells: usize,
    mut chunk: impl FnMut(usize) -> (Duration, u64),
) -> Samples {
    let mut s = Samples {
        per_cell: vec![Vec::new(); cells],
        cell_insts: vec![0; cells],
        insts: 0,
        wall: Duration::ZERO,
        peak_rss_mb: peak_rss_mb(),
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for i in 0..cells {
            let (t, insts) = chunk(i);
            s.per_cell[i].push(t.as_nanos() as f64);
            s.cell_insts[i] = insts;
            s.insts += insts;
        }
    }
    s.wall = start.elapsed();
    s
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile, `q` in `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentile reported with its sample count.
pub struct Tail {
    pub percentile: u32,
    pub samples: usize,
    pub value: f64,
}

impl Samples {
    pub fn chunks(&self) -> usize {
        self.per_cell.iter().map(Vec::len).sum()
    }

    /// One statistic of each cell's chunk times, summed over cells, per
    /// simulated instruction of one chunk of every cell.
    fn per_inst(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let ns: f64 = self.per_cell.iter().map(|c| stat(c)).sum();
        ns / self.cell_insts.iter().sum::<u64>() as f64
    }

    /// Host ns per simulated instruction at each cell's fastest chunk.
    /// Every chunk of a cell repeats the same kind of simulated work, so
    /// its fastest repetition is the one least slowed by other load on the
    /// host, which comes in bursts of seconds that no median within a run
    /// averages out.
    pub fn best(&self) -> f64 {
        self.per_inst(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// Host ns per simulated instruction at each cell's median chunk (a
    /// median pooled over cells would sit between cells several-fold
    /// apart in cost).
    pub fn p50(&self) -> f64 {
        self.per_inst(median)
    }

    /// The highest of p99/p98/p95/p90/p75/p50, at most `max_percentile`,
    /// with at least ten chunks beyond it, taken over every chunk's time
    /// relative to its cell's median and scaled by [`Samples::p50`]. Each
    /// workload fixes `max_percentile` from its usual chunk count, so the
    /// reported percentile does not change with small speed changes.
    pub fn tail(&self, max_percentile: u32) -> Tail {
        let rel: Vec<f64> = self
            .per_cell
            .iter()
            .flat_map(|c| {
                let m = median(c);
                c.iter().map(move |x| x / m)
            })
            .collect();
        let n = rel.len();
        let percentile = [99, 98, 95, 90, 75, 50]
            .into_iter()
            .filter(|&p| p <= max_percentile)
            .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
            .unwrap_or(50);
        Tail {
            percentile,
            samples: n,
            value: self.p50() * quantile(&rel, f64::from(percentile) / 100.0),
        }
    }

    pub fn minst_per_s(&self) -> f64 {
        self.insts as f64 / self.wall.as_secs_f64() / 1e6
    }

    /// Writes every chunk time (ns), one array per cell.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let cells: Vec<String> = self.per_cell.iter().map(|c| format!("{c:?}")).collect();
        let body = format!(
            "{{\"cell_insts\": {:?}, \"chunk_ns\": [{}]}}\n",
            self.cell_insts,
            cells.join(",\n")
        );
        write_out(path, &body)
    }
}

/// Writes a result file, creating its directory.
pub fn write_out(path: &str, body: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body)
}

/// Runs `f` `reps` times and returns the median wall time in seconds
/// together with the last result.
pub fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
