//! The timestamp-based out-of-order pipeline model.
//!
//! Instructions are processed in program order; for each one the model
//! computes fetch, dispatch, issue, completion and retirement timestamps
//! under the machine's resource constraints:
//!
//! * **fetch** — `width` per cycle, stalling on I-cache misses and branch
//!   redirects (mispredictions and BTB misses),
//! * **dispatch** — blocked when the ROB (64) or RS (32) window is full,
//! * **issue** — waits for source operands (dependency distances from the
//!   trace) and a free functional unit of the right class,
//! * **memory** — loads occupy a memory port and, on a miss, an MSHR for
//!   the full miss latency (bounding MLP) and the split-transaction bus
//!   for the line transfer,
//! * **retire** — in order, `width` per cycle; stores must claim a store
//!   buffer entry at retirement and drain serially through the hierarchy
//!   (the structure whose capacity Figure 10 sweeps).
//!
//! The final cycle count is the retirement time of the last instruction.

use crate::branch::{BranchPredictor, BranchStats};
use crate::config::CpuConfig;
use crate::hierarchy::{Hierarchy, Level};
use cache_sim::{Cache, CacheModel, CacheStats, Geometry, PolicyKind};
use serde::{Deserialize, Serialize};
use workloads::{Inst, InstKind};

/// Ring buffer of timestamps for window constraints (ROB, RS, SB).
#[derive(Debug, Clone)]
struct TimeRing {
    times: Vec<u64>,
    idx: usize,
}

impl TimeRing {
    fn new(len: usize) -> Self {
        TimeRing {
            times: vec![0; len.max(1)],
            idx: 0,
        }
    }

    /// The timestamp recorded `len` pushes ago (0 until the ring wraps).
    fn oldest(&self) -> u64 {
        self.times[self.idx]
    }

    fn push(&mut self, t: u64) {
        self.times[self.idx] = t;
        self.idx = (self.idx + 1) % self.times.len();
    }

    /// Entries still occupied at time `t` (occupancy gauge).
    fn busy_at(&self, t: u64) -> u32 {
        self.times.iter().filter(|&&x| x > t).count() as u32
    }
}

/// A pool of identical resources, each tracked by its next-free time.
#[derive(Debug, Clone)]
struct Pool {
    free_at: Vec<u64>,
}

impl Pool {
    fn new(n: u32) -> Self {
        Pool {
            free_at: vec![0; n.max(1) as usize],
        }
    }

    /// Earliest time at or after `ready` a unit is available; occupies the
    /// chosen unit for `occupy` cycles from the grant time.
    fn acquire(&mut self, ready: u64, occupy: u64) -> u64 {
        let (slot, &t) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .unwrap();
        let grant = ready.max(t);
        self.free_at[slot] = grant + occupy;
        grant
    }

    /// Earliest-free slot and its free time, for two-phase acquisition
    /// (used for MSHRs, which stay busy until the miss returns).
    fn begin(&self) -> (usize, u64) {
        self.free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(i, &t)| (i, t))
            .unwrap()
    }

    /// Completes a two-phase acquisition: slot `slot` is busy until `until`.
    fn end(&mut self, slot: usize, until: u64) {
        self.free_at[slot] = until;
    }

    /// Units still occupied at time `t` (occupancy gauge).
    fn busy_at(&self, t: u64) -> u32 {
        self.free_at.iter().filter(|&&x| x > t).count() as u32
    }
}

/// Results of a [`Pipeline::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles (retirement time of the last instruction).
    pub cycles: u64,
    /// L1 instruction-cache statistics.
    pub l1i: CacheStats,
    /// L1 data-cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Branch predictor statistics.
    pub branches: BranchStats,
    /// Cycles lost waiting for a store-buffer entry at retirement.
    pub sb_stall_cycles: u64,
    /// Stores coalesced by write combining (0 unless enabled).
    pub wc_merged_stores: u64,
    /// Label of the L2 organisation that produced these numbers.
    pub l2_label: String,
}

impl RunStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// L2 misses per thousand instructions.
    pub fn l2_mpki(&self) -> f64 {
        self.l2.mpki(self.instructions)
    }

    /// L1D misses per thousand instructions.
    pub fn l1d_mpki(&self) -> f64 {
        self.l1d.mpki(self.instructions)
    }

    /// L1I misses per thousand instructions.
    pub fn l1i_mpki(&self) -> f64 {
        self.l1i.mpki(self.instructions)
    }
}

/// The out-of-order pipeline bound to a memory hierarchy.
///
/// Generic over the cache organisations so experiments can reach into
/// them (e.g. the phase sampling of Figure 7, or the adaptive-L1
/// experiment of Section 4.6); use [`Pipeline::with_lru_l2`] for the
/// conventional baseline or [`Pipeline::new`] with any [`CacheModel`].
#[derive(Debug)]
pub struct Pipeline<
    L2: CacheModel,
    L1I: CacheModel = Cache<PolicyKind>,
    L1D: CacheModel = Cache<PolicyKind>,
> {
    config: CpuConfig,
    hierarchy: Hierarchy<L2, L1I, L1D>,
    predictor: BranchPredictor,

    // --- timing state ---
    /// Next cycle a fetch slot is available.
    fetch_time: u64,
    /// Fetch slots used in the current fetch cycle.
    fetch_slots: u32,
    /// ROB slot reuse: retirement times of the last `rob_entries` insts.
    rob: TimeRing,
    /// RS occupancy: issue times of the last `rs_entries` insts.
    rs: TimeRing,
    /// Completion times of the last 256 instructions (dependency window).
    completions: Vec<u64>,
    inst_index: u64,
    /// Functional units.
    int_alu: Pool,
    int_mul: Pool,
    fp_alu: Pool,
    fp_div: Pool,
    mem_ports: Pool,
    mshrs: Pool,
    /// Store buffer slots (drain-completion times) + serial drain cursor.
    store_buffer: TimeRing,
    last_drain_end: u64,
    /// Split-transaction bus next-free time.
    bus_free: u64,
    /// Writeback (eviction) buffer slots between L2 and memory.
    wb_buffer: TimeRing,
    /// In-order retirement cursor.
    last_retire: u64,
    retire_slots: u32,
    retire_cycle: u64,
    sb_stall_cycles: u64,
    instructions: u64,
    /// Drain latency of the most recent store (consumed at retirement).
    pending_drain_cost: u64,
    /// Line address of the most recent store (for write combining).
    last_store_line: u64,
    /// Stores coalesced by write combining.
    wc_merged: u64,
}

impl Pipeline<Cache<PolicyKind>> {
    /// A pipeline with the conventional LRU L2 of the paper's baseline.
    pub fn with_lru_l2(config: CpuConfig) -> Self {
        let geom = Geometry::new(
            config.l2.size_bytes,
            config.l2.line_bytes,
            config.l2.associativity,
        )
        .expect("invalid L2 geometry");
        Pipeline::new(config, Cache::new(geom, PolicyKind::Lru, 0x12))
    }
}

impl<L2: CacheModel> Pipeline<L2> {
    /// Builds a pipeline around an arbitrary L2 organisation.
    pub fn new(config: CpuConfig, l2: L2) -> Self {
        Pipeline::with_hierarchy(config, Hierarchy::new(&config, l2))
    }
}

impl<L2: CacheModel, L1I: CacheModel, L1D: CacheModel> Pipeline<L2, L1I, L1D> {
    /// Builds a pipeline around a fully custom memory hierarchy.
    pub fn with_hierarchy(config: CpuConfig, mut hierarchy: Hierarchy<L2, L1I, L1D>) -> Self {
        hierarchy.reset_fetch();
        Pipeline {
            hierarchy,
            predictor: BranchPredictor::paper_default(),
            fetch_time: 0,
            fetch_slots: 0,
            rob: TimeRing::new(config.rob_entries as usize),
            rs: TimeRing::new(config.rs_entries as usize),
            completions: vec![0; 256],
            inst_index: 0,
            int_alu: Pool::new(config.int_alu_units),
            int_mul: Pool::new(config.int_mul_units),
            fp_alu: Pool::new(config.fp_alu_units),
            fp_div: Pool::new(config.fp_div_units),
            mem_ports: Pool::new(config.mem_ports),
            mshrs: Pool::new(config.mshrs),
            store_buffer: TimeRing::new(config.store_buffer_entries as usize),
            last_drain_end: 0,
            bus_free: 0,
            wb_buffer: TimeRing::new(config.writeback_buffer_entries as usize),
            last_retire: 0,
            retire_slots: 0,
            retire_cycle: 0,
            sb_stall_cycles: 0,
            instructions: 0,
            pending_drain_cost: 0,
            last_store_line: u64::MAX,
            wc_merged: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Cycles elapsed so far (retirement time of the newest instruction).
    pub fn cycles(&self) -> u64 {
        self.last_retire
    }

    /// Instructions processed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The L2 organisation (for inspection).
    pub fn l2(&self) -> &L2 {
        self.hierarchy.l2()
    }

    /// Mutable access to the L2 organisation (phase sampling).
    pub fn l2_mut(&mut self) -> &mut L2 {
        self.hierarchy.l2_mut()
    }

    /// Memory latency (cycles) of an access served at `level`, including
    /// bus occupancy for memory-level transfers, and advances the bus
    /// cursor. `start` is when the access leaves the core.
    fn memory_time(&mut self, level: Level, start: u64, extra_wbs: u32) -> u64 {
        let c = &self.config;
        let l1 = u64::from(c.l1d.hit_latency);
        match level {
            Level::L1 => start + l1,
            Level::L2 => start + l1 + u64::from(c.l2.hit_latency),
            Level::Memory => {
                let transfer = u64::from(c.bus_transfer_cycles());
                let request = start + l1 + u64::from(c.l2.hit_latency);
                let mut bus_grant = request.max(self.bus_free);
                // Dirty L2 victims need a writeback-buffer entry before
                // the fill can proceed (footnote 5: pre-reserved entries
                // prevent deadlocking the hierarchy's queues).
                for _ in 0..extra_wbs {
                    let slot_free = self.wb_buffer.oldest();
                    bus_grant = bus_grant.max(slot_free);
                    self.wb_buffer.push(bus_grant + transfer);
                }
                // The response transfer occupies the bus; writebacks add
                // further occupancy behind it.
                self.bus_free = bus_grant + transfer * u64::from(1 + extra_wbs);
                bus_grant + u64::from(c.mem_latency) + transfer
            }
        }
    }

    /// Processes one instruction and returns its retirement time.
    pub fn step(&mut self, inst: &Inst) -> u64 {
        let c = self.config;
        let idx = self.inst_index;
        self.inst_index += 1;
        self.instructions += 1;

        // ---- FETCH ---- (same-block fetches are free)
        if let Some(acc) = self.hierarchy.fetch_block(inst.pc) {
            let fetch_penalty = match acc.level {
                Level::L1 => 0,
                Level::L2 => u64::from(c.l2.hit_latency),
                Level::Memory => {
                    u64::from(c.l2.hit_latency)
                        + u64::from(c.mem_latency)
                        + u64::from(c.bus_transfer_cycles())
                }
            };
            self.fetch_time += fetch_penalty;
            self.fetch_slots = 0;
        }
        if self.fetch_slots >= c.width {
            self.fetch_time += 1;
            self.fetch_slots = 0;
        }
        self.fetch_slots += 1;
        let fetch = self.fetch_time;

        // ---- DISPATCH (ROB/RS window constraints) ----
        let mut dispatch = fetch + u64::from(c.front_depth);
        dispatch = dispatch.max(self.rob.oldest()); // slot of inst i-64
        dispatch = dispatch.max(self.rs.oldest()); // issue of inst i-32

        // ---- operand readiness ----
        let mut ready = dispatch;
        for &d in &inst.deps {
            if d != 0 && u64::from(d) <= idx {
                let producer = (idx - u64::from(d)) as usize % self.completions.len();
                ready = ready.max(self.completions[producer]);
            }
        }

        // ---- ISSUE + EXECUTE ----
        let complete = match inst.kind {
            InstKind::IntAlu => {
                let t = self.int_alu.acquire(ready, 1);
                t + u64::from(c.lat_int_alu)
            }
            InstKind::IntMul => {
                let t = self.int_mul.acquire(ready, 1);
                t + u64::from(c.lat_int_mul)
            }
            InstKind::IntDiv => {
                // Divides are unpipelined: hold the unit for the latency.
                let t = self.int_mul.acquire(ready, u64::from(c.lat_int_mul));
                t + u64::from(c.lat_int_mul)
            }
            InstKind::FpAdd => {
                let t = self.fp_alu.acquire(ready, 1);
                t + u64::from(c.lat_fp_add)
            }
            InstKind::FpDiv => {
                let t = self.fp_div.acquire(ready, u64::from(c.lat_fp_div));
                t + u64::from(c.lat_fp_div)
            }
            InstKind::Load { addr } => {
                let issue = self.mem_ports.acquire(ready, 1);
                let acc = self.hierarchy.data_access(addr, false);
                match acc.level {
                    Level::L1 => issue + u64::from(c.l1d.hit_latency),
                    level => {
                        // A miss occupies an MSHR for its whole lifetime,
                        // bounding how many misses overlap (MLP).
                        let (slot, free) = self.mshrs.begin();
                        let start = issue.max(free);
                        let done = self.memory_time(level, start, acc.memory_writebacks);
                        self.mshrs.end(slot, done);
                        done
                    }
                }
            }
            InstKind::Store { addr } => {
                // Address generation uses a memory port; the data access
                // itself happens at drain time (see retirement below).
                let issue = self.mem_ports.acquire(ready, 1);
                // Record the access now (program order) and remember its
                // drain latency via completion bookkeeping below.
                let acc = self.hierarchy.data_access(addr, true);
                let line = addr / c.l1d.line_bytes as u64;
                if c.sb_write_combining && line == self.last_store_line {
                    // Coalesced into the previous entry: trivial drain.
                    self.pending_drain_cost = 1;
                    self.wc_merged += 1;
                } else {
                    self.pending_drain_cost = match acc.level {
                        Level::L1 => u64::from(c.l1d.hit_latency),
                        Level::L2 => u64::from(c.l1d.hit_latency) + u64::from(c.l2.hit_latency),
                        Level::Memory => {
                            u64::from(c.l1d.hit_latency)
                                + u64::from(c.l2.hit_latency)
                                + u64::from(c.mem_latency)
                                + u64::from(c.bus_transfer_cycles())
                        }
                    };
                }
                self.last_store_line = line;
                issue + 1
            }
            InstKind::Branch { taken, target } => {
                let issue = self.int_alu.acquire(ready, 1);
                let complete = issue + 1;
                let (correct, btb_hit) = self.predictor.predict_and_update(inst.pc, taken, target);
                if !correct {
                    // Redirect: fetch restarts after resolution.
                    self.fetch_time = self
                        .fetch_time
                        .max(complete + u64::from(c.mispredict_penalty));
                    self.fetch_slots = 0;
                    self.hierarchy.reset_fetch();
                } else if taken && !btb_hit {
                    // Correct direction but unknown target: short bubble.
                    self.fetch_time = self.fetch_time.max(fetch + u64::from(c.front_depth));
                    self.fetch_slots = 0;
                }
                complete
            }
        };

        let comp_slot = (idx % self.completions.len() as u64) as usize;
        self.completions[comp_slot] = complete;
        self.rs.push(complete.max(ready)); // RS entry freed at issue/complete

        // ---- RETIRE (in order, width per cycle) ----
        let mut retire = complete.max(self.last_retire);
        if retire == self.retire_cycle {
            self.retire_slots += 1;
            if self.retire_slots >= c.width {
                retire += 1;
                self.retire_cycle = retire;
                self.retire_slots = 0;
            }
        } else {
            self.retire_cycle = retire;
            self.retire_slots = 1;
        }

        // Stores claim a store-buffer slot at retirement.
        if matches!(inst.kind, InstKind::Store { .. }) {
            let slot_free = self.store_buffer.oldest();
            if slot_free > retire {
                self.sb_stall_cycles += slot_free - retire;
                retire = slot_free;
                self.retire_cycle = retire;
                self.retire_slots = 1;
            }
            let drain_start = retire.max(self.last_drain_end);
            let drain_end = drain_start + self.pending_drain_cost;
            self.last_drain_end = drain_end;
            self.store_buffer.push(drain_end);
        }

        self.last_retire = retire;
        self.rob.push(retire);
        retire
    }

    /// Runs `max_insts` instructions from `trace` and reports statistics.
    pub fn run<I: Iterator<Item = Inst>>(&mut self, trace: I, max_insts: u64) -> RunStats {
        let _span = ac_telemetry::span("cpu", || {
            format!("pipeline_run {}", self.hierarchy.l2().label())
        });
        // Ticks in cycles; window boundaries also sample MSHR and
        // store-buffer occupancy at the current retirement time.
        let mut timeline = ac_telemetry::Timeline::from_hub("cycles", || {
            format!("pipeline {}", self.hierarchy.l2().label())
        });
        for inst in trace.take(max_insts as usize) {
            self.step(&inst);
            if let Some(tl) = timeline.as_mut() {
                let now = self.last_retire;
                if tl.due(now) {
                    let gauges = ac_telemetry::TimelineGauges {
                        mshr_busy: self.mshrs.busy_at(now),
                        sb_busy: self.store_buffer.busy_at(now),
                    };
                    tl.record(
                        now,
                        self.instructions,
                        self.hierarchy.l2().timeline_probe(),
                        gauges,
                    );
                }
            }
        }
        if let Some(tl) = timeline.take() {
            let now = self.last_retire;
            let gauges = ac_telemetry::TimelineGauges {
                mshr_busy: self.mshrs.busy_at(now),
                sb_busy: self.store_buffer.busy_at(now),
            };
            tl.finish(
                now,
                self.instructions,
                self.hierarchy.l2().timeline_probe(),
                gauges,
            );
        }
        let stats = self.stats();
        if ac_telemetry::enabled() {
            self.hierarchy.l2().flush_telemetry();
            ac_telemetry::counter_add("pipeline_instructions_total", stats.instructions);
            ac_telemetry::counter_add("pipeline_cycles_total", stats.cycles);
        }
        stats
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RunStats {
        RunStats {
            instructions: self.instructions,
            cycles: self.last_retire,
            l1i: *self.hierarchy.l1i_stats(),
            l1d: *self.hierarchy.l1d_stats(),
            l2: *self.hierarchy.l2().stats(),
            branches: self.predictor.stats(),
            sb_stall_cycles: self.sb_stall_cycles,
            wc_merged_stores: self.wc_merged,
            l2_label: self.hierarchy.l2().label(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{primary_suite, MixSpec};

    fn pipe() -> Pipeline<Cache<PolicyKind>> {
        Pipeline::with_lru_l2(CpuConfig::paper_default())
    }

    fn alu(pc: u64) -> Inst {
        Inst::free(pc, InstKind::IntAlu)
    }

    #[test]
    fn ideal_ilp_approaches_width() {
        // Independent single-cycle ALU ops in a tiny loop: throughput is
        // bounded by the 4 integer ALUs (CPI 0.25), not the 8-wide front
        // end — exactly Table 1's resource mix.
        let mut p = pipe();
        let insts: Vec<Inst> = (0..200_000u64)
            .map(|i| alu(0x40_0000 + (i % 16) * 4))
            .collect();
        let s = p.run(insts.into_iter(), 200_000);
        let cpi = s.cpi();
        assert!(cpi < 0.27, "ALU-bound CPI should be ~0.25, got {cpi}");
        assert!(cpi >= 0.25 - 0.01, "CPI cannot beat the 4 ALUs, got {cpi}");
    }

    #[test]
    fn serial_dependencies_bound_cpi_to_one() {
        // Every op depends on its predecessor: CPI ~ 1 regardless of width.
        let mut p = pipe();
        let insts: Vec<Inst> = (0..50_000u64)
            .map(|i| Inst {
                pc: 0x40_0000 + (i % 16) * 4,
                kind: InstKind::IntAlu,
                deps: [1, 0],
            })
            .collect();
        let s = p.run(insts.into_iter(), 50_000);
        assert!(
            s.cpi() > 0.9,
            "serial chain must serialise, cpi={}",
            s.cpi()
        );
        assert!(
            s.cpi() < 1.3,
            "chain of 1-cycle ops stays near 1, cpi={}",
            s.cpi()
        );
    }

    #[test]
    fn long_latency_serial_ops_scale_cpi() {
        // Serial FP divides: ~16 cycles each.
        let mut p = pipe();
        let insts: Vec<Inst> = (0..5_000u64)
            .map(|i| Inst {
                pc: 0x40_0000 + (i % 16) * 4,
                kind: InstKind::FpDiv,
                deps: [1, 0],
            })
            .collect();
        let s = p.run(insts.into_iter(), 5_000);
        assert!(s.cpi() > 14.0, "serial fdiv cpi={}", s.cpi());
    }

    #[test]
    fn cache_missing_loads_raise_cpi() {
        let mut hot = pipe();
        let hot_insts: Vec<Inst> = (0..50_000u64)
            .map(|i| Inst {
                pc: 0x40_0000 + (i % 16) * 4,
                kind: InstKind::Load { addr: (i % 8) * 64 },
                deps: [1, 0],
            })
            .collect();
        let s_hot = hot.run(hot_insts.into_iter(), 50_000);

        let mut cold = pipe();
        let cold_insts: Vec<Inst> = (0..50_000u64)
            .map(|i| Inst {
                pc: 0x40_0000 + (i % 16) * 4,
                kind: InstKind::Load {
                    // Pointer-chase-like: every load leaves the L2.
                    addr: (i * 947) % (4 << 20),
                },
                deps: [1, 0],
            })
            .collect();
        let s_cold = cold.run(cold_insts.into_iter(), 50_000);
        assert!(
            s_cold.cpi() > s_hot.cpi() * 10.0,
            "memory-bound {} vs cache-resident {}",
            s_cold.cpi(),
            s_hot.cpi()
        );
    }

    #[test]
    fn mlp_overlaps_independent_misses() {
        // Independent missing loads should overlap up to the MSHR count,
        // giving far better CPI than dependent ones.
        let mk = |dep: u8| -> Vec<Inst> {
            (0..30_000u64)
                .map(|i| Inst {
                    pc: 0x40_0000 + (i % 16) * 4,
                    kind: InstKind::Load {
                        addr: (i * 947) % (4 << 20),
                    },
                    deps: [dep, 0],
                })
                .collect()
        };
        let s_ind = pipe().run(mk(0).into_iter(), 30_000);
        let s_dep = pipe().run(mk(1).into_iter(), 30_000);
        assert!(
            s_ind.cpi() * 2.0 < s_dep.cpi(),
            "independent misses {} vs serial misses {}",
            s_ind.cpi(),
            s_dep.cpi()
        );
    }

    #[test]
    fn store_buffer_pressure_stalls() {
        // A store-heavy stream with L2-missing stores: a 1-entry store
        // buffer must stall retirement far more than a 64-entry one.
        let mk = || -> Vec<Inst> {
            (0..30_000u64)
                .map(|i| Inst {
                    pc: 0x40_0000 + (i % 16) * 4,
                    kind: if i % 2 == 0 {
                        InstKind::Store {
                            addr: (i * 947) % (4 << 20),
                        }
                    } else {
                        InstKind::IntAlu
                    },
                    deps: [0, 0],
                })
                .collect()
        };
        let small = Pipeline::with_lru_l2(CpuConfig::paper_default().store_buffer(1))
            .run(mk().into_iter(), 30_000);
        let big = Pipeline::with_lru_l2(CpuConfig::paper_default().store_buffer(64))
            .run(mk().into_iter(), 30_000);
        assert!(
            small.cycles > big.cycles,
            "1-entry SB {} cycles vs 64-entry {} cycles",
            small.cycles,
            big.cycles
        );
        assert!(small.sb_stall_cycles > big.sb_stall_cycles);
    }

    #[test]
    fn branch_mispredictions_cost_cycles() {
        let mk = |hard: f64| -> Vec<Inst> {
            let spec = workloads::WorkloadSpec {
                pattern: workloads::AccessPattern::single(workloads::BasePattern::LinearScan {
                    region_blocks: 64,
                    stride: 1,
                }),
                mix: MixSpec {
                    mem_ratio: 0.05,
                    branch_ratio: 0.3,
                    hard_branch_frac: hard,
                    ..MixSpec::int_default()
                },
                code: workloads::CodeSpec::kernel(),
                seed: 5,
            };
            spec.generator().take(100_000).collect()
        };
        let easy = pipe().run(mk(0.0).into_iter(), 100_000);
        let hard = pipe().run(mk(1.0).into_iter(), 100_000);
        assert!(hard.branches.miss_rate() > easy.branches.miss_rate() + 0.1);
        assert!(
            hard.cycles > easy.cycles,
            "mispredictions must cost: {} vs {}",
            hard.cycles,
            easy.cycles
        );
    }

    #[test]
    fn icache_footprint_matters() {
        // A code footprint far beyond 16 KB causes I-cache misses and
        // lowers fetch throughput.
        let mk = |code: workloads::CodeSpec| -> Vec<Inst> {
            let spec = workloads::WorkloadSpec {
                pattern: workloads::AccessPattern::single(workloads::BasePattern::LinearScan {
                    region_blocks: 64,
                    stride: 1,
                }),
                mix: MixSpec::int_default(),
                code,
                seed: 6,
            };
            spec.generator().take(100_000).collect()
        };
        let small = pipe().run(mk(workloads::CodeSpec::kernel()).into_iter(), 100_000);
        let large = pipe().run(mk(workloads::CodeSpec::large()).into_iter(), 100_000);
        assert!(large.l1i.misses > small.l1i.misses * 5);
        assert!(large.cycles > small.cycles);
    }

    #[test]
    fn runs_every_primary_benchmark() {
        for b in primary_suite().iter().take(4) {
            let mut p = pipe();
            let s = p.run(b.spec.generator(), 20_000);
            assert_eq!(s.instructions, 20_000, "{}", b.name);
            assert!(
                s.cpi() > 0.1 && s.cpi() < 100.0,
                "{}: cpi={}",
                b.name,
                s.cpi()
            );
        }
    }

    #[test]
    fn deterministic_cycles() {
        let b = &primary_suite()[2];
        let run = || pipe().run(b.spec.generator(), 30_000).cycles;
        assert_eq!(run(), run());
    }

    #[test]
    fn time_ring_semantics() {
        let mut r = TimeRing::new(2);
        assert_eq!(r.oldest(), 0);
        r.push(5);
        r.push(9);
        assert_eq!(r.oldest(), 5);
        r.push(11);
        assert_eq!(r.oldest(), 9);
    }

    #[test]
    fn pool_grants_in_parallel_up_to_capacity() {
        let mut p = Pool::new(2);
        assert_eq!(p.acquire(10, 5), 10);
        assert_eq!(p.acquire(10, 5), 10, "second unit free");
        assert_eq!(p.acquire(10, 5), 15, "third request waits");
    }
}

#[cfg(test)]
mod writeback_buffer_tests {
    use super::*;

    /// A dirty streaming workload: every L2 fill evicts a dirty line, so
    /// writeback-buffer pressure is constant. A 1-entry buffer must cost
    /// cycles against a large one.
    #[test]
    fn tiny_writeback_buffer_costs_cycles() {
        let mk = || -> Vec<Inst> {
            (0..60_000u64)
                .map(|i| Inst {
                    pc: 0x40_0000 + (i % 16) * 4,
                    kind: if i % 2 == 0 {
                        InstKind::Store {
                            addr: (i / 2) * 64 % (4 << 20),
                        }
                    } else {
                        InstKind::Load {
                            addr: (8 << 20) + (i / 2) * 64 % (4 << 20),
                        }
                    },
                    deps: [0, 0],
                })
                .collect()
        };
        let tiny = Pipeline::with_lru_l2(CpuConfig::paper_default().writeback_buffer(1))
            .run(mk().into_iter(), 60_000);
        let big = Pipeline::with_lru_l2(CpuConfig::paper_default().writeback_buffer(64))
            .run(mk().into_iter(), 60_000);
        assert!(
            tiny.cycles >= big.cycles,
            "1-entry WB buffer {} must not beat 64-entry {}",
            tiny.cycles,
            big.cycles
        );
    }

    #[test]
    #[should_panic(expected = "writeback buffer")]
    fn zero_writeback_buffer_rejected() {
        let _ = CpuConfig::paper_default().writeback_buffer(0);
    }
}

#[cfg(test)]
mod write_combining_tests {
    use super::*;

    /// Stores walking a line one word at a time: write combining should
    /// merge the same-line stores and sharply reduce drain pressure.
    #[test]
    fn write_combining_merges_same_line_stores() {
        let mk = || -> Vec<Inst> {
            (0..40_000u64)
                .map(|i| Inst {
                    pc: 0x40_0000 + (i % 16) * 4,
                    kind: InstKind::Store {
                        // 8 consecutive words per line, lines from a
                        // large region so drains are expensive.
                        addr: (i / 8) * 64 + (i % 8) * 8 + ((i / 8) * 977 % (4 << 20)),
                    },
                    deps: [0, 0],
                })
                .collect()
        };
        let base = Pipeline::with_lru_l2(CpuConfig::paper_default()).run(mk().into_iter(), 40_000);
        let wc = Pipeline::with_lru_l2(CpuConfig::paper_default().write_combining(true))
            .run(mk().into_iter(), 40_000);
        assert_eq!(base.wc_merged_stores, 0);
        assert!(
            wc.wc_merged_stores > 30_000,
            "merged {}",
            wc.wc_merged_stores
        );
        assert!(
            wc.cycles < base.cycles,
            "write combining must relieve the store buffer ({} vs {})",
            wc.cycles,
            base.cycles
        );
    }

    /// With combining disabled the two configurations are identical.
    #[test]
    fn combining_flag_defaults_off_and_is_pure() {
        let b = workloads::primary_suite().remove(1);
        let s1 = Pipeline::with_lru_l2(CpuConfig::paper_default()).run(b.spec.generator(), 30_000);
        let s2 = Pipeline::with_lru_l2(CpuConfig::paper_default().write_combining(false))
            .run(b.spec.generator(), 30_000);
        assert_eq!(s1, s2);
    }
}
