//! Instruction-mix weaving: turning a data-access pattern into a full
//! instruction stream (computation, branches, loads/stores, dependencies)
//! that the CPU timing model can execute.

use crate::inst::{Inst, InstKind};
use crate::pattern::{AccessPattern, PatternState};
use crate::sample::{fixed_below, half, Coin, GeomSampler, Words};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Cache line size assumed when converting pattern block numbers to byte
/// addresses (matches the paper's 64 B lines).
pub const LINE_BYTES: u64 = 64;

/// Statistical shape of the instruction stream around the memory
/// references.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixSpec {
    /// Fraction of instructions that reference data memory.
    pub mem_ratio: f64,
    /// Fraction of memory references that are stores.
    pub store_frac: f64,
    /// Fraction of instructions that are conditional branches.
    pub branch_ratio: f64,
    /// Fraction of compute instructions that are floating point.
    pub fp_frac: f64,
    /// Fraction of compute instructions that are long-latency (mul/div).
    pub long_op_frac: f64,
    /// Mean backward dependency distance; small = serial (low ILP),
    /// large = parallel (high ILP). Must be >= 1.
    pub mean_dep_dist: f64,
    /// Fraction of *static* branch sites whose outcome is essentially
    /// random (data-dependent); the rest are heavily biased and thus
    /// predictable by the gshare/bimodal hybrid.
    pub hard_branch_frac: f64,
    /// Consecutive memory references issued to the same cache line before
    /// the data pattern advances (spatial locality within a line: real
    /// code touches several words per line, which the L1 absorbs).
    pub line_burst: u32,
}

impl MixSpec {
    /// Typical SPECint-like mix: third of instructions touch memory,
    /// frequent branches, integer-dominated, moderate ILP.
    pub fn int_default() -> Self {
        MixSpec {
            line_burst: 6,
            mem_ratio: 0.35,
            store_frac: 0.30,
            branch_ratio: 0.15,
            fp_frac: 0.02,
            long_op_frac: 0.03,
            mean_dep_dist: 5.0,
            hard_branch_frac: 0.10,
        }
    }

    /// Typical SPECfp-like mix: fewer branches, FP-heavy, high ILP.
    pub fn fp_default() -> Self {
        MixSpec {
            line_burst: 8,
            mem_ratio: 0.40,
            store_frac: 0.25,
            branch_ratio: 0.05,
            fp_frac: 0.60,
            long_op_frac: 0.08,
            mean_dep_dist: 12.0,
            hard_branch_frac: 0.03,
        }
    }

    /// Media/streaming mix: very regular, load-dominated, predictable.
    pub fn media_default() -> Self {
        MixSpec {
            line_burst: 8,
            mem_ratio: 0.45,
            store_frac: 0.35,
            branch_ratio: 0.10,
            fp_frac: 0.10,
            long_op_frac: 0.05,
            mean_dep_dist: 8.0,
            hard_branch_frac: 0.04,
        }
    }

    /// Pointer-chasing mix: serial dependence chains, hard branches.
    pub fn pointer_default() -> Self {
        MixSpec {
            line_burst: 2,
            mem_ratio: 0.40,
            store_frac: 0.15,
            branch_ratio: 0.20,
            fp_frac: 0.0,
            long_op_frac: 0.01,
            mean_dep_dist: 2.0,
            hard_branch_frac: 0.30,
        }
    }
}

/// Shape of the instruction footprint (for the instruction cache and the
/// branch predictor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeSpec {
    /// Instructions per loop body (one static code region).
    pub loop_body: u32,
    /// Number of distinct code regions (functions) cycled through.
    pub regions: u32,
    /// Dynamic instructions between region switches.
    pub region_period: u64,
}

impl CodeSpec {
    /// A tight kernel: one 512-instruction loop (2 KB of code).
    pub fn kernel() -> Self {
        CodeSpec {
            loop_body: 512,
            regions: 1,
            region_period: u64::MAX,
        }
    }

    /// A mid-sized program: eight 1K-instruction functions.
    pub fn medium() -> Self {
        CodeSpec {
            loop_body: 1024,
            regions: 8,
            region_period: 20_000,
        }
    }

    /// A large, instruction-cache-hostile footprint (gcc-like): thirty-two
    /// 2K-instruction functions (256 KB of code).
    pub fn large() -> Self {
        CodeSpec {
            loop_body: 2048,
            regions: 32,
            region_period: 6_000,
        }
    }

    /// Total static code footprint in bytes (4-byte instructions).
    pub fn footprint_bytes(&self) -> u64 {
        u64::from(self.loop_body) * 4 * u64::from(self.regions)
    }
}

/// Full specification of a synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Data-access archetype.
    pub pattern: AccessPattern,
    /// Instruction-mix statistics.
    pub mix: MixSpec,
    /// Code-footprint shape.
    pub code: CodeSpec,
    /// RNG seed; every stream is a pure function of the spec.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Creates the infinite instruction stream for this spec.
    pub fn generator(&self) -> TraceGen {
        TraceGen::new(self.clone())
    }
}

/// A deterministic, infinite instruction stream (see [`WorkloadSpec`]).
///
/// Implements `Iterator<Item = Inst>`; use `.take(n)` for a fixed-length
/// trace.
///
/// Every random decision reads raw words of one xoshiro256++ stream, in a
/// fixed order per instruction: the class variate, the pattern's own
/// draws (memory references that start a new line), then the class's
/// coins — store (memory), direction (branch), or FP / long / mul-vs-div
/// (compute, the last only for long integer ops) — then the first
/// dependency, the second-operand coin and, if it lands, the second
/// dependency. The words are read ahead from a buffer and the
/// count consumed is computed, not branched on; every decision is one
/// integer compare or a [`GeomSampler`] lookup, each equal by
/// construction to the `rand` float expression it stands for.
#[derive(Debug, Clone)]
pub struct TraceGen {
    mix: MixSpec,
    code: CodeSpec,
    pattern: PatternState,
    words: Words,
    /// `unit(w) < mem_ratio` and `< mem_ratio + branch_ratio`, as bounds
    /// on `w >> 11` (see [`fixed_below`]).
    mem_below: u64,
    branch_below: u64,
    /// `is_hard_branch`'s 24-bit site hash bound.
    hard_below: u64,
    store: Coin,
    fp: Coin,
    long_op: Coin,
    biased: Coin,
    dep: GeomSampler,
    /// Dynamic instruction index.
    idx: u64,
    /// Current data line and remaining same-line references.
    cur_block: u64,
    burst_left: u32,
    word_idx: u32,
    /// Position inside the current loop body.
    body_pos: u32,
    /// Current code region.
    region: u32,
    /// Instruction index of the last region switch.
    last_switch: u64,
}

/// Base address of the synthetic code segment; regions are spaced 1 MB.
const CODE_BASE: u64 = 0x0040_0000;
const REGION_SPACING: u64 = 0x0010_0000;

/// Most words one instruction reads outside its pattern draws: the class
/// variate, three compute coins, two dependencies and the coin between.
const MAX_INST_WORDS: usize = 7;

/// Most words read after a pattern draw: the store coin, two dependencies
/// and the coin between.
const MAX_TAIL_WORDS: usize = 4;

impl TraceGen {
    fn new(spec: WorkloadSpec) -> Self {
        assert!(
            spec.mix.mean_dep_dist >= 1.0,
            "mean_dep_dist must be >= 1, got {}",
            spec.mix.mean_dep_dist
        );
        assert!(
            spec.mix.mem_ratio + spec.mix.branch_ratio <= 1.0,
            "mem_ratio + branch_ratio must not exceed 1"
        );
        assert!(
            spec.code.loop_body >= 2,
            "loop body needs >= 2 instructions"
        );
        assert!(spec.mix.line_burst >= 1, "line_burst must be >= 1");
        let mix = spec.mix;
        TraceGen {
            pattern: spec.pattern.state(),
            words: Words::new(SmallRng::seed_from_u64(spec.seed)),
            mem_below: fixed_below(mix.mem_ratio, 53),
            branch_below: fixed_below(mix.mem_ratio + mix.branch_ratio, 53),
            hard_below: fixed_below(mix.hard_branch_frac, 24),
            store: Coin::new(mix.store_frac),
            fp: Coin::new(mix.fp_frac),
            long_op: Coin::new(mix.long_op_frac),
            biased: Coin::new(0.92),
            dep: GeomSampler::new(mix.mean_dep_dist),
            mix,
            code: spec.code,
            idx: 0,
            cur_block: 0,
            burst_left: 0,
            word_idx: 0,
            body_pos: 0,
            region: 0,
            last_switch: 0,
        }
    }

    fn pc(&self) -> u64 {
        CODE_BASE + u64::from(self.region) * REGION_SPACING + u64::from(self.body_pos) * 4
    }

    fn region_base(&self, region: u32) -> u64 {
        CODE_BASE + u64::from(region) * REGION_SPACING
    }

    /// Whether the static branch at `pc` is "hard" (data-dependent).
    fn is_hard_branch(&self, pc: u64) -> bool {
        // Deterministic per-site classification via a cheap hash.
        // `h / 2^24 < hard_branch_frac` for the 24-bit hash `h`.
        let h = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        h < self.hard_below
    }
}

impl Iterator for TraceGen {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        let pc = self.pc();
        self.idx += 1;

        // Structural control flow first: loop-back and region switches.
        let at_body_end = self.body_pos + 1 >= self.code.loop_body;
        if at_body_end {
            self.body_pos = 0;
            let switch = self.code.regions > 1
                && self.idx.saturating_sub(self.last_switch) >= self.code.region_period;
            if switch {
                self.region = (self.region + 1) % self.code.regions;
                self.last_switch = self.idx;
            }
            let target = self.region_base(self.region);
            return Some(Inst {
                pc,
                kind: InstKind::Branch {
                    taken: true,
                    target,
                },
                deps: [0, 0],
            });
        }
        self.body_pos += 1;

        self.words.reserve(MAX_INST_WORDS);
        let class = self.words.peek(0) >> 11;
        // Words read so far; the dependency words follow.
        let mut at = 1;
        let kind = if class < self.mem_below {
            if self.burst_left == 0 {
                self.words.consume(1);
                self.cur_block = self.pattern.next_block(&mut self.words);
                self.words.reserve(MAX_TAIL_WORDS);
                at = 0;
                self.burst_left = self.mix.line_burst.max(1);
                self.word_idx = 0;
            }
            let addr = self.cur_block * LINE_BYTES + u64::from(self.word_idx) * 8 % LINE_BYTES;
            self.word_idx += 1;
            self.burst_left -= 1;
            let store = self.store.hit(self.words.peek(at));
            at += 1;
            if store {
                InstKind::Store { addr }
            } else {
                InstKind::Load { addr }
            }
        } else if class < self.branch_below {
            let w = self.words.peek(at);
            at += 1;
            let taken = if self.is_hard_branch(pc) {
                half(w)
            } else {
                self.biased.hit(w)
            };
            InstKind::Branch {
                taken,
                target: pc + 64, // short forward branch within the region
            }
        } else {
            let fp = self.fp.hit(self.words.peek(at));
            let long = self.long_op.hit(self.words.peek(at + 1));
            let mul = half(self.words.peek(at + 2));
            // The mul-vs-div coin is drawn only for long integer ops.
            at += 2 + usize::from(!fp & long);
            match (fp, long) {
                (false, false) => InstKind::IntAlu,
                (false, true) if mul => InstKind::IntMul,
                (false, true) => InstKind::IntDiv,
                (true, false) => InstKind::FpAdd,
                (true, true) => InstKind::FpDiv,
            }
        };

        let d1 = self.dep.sample(self.words.peek(at));
        // Second operand dependency present half the time; sampled either
        // way (the word is reserved) and masked, so no branch mispredicts.
        let second = half(self.words.peek(at + 1));
        let d2 = self.dep.sample(self.words.peek(at + 2)) & 0u8.wrapping_sub(u8::from(second));
        self.words.consume(at + 2 + usize::from(second));
        Some(Inst {
            pc,
            kind,
            deps: [d1, d2],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::BasePattern;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            pattern: AccessPattern::single(BasePattern::LinearScan {
                region_blocks: 1000,
                stride: 1,
            }),
            mix: MixSpec::int_default(),
            code: CodeSpec::kernel(),
            seed: 123,
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<_> = spec().generator().take(5000).collect();
        let b: Vec<_> = spec().generator().take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mix_ratios_roughly_hold() {
        let n = 200_000;
        let insts: Vec<_> = spec().generator().take(n).collect();
        let mem = insts.iter().filter(|i| i.is_mem()).count() as f64 / n as f64;
        let br = insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Branch { .. }))
            .count() as f64
            / n as f64;
        assert!((mem - 0.35).abs() < 0.02, "mem ratio {mem}");
        // Structural loop-back branches add ~1/loop_body on top.
        assert!((br - 0.152).abs() < 0.02, "branch ratio {br}");
    }

    #[test]
    fn stores_match_store_frac() {
        let insts: Vec<_> = spec().generator().take(100_000).collect();
        let loads = insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Load { .. }))
            .count() as f64;
        let stores = insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Store { .. }))
            .count() as f64;
        let frac = stores / (loads + stores);
        assert!((frac - 0.30).abs() < 0.02, "store fraction {frac}");
    }

    #[test]
    fn pcs_stay_in_code_footprint() {
        let s = spec();
        let footprint = s.code.footprint_bytes();
        for i in s.generator().take(50_000) {
            let off = i.pc - CODE_BASE;
            let region = off / REGION_SPACING;
            let within = off % REGION_SPACING;
            assert!(region < u64::from(s.code.regions));
            assert!(within < u64::from(s.code.loop_body) * 4);
        }
        assert_eq!(footprint, 2048);
    }

    #[test]
    fn loop_back_branch_every_body() {
        let insts: Vec<_> = spec().generator().take(2048).collect();
        // Instruction at body position 511 must be the taken loop-back.
        let back = &insts[511];
        match back.kind {
            InstKind::Branch { taken, target } => {
                assert!(taken);
                assert_eq!(target, CODE_BASE);
            }
            ref k => panic!("expected loop-back branch, got {k:?}"),
        }
    }

    #[test]
    fn region_switching_changes_pc_region() {
        let s = WorkloadSpec {
            code: CodeSpec::medium(),
            ..spec()
        };
        let regions: std::collections::HashSet<u64> = s
            .generator()
            .take(200_000)
            .map(|i| (i.pc - CODE_BASE) / REGION_SPACING)
            .collect();
        assert!(regions.len() >= 4, "saw regions {regions:?}");
    }

    #[test]
    fn addresses_follow_the_pattern() {
        let addrs: Vec<u64> = spec()
            .generator()
            .take(10_000)
            .filter_map(|i| i.mem_addr())
            .collect();
        // Linear scan: consecutive references stay in a line for
        // `line_burst` accesses, then advance exactly one block.
        assert!(addrs.len() > 3000);
        let mut blocks: Vec<u64> = addrs.iter().map(|a| a / 64).collect();
        blocks.dedup();
        for w in blocks.windows(2) {
            let delta = (w[1] + 1000 - w[0]) % 1000;
            assert_eq!(delta, 1, "scan must advance one block per line burst");
        }
        // The line burst really happens: fewer distinct lines than refs.
        assert!(blocks.len() * 4 < addrs.len());
    }

    #[test]
    fn dep_distances_have_configured_scale() {
        let insts: Vec<_> = spec().generator().take(50_000).collect();
        let mean: f64 =
            insts.iter().map(|i| f64::from(i.deps[0])).sum::<f64>() / insts.len() as f64;
        assert!(
            (mean - 5.0).abs() < 1.0,
            "mean dep distance {mean} vs configured 5.0"
        );
    }

    #[test]
    #[should_panic(expected = "mean_dep_dist")]
    fn rejects_zero_ilp() {
        let mut s = spec();
        s.mix.mean_dep_dist = 0.5;
        let _ = s.generator();
    }
}
