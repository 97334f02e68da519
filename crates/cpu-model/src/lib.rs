//! # cpu-model — a cycle-level out-of-order CPU timing model
//!
//! The paper evaluates adaptive caching with the MASE simulator from the
//! SimpleScalar toolset for the Alpha ISA. That simulator (and the SPEC
//! binaries it executes) is not available here, so this crate provides a
//! from-scratch trace-driven timing model with the same configuration
//! surface as the paper's Table 1:
//!
//! * 8-wide fetch/issue/retire, 32 RS entries, 64 ROB entries,
//! * 4 integer ALUs, 4 integer mult/div, 4 FP ALUs, 4 FP mult/div,
//!   2 memory ports with the paper's latencies,
//! * 16 KB gshare / 16 KB bimodal / 16 KB meta hybrid branch predictor
//!   with a 4K-entry 4-way BTB,
//! * 16 KB 4-way L1I and L1D (2-cycle), a unified 512 KB 8-way L2
//!   (15-cycle) with a **pluggable replacement organisation** (plain,
//!   adaptive, SBAR, ...),
//! * a finite **store buffer** with serial drain (the paper explicitly
//!   fixed MASE's infinite store buffers; Figure 10 sweeps this),
//! * a split-transaction bus (8 B wide, 8:1 frequency ratio) in front of
//!   main memory, and MSHR-limited miss overlap (MLP).
//!
//! The model is *timestamp-based*: instructions are processed in program
//! order and each pipeline stage's time is computed from resource and
//! dependency constraints. This is the standard trace-driven approximation
//! — it captures ILP, MLP, store-buffer stalls and branch redirects
//! without simulating every structure cycle by cycle, and it is exactly
//! reproducible.
//!
//! # Example
//!
//! ```
//! use cpu_model::{CpuConfig, Pipeline};
//! use workloads::primary_suite;
//!
//! let config = CpuConfig::paper_default();
//! let bench = &primary_suite()[1]; // applu
//! let mut pipe = Pipeline::with_lru_l2(config);
//! let stats = pipe.run(bench.spec.generator(), 50_000);
//! assert_eq!(stats.instructions, 50_000);
//! assert!(stats.cpi() > 0.3, "cpi = {}", stats.cpi());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod config;
mod hierarchy;
pub mod oracle;
mod pipeline;
pub mod prefetch;
pub mod replay;

pub use branch::{BranchPredictor, BranchStats};
pub use config::{CacheParams, CpuConfig};
pub use hierarchy::{
    l1_geometry, run_functional, BlockSet, FetchBlocks, FunctionalStats, Hierarchy, IdentityHasher,
    L2Complex, Level,
};
pub use oracle::{belady, replay_model_windows, replay_standalone, OracleWindow, PolicyReplay};
pub use pipeline::{Pipeline, RunStats};
pub use replay::persist::{
    config_fingerprint, decode_trace, encode_trace, load_trace, save_trace, FaultyIo, IoFaultPlan,
    PersistError, ReplayIo, StdIo,
};
pub use replay::{capture_functional, replay_into, replay_l2, L2Event, L2Trace, L2TraceBuilder};
