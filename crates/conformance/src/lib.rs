//! Differential conformance harness for the spatial-join workspace.
//!
//! The paper's central claims are *correctness* claims: the Reference Point
//! Method (PBSM) and the modified RPM (S³J) must suppress exactly the
//! duplicates that replication introduces, under every grid geometry, level
//! assignment and thread count. This crate hunts the boundary conditions
//! those claims hinge on, automatically:
//!
//! * [`datagen::adversarial`] produces the degenerate geometry real
//!   generators avoid — grid-aligned edges, zero-area MBRs, shared-edge and
//!   point-touch pairs, coordinate duplicates, hot tiles — on a dyadic
//!   lattice so geometric transforms are exact in `f64`;
//! * [`oracle`] runs every algorithm through the public API and asserts
//!   result-set equality under semantics-preserving transformations
//!   (translate, scale, R↔S swap, memory/partition-count changes, tile-grid
//!   changes, thread counts, fault plans, CPU-slowdown changes, I/O channel
//!   counts) plus the
//!   duplicate-accounting identity `candidates = results + suppressed`;
//! * [`mod@shrink`] bisects a failing workload down to a minimal KPE set;
//! * [`repro`] emits/replays JSON repro files under `tests/corpus/` and
//!   generates ready-to-paste regression tests.
//!
//! The `conformance` binary (`cargo run -p conformance -- --seeds N`) wires
//! all of it into a bounded soak for CI.

pub mod oracle;
pub mod repro;
pub mod shrink;

pub use oracle::{
    brute_force, chaos_transforms_for, check_one, check_workload, crash_points_for, run_algo,
    transforms_for, AlgoId, Failure, RunConfig, Transform,
};
pub use repro::Repro;
pub use shrink::shrink;
