//! # spatialjoin — index-free spatial join processing
//!
//! A faithful reproduction of *Dittrich & Seeger, "Data Redundancy and
//! Duplicate Detection in Spatial Join Processing", ICDE 2000*: the improved
//! **PBSM** (grid partitioning with online Reference-Point duplicate
//! elimination and an interval-trie plane sweep) and the improved **S³J**
//! (size separation with controlled ≤4× replication), plus the **SSSJ**
//! baseline, all running out-of-core against a simulated disk with the
//! paper's `PT + n` cost model.
//!
//! ## Quick start
//!
//! ```
//! use spatialjoin::{Algorithm, SpatialJoin};
//!
//! // Two TIGER-like synthetic datasets (1% of the paper's LA files).
//! let roads  = spatialjoin::datagen::sized(&spatialjoin::datagen::la_rr_config(1), 0.01).generate();
//! let rivers = spatialjoin::datagen::sized(&spatialjoin::datagen::la_st_config(1), 0.01).generate();
//!
//! // PBSM with the Reference Point Method and 256 KiB of memory.
//! let join = SpatialJoin::new(Algorithm::pbsm_rpm(256 * 1024));
//! let run = join.run(&roads, &rivers);
//!
//! println!(
//!     "{} intersecting pairs in {:.3}s simulated ({} duplicates suppressed online)",
//!     run.pairs.len(),
//!     run.stats.total_seconds(),
//!     run.stats.duplicates(),
//! );
//! # assert!(run.pairs.len() > 0);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`geom`] | rectangles, KPEs, the reference point |
//! | [`sfc`] | Peano/Hilbert locational codes, MX-CIF level functions |
//! | [`storage`] | simulated disk (`PT + n`), paged files, external sort |
//! | [`sweep`] | internal joins: nested loops, list sweep, interval-trie sweep |
//! | [`quadtree`] | MX-CIF quadtree + synchronized-traversal join (§4.1) |
//! | [`datagen`] | TIGER-like synthetic datasets (Table 1 equivalents) |
//! | [`pbsm`] | PBSM with sort-phase or Reference-Point dedup (§3) |
//! | [`s3j`] | S³J original / with controlled replication (§4) |
//! | [`sssj`] | sweeping-based baseline ([APR+ 98]) |
//! | [`shj`] | Spatial Hash Join baseline ([LR 96]) |
//! | [`estimate`] | grid histograms, selectivity estimation, partition advice |
//! | [`refine`] | refinement step: exact-geometry verification ([BKSS 94]) |
//! | [`exec`] | open-next-close operator tree, streaming join operators |

pub use datagen;
pub use exec;
pub use refine;
pub use estimate;
pub use shj;
pub use geom;
pub use pbsm;
pub use quadtree;
pub use s3j;
pub use sfc;
pub use sssj;
pub use storage;
pub use sweep;

pub use geom::{dataset_stats, reference_point, DatasetStats, Kpe, Point, Rect, RecordId};
pub use storage::{
    CancelToken, CrashPoint, DiskModel, FaultPlan, IoError, IoErrorKind, IoStats, JoinError,
    JoinErrorKind, RetryPolicy, SimDisk,
};
pub use storage::{
    MetricsReport, Phase, PhaseMetric, Recorder, RunCost, RunCounters, METRICS_SCHEMA_VERSION,
};
pub use sweep::InternalAlgo;

use std::sync::Arc;
use std::time::Instant;
use storage::{FileId, Recovered, RunCheckpoint, RunControl};

use pbsm::{Dedup, PbsmConfig, PbsmStats};
use s3j::{S3jConfig, S3jStats};
use shj::{ShjConfig, ShjStats};
use sssj::{SssjConfig, SssjStats};

/// Configuration of the in-memory MX-CIF quadtree join (§4.1 machinery
/// promoted to a runnable variant).
#[derive(Debug, Clone, Copy)]
pub struct QuadtreeConfig {
    /// Memory budget in bytes. The variant holds both relations (and both
    /// trees) in memory, so a run whose inputs exceed the budget is refused
    /// with a typed `Unsupported` error instead of silently cheating the
    /// out-of-core cost model.
    pub mem_bytes: usize,
    /// Finest decomposition level of the MX-CIF trees.
    pub max_level: u8,
}

impl Default for QuadtreeConfig {
    fn default() -> Self {
        QuadtreeConfig {
            mem_bytes: 8 << 20,
            max_level: 12,
        }
    }
}

/// Statistics of the in-memory MX-CIF quadtree join. All I/O buckets are
/// zero by construction — the variant never touches the simulated disk —
/// but they are carried in full (including one bucket per data channel) so
/// metrics reconciliation sees the same shape as every other run.
#[derive(Debug, Clone)]
pub struct QuadtreeStats {
    pub results: u64,
    /// Pair tests performed by the synchronized traversal.
    pub tests: u64,
    /// Nodes in the R/S trees after bulk-loading.
    pub nodes_r: u64,
    pub nodes_s: u64,
    pub cost: RunCost,
}

/// Algorithm selection with its full configuration.
#[derive(Debug, Clone)]
pub enum Algorithm {
    Pbsm(PbsmConfig),
    S3j(S3jConfig),
    Sssj(SssjConfig),
    Shj(ShjConfig),
    Quadtree(QuadtreeConfig),
}

impl Algorithm {
    /// PBSM as improved by the paper: Reference Point Method dedup.
    /// The internal algorithm defaults to the list sweep; switch to
    /// [`InternalAlgo::PlaneSweepTrie`] for large memories (§3.2.2).
    pub fn pbsm_rpm(mem_bytes: usize) -> Algorithm {
        Algorithm::Pbsm(PbsmConfig {
            mem_bytes,
            ..Default::default()
        })
    }

    /// Original PBSM ([PD 96]): duplicates removed in a final sort phase.
    pub fn pbsm_original(mem_bytes: usize) -> Algorithm {
        Algorithm::Pbsm(PbsmConfig {
            mem_bytes,
            dedup: Dedup::SortPhase,
            ..Default::default()
        })
    }

    /// Two-layer space-oriented partitioning (Tsitsigkos et al.): PBSM's
    /// grid partitioning with a per-tile second layer of object classes
    /// (A–D by which tile borders an object crosses) instead of any
    /// per-candidate duplicate test — the structural generalisation of the
    /// paper's Reference Point Method. Inherits PBSM's full fault, crash
    /// and channel machinery.
    pub fn two_layer(mem_bytes: usize) -> Algorithm {
        Algorithm::Pbsm(PbsmConfig {
            mem_bytes,
            dedup: Dedup::TwoLayer,
            ..Default::default()
        })
    }

    /// In-memory MX-CIF quadtree join (§4.1): bulk-load both relations,
    /// synchronized traversal, no disk I/O. Refused when the inputs exceed
    /// the memory budget.
    pub fn quadtree(mem_bytes: usize) -> Algorithm {
        Algorithm::Quadtree(QuadtreeConfig {
            mem_bytes,
            ..Default::default()
        })
    }

    /// S³J as improved by the paper: size separation with ≤4× replication
    /// and online duplicate elimination (§4.3).
    pub fn s3j_replicated(mem_bytes: usize) -> Algorithm {
        Algorithm::S3j(S3jConfig {
            mem_bytes,
            replicate: true,
            ..Default::default()
        })
    }

    /// Original S³J ([KS 97]): covering-cell assignment, no replication.
    pub fn s3j_original(mem_bytes: usize) -> Algorithm {
        Algorithm::S3j(S3jConfig {
            mem_bytes,
            replicate: false,
            ..Default::default()
        })
    }

    /// Scalable Sweeping-Based Spatial Join baseline ([APR+ 98]).
    pub fn sssj(mem_bytes: usize) -> Algorithm {
        Algorithm::Sssj(SssjConfig {
            mem_bytes,
            ..Default::default()
        })
    }

    /// Spatial Hash Join baseline ([LR 96]): build-side partitioning,
    /// probe-side replication, no duplicates by construction.
    pub fn shj(mem_bytes: usize) -> Algorithm {
        Algorithm::Shj(ShjConfig {
            mem_bytes,
            ..Default::default()
        })
    }

    /// Materialises a planner-selected [`estimate::PlanChoice`] as a runnable
    /// configuration: the choice's algorithm family, internal sweep,
    /// tiles-per-partition, write-buffer split and memory budget, with every
    /// other knob at its default. The planner's choices are self-describing
    /// precisely so this mapping stays total.
    pub fn from_choice(choice: &estimate::PlanChoice) -> Algorithm {
        use estimate::PlanAlgo;
        match choice.algo {
            PlanAlgo::PbsmRpm => Algorithm::Pbsm(PbsmConfig {
                mem_bytes: choice.mem_bytes,
                internal: choice.internal,
                tiles_per_partition: choice.tiles_per_partition,
                partition_buffer_pages: choice.buffer_pages,
                ..Default::default()
            }),
            PlanAlgo::PbsmSort => Algorithm::Pbsm(PbsmConfig {
                mem_bytes: choice.mem_bytes,
                internal: choice.internal,
                tiles_per_partition: choice.tiles_per_partition,
                partition_buffer_pages: choice.buffer_pages,
                dedup: Dedup::SortPhase,
                ..Default::default()
            }),
            PlanAlgo::S3jReplicated => Algorithm::S3j(S3jConfig {
                mem_bytes: choice.mem_bytes,
                internal: choice.internal,
                level_buffer_pages: choice.buffer_pages,
                replicate: true,
                ..Default::default()
            }),
            PlanAlgo::S3jOriginal => Algorithm::S3j(S3jConfig {
                mem_bytes: choice.mem_bytes,
                internal: choice.internal,
                level_buffer_pages: choice.buffer_pages,
                replicate: false,
                ..Default::default()
            }),
            PlanAlgo::Sssj => Algorithm::sssj(choice.mem_bytes),
            PlanAlgo::Shj => Algorithm::Shj(ShjConfig {
                mem_bytes: choice.mem_bytes,
                internal: choice.internal,
                ..Default::default()
            }),
            PlanAlgo::TwoLayer => Algorithm::Pbsm(PbsmConfig {
                mem_bytes: choice.mem_bytes,
                internal: choice.internal,
                tiles_per_partition: choice.tiles_per_partition,
                partition_buffer_pages: choice.buffer_pages,
                dedup: Dedup::TwoLayer,
                ..Default::default()
            }),
            PlanAlgo::Quadtree => Algorithm::Quadtree(QuadtreeConfig {
                mem_bytes: choice.mem_bytes,
                ..Default::default()
            }),
        }
    }

    /// Sets the partition-join worker-thread knob (`0` = all cores, `1` =
    /// sequential) on algorithms that support parallel partition execution
    /// (PBSM and S³J); a no-op for the single-sweep baselines. Results and
    /// deterministic counters are identical for every value.
    pub fn with_threads(mut self, threads: usize) -> Algorithm {
        match &mut self {
            Algorithm::Pbsm(c) => c.threads = threads,
            Algorithm::S3j(c) => c.threads = threads,
            Algorithm::Sssj(_) | Algorithm::Shj(_) | Algorithm::Quadtree(_) => {}
        }
        self
    }

    /// Overrides the memory budget `M` on any algorithm. This is the
    /// partition-count lever of the conformance oracle: PBSM's partition
    /// count follows formula (1) from `M`, SHJ's bucket count likewise, and
    /// the sort-based algorithms size their runs from it — while the result
    /// set must stay byte-identical for every value.
    pub fn with_mem(mut self, mem_bytes: usize) -> Algorithm {
        match &mut self {
            Algorithm::Pbsm(c) => c.mem_bytes = mem_bytes,
            Algorithm::S3j(c) => c.mem_bytes = mem_bytes,
            Algorithm::Sssj(c) => c.mem_bytes = mem_bytes,
            Algorithm::Shj(c) => c.mem_bytes = mem_bytes,
            Algorithm::Quadtree(c) => c.mem_bytes = mem_bytes,
        }
        self
    }

    /// The configured memory budget in bytes.
    pub fn mem_bytes(&self) -> usize {
        match self {
            Algorithm::Pbsm(c) => c.mem_bytes,
            Algorithm::S3j(c) => c.mem_bytes,
            Algorithm::Sssj(c) => c.mem_bytes,
            Algorithm::Shj(c) => c.mem_bytes,
            Algorithm::Quadtree(c) => c.mem_bytes,
        }
    }

    /// Sets the in-memory join algorithm used for partition/bucket pairs on
    /// the algorithms that have one (PBSM, S³J, SHJ); a no-op for SSSJ,
    /// whose single sweep *is* the algorithm. Results are invariant.
    pub fn with_internal(mut self, internal: InternalAlgo) -> Algorithm {
        match &mut self {
            Algorithm::Pbsm(c) => c.internal = internal,
            Algorithm::S3j(c) => c.internal = internal,
            Algorithm::Shj(c) => c.internal = internal,
            Algorithm::Sssj(_) | Algorithm::Quadtree(_) => {}
        }
        self
    }

    /// Sets PBSM's tiles-per-partition knob (`NT = P ·` this) — the
    /// tile-grid lever of the conformance oracle; a no-op elsewhere.
    /// Results are invariant for every value ≥ 1.
    pub fn with_tiles_per_partition(mut self, tiles: u32) -> Algorithm {
        if let Algorithm::Pbsm(c) = &mut self {
            c.tiles_per_partition = tiles;
        }
        self
    }

    /// The configured worker-thread knob (`None` for algorithms without
    /// partition-level parallelism).
    pub fn threads(&self) -> Option<usize> {
        match self {
            Algorithm::Pbsm(c) => Some(c.threads),
            Algorithm::S3j(c) => Some(c.threads),
            Algorithm::Sssj(_) | Algorithm::Shj(_) | Algorithm::Quadtree(_) => None,
        }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Pbsm(c) => match c.dedup {
                Dedup::SortPhase => "PBSM (sort-phase dedup)",
                Dedup::ReferencePoint => "PBSM (reference point)",
                Dedup::None => "PBSM (raw candidates)",
                Dedup::TwoLayer => "PBSM (two-layer classes)",
            },
            Algorithm::S3j(c) => {
                if c.replicate {
                    "S3J (replicated)"
                } else {
                    "S3J (original)"
                }
            }
            Algorithm::Sssj(_) => "SSSJ",
            Algorithm::Shj(_) => "SHJ (spatial hash join)",
            Algorithm::Quadtree(_) => "MX-CIF quadtree (in-memory)",
        }
    }
}

/// Statistics of a completed join, uniform across algorithms.
#[derive(Debug, Clone)]
pub enum JoinStats {
    Pbsm(PbsmStats),
    S3j(S3jStats),
    Sssj(SssjStats),
    Shj(ShjStats),
    Quadtree(QuadtreeStats),
}

impl JoinStats {
    /// The run's phase table and simulated clock.
    pub fn cost(&self) -> &RunCost {
        match self {
            JoinStats::Pbsm(s) => &s.cost,
            JoinStats::S3j(s) => &s.cost,
            JoinStats::Sssj(s) => &s.cost,
            JoinStats::Shj(s) => &s.cost,
            JoinStats::Quadtree(s) => &s.cost,
        }
    }

    /// Whole-run counters, as exported by [`JoinStats::metrics_report`].
    pub fn counters(&self) -> RunCounters {
        match self {
            JoinStats::Pbsm(s) => RunCounters {
                candidates: Some(s.candidates),
                results: s.results,
                duplicates: s.duplicates,
                partitions: u64::from(s.partitions),
                requeued_partitions: u64::from(s.requeued_partitions),
                degraded_partitions: u64::from(s.degraded_partitions),
                checkpoint_commits: s.checkpoint_commits,
                partition_cache_hits: 0,
            },
            JoinStats::S3j(s) => RunCounters {
                candidates: Some(s.candidates),
                results: s.results,
                duplicates: s.duplicates,
                checkpoint_commits: s.checkpoint_commits,
                ..RunCounters::default()
            },
            JoinStats::Sssj(SssjStats { results, .. })
            | JoinStats::Shj(ShjStats { results, .. })
            | JoinStats::Quadtree(QuadtreeStats { results, .. }) => RunCounters {
                results: *results,
                ..RunCounters::default()
            },
        }
    }

    /// Number of (duplicate-free) result pairs.
    pub fn results(&self) -> u64 {
        self.counters().results
    }

    /// Duplicates suppressed online or removed by sorting.
    pub fn duplicates(&self) -> u64 {
        self.counters().duplicates
    }

    /// Candidate pairs tested by the filter step, for algorithms that track
    /// them (`candidates == results + duplicates` holds by construction).
    pub fn candidates(&self) -> Option<u64> {
        self.counters().candidates
    }

    /// Measured CPU seconds.
    pub fn cpu_seconds(&self) -> f64 {
        self.cost().cpu_seconds()
    }

    /// CPU seconds stretched to the emulated 1999 machine.
    pub fn scaled_cpu_seconds(&self) -> f64 {
        self.cost().scaled_cpu_seconds()
    }

    /// Simulated disk seconds under the configured [`DiskModel`].
    pub fn io_seconds(&self) -> f64 {
        self.cost().io_seconds()
    }

    /// Named per-phase I/O buckets. The buckets are disjoint — each disk
    /// request (including its retries and backoff) is charged to exactly one
    /// phase — so they sum to [`JoinStats::io_total`]; reporting per-phase
    /// and total counters therefore never counts a retry twice.
    pub fn io_phases(&self) -> Vec<(&'static str, IoStats)> {
        self.cost().io_phases()
    }

    /// Total I/O counters across all phases.
    pub fn io_total(&self) -> IoStats {
        self.cost().io_total()
    }

    /// I/O charged to the serial shared lane (manifest, journal, results,
    /// dedup scratch, and any untagged file). Together with
    /// [`JoinStats::io_channels`] this decomposes [`JoinStats::io_total`]
    /// field-for-field.
    pub fn io_shared(&self) -> IoStats {
        self.cost().io_shared
    }

    /// Per-data-channel I/O, one bucket per channel of the run's disk.
    pub fn io_channels(&self) -> &[IoStats] {
        &self.cost().io_channels
    }

    /// Channel-parallel disk time: shared lane plus the busiest data
    /// channel. Equals [`JoinStats::io_seconds`] bit-exactly at one channel.
    pub fn io_parallel_seconds(&self) -> f64 {
        self.cost().io_parallel_seconds()
    }

    /// Disk time hidden behind computation by double-buffered prefetch
    /// (zero with one channel, and zero under `cpu_slowdown = 0`).
    pub fn prefetch_hidden_seconds(&self) -> f64 {
        self.cost().prefetch_hidden_seconds()
    }

    /// The paper's "total runtime": emulated CPU + channel-parallel disk
    /// time, minus disk time hidden behind computation by prefetch. With one
    /// channel this reduces bit-exactly to
    /// `scaled_cpu_seconds() + io_seconds()`, the pre-channel serial clock.
    pub fn total_seconds(&self) -> f64 {
        self.cost().total_seconds()
    }

    /// Simulated position of the first emitted result (pipelining metric).
    /// `None` for the SHJ and quadtree baselines, which do not probe it.
    pub fn first_result_seconds(&self) -> Option<f64> {
        self.cost().first_result_seconds()
    }

    /// The I/O-only leg of the first-result position: pure simulated time,
    /// never past `io_seconds()`. The probe minimizes the *combined*
    /// position over emitting tasks, so under `cpu_slowdown = 0` this is
    /// bit-identical at every thread count; with live CPU costing the
    /// minimizing task can shift with the host measurement.
    pub fn first_result_io_seconds(&self) -> Option<f64> {
        self.cost().first_result_io_seconds()
    }

    /// Rectangle/interval comparisons performed by the internal joins — the
    /// deterministic CPU-work proxy the paper's CPU plots measure
    /// indirectly. For the two-layer class scheme this is where the saved
    /// intersection and duplicate tests show up.
    pub fn tests(&self) -> u64 {
        match self {
            JoinStats::Pbsm(s) => s.join_counters.tests,
            JoinStats::S3j(s) => s.join_counters.tests,
            JoinStats::Sssj(s) => s.join_counters.tests,
            JoinStats::Shj(s) => s.join_counters.tests,
            JoinStats::Quadtree(s) => s.tests,
        }
    }

    /// The disk model the run was costed under.
    pub fn model(&self) -> DiskModel {
        self.cost().model
    }

    /// Builds the versioned, reconciled metrics document for this run from
    /// its phase table ([`RunCost::report`]) and [`JoinStats::counters`].
    pub fn metrics_report(&self, algo: &str, threads: usize) -> MetricsReport {
        self.cost().report(algo, threads, self.counters())
    }
}

/// A configured spatial join, ready to run.
#[derive(Debug, Clone)]
pub struct SpatialJoin {
    algorithm: Algorithm,
    disk_model: DiskModel,
    fault_plan: Option<FaultPlan>,
    retry: RetryPolicy,
    cancel: Option<CancelToken>,
    deadline: Option<f64>,
    recorder: Option<Arc<Recorder>>,
}

/// Result of [`SpatialJoin::run`]: materialised pairs plus statistics.
#[derive(Debug)]
pub struct JoinRun {
    pub pairs: Vec<(RecordId, RecordId)>,
    pub stats: JoinStats,
}

impl SpatialJoin {
    pub fn new(algorithm: Algorithm) -> Self {
        SpatialJoin {
            algorithm,
            disk_model: DiskModel::default(),
            fault_plan: None,
            retry: RetryPolicy::default(),
            cancel: None,
            deadline: None,
            recorder: None,
        }
    }

    /// Overrides the simulated disk parameters.
    pub fn with_disk_model(mut self, model: DiskModel) -> Self {
        self.disk_model = model;
        self
    }

    /// Attaches a seeded fault plan to the per-run simulated disk. Only the
    /// partition-based joins (PBSM, S³J) have fallible code paths; running a
    /// baseline algorithm with a fault plan makes [`SpatialJoin::try_run`]
    /// return [`IoErrorKind::Unsupported`].
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the page-request retry policy used when a fault plan is
    /// attached (default: 4 attempts, exponential backoff).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Shares a cooperative-cancellation token with the join. Tripping it
    /// from any thread stops the run at the next partition boundary with a
    /// typed `Cancelled` error (partial results already emitted stand).
    /// Only the partition-based joins (PBSM, S³J) poll the token; attaching
    /// one to a baseline makes [`SpatialJoin::try_run`] return
    /// [`IoErrorKind::Unsupported`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Simulated-time deadline in seconds (disk time under the cost model
    /// plus emulated CPU time). Checked at partition granularity; expiry
    /// surfaces as a typed `DeadlineExceeded` error after the tuples
    /// emitted so far. Baselines are refused as with
    /// [`SpatialJoin::with_cancel`].
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.deadline = Some(seconds);
        self
    }

    /// Attaches a shared trace recorder. The partition-based joins (PBSM,
    /// S³J) record phase spans and per-partition events on the simulated
    /// clock into it; the single-sweep baselines run unobserved (attaching a
    /// recorder to one is a no-op, never an error). Read the trace back with
    /// [`Recorder::to_json`] after the run.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    pub fn algorithm(&self) -> &Algorithm {
        &self.algorithm
    }

    fn control(&self) -> RunControl {
        let mut ctl = RunControl::none();
        if let Some(t) = &self.cancel {
            ctl = ctl.with_cancel(t.clone());
        }
        if let Some(d) = self.deadline {
            ctl = ctl.with_deadline(d);
        }
        if let Some(r) = &self.recorder {
            ctl = ctl.with_recorder(Arc::clone(r));
        }
        ctl
    }

    fn interruptible(&self) -> bool {
        self.cancel.is_some() || self.deadline.is_some()
    }

    fn make_disk(&self) -> SimDisk {
        let disk = SimDisk::new(self.disk_model);
        match self.fault_plan {
            Some(plan) => disk.with_faults(plan, self.retry),
            None => disk,
        }
    }

    /// Runs the join, streaming results into `out`. A fresh simulated disk
    /// is created per run, so statistics are independent across runs.
    ///
    /// A request that exhausts its retry budget and every degradation path
    /// surfaces as a typed [`JoinError`]; without a fault plan this never
    /// happens.
    pub fn try_run_with(
        &self,
        r: &[Kpe],
        s: &[Kpe],
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> Result<JoinStats, JoinError> {
        match &self.algorithm {
            Algorithm::Pbsm(cfg) => {
                pbsm::try_pbsm_join_ctl(&self.make_disk(), r, s, cfg, &self.control(), out)
                    .map(JoinStats::Pbsm)
            }
            Algorithm::S3j(cfg) => {
                s3j::try_s3j_join_ctl(&self.make_disk(), r, s, cfg, &self.control(), out)
                    .map(JoinStats::S3j)
            }
            // The single-sweep baselines and the in-memory quadtree have no
            // fallible code path and do not poll cancellation; refuse the
            // combination up front rather than panicking mid-join or
            // silently ignoring a deadline.
            Algorithm::Sssj(_) | Algorithm::Shj(_) | Algorithm::Quadtree(_)
                if self.fault_plan.is_some() || self.interruptible() =>
            {
                Err(JoinError::new("setup", IoError::unsupported()))
            }
            Algorithm::Sssj(cfg) => Ok(JoinStats::Sssj(sssj::sssj_join(
                &self.make_disk(),
                r,
                s,
                cfg,
                out,
            ))),
            Algorithm::Shj(cfg) => Ok(JoinStats::Shj(shj::shj_join(
                &self.make_disk(),
                r,
                s,
                cfg,
                out,
            ))),
            // The quadtree variant holds both relations' trees in memory at
            // once; enforcing the budget honestly keeps it comparable to the
            // external algorithms (and keeps the planner from "winning" with
            // an algorithm that could not actually run in the given budget).
            Algorithm::Quadtree(cfg) => {
                let input_bytes = (r.len() + s.len()) * Kpe::ENCODED_SIZE;
                if input_bytes > cfg.mem_bytes {
                    return Err(JoinError::new("setup", IoError::unsupported()));
                }
                let mut cost = RunCost::new(self.disk_model, &[Phase::Build, Phase::Join]);
                let t0 = Instant::now();
                let tr = quadtree::MxCifQuadtree::bulk(r, cfg.max_level);
                let ts = quadtree::MxCifQuadtree::bulk(s, cfg.max_level);
                cost[Phase::Build].cpu = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                let mut results = 0u64;
                let tests = tr.join(&ts, &mut |a, b| {
                    results += 1;
                    out(a.id, b.id);
                });
                cost[Phase::Join].cpu = t1.elapsed().as_secs_f64();
                Ok(JoinStats::Quadtree(QuadtreeStats {
                    results,
                    tests,
                    nodes_r: tr.node_count() as u64,
                    nodes_s: ts.node_count() as u64,
                    cost,
                }))
            }
        }
    }

    /// Runs the join and materialises all result pairs.
    pub fn try_run(&self, r: &[Kpe], s: &[Kpe]) -> Result<JoinRun, JoinError> {
        let mut pairs = Vec::new();
        let stats = self.try_run_with(r, s, &mut |a, b| pairs.push((a, b)))?;
        Ok(JoinRun { pairs, stats })
    }

    /// Infallible [`SpatialJoin::try_run`] for fault-free configurations.
    pub fn run(&self, r: &[Kpe], s: &[Kpe]) -> JoinRun {
        self.try_run(r, s)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// Runs the join, counting results without materialising them.
    pub fn try_count(&self, r: &[Kpe], s: &[Kpe]) -> Result<(u64, JoinStats), JoinError> {
        let mut n = 0u64;
        let stats = self.try_run_with(r, s, &mut |_, _| n += 1)?;
        Ok((n, stats))
    }

    /// Infallible [`SpatialJoin::try_count`] for fault-free configurations.
    pub fn count(&self, r: &[Kpe], s: &[Kpe]) -> (u64, JoinStats) {
        self.try_count(r, s)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// Manifest algorithm tag of the checkpointable joins; `None` for the
    /// single-sweep baselines (which cannot be checkpointed).
    fn algo_tag(&self) -> Option<u8> {
        match &self.algorithm {
            Algorithm::Pbsm(_) => Some(1),
            Algorithm::S3j(_) => Some(2),
            Algorithm::Sssj(_) | Algorithm::Shj(_) | Algorithm::Quadtree(_) => None,
        }
    }

    /// Run fingerprint: FNV-1a over the algorithm configuration and both
    /// relations' contents. A resume is refused when the fingerprint does
    /// not match the one in the recovered manifest — a changed config or
    /// input would silently corrupt exactly-once accounting. The worker
    /// thread knob is normalised out: a run may legally be resumed with a
    /// different degree of parallelism (the output stream is identical).
    pub fn fingerprint(&self, r: &[Kpe], s: &[Kpe]) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(FNV_PRIME);
            }
        }
        let mut h = FNV_OFFSET;
        let algo = self.algorithm.clone().with_threads(1);
        eat(&mut h, format!("{algo:?}").as_bytes());
        for rel in [r, s] {
            eat(&mut h, &(rel.len() as u64).to_le_bytes());
            for k in rel {
                eat(&mut h, &k.id.0.to_le_bytes());
                for c in [k.rect.xl, k.rect.yl, k.rect.xh, k.rect.yh] {
                    eat(&mut h, &c.to_bits().to_le_bytes());
                }
            }
        }
        h
    }

    /// Runs the join as a *durable, checkpointed* run on `disk` — the
    /// crash-recovery entry point.
    ///
    /// On an empty disk this creates the superblock (by convention the
    /// disk's first file, raw id 0) and starts a fresh run under `run_id`.
    /// On a disk restored from an interrupted run's snapshot it recovers
    /// the published manifest (verifying [`SpatialJoin::fingerprint`]),
    /// truncates any torn journal tail, sweeps orphan files, and resumes:
    /// journal-committed partitions are skipped and only the uncommitted
    /// partitions' pairs are emitted, so the interrupted leg plus this leg
    /// together produce the uninterrupted output exactly once.
    ///
    /// Only the partition-based joins with online duplicate suppression
    /// can be checkpointed; baselines, PBSM sort-phase dedup and the S³J
    /// ablation scan are refused with [`IoErrorKind::Unsupported`].
    pub fn try_run_durable(
        &self,
        disk: &SimDisk,
        r: &[Kpe],
        s: &[Kpe],
        run_id: u64,
    ) -> Result<JoinRun, JoinError> {
        let mut pairs = Vec::new();
        let stats =
            self.try_run_durable_with(disk, r, s, run_id, &mut |a, b| pairs.push((a, b)))?;
        Ok(JoinRun { pairs, stats })
    }

    /// Streaming form of [`SpatialJoin::try_run_durable`]: result pairs go to
    /// `out` as each partition commits. Unlike the materialising wrapper,
    /// pairs emitted *before* an interruption stay observable — exactly what
    /// the crash-recovery oracle needs to check that the interrupted leg plus
    /// the resumed leg reproduce the uninterrupted output with no overlap.
    pub fn try_run_durable_with(
        &self,
        disk: &SimDisk,
        r: &[Kpe],
        s: &[Kpe],
        run_id: u64,
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> Result<JoinStats, JoinError> {
        let Some(tag) = self.algo_tag() else {
            return Err(JoinError::new("setup", IoError::unsupported()));
        };
        let fp = self.fingerprint(r, s);
        let sb = FileId::from_raw(0);
        let cp = if disk.exists(sb) {
            match storage::recover(disk, sb, fp)? {
                Recovered::Resumed(cp) => cp,
                Recovered::Fresh => RunCheckpoint::start(disk, sb, run_id, fp, tag),
            }
        } else {
            let created = disk.create();
            debug_assert_eq!(created.raw(), 0, "superblock must be the disk's first file");
            RunCheckpoint::start(disk, created, run_id, fp, tag)
        };
        let ctl = self.control().with_checkpoint(cp);
        match &self.algorithm {
            Algorithm::Pbsm(cfg) => {
                pbsm::try_pbsm_join_ctl(disk, r, s, cfg, &ctl, out).map(JoinStats::Pbsm)
            }
            Algorithm::S3j(cfg) => {
                s3j::try_s3j_join_ctl(disk, r, s, cfg, &ctl, out).map(JoinStats::S3j)
            }
            // `algo_tag` returned above for the baselines and the quadtree.
            Algorithm::Sssj(_) | Algorithm::Shj(_) | Algorithm::Quadtree(_) => {
                Err(JoinError::new("setup", IoError::unsupported()))
            }
        }
    }

    /// Filter step + refinement step in one pipelined pass: every candidate
    /// the filter emits is verified against exact geometry by `refiner`
    /// immediately ([BKSS 94]-style multi-step processing — possible online
    /// precisely because the Reference Point Method keeps the candidate
    /// stream duplicate-free, §3.1).
    pub fn try_run_refined<R: refine::Refiner>(
        &self,
        r: &[Kpe],
        s: &[Kpe],
        refiner: R,
    ) -> Result<RefinedRun, JoinError> {
        let mut pairs = Vec::new();
        let mut sink = |a: RecordId, b: RecordId| pairs.push((a, b));
        let mut stage = refine::Refinement::new(refiner, &mut sink);
        let filter = self.try_run_with(r, s, &mut |a, b| stage.accept(a, b))?;
        let refine = stage.stats();
        Ok(RefinedRun {
            pairs,
            filter,
            refine,
        })
    }

    /// Infallible [`SpatialJoin::try_run_refined`] for fault-free
    /// configurations.
    pub fn run_refined<R: refine::Refiner>(
        &self,
        r: &[Kpe],
        s: &[Kpe],
        refiner: R,
    ) -> RefinedRun {
        self.try_run_refined(r, s, refiner)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }

    /// Exact-intersection refinement with the raster-interval pre-filter
    /// ([`refine::RasterFilter`]) in front of the exact geometry test.
    /// Results are bit-identical to the unfiltered run; only the
    /// [`refine::RefineStats`] raster counters differ.
    pub fn try_run_refined_raster(
        &self,
        r: &datagen::LineDataset,
        s: &datagen::LineDataset,
        curve: sfc::Curve,
    ) -> Result<RefinedRun, JoinError> {
        self.try_run_refined(
            &r.kpes,
            &s.kpes,
            refine::RasterFilter::intersect(&r.segments, &s.segments, curve),
        )
    }

    /// ε-distance join over exact line geometry (the similarity-join
    /// direction of the paper's future work, [KS 98]): the filter step runs
    /// this join over `ε/2`-expanded MBRs, the refinement step verifies
    /// exact segment distance.
    pub fn try_within_distance(
        &self,
        r: &datagen::LineDataset,
        s: &datagen::LineDataset,
        eps: f64,
    ) -> Result<RefinedRun, JoinError> {
        self.within_distance_impl(r, s, eps, None)
    }

    /// [`SpatialJoin::try_within_distance`] with the raster-interval
    /// pre-filter: certain accepts/rejects skip the exact distance test.
    pub fn try_within_distance_raster(
        &self,
        r: &datagen::LineDataset,
        s: &datagen::LineDataset,
        eps: f64,
        curve: sfc::Curve,
    ) -> Result<RefinedRun, JoinError> {
        self.within_distance_impl(r, s, eps, Some(curve))
    }

    fn within_distance_impl(
        &self,
        r: &datagen::LineDataset,
        s: &datagen::LineDataset,
        eps: f64,
        curve: Option<sfc::Curve>,
    ) -> Result<RefinedRun, JoinError> {
        assert!(eps >= 0.0);
        let expand = |data: &[Kpe]| -> Vec<Kpe> {
            data.iter()
                .map(|k| Kpe::new(k.id, k.rect.expanded(eps / 2.0)))
                .collect()
        };
        let re = expand(&r.kpes);
        let se = expand(&s.kpes);
        match curve {
            Some(c) => self.try_run_refined(
                &re,
                &se,
                refine::RasterFilter::within_distance(&r.segments, &s.segments, eps, c),
            ),
            None => self.try_run_refined(
                &re,
                &se,
                refine::SegmentWithinDistance {
                    r: &r.segments,
                    s: &s.segments,
                    eps,
                },
            ),
        }
    }

    /// Infallible [`SpatialJoin::try_within_distance`] for fault-free
    /// configurations.
    pub fn within_distance(
        &self,
        r: &datagen::LineDataset,
        s: &datagen::LineDataset,
        eps: f64,
    ) -> RefinedRun {
        self.try_within_distance(r, s, eps)
            .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
    }
}

/// Result of a combined filter + refinement run.
pub struct RefinedRun {
    /// Pairs whose exact geometries satisfy the predicate.
    pub pairs: Vec<(RecordId, RecordId)>,
    /// Filter-step statistics.
    pub filter: JoinStats,
    /// Refinement-step statistics (candidates, hits, false-positive rate).
    pub refine: refine::RefineStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pair() -> (Vec<Kpe>, Vec<Kpe>) {
        let r = datagen::sized(&datagen::la_rr_config(7), 0.01).generate();
        let s = datagen::sized(&datagen::la_st_config(7), 0.01).generate();
        (r, s)
    }

    #[test]
    fn all_algorithms_agree_through_the_public_api() {
        let (r, s) = small_pair();
        let mem = 64 * 1024;
        let algorithms = [
            Algorithm::pbsm_rpm(mem),
            Algorithm::pbsm_original(mem),
            Algorithm::s3j_replicated(mem),
            Algorithm::s3j_original(mem),
            Algorithm::sssj(mem),
            Algorithm::shj(mem),
            Algorithm::two_layer(mem),
            Algorithm::quadtree(1 << 20),
        ];
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for algo in algorithms {
            let name = algo.name();
            let run = SpatialJoin::new(algo).run(&r, &s);
            let mut pairs: Vec<(u64, u64)> =
                run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
            pairs.sort_unstable();
            assert_eq!(run.stats.results() as usize, pairs.len(), "{name}");
            match &reference {
                None => reference = Some(pairs),
                Some(want) => assert_eq!(&pairs, want, "{name} diverges"),
            }
        }
    }

    #[test]
    fn count_matches_run() {
        let (r, s) = small_pair();
        let join = SpatialJoin::new(Algorithm::pbsm_rpm(64 * 1024));
        let run = join.run(&r, &s);
        let (n, stats) = join.count(&r, &s);
        assert_eq!(n as usize, run.pairs.len());
        assert_eq!(stats.results(), run.stats.results());
    }

    #[test]
    fn disk_model_scales_io_seconds() {
        let (r, s) = small_pair();
        let slow = DiskModel {
            transfer_secs_per_page: 0.01,
            ..Default::default()
        };
        let fast = DiskModel {
            transfer_secs_per_page: 0.0001,
            ..Default::default()
        };
        let mem = 48 * 1024;
        let (_, st_slow) = SpatialJoin::new(Algorithm::pbsm_rpm(mem))
            .with_disk_model(slow)
            .count(&r, &s);
        let (_, st_fast) = SpatialJoin::new(Algorithm::pbsm_rpm(mem))
            .with_disk_model(fast)
            .count(&r, &s);
        assert!(st_slow.io_seconds() > st_fast.io_seconds() * 10.0);
        // Same work, same counters.
        assert_eq!(st_slow.io_total(), st_fast.io_total());
    }

    #[test]
    fn recoverable_faults_do_not_change_results() {
        let (r, s) = small_pair();
        for algo in [Algorithm::pbsm_rpm(64 * 1024), Algorithm::s3j_replicated(64 * 1024)] {
            let clean = SpatialJoin::new(algo.clone()).run(&r, &s);
            let faulty = SpatialJoin::new(algo)
                .with_faults(FaultPlan::recoverable(11))
                .try_run(&r, &s)
                .expect("recoverable faults must be cured by retries");
            let sort = |run: &JoinRun| {
                let mut v: Vec<(u64, u64)> = run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(sort(&clean), sort(&faulty));
            let io = faulty.stats.io_total();
            assert!(io.faults_injected > 0, "plan must actually fire");
            assert!(io.read_retries + io.write_retries > 0);
            assert_eq!(clean.stats.io_total().faults_injected, 0);
        }
    }

    #[test]
    fn unrecoverable_faults_surface_typed_errors() {
        let (r, s) = small_pair();
        for algo in [Algorithm::pbsm_rpm(64 * 1024), Algorithm::s3j_replicated(64 * 1024)] {
            let err = SpatialJoin::new(algo)
                .with_faults(FaultPlan::unrecoverable(5))
                .try_run(&r, &s)
                .expect_err("every request fails: the join cannot succeed");
            let io = err.io().expect("fault-induced errors carry an IoError");
            assert!(io.kind.is_transient() || io.attempts >= 1);
            assert!(!err.phase.is_empty());
        }
    }

    #[test]
    fn baselines_reject_fault_plans_up_front() {
        let (r, s) = small_pair();
        for algo in [
            Algorithm::sssj(64 * 1024),
            Algorithm::shj(64 * 1024),
            Algorithm::quadtree(1 << 20),
        ] {
            let err = SpatialJoin::new(algo)
                .with_faults(FaultPlan::recoverable(1))
                .try_run(&r, &s)
                .expect_err("baselines have no fallible code path");
            assert_eq!(err.io().map(|io| io.kind), Some(IoErrorKind::Unsupported));
            assert_eq!(err.phase, "setup");
        }
    }

    #[test]
    fn quadtree_refuses_inputs_over_its_memory_budget() {
        let (r, s) = small_pair();
        let err = SpatialJoin::new(Algorithm::quadtree(1024))
            .try_run(&r, &s)
            .expect_err("both trees cannot fit 1 KiB");
        assert_eq!(err.io().map(|io| io.kind), Some(IoErrorKind::Unsupported));
        assert_eq!(err.phase, "setup");
    }

    #[test]
    fn retry_policy_none_turns_recoverable_into_failure() {
        let (r, s) = small_pair();
        let res = SpatialJoin::new(Algorithm::pbsm_rpm(64 * 1024))
            .with_faults(FaultPlan::recoverable(11))
            .with_retry(RetryPolicy::none())
            .try_run(&r, &s);
        // With one attempt per request and no degradation deep enough to
        // outlast a 5% identity fault rate, the join is overwhelmingly
        // likely to fail — and must do so with a typed error, not a panic.
        if let Err(e) = res {
            assert!(e.io().is_some_and(|io| io.attempts >= 1));
        }
    }

    #[test]
    fn names_are_distinct_and_stable() {
        let names: Vec<&str> = [
            Algorithm::pbsm_rpm(1),
            Algorithm::pbsm_original(1),
            Algorithm::s3j_replicated(1),
            Algorithm::s3j_original(1),
            Algorithm::sssj(1),
            Algorithm::shj(1),
            Algorithm::two_layer(1),
            Algorithm::quadtree(1),
        ]
        .iter()
        .map(|a| a.name())
        .collect();
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }
}
