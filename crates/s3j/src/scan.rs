use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use geom::{reference_point, Kpe, RecordId};
use sfc::{Cell, Curve, MAX_LEVEL};
use storage::{
    try_external_sort_by, ClockPos, DiskModel, FileId, Finished, IoError, IoStats, JoinError,
    PartitionSink, Phase, PhaseCost, RecordReader, RecordWriter, RunControl, RunCost, RunPhase,
    SimDisk,
};
use sweep::{InternalAlgo, InternalJoin, JoinCounters};

use crate::levels::{LevelFiles, LevelRecord};

/// Join-phase strategy (§4.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// One synchronized scan over all level files, driven by a heap of file
    /// cursors ordered by pre-order position — empty partitions are never
    /// touched (the paper's implementation, detailed in [Dit 99]).
    #[default]
    HeapMerge,
    /// Ablation baseline: join every pair of level files with its own merge
    /// scan. Re-reads each level file once per opposite level.
    LevelPairs,
}

/// S³J tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct S3jConfig {
    /// Memory budget in bytes (drives external sorting; partitions are
    /// assumed to fit, as in [KS 97]).
    pub mem_bytes: usize,
    /// Finest grid level.
    pub max_level: u8,
    /// `false`: original S³J (covering-cell assignment, no duplicates).
    /// `true`: §4.3 size separation with ≤4-fold replication + online RPM.
    pub replicate: bool,
    /// Levels to coarsen the size-separation assignment by (replicated mode
    /// only). 0 is the literal §4.3 rule (~3× replication on line data);
    /// the default 1 keeps the ≤4-copy bound but halves the per-axis
    /// straddle probability (~1.8× replication) — the paper's second design
    /// choice ("the overall replication rate should be kept sufficiently
    /// low").
    pub level_shift: u8,
    /// Space-filling curve for locational codes (§4.4.2).
    pub curve: Curve,
    /// Internal join algorithm for partition pairs (§4.4.1: nested loops
    /// wins for S³J's tiny partitions).
    pub internal: InternalAlgo,
    pub scan: ScanMode,
    /// Write-buffer pages per level file during partitioning.
    pub level_buffer_pages: usize,
    /// Read-buffer pages per cursor during the join scan.
    pub io_buffer_pages: usize,
    /// Worker threads for the partition-pair joins of the synchronized scan
    /// ([`ScanMode::HeapMerge`] only; the ablation scan stays sequential).
    /// `0` means "all available cores"; `1` runs the sequential code path.
    /// The result stream and all deterministic counters are identical for
    /// every value.
    pub threads: usize,
}

impl Default for S3jConfig {
    fn default() -> Self {
        S3jConfig {
            mem_bytes: 8 << 20,
            max_level: MAX_LEVEL,
            replicate: true,
            level_shift: 1,
            curve: Curve::Peano,
            internal: InternalAlgo::NestedLoops,
            scan: ScanMode::HeapMerge,
            level_buffer_pages: 1,
            io_buffer_pages: 2,
            threads: 0,
        }
    }
}

/// Everything S³J measured while running.
#[derive(Debug, Clone)]
pub struct S3jStats {
    pub copies_r: u64,
    pub copies_s: u64,
    pub histogram_r: Vec<u64>,
    pub histogram_s: Vec<u64>,
    pub code_computations: u64,
    /// Pairs produced by the internal joins before duplicate handling.
    pub candidates: u64,
    pub results: u64,
    pub duplicates: u64,
    pub join_counters: JoinCounters,
    pub sort_runs: usize,
    pub sort_passes_max: usize,
    /// Peak bytes of partitions resident during the join scan.
    pub peak_partition_bytes: usize,
    /// Durable per-partition journal commits performed by this run (zero
    /// unless the run is checkpointed).
    pub checkpoint_commits: u64,
    /// Level files abandoned to persistent media damage and recomputed from
    /// the source relation (quarantine-recompute): sort-phase rebuilds that
    /// rewrote a level through a spare file, plus scan-phase cursors that
    /// switched to the in-memory replay. The run completes with the exact
    /// result set either way; this only marks that it ran degraded.
    pub quarantined_levels: u32,
    /// Phase table and clock. Level `l`'s file (and its sort runs, which
    /// inherit the tag) rides data channel `l mod D` for both relations.
    /// Prefetch-hidden time needs no explicit prefetch stage: the
    /// coordinator's scan does all I/O while workers join in-memory
    /// partitions, so discovery reads on spare channels overlap compute.
    /// The first-result probe is the scan base plus the emitting task's own
    /// CPU, with the discovery I/O up to the emitting partition (plus its
    /// commit I/O when checkpointed), minimized over tasks — the same at
    /// every thread count.
    pub cost: RunCost,
}

/// S³J's phases, in report order.
const PHASES: &[Phase] = &[Phase::Partition, Phase::Sort, Phase::Join, Phase::Checkpoint];

impl S3jStats {
    pub fn replication_rate(&self, input_len: usize) -> f64 {
        (self.copies_r + self.copies_s) as f64 / input_len.max(1) as f64
    }

    /// Folds a per-worker partial into this stats struct — the deterministic
    /// reduction of the parallel executor. Work counts are pure sums, the
    /// resident peak takes the max, and the cost record merges by
    /// [`RunCost::merge`]. Run-level fields (histograms, sort stats) are
    /// kept from `self`.
    pub fn merge(&mut self, other: &S3jStats) {
        self.copies_r += other.copies_r;
        self.copies_s += other.copies_s;
        self.code_computations += other.code_computations;
        self.candidates += other.candidates;
        self.results += other.results;
        self.duplicates += other.duplicates;
        self.join_counters.merge(&other.join_counters);
        self.cost.merge(&other.cost);
        self.peak_partition_bytes = self.peak_partition_bytes.max(other.peak_partition_bytes);
        self.checkpoint_commits += other.checkpoint_commits;
        self.quarantined_levels += other.quarantined_levels;
    }

    /// A zeroed partial for per-worker accumulation (merged back with
    /// [`S3jStats::merge`]).
    fn partial(model: DiskModel) -> S3jStats {
        S3jStats {
            copies_r: 0,
            copies_s: 0,
            histogram_r: Vec::new(),
            histogram_s: Vec::new(),
            code_computations: 0,
            candidates: 0,
            results: 0,
            duplicates: 0,
            join_counters: JoinCounters::default(),
            sort_runs: 0,
            sort_passes_max: 0,
            peak_partition_bytes: 0,
            checkpoint_commits: 0,
            quarantined_levels: 0,
            cost: RunCost::new(model, PHASES),
        }
    }
}

/// A loaded partition: one cell's rectangles from one relation. Cloned by
/// parallel workers (internal joins reorder rects in place, so every task
/// works on a pristine private copy).
#[derive(Clone)]
struct Part {
    rel: usize, // 0 = R, 1 = S
    level: u8,
    /// Pre-order range of the cell on the `max_level` grid.
    start: u64,
    end: u64,
    cell: Cell,
    rects: Vec<Kpe>,
}

impl Part {
    /// A private copy of this partition whose rects live in `buf` (cleared
    /// first) — lets parallel workers recycle scratch buffers instead of
    /// allocating per task.
    fn copy_into(&self, mut buf: Vec<Kpe>) -> Part {
        buf.clear();
        buf.extend_from_slice(&self.rects);
        Part {
            rel: self.rel,
            level: self.level,
            start: self.start,
            end: self.end,
            cell: self.cell,
            rects: buf,
        }
    }
}

/// What a level-file cursor falls back to when its sorted file turns out to
/// sit on persistently damaged media: the source relation plus the build
/// parameters needed to recompute the level's records in memory
/// ([`crate::levels::rebuild_level_sorted`]).
#[derive(Clone, Copy)]
struct LevelSource<'a> {
    data: &'a [Kpe],
    max_level: u8,
    curve: Curve,
    replicate: bool,
    level_shift: u8,
}

impl<'a> LevelSource<'a> {
    fn for_rel(cfg: &S3jConfig, r: &'a [Kpe], s: &'a [Kpe], rel: usize) -> LevelSource<'a> {
        LevelSource {
            data: if rel == 0 { r } else { s },
            max_level: cfg.max_level,
            curve: cfg.curve,
            replicate: cfg.replicate,
            level_shift: cfg.level_shift,
        }
    }

    fn rebuild(&self, level: u8) -> Vec<LevelRecord> {
        crate::levels::rebuild_level_sorted(
            self.data,
            level,
            self.max_level,
            self.curve,
            self.replicate,
            self.level_shift,
        )
    }
}

/// Where a [`Cursor`] draws its records from: the sorted level file, or —
/// after a persistent read failure quarantined that file — the in-memory
/// replay of the level, already positioned past every fully-consumed
/// partition.
enum CursorSrc {
    Disk(RecordReader<LevelRecord>),
    Memory(std::vec::IntoIter<LevelRecord>),
}

/// Cursor over one sorted level file that yields whole partitions.
struct Cursor<'a> {
    src: CursorSrc,
    level: u8,
    rel: usize,
    pending: Option<LevelRecord>,
    source: LevelSource<'a>,
    /// Set once this cursor abandoned its damaged file for the replay.
    quarantined: bool,
}

impl<'a> Cursor<'a> {
    fn new(
        disk: &SimDisk,
        file: FileId,
        level: u8,
        rel: usize,
        buffer_pages: usize,
        source: LevelSource<'a>,
    ) -> Result<Self, IoError> {
        let mut reader = RecordReader::new(disk, file, buffer_pages);
        match reader.try_next() {
            Ok(pending) => Ok(Cursor {
                src: CursorSrc::Disk(reader),
                level,
                rel,
                pending,
                source,
                quarantined: false,
            }),
            Err(e) if e.kind.is_persistent() => {
                // The very first page is damaged: no partition was consumed
                // yet, so the replay starts from the beginning.
                let mut c = Cursor {
                    src: CursorSrc::Memory(Vec::new().into_iter()),
                    level,
                    rel,
                    pending: None,
                    source,
                    quarantined: false,
                };
                c.quarantine(None);
                Ok(c)
            }
            Err(e) => Err(e),
        }
    }

    /// Abandons the damaged level file: recomputes the level from the source
    /// relation (free of charge, paper §2 — the inputs stay readable),
    /// sorted by code, and repositions at `resume_code`'s partition (or the
    /// start when the first read failed). Every earlier partition was fully
    /// consumed and already joined; the in-flight one restarts from its
    /// first record — nothing is lost or double-joined.
    fn quarantine(&mut self, resume_code: Option<u64>) {
        let mut it = self.source.rebuild(self.level).into_iter();
        let mut pending = it.next();
        if let Some(c) = resume_code {
            while pending.as_ref().is_some_and(|r| r.code < c) {
                pending = it.next();
            }
        }
        self.pending = pending;
        self.src = CursorSrc::Memory(it);
        self.quarantined = true;
    }

    fn next_record(&mut self) -> Result<Option<LevelRecord>, IoError> {
        match &mut self.src {
            CursorSrc::Disk(r) => r.try_next(),
            CursorSrc::Memory(it) => Ok(it.next()),
        }
    }

    /// Pre-order heap key of the next partition.
    fn peek_key(&self, max_level: u8) -> Option<(u64, u8, usize)> {
        self.pending.as_ref().map(|r| {
            let shift = 2 * (max_level - self.level) as u32;
            (r.code << shift, self.level, self.rel)
        })
    }

    /// Consumes all records of the next cell's code.
    fn collect(&mut self, code: u64, mut rects: Vec<Kpe>) -> Result<Vec<Kpe>, IoError> {
        loop {
            match self.next_record()? {
                Some(r) if r.code == code => rects.push(r.kpe),
                other => {
                    self.pending = other;
                    return Ok(rects);
                }
            }
        }
    }

    fn make_part(&self, code: u64, rects: Vec<Kpe>, curve: Curve, max_level: u8) -> Part {
        let shift = 2 * (max_level - self.level) as u32;
        let start = code << shift;
        Part {
            rel: self.rel,
            level: self.level,
            start,
            end: start + (1u64 << shift),
            cell: Cell::from_code(self.level, code, curve),
            rects,
        }
    }

    /// Consumes all records of the next cell. A transient error that
    /// exhausted the retry budget is terminal (the partition in flight is
    /// lost); persistent damage quarantines the file instead and the
    /// partition is re-collected from the in-memory replay.
    fn take_partition(&mut self, curve: Curve, max_level: u8) -> Result<Part, IoError> {
        // Invariant: only called after `peek_key` returned `Some`, so a
        // pending record exists.
        let first = self.pending.take().expect("cursor exhausted");
        let code = first.code;
        match self.collect(code, vec![first.kpe]) {
            Ok(rects) => Ok(self.make_part(code, rects, curve, max_level)),
            Err(e) if e.kind.is_persistent() => {
                // Re-reads of a damaged page fail identically, so retrying
                // the file is pointless: switch to the replay and restart
                // the in-flight partition from its first record (the
                // partially collected rects were never joined or emitted).
                self.quarantine(Some(code));
                let first = self
                    .pending
                    .take()
                    .expect("rebuilt level lost the in-flight partition");
                debug_assert_eq!(first.code, code, "replay resumed at the wrong partition");
                let rects = self.collect(code, vec![first.kpe])?;
                Ok(self.make_part(code, rects, curve, max_level))
            }
            Err(e) => Err(e),
        }
    }
}

struct JoinCtx<'a> {
    cfg: &'a S3jConfig,
    internal: Box<dyn InternalJoin + Send>,
    candidates: u64,
    results: u64,
    duplicates: u64,
}

impl JoinCtx<'_> {
    /// Joins a pair of partitions where `deeper` is the one with the finer
    /// (or equal) cell. With replication, the modified RPM (§4.3) reports a
    /// pair only if its reference point lies in the deeper partition's cell.
    fn join_parts(
        &mut self,
        deeper: &mut Part,
        other: &mut Part,
        out: &mut dyn FnMut(RecordId, RecordId),
    ) {
        debug_assert!(deeper.level >= other.level);
        let replicate = self.cfg.replicate;
        let cell = deeper.cell;
        let mut candidates = 0u64;
        let mut results = 0u64;
        let mut duplicates = 0u64;
        // Orientation: callback receives (r, s) ids.
        let flip = deeper.rel == 0; // deeper from R => internal args (other=s? no)
        let (r_slice, s_slice) = if flip {
            (&mut deeper.rects, &mut other.rects)
        } else {
            (&mut other.rects, &mut deeper.rects)
        };
        self.internal.join(r_slice, s_slice, &mut |a, b| {
            candidates += 1;
            if replicate {
                if cell.contains_point(reference_point(&a.rect, &b.rect)) {
                    results += 1;
                    out(a.id, b.id);
                } else {
                    duplicates += 1;
                }
            } else {
                results += 1;
                out(a.id, b.id);
            }
        });
        self.candidates += candidates;
        self.results += results;
        self.duplicates += duplicates;
    }
}

/// Runs S³J on `r ⋈ s`, invoking `out` for every result pair.
///
/// Infallible wrapper over [`try_s3j_join`]; panics with the typed error's
/// message if a request exhausts the disk's retry budget (impossible on a
/// fault-free disk).
pub fn s3j_join(
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
    cfg: &S3jConfig,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> S3jStats {
    try_s3j_join(disk, r, s, cfg, out)
        .unwrap_or_else(|e| panic!("unhandled simulated-disk error: {e}"))
}

/// Runs S³J on `r ⋈ s`, invoking `out` for every result pair.
///
/// Reading the inputs and delivering the output are free of charge (paper
/// §2); level files, sort runs and the join scan are fully accounted on
/// `disk`.
///
/// Failure semantics: every page request already retried under the disk's
/// [`storage::RetryPolicy`]; an error reaching this layer is terminal and
/// surfaces as a typed [`JoinError`] naming the phase (`"build"`, `"sort"`,
/// `"scan"`), after all intermediate files have been deleted. The parallel
/// scan's workers are pure CPU — the coordinator performs all discovery
/// I/O — so errors arise only from build, sort, and the discovery scan.
pub fn try_s3j_join(
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
    cfg: &S3jConfig,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> Result<S3jStats, JoinError> {
    try_s3j_join_ctl(disk, r, s, cfg, &RunControl::none(), out)
}

/// Level-file lists travel through the run manifest as flat [`FileId`]
/// vectors indexed by level; empty levels are encoded as this sentinel raw
/// id (never a real file — deleting or keeping it is a no-op on `SimDisk`).
const EMPTY_LEVEL: u32 = u32::MAX;

fn pack_levels(files: &[Option<FileId>]) -> Vec<FileId> {
    files
        .iter()
        .map(|f| f.unwrap_or(FileId::from_raw(EMPTY_LEVEL)))
        .collect()
}

fn unpack_levels(files: &[FileId]) -> Vec<Option<FileId>> {
    files
        .iter()
        .map(|&f| (f.raw() != EMPTY_LEVEL).then_some(f))
        .collect()
}

/// Sort-phase quarantine-recompute: `damaged` (an unsorted level file on
/// persistently bad media, or one whose sort ran out of disk) is abandoned;
/// the level's records are recomputed from the source relation (free, paper
/// §2), sorted in memory, and written through a **spare** file on the same
/// channel — the analogue of remapping damaged sectors — which the fault
/// model never damages. The spare is created before `damaged` is reclaimed
/// so it inherits the channel; page charges for the rewrite are real, only
/// the doomed re-sort is skipped. On a write failure the spare is deleted
/// and the error surfaces.
fn rebuild_sorted_to_spare(
    disk: &SimDisk,
    damaged: FileId,
    reclaim: bool,
    level: u8,
    src: LevelSource<'_>,
    buffer_pages: usize,
) -> Result<FileId, IoError> {
    let recs = src.rebuild(level);
    let spare = disk.create_spare_like(damaged);
    if reclaim {
        disk.delete(damaged);
    }
    let mut w = RecordWriter::new(disk, spare, buffer_pages);
    let mut push_err: Option<IoError> = None;
    for rec in &recs {
        if let Err(e) = w.try_push(rec) {
            push_err = Some(e);
            break;
        }
    }
    let res = match push_err {
        None => w.try_finish(),
        Some(e) => Err(e),
    };
    if res.is_err() {
        disk.delete(spare);
    }
    res
}

/// [`try_s3j_join`] with run-control plumbing: cooperative cancellation, a
/// simulated-time deadline (both checked per level file in the build/sort
/// phases and per discovered partition in the scan), and — when
/// [`RunControl::checkpoint`] is set — durable per-partition commits with
/// exactly-once resume.
///
/// The journal's work unit is the *discovered partition*: the synchronized
/// scan pops partitions off the cursor heap in a deterministic pre-order,
/// so numbering them in discovery order is stable across runs and thread
/// counts. Each candidate pair arises in exactly one discovery event (the
/// deeper partition joining the other relation's root path), and the
/// modified RPM (§4.3) reports a pair only in its reference-point cell, so
/// skipping journal-committed partitions on resume is duplicate-free — for
/// the original unreplicated S³J trivially so, since no pair is ever seen
/// twice. The ablation [`ScanMode::LevelPairs`] re-reads level files
/// pair-by-pair and has no such unit; checkpointing it is refused with a
/// typed `Unsupported` error.
///
/// The durable run is three manifests deep: a `Partition` manifest after
/// the build (a crash mid-sort resumes from the intact unsorted level
/// files), a `Join` manifest after the sort (journal + results + sorted
/// files; per-partition commits are durable from here), and `Done` at the
/// end.
pub fn try_s3j_join_ctl(
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
    cfg: &S3jConfig,
    ctl: &RunControl,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> Result<S3jStats, JoinError> {
    let mut sink = PartitionSink::new(ctl, disk);
    let checkpointing = sink.is_checkpointing();
    if checkpointing && !matches!(cfg.scan, ScanMode::HeapMerge) {
        return Err(JoinError::new("setup", IoError::unsupported()));
    }
    let model = disk.model();
    let mut stats = S3jStats::partial(model);
    // Absolute simulated-timeline position for trace spans: disk meter in
    // seconds plus scaled CPU.
    let sim_at = |io: &IoStats, cpu: f64| RunCost::clock(&model, &(cpu, *io));

    // A resumed join phase folds the journaled counters in, so its reported
    // totals match an uninterrupted run's (the committed partitions' pairs
    // were already emitted by the crashed process after each commit).
    (stats.candidates, stats.results, stats.duplicates) = sink.committed_totals();
    let phase = sink.checkpoint().map(|c| c.phase());
    // A recovered run that already published `Done`: everything was emitted
    // before the original process exited, so report the journaled totals
    // and emit nothing (re-emitting would break exactly-once).
    if phase == Some(RunPhase::Done) {
        return Ok(stats);
    }
    // A published manifest's level-file lists: unsorted when the run died
    // in the sort phase, sorted once the `Join` manifest was out. A freshly
    // started checkpoint is also in `Partition` phase but has no files yet.
    let manifest_levels = sink.checkpoint().and_then(|c| {
        let (fr, fs) = c.files();
        (!(fr.is_empty() && fs.is_empty())).then(|| (unpack_levels(fr), unpack_levels(fs)))
    });
    let resume_join = phase == Some(RunPhase::Join);
    let resume_build = phase == Some(RunPhase::Partition) && manifest_levels.is_some();

    // --- Phase 1: partitioning into level files -----------------------------
    let t0 = Instant::now();
    let io0 = disk.stats();
    // Per-channel baseline for the run's channel decomposition (the disk
    // may carry charges from earlier runs; only this run's deltas count).
    let ch0 = disk.channel_stats();
    let (unsorted_r, unsorted_s) = if resume_join {
        (Vec::new(), Vec::new()) // build *and* sort already durable
    } else if resume_build {
        // The unsorted level files survived the crash intact: skip the
        // build, redo the sort.
        manifest_levels.clone().unwrap_or_default()
    } else {
        let elapsed = || disk.io_seconds() + model.scaled_cpu(t0.elapsed().as_secs_f64());
        if let Some(e) = ctl.charge("build", elapsed()) {
            return Err(e);
        }
        let lf_r = LevelFiles::try_build(
            disk,
            r,
            cfg.max_level,
            cfg.curve,
            cfg.replicate,
            cfg.level_shift,
            cfg.level_buffer_pages,
        )
        .map_err(|e| JoinError::new("build", e))?;
        if let Some(e) = ctl.charge("build", elapsed()) {
            lf_r.delete(disk);
            return Err(e);
        }
        let lf_s = match LevelFiles::try_build(
            disk,
            s,
            cfg.max_level,
            cfg.curve,
            cfg.replicate,
            cfg.level_shift,
            cfg.level_buffer_pages,
        ) {
            Ok(lf) => lf,
            Err(e) => {
                lf_r.delete(disk);
                return Err(JoinError::new("build", e));
            }
        };
        if let Some(e) = ctl.charge("build", elapsed()) {
            lf_r.delete(disk);
            lf_s.delete(disk);
            return Err(e);
        }
        stats.copies_r = lf_r.copies;
        stats.copies_s = lf_s.copies;
        stats.histogram_r = lf_r.histogram.clone();
        stats.histogram_s = lf_s.histogram.clone();
        stats.code_computations = lf_r.code_computations + lf_s.code_computations;
        (lf_r.files, lf_s.files)
    };
    let build_cpu = t0.elapsed().as_secs_f64();
    stats.cost[Phase::Partition] = PhaseCost {
        cpu: build_cpu,
        io: disk.stats().delta(&io0),
    };
    ctl.span("build", sim_at(&io0, 0.0), sim_at(&disk.stats(), build_cpu));
    // Durable build: after this publish, a crash or deadline during the
    // sort phase resumes from the intact unsorted level files instead of
    // re-partitioning.
    if !(resume_join || resume_build) {
        sink.publish(|c| {
            c.commit_partition_phase(&pack_levels(&unsorted_r), &pack_levels(&unsorted_s))
        })?;
    }

    // --- Phase 2: sort every level file by locational code ------------------
    let t1 = Instant::now();
    let io1 = disk.stats();
    let (sorted_r, sorted_s) = if resume_join {
        manifest_levels.unwrap_or_default()
    } else {
        // A sort failure (or interruption) is latched; later level files
        // are skipped and every already-sorted file is cleaned up before
        // the error surfaces. Without a checkpoint each unsorted file is
        // deleted as soon as it is consumed; a durable run keeps them until
        // the `Join` manifest — which references the sorted files instead —
        // is published, so an interrupted sort phase stays resumable.
        let elapsed =
            || disk.io_seconds() + model.scaled_cpu(build_cpu + t1.elapsed().as_secs_f64());
        let mut sort_err: Option<JoinError> = None;
        let sort_levels = |lf: &[Option<FileId>],
                           src: LevelSource<'_>,
                           stats: &mut S3jStats,
                           err: &mut Option<JoinError>|
         -> Vec<Option<FileId>> {
            lf.iter()
                .enumerate()
                .map(|(level, f)| {
                    f.and_then(|f| {
                        if err.is_none() {
                            *err = ctl.charge("sort", elapsed());
                        }
                        if err.is_some() {
                            if !checkpointing {
                                disk.delete(f);
                            }
                            return None;
                        }
                        match try_external_sort_by::<LevelRecord, _, _>(
                            disk,
                            f,
                            cfg.mem_bytes,
                            |r| r.code,
                        ) {
                            Ok((sorted, st)) => {
                                if !checkpointing {
                                    disk.delete(f);
                                }
                                stats.sort_runs += st.runs;
                                stats.sort_passes_max = stats.sort_passes_max.max(st.merge_passes);
                                Some(sorted)
                            }
                            Err(e) if e.kind.is_persistent() => {
                                // Persistent damage (or ENOSPC in the sort's
                                // scratch): the external sort can never
                                // finish this file. Quarantine it and
                                // rewrite the level, recomputed from source
                                // and sorted in memory, through a spare file
                                // on the same channel — the remapped-sector
                                // analogue — exempt from further damage.
                                // Reclaiming the doomed unsorted file also
                                // frees its budget, so the direct rewrite
                                // can fit where sort scratch could not (a
                                // durable run keeps it: its manifest is
                                // what a resume re-sorts from).
                                match rebuild_sorted_to_spare(
                                    disk,
                                    f,
                                    !checkpointing,
                                    level as u8,
                                    src,
                                    cfg.level_buffer_pages,
                                ) {
                                    Ok(spare) => {
                                        stats.quarantined_levels += 1;
                                        Some(spare)
                                    }
                                    Err(e2) => {
                                        *err = Some(JoinError::new("sort", e2));
                                        None
                                    }
                                }
                            }
                            Err(e) => {
                                if !checkpointing {
                                    disk.delete(f);
                                }
                                *err = Some(JoinError::new("sort", e));
                                None
                            }
                        }
                    })
                })
                .collect()
        };
        let sorted_r = sort_levels(
            &unsorted_r,
            LevelSource::for_rel(cfg, r, s, 0),
            &mut stats,
            &mut sort_err,
        );
        let sorted_s = sort_levels(
            &unsorted_s,
            LevelSource::for_rel(cfg, r, s, 1),
            &mut stats,
            &mut sort_err,
        );
        stats.cost[Phase::Sort] = PhaseCost {
            cpu: t1.elapsed().as_secs_f64(),
            io: disk.stats().delta(&io1),
        };
        if let Some(e) = sort_err {
            // Half-done sorted files are orphans either way; under a
            // checkpoint the unsorted files stay (the `Partition` manifest
            // references them; resume redoes the sort).
            for f in sorted_r.iter().chain(sorted_s.iter()).flatten() {
                disk.delete(*f);
            }
            return Err(e);
        }
        // Publish the `Join` manifest (journal + results + sorted files):
        // from here on per-partition commits are durable, and the unsorted
        // level files are no longer needed by any resume.
        if checkpointing {
            sink.publish(|c| {
                c.commit_join_phase(0, &pack_levels(&sorted_r), &pack_levels(&sorted_s))
            })?;
            for f in unsorted_r.iter().chain(unsorted_s.iter()).flatten() {
                disk.delete(*f);
            }
        }
        (sorted_r, sorted_s)
    };
    let cpu_base = build_cpu + stats.cost[Phase::Sort].cpu;
    ctl.span("sort", sim_at(&io1, build_cpu), sim_at(&disk.stats(), cpu_base));

    // --- Phase 3: synchronized scan ------------------------------------------
    // On-CPU compute clock (wall fallback): keeps the sequential and
    // parallel join-phase measurements on the same basis, so speedup ratios
    // are meaningful even on an oversubscribed host.
    let t2 = parallel::WorkClock::start();
    let io2 = disk.stats();
    let ckpt2 = sink.io_checkpoint;
    let threads = parallel::resolve_threads(cfg.threads);
    // Simulated time so far — what the deadline is charged against at every
    // discovered partition (S³J scan workers do no I/O, so the
    // coordinator's meter is the whole story).
    let elapsed_now = || disk.io_seconds() + model.scaled_cpu(cpu_base + t2.seconds());
    if matches!(cfg.scan, ScanMode::HeapMerge) && threads > 1 {
        // Join CPU is assembled inside: the coordinator's discovery scan
        // plus the max-over-workers on-CPU join time — the phase cost on
        // dedicated cores, which the pool barrier realises as wall time on
        // an unloaded multicore host.
        heap_scan_parallel(
            disk,
            cfg,
            threads,
            r,
            s,
            &sorted_r,
            &sorted_s,
            &mut stats,
            ctl,
            &mut sink,
            &io0,
            &elapsed_now,
            out,
        );
    } else {
        // Sequential scans emit in discovery order against a monotone meter,
        // so the first delivery is already the earliest; reading the live
        // clocks at that moment matches the parallel probe exactly on the
        // I/O axis (discovery I/O through the emitting partition, plus its
        // commit when checkpointed). Run-relative (`delta(&io0)`) so a
        // reused disk's earlier charges never leak into the probe.
        let mut first: Option<ClockPos> = None;
        let mut wrapped_out = |a: RecordId, b: RecordId| {
            if first.is_none() {
                first = Some((cpu_base + t2.seconds(), disk.stats().delta(&io0)));
            }
            out(a, b);
        };
        let mut ctx = JoinCtx {
            cfg,
            internal: cfg.internal.create(),
            candidates: 0,
            results: 0,
            duplicates: 0,
        };
        match cfg.scan {
            ScanMode::HeapMerge => heap_scan(
                disk,
                cfg,
                r,
                s,
                &sorted_r,
                &sorted_s,
                &mut ctx,
                &mut stats,
                &mut sink,
                &elapsed_now,
                &mut wrapped_out,
            ),
            ScanMode::LevelPairs => {
                let res = pair_scan(
                    disk,
                    cfg,
                    r,
                    s,
                    &sorted_r,
                    &sorted_s,
                    &mut ctx,
                    &mut stats,
                    ctl,
                    &elapsed_now,
                    &mut wrapped_out,
                );
                if let Err(e) = res {
                    sink.fail(e);
                }
            }
        }
        if let Some(f) = first {
            sink.offer_first(f);
        }
        stats.candidates += ctx.candidates;
        stats.results += ctx.results;
        stats.duplicates += ctx.duplicates;
        stats.join_counters = ctx.internal.counters();
        stats.cost[Phase::Join].cpu = t2.seconds();
    }
    // Join-phase I/O excludes what the checkpoint layer did mid-scan (those
    // commits are accounted to the checkpoint phase).
    stats.cost[Phase::Join].io = disk
        .stats()
        .delta(&io2)
        .delta(&sink.io_checkpoint.delta(&ckpt2));
    ctl.span(
        "scan",
        sim_at(&io2, cpu_base),
        sim_at(&disk.stats(), cpu_base + stats.cost[Phase::Join].cpu),
    );

    // An interrupted durable run must keep the sorted level files — the
    // `Join` manifest references them and a resume reads them again;
    // `finish` (or the next recovery scan) reclaims everything.
    if !checkpointing {
        for f in sorted_r.iter().chain(sorted_s.iter()).flatten() {
            disk.delete(*f);
        }
    }
    sink.check()?;
    // Publish `Done` and drop the sorted level files; the journal, results
    // and manifest files remain as the run's durable record.
    sink.publish(|c| c.finish())?;
    stats.cost[Phase::Checkpoint].io = sink.io_checkpoint;
    stats.checkpoint_commits = sink.commits;
    stats.cost.first = sink.first();
    // Channel decomposition of this run's I/O. All S³J I/O happens on the
    // coordinator (scan workers are pure CPU), so no fork folding is needed.
    (stats.cost.io_shared, stats.cost.io_channels) = disk.channel_deltas(&ch0);
    Ok(stats)
}

/// What [`discover`] does with each discovered partition that has work:
/// `(sink, discovery index, new partition, the other relation's root path)`.
type Visit<'v> = dyn FnMut(&mut PartitionSink<'_>, u32, &mut Arc<Part>, &mut [Arc<Part>]) + 'v;

/// §4.4.3's discovery walk, shared by both scan executors: one pass over all
/// level files, merged by a heap of cursors in pre-order; per relation a
/// stack of the partitions on the current root path. Each new partition is
/// handed to `visit` with its discovery index and the other relation's root
/// path (its cell's ancestors-or-equal, so the new partition is always the
/// deeper one), then pushed on its own stack.
///
/// Partitions are numbered in discovery order — the journal's work unit.
/// `visit` only sees partitions that have something to join against and
/// that the journal has not committed: a resumed run skips those (the
/// interrupted process emitted their pairs after the commit) while still
/// maintaining the stacks they feed. Cancellation and the deadline are
/// checked per discovered partition; the walk stops at the first error the
/// sink latches.
#[allow(clippy::too_many_arguments)] // internal scan driver; the args are the scan state
fn discover(
    disk: &SimDisk,
    cfg: &S3jConfig,
    r: &[Kpe],
    s: &[Kpe],
    sorted_r: &[Option<FileId>],
    sorted_s: &[Option<FileId>],
    stats: &mut S3jStats,
    sink: &mut PartitionSink<'_>,
    elapsed: &dyn Fn() -> f64,
    visit: &mut Visit<'_>,
) {
    let to_err = |e: IoError| JoinError::new("scan", e);
    let mut cursors: Vec<Cursor<'_>> = Vec::new();
    for (rel, files) in [(0usize, sorted_r), (1, sorted_s)] {
        for (level, f) in files.iter().enumerate() {
            if let Some(f) = f {
                let src = LevelSource::for_rel(cfg, r, s, rel);
                match Cursor::new(disk, *f, level as u8, rel, cfg.io_buffer_pages, src) {
                    Ok(c) => cursors.push(c),
                    Err(e) => return sink.fail(to_err(e)),
                }
            }
        }
    }
    let mut heap: BinaryHeap<Reverse<(u64, u8, usize, usize)>> = BinaryHeap::new();
    for (i, c) in cursors.iter().enumerate() {
        if let Some((start, level, rel)) = c.peek_key(cfg.max_level) {
            heap.push(Reverse((start, level, rel, i)));
        }
    }
    let mut stacks: [Vec<Arc<Part>>; 2] = [Vec::new(), Vec::new()];
    let mut resident = 0usize;
    let mut d: u32 = 0; // discovery index
    while let Some(Reverse((_, _, _, ci))) = heap.pop() {
        if !sink.charge("scan", elapsed()) {
            break;
        }
        let part = match cursors[ci].take_partition(cfg.curve, cfg.max_level) {
            Ok(part) => part,
            Err(e) => {
                sink.fail(to_err(e));
                break;
            }
        };
        if let Some((st, lv, rl)) = cursors[ci].peek_key(cfg.max_level) {
            heap.push(Reverse((st, lv, rl, ci)));
        }
        // Unwind both stacks to the root path of the new cell.
        for stack in stacks.iter_mut() {
            while let Some(top) = stack.last() {
                if top.start <= part.start && part.start < top.end {
                    break; // ancestor (or equal): keep
                }
                resident -= top.rects.len() * Kpe::ENCODED_SIZE;
                stack.pop();
            }
        }
        let mut part = Arc::new(part);
        let others = &mut stacks[1 - part.rel];
        if !others.is_empty() && !sink.is_committed(d) {
            visit(sink, d, &mut part, others);
            if !sink.is_live() {
                break;
            }
        }
        resident += part.rects.len() * Kpe::ENCODED_SIZE;
        stats.peak_partition_bytes = stats.peak_partition_bytes.max(resident);
        stacks[part.rel].push(part);
        d += 1;
    }
    stats.quarantined_levels += cursors.iter().filter(|c| c.quarantined).count() as u32;
}

/// Sequential synchronized scan: every discovered partition is joined inline
/// against the other relation's root path and delivered through the sink.
/// An unchecked run streams its pairs straight to `out`; under a checkpoint
/// they are buffered until the partition's commit.
#[allow(clippy::too_many_arguments)] // internal scan driver; the args are the scan state
fn heap_scan(
    disk: &SimDisk,
    cfg: &S3jConfig,
    r: &[Kpe],
    s: &[Kpe],
    sorted_r: &[Option<FileId>],
    sorted_s: &[Option<FileId>],
    ctx: &mut JoinCtx<'_>,
    stats: &mut S3jStats,
    sink: &mut PartitionSink<'_>,
    elapsed: &dyn Fn() -> f64,
    out: &mut dyn FnMut(RecordId, RecordId),
) {
    let only = "the sequential scan holds the only handle";
    let mut visit =
        |sink: &mut PartitionSink<'_>, d: u32, part: &mut Arc<Part>, others: &mut [Arc<Part>]| {
            let part = Arc::get_mut(part).expect(only);
            let base = (ctx.candidates, ctx.results, ctx.duplicates);
            let mut pairs: Vec<(RecordId, RecordId)> = Vec::new();
            for q in others.iter_mut() {
                let q = Arc::get_mut(q).expect(only);
                if sink.is_checkpointing() {
                    ctx.join_parts(part, q, &mut |a, b| pairs.push((a, b)));
                } else {
                    ctx.join_parts(part, q, out);
                }
            }
            let unit = Finished {
                partition: d,
                chunk: None,
                counts: (
                    ctx.candidates - base.0,
                    ctx.results - base.1,
                    ctx.duplicates - base.2,
                ),
                io: None,
                pairs: &pairs,
                // `out` itself records the first delivery's position.
                first: None,
            };
            sink.commit_and_emit(unit, elapsed, out);
        };
    discover(
        disk, cfg, r, s, sorted_r, sorted_s, stats, sink, elapsed, &mut visit,
    );
}

/// Parallel synchronized scan: the discovery walk runs unchanged on the
/// coordinator — it is the only I/O — but instead of joining inline, every
/// (new partition, stack entry) pair is queued over `Arc`-shared partitions
/// and workers claim contiguous chunks of the queue. Workers join pristine
/// clones (internal joins reorder rects in place) and buffer their result
/// pairs; the pool re-assembles chunk outputs in discovery order, so the
/// emitted stream is identical to the sequential scan, and the modified RPM
/// (§4.3) keeps the union of task outputs duplicate-free no matter how tasks
/// interleave.
#[allow(clippy::too_many_arguments)] // internal scan driver; the args are the scan state
fn heap_scan_parallel(
    disk: &SimDisk,
    cfg: &S3jConfig,
    threads: usize,
    r: &[Kpe],
    s: &[Kpe],
    sorted_r: &[Option<FileId>],
    sorted_s: &[Option<FileId>],
    stats: &mut S3jStats,
    ctl: &RunControl,
    sink: &mut PartitionSink<'_>,
    io0: &IoStats,
    elapsed: &dyn Fn() -> f64,
    out: &mut dyn FnMut(RecordId, RecordId),
) {
    let cpu_base = stats.cost[Phase::Partition].cpu + stats.cost[Phase::Sort].cpu;
    // Scan-phase checkpoint I/O accumulated so far (build/sort publishes):
    // subtracted out when reconstructing the sequential meter position of a
    // mid-scan delivery.
    let ckpt0 = sink.io_checkpoint;
    let t_discover = parallel::WorkClock::start();
    let mut tasks: Vec<(Arc<Part>, Arc<Part>)> = Vec::new();
    // Per task: the run-relative I/O meter right after its partition's
    // discovery read — exactly the sequential scan's meter position when it
    // would join that partition (scan workers do no I/O). Feeds the
    // pipelined first-result probe; kept aligned with `tasks`.
    let mut snaps: Vec<IoStats> = Vec::new();
    // The pair range of the task list that belongs to each discovered
    // partition (checkpointed runs only — see `units` below).
    let mut partition_ranges: Vec<(u32, std::ops::Range<usize>)> = Vec::new();
    let mut visit =
        |_: &mut PartitionSink<'_>, d: u32, part: &mut Arc<Part>, others: &mut [Arc<Part>]| {
            let start = tasks.len();
            let snap = disk.stats().delta(io0);
            for q in others.iter() {
                tasks.push((Arc::clone(part), Arc::clone(q)));
                snaps.push(snap);
            }
            partition_ranges.push((d, start..tasks.len()));
        };
    discover(
        disk, cfg, r, s, sorted_r, sorted_s, stats, sink, elapsed, &mut visit,
    );
    if !sink.is_live() {
        return;
    }
    let discover_secs = t_discover.seconds();

    // S³J partition pairs are tiny (often a handful of rects), so a task
    // per pair would drown in per-task overhead. Workers instead claim
    // contiguous *chunks* of the discovery-ordered pair list; chunk outputs
    // re-assemble in chunk order, which is discovery order. Under a
    // checkpoint the unit is one discovered partition's pair range instead
    // — the span a journal record covers — so commits align with units.
    let checkpointing = sink.is_checkpointing();
    let units: Vec<(u32, std::ops::Range<usize>)> = if checkpointing {
        partition_ranges
    } else {
        let chunk = tasks.len().div_ceil(threads * 16).max(1);
        (0..tasks.len().div_ceil(chunk))
            .map(|c| (0, c * chunk..tasks.len().min((c + 1) * chunk)))
            .collect()
    };
    let model = stats.cost.model;
    let units_ref = &units;
    let snaps_ref = &snaps;
    let cancel = sink.pool_cancel();
    let workers = parallel::run_ordered_with(
        threads,
        units.len(),
        Some(&cancel),
        |_w| {
            (
                JoinCtx {
                    cfg,
                    internal: cfg.internal.create(),
                    candidates: 0,
                    results: 0,
                    duplicates: 0,
                },
                0f64,
                parallel::WorkClock::start(),
                // Scratch rect buffers, reused across tasks: internal joins
                // reorder rects in place, so each task needs private copies,
                // but per-task Vec allocations would serialise the pool on
                // the allocator lock.
                (Vec::new(), Vec::new()),
            )
        },
        |(ctx, cpu, work_clock, scratch), u| {
            let c0 = work_clock.seconds();
            let base = (ctx.candidates, ctx.results, ctx.duplicates);
            let mut pairs = Vec::new();
            // (global task index, own on-CPU seconds) at this unit's first
            // produced pair — the unit's contribution to the pipelined
            // first-result probe.
            let mut first: Option<(usize, f64)> = None;
            let range = units_ref[u].1.clone();
            for (i, (deeper, other)) in tasks[range.clone()].iter().enumerate() {
                let mut deeper = deeper.copy_into(std::mem::take(&mut scratch.0));
                let mut other = other.copy_into(std::mem::take(&mut scratch.1));
                ctx.join_parts(&mut deeper, &mut other, &mut |a, b| {
                    if first.is_none() {
                        first = Some((range.start + i, work_clock.seconds() - c0));
                    }
                    pairs.push((a, b));
                });
                scratch.0 = deeper.rects;
                scratch.1 = other.rects;
            }
            *cpu += work_clock.seconds() - c0;
            let deltas = (
                ctx.candidates - base.0,
                ctx.results - base.1,
                ctx.duplicates - base.2,
            );
            (pairs, deltas, first)
        },
        |u, (pairs, deltas, first)| {
            // Deadline at unit granularity on the coordinator (workers do
            // no I/O, so `elapsed` sees the whole simulated-time story).
            sink.charge("scan", elapsed());
            // The sequential meter position of this unit's first pair:
            // discovery I/O through its partition plus the scan commits of
            // earlier units (the sink adds the unit's own commit).
            let prior_commits = sink.io_checkpoint.delta(&ckpt0);
            let first = first.map(|(ti, fc): (usize, f64)| {
                (
                    cpu_base + discover_secs + fc,
                    snaps_ref[ti].plus(&prior_commits),
                )
            });
            let unit = Finished {
                partition: units_ref[u].0,
                chunk: (!checkpointing).then_some(u as u64),
                counts: deltas,
                io: None,
                pairs: &pairs,
                first,
            };
            sink.commit_and_emit(unit, elapsed, out);
        },
    );
    for (ctx, cpu, _clock, _scratch) in workers {
        // Per-worker duplicate accounting: every candidate was either
        // reported or suppressed by the modified reference-point test
        // (duplicates are 0 in the unreplicated original), regardless of
        // how chunks were interleaved across workers.
        debug_assert_eq!(
            ctx.candidates,
            ctx.results + ctx.duplicates,
            "per-worker S3J accounting broken"
        );
        let mut partial = S3jStats::partial(model);
        partial.candidates = ctx.candidates;
        partial.results = ctx.results;
        partial.duplicates = ctx.duplicates;
        partial.join_counters = ctx.internal.counters();
        partial.cost[Phase::Join].cpu = cpu;
        stats.merge(&partial);
    }
    // Coordinator discovery (the phase's only non-checkpoint I/O and heap
    // work) happens before the workers start; it adds to whichever worker
    // was slowest. Without a checkpoint nothing below discovery can fail:
    // the worker tasks are pure CPU over in-memory partitions.
    stats.cost[Phase::Join].cpu += discover_secs;
    if ctl.observed() {
        ctl.event(
            "pool-drained",
            elapsed(),
            &[
                ("units", units.len() as u64),
                ("tasks", tasks.len() as u64),
                ("threads", threads as u64),
            ],
        );
    }
}

/// Ablation baseline for §4.4.3: a separate merge scan per pair of level
/// files. Produces identical results; re-reads each level file once per
/// opposite occupied level.
#[allow(clippy::too_many_arguments)] // internal scan driver; the args are the scan state
fn pair_scan(
    disk: &SimDisk,
    cfg: &S3jConfig,
    r: &[Kpe],
    s: &[Kpe],
    sorted_r: &[Option<FileId>],
    sorted_s: &[Option<FileId>],
    ctx: &mut JoinCtx<'_>,
    stats: &mut S3jStats,
    ctl: &RunControl,
    elapsed: &dyn Fn() -> f64,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> Result<(), JoinError> {
    let to_err = |e: IoError| JoinError::new("scan", e);
    // The next whole partition of `c`, or `None` at end of file.
    fn next_part(c: &mut Cursor<'_>, curve: Curve, max_level: u8) -> Result<Option<Part>, IoError> {
        if c.pending.is_some() {
            Ok(Some(c.take_partition(curve, max_level)?))
        } else {
            Ok(None)
        }
    }
    for (lr, fr) in sorted_r.iter().enumerate() {
        let Some(fr) = fr else { continue };
        for (ls, fs) in sorted_s.iter().enumerate() {
            let Some(fs) = fs else { continue };
            // Interruption check once per level-file pair: the ablation
            // scan has no partition-discovery loop on the coordinator to
            // hook into, so cancellation is coarser here.
            if let Some(e) = ctl.charge("scan", elapsed()) {
                return Err(e);
            }
            let src_r = LevelSource::for_rel(cfg, r, s, 0);
            let src_s = LevelSource::for_rel(cfg, r, s, 1);
            let cr = Cursor::new(disk, *fr, lr as u8, 0, cfg.io_buffer_pages, src_r)
                .map_err(to_err)?;
            let cs = Cursor::new(disk, *fs, ls as u8, 1, cfg.io_buffer_pages, src_s)
                .map_err(to_err)?;
            // Merge: `a` is the coarser-or-equal side, `b` the deeper side.
            let (mut a, mut b) = if lr <= ls { (cr, cs) } else { (cs, cr) };
            let mut pa = next_part(&mut a, cfg.curve, cfg.max_level).map_err(to_err)?;
            let mut pb = next_part(&mut b, cfg.curve, cfg.max_level).map_err(to_err)?;
            while let (Some(ca), Some(cb)) = (&mut pa, &mut pb) {
                if ca.start <= cb.start && cb.start < ca.end {
                    // `ca` covers `cb`: join (cb is the deeper partition).
                    stats.peak_partition_bytes = stats.peak_partition_bytes.max(
                        (ca.rects.len() + cb.rects.len()) * Kpe::ENCODED_SIZE,
                    );
                    ctx.join_parts(cb, ca, out);
                    pb = next_part(&mut b, cfg.curve, cfg.max_level).map_err(to_err)?;
                } else if ca.end <= cb.start {
                    pa = next_part(&mut a, cfg.curve, cfg.max_level).map_err(to_err)?;
                } else {
                    pb = next_part(&mut b, cfg.curve, cfg.max_level).map_err(to_err)?;
                }
            }
            // The ablation re-reads each level file once per opposite level,
            // so one damaged file can quarantine once per pairing — an
            // honest per-event count.
            stats.quarantined_levels +=
                [&a, &b].iter().filter(|c| c.quarantined).count() as u32;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{scale, LineNetwork};

    fn brute(r: &[Kpe], s: &[Kpe]) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        for a in r {
            for b in s {
                if a.rect.intersects(&b.rect) {
                    v.push((a.id.0, b.id.0));
                }
            }
        }
        v.sort_unstable();
        v
    }

    fn run(r: &[Kpe], s: &[Kpe], cfg: &S3jConfig) -> (Vec<(u64, u64)>, S3jStats) {
        let disk = SimDisk::with_default_model();
        let mut got = Vec::new();
        let stats = s3j_join(&disk, r, s, cfg, &mut |a, b| got.push((a.0, b.0)));
        got.sort_unstable();
        (got, stats)
    }

    fn tiger_pair(n: usize) -> (Vec<Kpe>, Vec<Kpe>) {
        let r = LineNetwork {
            count: n,
            coverage: 0.22,
            segments_per_line: 20,
            seed: 301,
        }
        .generate();
        let s = LineNetwork {
            count: n + n / 7,
            coverage: 0.03,
            segments_per_line: 10,
            seed: 302,
        }
        .generate();
        (r, s)
    }

    #[test]
    fn original_s3j_matches_brute_force() {
        let (r, s) = tiger_pair(2500);
        let cfg = S3jConfig {
            replicate: false,
            mem_bytes: 64 * 1024,
            max_level: 10,
            ..Default::default()
        };
        let (got, stats) = run(&r, &s, &cfg);
        assert_eq!(got, brute(&r, &s));
        assert_eq!(stats.duplicates, 0, "no replication, no duplicates");
        assert_eq!(stats.copies_r as usize, r.len());
    }

    #[test]
    fn replicated_s3j_matches_brute_force_and_dedups() {
        let (r0, s0) = tiger_pair(2000);
        // Scale up so rects straddle cells and replication actually happens.
        let (r, s) = (scale(&r0, 3.0), scale(&s0, 3.0));
        let cfg = S3jConfig {
            replicate: true,
            mem_bytes: 64 * 1024,
            max_level: 10,
            ..Default::default()
        };
        let (got, stats) = run(&r, &s, &cfg);
        assert_eq!(got, brute(&r, &s));
        assert!(stats.copies_r as usize > r.len(), "expected replication");
        assert!(stats.duplicates > 0, "expected suppressed duplicates");
        assert!(stats.replication_rate(r.len() + s.len()) <= 4.0);
    }

    #[test]
    fn persistent_corruption_quarantines_levels_and_stays_exact() {
        use storage::{FaultPlan, RetryPolicy};
        let (r0, s0) = tiger_pair(1200);
        let (r, s) = (scale(&r0, 3.0), scale(&s0, 3.0));
        for replicate in [false, true] {
            let cfg = S3jConfig {
                replicate,
                mem_bytes: 48 * 1024,
                max_level: 9,
                ..Default::default()
            };
            let clean = run(&r, &s, &cfg).0;
            // Persistent damage is a pure function of (seed, channel, page):
            // hunt seeds until one lands on a level file (unsorted — the
            // sort-phase rebuild — or sorted — the scan-phase cursor
            // replay); every seed, hit or miss, must still produce the
            // exact result set.
            let mut hit = false;
            for seed in 0..48u64 {
                let disk = SimDisk::with_default_model().with_faults(
                    FaultPlan::persistent(seed).with_persistent_rate(0.03),
                    RetryPolicy::default(),
                );
                let mut got = Vec::new();
                let stats = try_s3j_join(&disk, &r, &s, &cfg, &mut |a, b| got.push((a.0, b.0)))
                    .expect("persistent damage must quarantine, not kill the join");
                got.sort_unstable();
                assert_eq!(got, clean, "seed {seed} replicate {replicate} diverged");
                if stats.quarantined_levels > 0 {
                    hit = true;
                    break;
                }
            }
            assert!(hit, "no seed damaged a level file (replicate {replicate})");
        }
    }

    #[test]
    fn level_quarantine_is_thread_invariant() {
        use storage::{FaultPlan, RetryPolicy};
        let (r0, s0) = tiger_pair(1200);
        let (r, s) = (scale(&r0, 3.0), scale(&s0, 3.0));
        // Damage keys on (seed, channel, page) — not on who reads — and the
        // discovery scan is coordinator-only at every thread count, so the
        // sequential and parallel scans quarantine the same levels and emit
        // the same results.
        let run_t = |threads: usize, seed: u64| {
            let disk = SimDisk::with_default_model().with_faults(
                FaultPlan::persistent(seed).with_persistent_rate(0.05),
                RetryPolicy::default(),
            );
            let cfg = S3jConfig {
                mem_bytes: 48 * 1024,
                max_level: 9,
                threads,
                ..Default::default()
            };
            let mut got = Vec::new();
            let stats = try_s3j_join(&disk, &r, &s, &cfg, &mut |a, b| got.push((a.0, b.0)))
                .expect("quarantine covers persistent damage");
            got.sort_unstable();
            (got, stats)
        };
        for seed in [3u64, 11, 29] {
            let (got1, st1) = run_t(1, seed);
            let (got4, st4) = run_t(4, seed);
            assert_eq!(got1, got4, "seed {seed}");
            assert_eq!(st1.quarantined_levels, st4.quarantined_levels, "seed {seed}");
        }
    }

    #[test]
    fn rebuilt_level_matches_what_the_build_wrote() {
        use crate::levels::rebuild_level_sorted;
        use storage::read_all;
        let (r0, _) = tiger_pair(600);
        let r = scale(&r0, 3.0);
        for (replicate, shift) in [(false, 0u8), (true, 0), (true, 1)] {
            let disk = SimDisk::with_default_model();
            let lf = LevelFiles::build(&disk, &r, 9, Curve::Peano, replicate, shift, 1);
            for level in lf.occupied_levels() {
                let mut on_disk: Vec<LevelRecord> =
                    read_all(&disk, lf.files[level as usize].unwrap(), 1);
                on_disk.sort_by_key(|rec| rec.code);
                let rebuilt =
                    rebuild_level_sorted(&r, level, 9, Curve::Peano, replicate, shift);
                assert_eq!(
                    rebuilt, on_disk,
                    "level {level} replicate {replicate} shift {shift}"
                );
            }
        }
    }

    #[test]
    fn disk_full_during_build_surfaces_typed_error() {
        use storage::{FaultPlan, IoErrorKind, RetryPolicy};
        let (r, s) = tiger_pair(400);
        let disk = SimDisk::with_default_model().with_faults(
            FaultPlan::none(7).with_disk_budget(0),
            RetryPolicy::default(),
        );
        let err = try_s3j_join(&disk, &r, &s, &S3jConfig::default(), &mut |_, _| {})
            .expect_err("a zero-page volume cannot hold level files");
        assert_eq!(err.phase, "build");
        assert_eq!(err.io().expect("io-layer error").kind, IoErrorKind::DiskFull);
        assert_eq!(disk.pages_in_use(), 0, "failed build leaked files");
    }

    #[test]
    fn heap_and_pair_scans_agree() {
        let (r, s) = tiger_pair(1500);
        for replicate in [false, true] {
            let base = S3jConfig {
                replicate,
                mem_bytes: 48 * 1024,
                max_level: 9,
                ..Default::default()
            };
            let (heap, hs) = run(&r, &s, &base);
            let (pairs, ps) = run(
                &r,
                &s,
                &S3jConfig {
                    scan: ScanMode::LevelPairs,
                    ..base
                },
            );
            assert_eq!(heap, pairs, "replicate={replicate}");
            assert_eq!(hs.results, ps.results);
            // The naive scan re-reads level files: strictly more join I/O.
            assert!(
                ps.cost[Phase::Join].io.pages_read >= hs.cost[Phase::Join].io.pages_read,
                "pair-scan should not read less"
            );
        }
    }

    #[test]
    fn all_internal_algorithms_agree() {
        let (r, s) = tiger_pair(1500);
        let mut reference: Option<Vec<(u64, u64)>> = None;
        for internal in InternalAlgo::ALL {
            let cfg = S3jConfig {
                internal,
                mem_bytes: 48 * 1024,
                max_level: 9,
                ..Default::default()
            };
            let (got, _) = run(&r, &s, &cfg);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "{internal} diverges"),
            }
        }
    }

    #[test]
    fn hilbert_and_peano_curves_agree() {
        let (r, s) = tiger_pair(1200);
        let base = S3jConfig {
            mem_bytes: 48 * 1024,
            max_level: 9,
            ..Default::default()
        };
        let (peano, pstats) = run(&r, &s, &base);
        let (hilbert, hstats) = run(
            &r,
            &s,
            &S3jConfig {
                curve: Curve::Hilbert,
                ..base
            },
        );
        assert_eq!(peano, hilbert);
        // §4.4.2: curve choice affects neither I/O nor intersection tests.
        assert_eq!(pstats.cost.io_total(), hstats.cost.io_total());
        assert_eq!(pstats.join_counters.tests, hstats.join_counters.tests);
    }

    #[test]
    fn replication_cuts_intersection_tests_on_straddler_heavy_data() {
        // The motivating pathology (§4.2–4.3): small rects straddling grid
        // lines land at coarse levels without replication and get tested
        // against everything.
        let (r0, s0) = tiger_pair(3000);
        let (r, s) = (scale(&r0, 2.0), scale(&s0, 2.0));
        let base = S3jConfig {
            mem_bytes: 64 * 1024,
            max_level: 10,
            ..Default::default()
        };
        let (res_o, orig) = run(&r, &s, &S3jConfig { replicate: false, ..base });
        let (res_r, repl) = run(&r, &s, &S3jConfig { replicate: true, ..base });
        assert_eq!(res_o, res_r);
        assert!(
            repl.join_counters.tests * 2 < orig.join_counters.tests,
            "replicated {} tests vs original {}",
            repl.join_counters.tests,
            orig.join_counters.tests
        );
    }

    #[test]
    fn self_join_consistent() {
        let (r, _) = tiger_pair(1200);
        let cfg = S3jConfig {
            mem_bytes: 48 * 1024,
            max_level: 9,
            ..Default::default()
        };
        let (got, _) = run(&r, &r, &cfg);
        assert_eq!(got, brute(&r, &r));
    }

    #[test]
    fn empty_inputs() {
        let (r, _) = tiger_pair(200);
        let cfg = S3jConfig::default();
        let (got, stats) = run(&r, &[], &cfg);
        assert!(got.is_empty());
        assert_eq!(stats.results, 0);
        let (got, _) = run(&[], &[], &cfg);
        assert!(got.is_empty());
    }

    #[test]
    fn stats_io_decomposition_adds_up() {
        let (r, s) = tiger_pair(1000);
        let disk = SimDisk::with_default_model();
        let stats = s3j_join(&disk, &r, &s, &S3jConfig::default(), &mut |_, _| {});
        assert_eq!(stats.cost.io_total(), disk.stats());
        assert!(stats.cost.total_seconds() > 0.0);
        assert!(stats.peak_partition_bytes > 0);
    }

    #[test]
    fn channels_decompose_io_and_buy_simulated_time() {
        let (r, s) = tiger_pair(1000);
        // cpu_slowdown 0 isolates the deterministic I/O clock.
        let run_ch = |channels: usize, threads: usize| {
            let disk = SimDisk::new(DiskModel {
                channels,
                cpu_slowdown: 0.0,
                ..Default::default()
            });
            let cfg = S3jConfig {
                mem_bytes: 48 * 1024,
                max_level: 9,
                threads,
                ..Default::default()
            };
            let mut got = Vec::new();
            let stats = s3j_join(&disk, &r, &s, &cfg, &mut |a, b| got.push((a.0, b.0)));
            got.sort_unstable();
            (got, stats)
        };
        let (res1, st1) = run_ch(1, 1);
        let (res4, st4) = run_ch(4, 1);
        let (res4t, st4t) = run_ch(4, 4);
        // Results and counters are channel- and thread-invariant.
        assert_eq!(res1, res4);
        assert_eq!(res4, res4t);
        assert_eq!(st1.cost.io_total(), st4.cost.io_total());
        assert_eq!(st4.cost.io_total(), st4t.cost.io_total());
        // The channel meters are an exact decomposition of the total.
        assert_eq!(st1.cost.io_channels.len(), 1);
        assert_eq!(st4.cost.io_channels.len(), 4);
        for st in [&st1, &st4, &st4t] {
            let mut sum = st.cost.io_shared;
            for c in &st.cost.io_channels {
                sum = sum.plus(c);
            }
            assert_eq!(sum, st.cost.io_total());
        }
        // One channel reduces bit-exactly to the serial clock; four spread
        // the level files across channels and strictly beat it.
        let c1 = &st1.cost;
        assert_eq!(c1.total_seconds(), c1.scaled_cpu_seconds() + c1.io_seconds());
        assert!(
            st4.cost.io_channels.iter().filter(|c| c.pages_read > 0).count() > 1,
            "level files should land on several channels"
        );
        assert!(
            st4.cost.total_seconds() < st1.cost.total_seconds(),
            "channels=4 ({}) should strictly beat channels=1 ({})",
            st4.cost.total_seconds(),
            st1.cost.total_seconds()
        );
        assert_eq!(st4.cost.total_seconds(), st4t.cost.total_seconds());
    }
}

#[cfg(test)]
mod rpm_unit_tests {
    use super::*;
    use geom::{Kpe, RecordId, Rect};

    fn run_cfg(r: &[Kpe], s: &[Kpe], cfg: &S3jConfig) -> (Vec<(u64, u64)>, S3jStats) {
        let disk = SimDisk::with_default_model();
        let mut got = Vec::new();
        let st = s3j_join(&disk, r, s, cfg, &mut |a, b| got.push((a.0, b.0)));
        got.sort_unstable();
        (got, st)
    }

    /// Hand-constructed instance of paper Figure 10: r sits one level above
    /// s; s is replicated into two sibling cells; the pair must be reported
    /// exactly once (from the cell containing the reference point).
    #[test]
    fn figure10_mixed_level_pair_reported_once() {
        // r: a rect needing a level-1 cell (edges just over 1/4).
        let r = Kpe::new(RecordId(1), Rect::new(0.05, 0.05, 0.35, 0.35));
        // s: a small rect straddling the vertical line x = 0.25 (level-2
        // cell boundary), inside r.
        let s = Kpe::new(RecordId(2), Rect::new(0.22, 0.1, 0.28, 0.15));
        let cfg = S3jConfig {
            replicate: true,
            level_shift: 0,
            max_level: 8,
            ..Default::default()
        };
        let (got, st) = run_cfg(&[r], &[s], &cfg);
        assert_eq!(got, vec![(1, 2)]);
        assert_eq!(st.results, 1);
        assert!(
            st.copies_s >= 2,
            "s must be replicated across the boundary (copies = {})",
            st.copies_s
        );
        assert_eq!(st.candidates, st.results + st.duplicates);
        assert!(st.duplicates >= 1, "the duplicate candidate must be caught");
    }

    /// Equal-level pair replicated into the same two cells: both cells see
    /// both rects, only the reference-point cell reports.
    #[test]
    fn equal_level_replicated_pair_reported_once() {
        let r = Kpe::new(RecordId(1), Rect::new(0.22, 0.1, 0.28, 0.14));
        let s = Kpe::new(RecordId(2), Rect::new(0.23, 0.11, 0.29, 0.15));
        let cfg = S3jConfig {
            replicate: true,
            level_shift: 0,
            max_level: 8,
            ..Default::default()
        };
        let (got, st) = run_cfg(&[r], &[s], &cfg);
        assert_eq!(got, vec![(1, 2)]);
        assert!(st.duplicates >= 1);
    }

    /// A pair whose rects only touch at one point on a cell boundary: the
    /// half-open cell convention must still deliver it exactly once.
    #[test]
    fn touching_pair_on_cell_boundary() {
        let r = Kpe::new(RecordId(1), Rect::new(0.20, 0.20, 0.25, 0.25));
        let s = Kpe::new(RecordId(2), Rect::new(0.25, 0.25, 0.30, 0.30));
        for shift in [0u8, 1] {
            let cfg = S3jConfig {
                replicate: true,
                level_shift: shift,
                max_level: 8,
                ..Default::default()
            };
            let (got, _) = run_cfg(&[r], &[s], &cfg);
            assert_eq!(got, vec![(1, 2)], "shift {shift}");
        }
    }
}
