//! The partition driver: the one place that runs a partition-based join's
//! work units and knows the flush → journal → emit protocol.
//!
//! The Reference Point Method (§3.1, and its modified form for S³J, §4.3)
//! gives every result pair to exactly one partition, so the partition is
//! the unit of work and of delivery for PBSM, the two-layer scheme and S³J
//! alike. A family supplies a per-unit join body (plus the pool's load
//! stage) and a [`UnitPlan`]; [`PartitionSink`] does the rest, once: it
//! skips journaled units, charges the deadline, counts, streams or buffers
//! the pairs, probes the first result, commits and emits in canonical
//! order with one `partition-done` event, and latches the terminal error.
//! [`PartitionSink::run_inline`] runs one unit on the calling thread, from
//! the family's own unit loop (PBSM's partitions, S³J's discovery walk);
//! [`PartitionSink::run_pooled`] runs them all on [`parallel::run_ordered`]
//! with a run-local stop signal, per-worker forked meters and clocks,
//! requeue rollback, the per-worker accounting checks and `pool-drained`.

use geom::RecordId;
use parallel::WorkClock;
use parking_lot::MutexGuard;

use crate::{
    CancelToken, ClockPos, IdPair, IoStats, JoinError, RunCheckpoint, RunControl, RunCost, SimDisk,
};

/// One finished work unit, handed to [`PartitionSink::commit_and_emit`].
struct Finished<'p> {
    id: Unit,
    /// (candidates, results, duplicates): the unit's journal record.
    counts: (u64, u64, u64),
    /// The unit's own page I/O, excluding the commit, when reported.
    io: Option<IoStats>,
    /// Buffered pairs; empty when an unchecked unit streamed them already.
    pairs: &'p [(RecordId, RecordId)],
    /// Where the first pair became available on the pipelined clock; a
    /// checkpointed unit's also waits for its commit, whose I/O is added.
    first: Option<ClockPos>,
}

/// What each worker's (candidates, results, duplicates) must satisfy once
/// the pool drains, checked before a merge could hide an interleaving bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accounting {
    /// Each candidate is a result or a duplicate (RPM, raw, S³J).
    Classified,
    /// Workers only collect candidates (PBSM's sort phase classifies).
    Collected,
    /// Each candidate is a result, with no duplicate test (two-layer).
    ExactlyOnce,
}

impl Accounting {
    fn holds(self, (c, r, d): (u64, u64, u64)) -> bool {
        match self {
            Accounting::Classified => c == r + d,
            Accounting::Collected => r == 0 && d == 0,
            Accounting::ExactlyOnce => c == r && d == 0,
        }
    }
}

/// Where a unit's first pair lands on the family's pipelined clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstRule {
    /// PBSM: base plus the unit's own CPU and I/O up to the pair, wherever
    /// it ran, so any unit may hold the earliest pair.
    TaskOwn,
    /// S³J: the sequential scan's meter, so a unit also waits for the
    /// commits delivered after its base was read (the pool reads every base
    /// during discovery). It grows in delivery order: once a first pair is
    /// known, later inline units are not measured.
    Cumulative,
}

/// How a family's units are charged, stamped and probed.
pub struct UnitPlan<'f> {
    /// The phase a deadline or cancellation error names.
    pub phase: &'static str,
    /// Simulated seconds so far, plus `pending` I/O of worker meters not
    /// folded back yet: the deadline's and `partition-done`'s clock.
    pub clock: &'f dyn Fn(&IoStats) -> f64,
    /// Charge the deadline before each inline unit (S³J's discovery walk
    /// charges per discovered partition itself).
    pub charge_inline: bool,
    /// Report each unit's own page I/O on its event (S³J's units do none).
    pub unit_io: bool,
    pub first: FirstRule,
    pub accounting: Accounting,
}

/// A work unit: its journal partition, plus a chunk number when it is a
/// scheduling chunk instead (S³J's unchecked parallel scan).
pub type Unit = (u32, Option<u64>);

#[derive(Debug, Clone, Copy)]
pub struct Pool {
    pub threads: usize,
    /// Times a failed unit is requeued before its error is terminal.
    pub max_requeues: u32,
}

/// A family's per-worker state as the driver sees it.
pub trait UnitWorker: Send {
    type Snapshot: Send;
    /// (candidates, results, duplicates) so far.
    fn counts(&self) -> (u64, u64, u64);
    fn snapshot(&self) -> Self::Snapshot;
    /// Restores the counters after a failed attempt, keeping its cost: its
    /// reads and retries are real simulated disk time.
    fn rollback(&mut self, snap: Self::Snapshot);
}

/// One unit's view of the driver while its body runs.
pub struct UnitCx<'u> {
    /// The coordinator's disk inline, the worker's forked meter in the pool.
    pub disk: &'u SimDisk,
    /// The running thread's on-CPU clock.
    pub clock: &'u dyn Fn() -> f64,
    /// The first-result base; a unit spanning several (S³J's chunks) moves
    /// it as it goes.
    pub base: ClockPos,
    /// The (cpu, io) of the unit's load stage, part of its own work.
    pub pre: ClockPos,
    stream: Option<&'u mut dyn FnMut(RecordId, RecordId)>,
    pairs: Vec<(RecordId, RecordId)>,
    /// Probe at the first pair (unchecked); checkpointed units probe at
    /// their end, since their pairs wait for the commit.
    probe: bool,
    first: Option<ClockPos>,
    /// CPU clock and disk meter when the body started.
    start: (f64, IoStats),
}

impl UnitCx<'_> {
    /// Hands one result pair to the driver.
    pub fn emit(&mut self, a: RecordId, b: RecordId) {
        if self.probe && self.first.is_none() {
            self.first = Some(self.pos());
        }
        match self.stream.as_deref_mut() {
            Some(out) => out(a, b),
            None => self.pairs.push((a, b)),
        }
    }

    /// The unit's own (cpu, io) so far, its load stage included.
    fn own(&self) -> ClockPos {
        (
            self.pre.0 + ((self.clock)() - self.start.0),
            self.pre.1.plus(&self.disk.stats().delta(&self.start.1)),
        )
    }

    fn pos(&self) -> ClockPos {
        let own = self.own();
        (self.base.0 + own.0, self.base.1.plus(&own.1))
    }
}

fn minus((c, r, d): (u64, u64, u64), (c0, r0, d0): (u64, u64, u64)) -> (u64, u64, u64) {
    (c - c0, r - r0, d - d0)
}

/// Per-run delivery state of a partition-based join (see the module docs).
pub struct PartitionSink<'a> {
    ctl: &'a RunControl,
    disk: &'a SimDisk,
    cp: Option<MutexGuard<'a, RunCheckpoint>>,
    /// Checkpoint-layer I/O of this run: manifest publishes, result flushes
    /// and journal records.
    pub io_checkpoint: IoStats,
    /// Durable per-partition journal commits this run performed.
    pub commits: u64,
    first: Option<ClockPos>,
    err: Option<JoinError>,
    /// The run-local stop signal a worker pool watches: a child of the
    /// caller's cancel token, so a failed run stops its pool without
    /// tripping the caller's token.
    stop: CancelToken,
    /// On-CPU clock of inline units (the sink lives on the coordinator).
    clock: WorkClock,
}

impl<'a> PartitionSink<'a> {
    /// Takes the run's checkpoint guard, if `ctl` carries one, for the
    /// whole run.
    pub fn new(ctl: &'a RunControl, disk: &'a SimDisk) -> Self {
        PartitionSink {
            ctl,
            disk,
            cp: ctl.checkpoint.as_ref().map(|m| m.lock()),
            io_checkpoint: IoStats::default(),
            commits: 0,
            first: None,
            err: None,
            stop: ctl.cancel.child(),
            clock: WorkClock::start(),
        }
    }

    pub fn checkpoint(&self) -> Option<&RunCheckpoint> {
        self.cp.as_deref()
    }

    pub fn is_checkpointing(&self) -> bool {
        self.cp.is_some()
    }

    /// `true` iff a resumed run already journaled `partition`: its pairs
    /// were emitted by the interrupted process, so the driver skips it.
    fn is_committed(&self, partition: u32) -> bool {
        self.cp
            .as_deref()
            .is_some_and(|c| c.is_committed(partition))
    }

    /// (candidates, results, duplicates) summed over the journal — what a
    /// resumed run folds into its stats so its totals equal an
    /// uninterrupted run's. Zero without a checkpoint.
    pub fn committed_totals(&self) -> (u64, u64, u64) {
        self.cp.as_deref().map_or((0, 0, 0), |c| {
            c.committed().fold((0, 0, 0), |(c, r, d), e| {
                (c + e.candidates, r + e.results, d + e.duplicates)
            })
        })
    }

    /// Runs a run-level checkpoint step (a manifest publish, `finish`) and
    /// charges its I/O to [`io_checkpoint`](Self::io_checkpoint). A no-op
    /// without a checkpoint.
    pub fn publish(
        &mut self,
        step: impl FnOnce(&mut RunCheckpoint) -> Result<(), JoinError>,
    ) -> Result<(), JoinError> {
        let Some(cp) = self.cp.as_deref_mut() else {
            return Ok(());
        };
        let io0 = self.disk.stats();
        let res = step(cp);
        self.io_checkpoint = self.io_checkpoint.plus(&self.disk.stats().delta(&io0));
        res
    }

    /// Charges `elapsed` simulated seconds against the deadline and polls
    /// cancellation, latching the interruption. Returns whether the run is
    /// still live; once an error is latched, nothing is charged.
    pub fn charge(&mut self, phase: &'static str, elapsed: f64) -> bool {
        if self.err.is_none() {
            if let Some(e) = self.ctl.charge(phase, elapsed) {
                self.fail(e);
            }
        }
        self.err.is_none()
    }

    /// Latches the run's terminal error (the first one wins). A checkpointed
    /// run that fails is dead, like the process exit it simulates: the sink
    /// trips the pool's run-local stop signal so the workers stop claiming
    /// partitions. Committed state stays, and the caller's token is left
    /// as it was.
    pub fn fail(&mut self, e: JoinError) {
        self.err.get_or_insert(e);
        if self.cp.is_some() {
            self.stop.cancel();
        }
    }

    pub fn is_live(&self) -> bool {
        self.err.is_none()
    }

    /// The latched terminal error, if any.
    pub fn check(&self) -> Result<(), JoinError> {
        self.err.map_or(Ok(()), Err)
    }

    /// Keeps whichever first-result candidate sits earliest on the
    /// pipelined clock.
    pub fn offer_first(&mut self, cand: ClockPos) {
        let model = self.disk.model();
        let pos = |p: &ClockPos| RunCost::clock(&model, p);
        if self.first.as_ref().is_none_or(|cur| pos(&cand) < pos(cur)) {
            self.first = Some(cand);
        }
    }

    /// The earliest result position offered so far.
    pub fn first(&self) -> Option<ClockPos> {
        self.first
    }

    /// Runs one unit on the calling thread and delivers it. Returns the
    /// body's output, or `None` when the unit was skipped (journaled, or the
    /// run failed) or failed (the error is latched). An unchecked unit
    /// streams its pairs to `out` while its body runs. `base`, read only if
    /// the unit is probed, is where its work starts on the family's clock.
    pub fn run_inline<W: UnitWorker, T>(
        &mut self,
        plan: &UnitPlan<'_>,
        w: &mut W,
        partition: u32,
        base: impl FnOnce() -> ClockPos,
        body: impl FnOnce(&mut W, &mut UnitCx<'_>) -> Result<T, JoinError>,
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> Option<T> {
        if self.is_committed(partition) {
            return None;
        }
        if plan.charge_inline {
            self.charge(plan.phase, (plan.clock)(&IoStats::default()));
        }
        if !self.is_live() {
            return None;
        }
        let checkpointing = self.is_checkpointing();
        let measure = plan.first == FirstRule::TaskOwn || self.first.is_none();
        let disk = self.disk;
        let work_clock = &self.clock;
        let tick = || work_clock.seconds();
        let before = w.counts();
        let mut cx = UnitCx {
            disk,
            clock: &tick,
            base: if measure { base() } else { ClockPos::default() },
            stream: if checkpointing { None } else { Some(&mut *out) },
            pre: ClockPos::default(),
            pairs: Vec::new(),
            probe: measure && !checkpointing,
            first: None,
            start: (if measure { tick() } else { 0.0 }, disk.stats()),
        };
        match body(w, &mut cx) {
            Ok(t) => {
                let first = if checkpointing {
                    (measure && !cx.pairs.is_empty()).then(|| cx.pos())
                } else {
                    cx.first
                };
                let io = disk.stats().delta(&cx.start.1);
                let pairs = std::mem::take(&mut cx.pairs);
                let unit = Finished {
                    id: (partition, None),
                    counts: minus(w.counts(), before),
                    io: plan.unit_io.then_some(io),
                    pairs: &pairs,
                    first,
                };
                let clock = plan.clock;
                self.commit_and_emit(unit, &|| clock(&IoStats::default()), out);
                Some(t)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Runs the unjournaled `units` on the ordered pool, delivering them in
    /// canonical order. Each worker gets `init()`'s state, a forked disk
    /// meter and an on-CPU clock; `load` prefetches a unit while the worker
    /// computes the previous one, and `body` joins it from `base`. A failed
    /// attempt rolls back and is requeued up to `pool.max_requeues` times;
    /// the last failure names the partition. `after` runs on the
    /// coordinator for each finished unit, with the body's output once it
    /// is delivered or `None` if it failed. Returns each worker's state and
    /// on-CPU seconds, with every fork folded back, and the requeues run.
    #[allow(clippy::too_many_arguments)] // the pool's knobs plus the family's stages
    pub fn run_pooled<W, L, T>(
        &mut self,
        plan: &UnitPlan<'_>,
        pool: Pool,
        units: &[Unit],
        base: ClockPos,
        init: impl Fn() -> W + Sync,
        load: impl Fn(&mut W, &SimDisk, usize) -> L + Sync,
        body: impl Fn(&mut W, &mut UnitCx<'_>, usize, Option<L>) -> Result<T, JoinError> + Sync,
        mut after: impl FnMut(&mut Self, usize, Option<T>),
        out: &mut dyn FnMut(RecordId, RecordId),
    ) -> (Vec<(W, f64)>, u64)
    where
        W: UnitWorker,
        L: Send,
        T: Send,
    {
        struct Worker<W> {
            state: W,
            fork: SimDisk,
            clock: WorkClock,
            cpu: f64,
            requeued: u64,
        }
        struct Done<T> {
            out: T,
            pairs: Vec<(RecordId, RecordId)>,
            first: Option<ClockPos>,
            io: IoStats,
            counts: (u64, u64, u64),
        }
        let disk = self.disk;
        let checkpointing = self.is_checkpointing();
        let todo: Vec<usize> = (0..units.len())
            .filter(|&u| !self.is_committed(units[u].0))
            .collect();
        let todo = &todo;
        let ckpt0 = self.io_checkpoint;
        let stop = self.stop.clone();
        let mut pending = IoStats::default();
        let (workers, stats) = parallel::run_ordered(
            pool.threads,
            todo.len(),
            pool.max_requeues,
            Some(&stop),
            |_| Worker {
                state: init(),
                fork: disk.fork_counters(),
                clock: WorkClock::start(),
                cpu: 0.0,
                requeued: 0,
            },
            |w, k, _round| {
                let (c0, io0) = (w.clock.seconds(), w.fork.stats());
                let value = load(&mut w.state, &w.fork, todo[k]);
                let cpu = w.clock.seconds() - c0;
                w.cpu += cpu;
                (value, (cpu, w.fork.stats().delta(&io0)))
            },
            |w, k, round, (loaded, pre)| {
                let u = todo[k];
                let Worker {
                    state,
                    fork,
                    clock,
                    cpu,
                    requeued,
                } = w;
                if round > 0 {
                    *requeued += 1;
                }
                let snap = state.snapshot();
                let before = state.counts();
                let tick = || clock.seconds();
                let mut cx = UnitCx {
                    disk: fork,
                    clock: &tick,
                    base,
                    pre,
                    stream: None,
                    pairs: Vec::new(),
                    probe: !checkpointing,
                    first: None,
                    start: (tick(), fork.stats()),
                };
                let res = body(state, &mut cx, u, Some(loaded));
                let end = cx.own();
                *cpu += end.0 - cx.pre.0;
                match res {
                    Ok(out) => Ok(Done {
                        out,
                        first: if checkpointing {
                            (!cx.pairs.is_empty()).then(|| cx.pos())
                        } else {
                            cx.first
                        },
                        pairs: cx.pairs,
                        io: end.1,
                        counts: minus(state.counts(), before),
                    }),
                    Err(e) => {
                        state.rollback(snap);
                        // A failure in the last allowed round is terminal —
                        // the pool will not requeue past the cap — so name
                        // the partition, the attempt count and the last I/O
                        // error instead of the bare per-attempt error.
                        Err(match e.io() {
                            Some(io) if round >= pool.max_requeues => {
                                JoinError::requeue_exhausted(e.phase, units[u].0, round + 1, *io)
                            }
                            _ => e,
                        })
                    }
                }
            },
            |k, res| {
                let u = todo[k];
                self.charge(plan.phase, (plan.clock)(&pending));
                let t = match res {
                    Ok(d) => {
                        pending = pending.plus(&d.io);
                        let prior = match plan.first {
                            FirstRule::TaskOwn => IoStats::default(),
                            FirstRule::Cumulative => self.io_checkpoint.delta(&ckpt0),
                        };
                        let unit = Finished {
                            id: units[u],
                            counts: d.counts,
                            io: plan.unit_io.then_some(d.io),
                            pairs: &d.pairs,
                            first: d.first.map(|(cpu, io)| (cpu, io.plus(&prior))),
                        };
                        let (clock, at) = (plan.clock, pending);
                        self.commit_and_emit(unit, &|| clock(&at), out);
                        Some(d.out)
                    }
                    Err(e) => {
                        self.fail(e);
                        None
                    }
                };
                after(self, u, t);
            },
        );
        let mut requeued = 0;
        let states = workers
            .into_iter()
            .map(|w| {
                debug_assert!(
                    plan.accounting.holds(w.state.counts()),
                    "per-worker {:?} accounting broken: {:?}",
                    plan.accounting,
                    w.state.counts()
                );
                // Fold the worker's forked meter back bucket-wise so both
                // `disk.stats()` and the per-channel decomposition report
                // the same totals as an inline run.
                disk.add_channel_stats(&w.fork.channel_stats());
                requeued += w.requeued;
                (w.state, w.cpu)
            })
            .collect();
        // The scheduler's own requeue count against the workers' (they can
        // only diverge when a stop leaves a queued retry unclaimed).
        if self.is_live() && !stop.is_cancelled() {
            debug_assert_eq!(
                requeued, stats.requeues,
                "scheduler requeue count disagrees with per-worker accounting"
            );
        }
        if self.ctl.observed() {
            self.ctl.event(
                "pool-drained",
                (plan.clock)(&IoStats::default()),
                &[
                    ("tasks_claimed", stats.tasks_claimed),
                    ("requeues", stats.requeues),
                    ("threads", pool.threads as u64),
                ],
            );
        }
        (states, requeued)
    }

    /// Delivers one finished unit. Without a checkpoint its pairs go
    /// straight to `out`. With one, the commit protocol runs: the pairs are
    /// durably flushed to the results file, the unit's journal record is
    /// appended (the commit point — crash injection fires here), and only
    /// then are the pairs emitted. A commit failure is latched. The
    /// `partition-done` event is stamped at `at()` once the unit is
    /// delivered. Does nothing after a latched error.
    fn commit_and_emit(
        &mut self,
        unit: Finished<'_>,
        at: &dyn Fn() -> f64,
        out: &mut dyn FnMut(RecordId, RecordId),
    ) {
        if self.err.is_some() {
            return;
        }
        let (candidates, results, duplicates) = unit.counts;
        let mut first = unit.first;
        if let Some(cp) = self.cp.as_deref_mut() {
            let io0 = self.disk.stats();
            let encoded: Vec<IdPair> = unit
                .pairs
                .iter()
                .map(|&(a, b)| IdPair { r: a.0, s: b.0 })
                .collect();
            let res = cp.append_results(&encoded).and_then(|()| {
                cp.commit_partition(unit.id.0, candidates, results, duplicates)
            });
            let commit_io = self.disk.stats().delta(&io0);
            self.io_checkpoint = self.io_checkpoint.plus(&commit_io);
            // The durable journal record — not the process's last
            // instruction — is the delivery boundary: a resume skips every
            // committed partition, so a committed partition's pairs must
            // reach the consumer even when the injected crash fires between
            // the commit and this loop (otherwise they would be emitted by
            // neither leg). An uncommitted partition's pairs stay
            // unemitted; the resume recomputes and emits them.
            let delivered = res.is_ok() || cp.is_committed(unit.id.0);
            first = first
                .filter(|_| delivered && !unit.pairs.is_empty())
                .map(|(cpu, io)| (cpu, io.plus(&commit_io)));
            if delivered {
                self.commits += 1;
                for &(a, b) in unit.pairs {
                    out(a, b);
                }
            }
            if let Err(e) = res {
                self.fail(e);
            }
        } else {
            for &(a, b) in unit.pairs {
                out(a, b);
            }
        }
        if let Some(f) = first {
            self.offer_first(f);
        }
        if self.ctl.observed() && self.err.is_none() {
            let mut attrs = vec![("partition", u64::from(unit.id.0))];
            attrs.extend(unit.id.1.map(|c| ("unit", c)));
            attrs.extend([
                ("candidates", candidates),
                ("results", results),
                ("duplicates", duplicates),
            ]);
            if let Some(io) = unit.io {
                attrs.extend([
                    ("pages_read", io.pages_read),
                    ("pages_written", io.pages_written),
                ]);
            }
            attrs.push(("committed", u64::from(self.cp.is_some())));
            self.ctl.event("partition-done", at(), &attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{CrashPoint, FaultPlan, JoinErrorKind, Recorder, RetryPolicy};

    /// A durable run already in its join phase.
    fn durable(disk: &SimDisk) -> RunControl {
        let sb = disk.create();
        let mut cp = RunCheckpoint::start(disk, sb, 1, 0xF00D, 1);
        cp.commit_join_phase(2, &[], &[]).unwrap();
        RunControl::none().with_checkpoint(cp)
    }

    fn unit(partition: u32, pairs: &[(RecordId, RecordId)]) -> Finished<'_> {
        Finished {
            id: (partition, None),
            counts: (3, 2, 1),
            io: None,
            pairs,
            first: Some((0.0, IoStats::default())),
        }
    }

    const PAIRS: [(RecordId, RecordId); 2] =
        [(RecordId(1), RecordId(2)), (RecordId(3), RecordId(4))];

    #[test]
    fn commit_precedes_emission_and_is_charged() {
        let disk = SimDisk::with_default_model();
        let recorder = Arc::new(Recorder::new());
        let ctl = durable(&disk).with_recorder(Arc::clone(&recorder));
        let mut sink = PartitionSink::new(&ctl, &disk);
        let mut got = Vec::new();
        sink.commit_and_emit(unit(0, &PAIRS), &|| 1.5, &mut |a, b| got.push((a, b)));
        assert_eq!(got, PAIRS);
        assert_eq!(sink.commits, 1);
        assert!(sink.is_committed(0) && !sink.is_committed(1));
        assert_eq!(sink.committed_totals(), (3, 2, 1));
        assert!(sink.io_checkpoint.pages_written > 0);
        // The pairs waited for the commit, so the first one sits after it.
        assert_eq!(sink.first().unwrap().1, sink.io_checkpoint);
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].name, events[0].t_s), ("partition-done", 1.5));
        assert_eq!(
            events[0].attrs,
            [
                ("partition", 0),
                ("candidates", 3),
                ("results", 2),
                ("duplicates", 1),
                ("committed", 1)
            ]
        );
    }

    #[test]
    fn a_crash_after_the_commit_delivers_then_latches() {
        let disk = SimDisk::with_default_model().with_faults(
            FaultPlan::crash_only(0, CrashPoint::AfterCommit(1)),
            RetryPolicy::default(),
        );
        let ctl = durable(&disk);
        let mut sink = PartitionSink::new(&ctl, &disk);
        let mut got = Vec::new();
        sink.commit_and_emit(unit(0, &PAIRS), &|| 0.0, &mut |a, b| got.push((a, b)));
        // Journaled, so delivered: a resume skips partition 0.
        assert_eq!(got, PAIRS);
        let err = sink.check().unwrap_err();
        assert!(matches!(err.kind, JoinErrorKind::Crashed(_)), "{err}");
        // The run is dead: later partitions are neither committed nor emitted.
        sink.commit_and_emit(unit(1, &PAIRS), &|| 0.0, &mut |a, b| got.push((a, b)));
        assert_eq!((got.len(), sink.commits), (2, 1));
        assert!(!sink.is_committed(1));
    }

    #[test]
    fn an_unchecked_run_emits_directly_and_keeps_the_earliest_first() {
        let disk = SimDisk::with_default_model();
        let ctl = RunControl::none();
        let mut sink = PartitionSink::new(&ctl, &disk);
        let late = IoStats {
            pages_read: 9,
            ..IoStats::default()
        };
        let mut got = Vec::new();
        for (p, io) in [(0, late), (1, IoStats::default())] {
            let mut u = unit(p, &PAIRS);
            u.first = Some((0.0, io));
            sink.commit_and_emit(u, &|| 0.0, &mut |a, b| got.push((a, b)));
        }
        assert_eq!((got.len(), sink.commits), (4, 0));
        assert_eq!(sink.first(), Some((0.0, IoStats::default())));
        assert_eq!(sink.publish(|_| unreachable!("no checkpoint")), Ok(()));
    }

    /// Per-worker counts of the driver tests.
    #[derive(Default)]
    struct Tally(u64, u64, u64);

    impl UnitWorker for Tally {
        type Snapshot = (u64, u64, u64);
        fn counts(&self) -> (u64, u64, u64) {
            (self.0, self.1, self.2)
        }
        fn snapshot(&self) -> (u64, u64, u64) {
            self.counts()
        }
        fn rollback(&mut self, (c, r, d): (u64, u64, u64)) {
            *self = Tally(c, r, d);
        }
    }

    /// A unit that writes `u + 1` pages on its own channel and finds `u`
    /// results plus one duplicate.
    fn work(w: &mut Tally, cx: &mut UnitCx<'_>, u: usize) -> Result<(), JoinError> {
        let f = cx.disk.create_on(u as u64);
        let page = cx.disk.model().page_size;
        cx.disk
            .try_append(f, &vec![0u8; (u + 1) * page])
            .map_err(|e| JoinError::new("join", e))?;
        for k in 0..u as u64 {
            cx.emit(RecordId(u as u64), RecordId(k));
        }
        *w = Tally(w.0 + u as u64 + 1, w.1 + u as u64, w.2 + 1);
        Ok(())
    }

    fn plan(clock: &dyn Fn(&IoStats) -> f64) -> UnitPlan<'_> {
        UnitPlan {
            phase: "join",
            clock,
            charge_inline: true,
            unit_io: true,
            first: FirstRule::TaskOwn,
            accounting: Accounting::Classified,
        }
    }

    #[test]
    fn an_unchecked_inline_unit_streams_before_its_body_returns() {
        let disk = SimDisk::with_default_model();
        let ctl = RunControl::none();
        let mut sink = PartitionSink::new(&ctl, &disk);
        let clock = |p: &IoStats| disk.io_seconds_with(p);
        let seen = std::cell::Cell::new(0);
        let mut w = Tally::default();
        let got = sink.run_inline(
            &plan(&clock),
            &mut w,
            0,
            ClockPos::default,
            |w, cx| {
                work(w, cx, 3)?;
                assert_eq!(seen.get(), 3, "pairs waited for the body");
                Ok("done")
            },
            &mut |_, _| seen.set(seen.get() + 1),
        );
        assert_eq!((got, seen.get(), w.counts()), (Some("done"), 3, (4, 3, 1)));
        // The first pair sits after the unit's own writes.
        assert_eq!(sink.first().unwrap().1.pages_written, 4);
    }

    #[test]
    fn a_checkpointed_inline_unit_emits_only_after_its_journal_commit() {
        let disk = SimDisk::with_default_model();
        let ctl = durable(&disk);
        let mut sink = PartitionSink::new(&ctl, &disk);
        let clock = |p: &IoStats| disk.io_seconds_with(p);
        let written_by_body = std::cell::Cell::new(None);
        let mut got = Vec::new();
        sink.run_inline(
            &plan(&clock),
            &mut Tally::default(),
            1,
            ClockPos::default,
            |w, cx| {
                work(w, cx, 2)?;
                written_by_body.set(Some(disk.stats().pages_written));
                Ok(())
            },
            &mut |a, b| {
                // The flush and the journal record are on disk already.
                assert!(disk.stats().pages_written > written_by_body.get().unwrap());
                got.push((a, b));
            },
        );
        assert_eq!(got.len(), 2);
        assert!(sink.is_committed(1) && sink.commits == 1);
        assert_eq!(sink.committed_totals(), (3, 2, 1));
        // A journaled unit is skipped by the next attempt at it.
        let ran = sink.run_inline(
            &plan(&clock),
            &mut Tally::default(),
            1,
            ClockPos::default,
            |_, _| unreachable!("journaled unit ran again"),
            &mut |_, _| unreachable!(),
        );
        assert_eq!(ran, None::<()>);
    }

    /// (partition-done attributes and stamp, pairs in delivery order, disk
    /// totals and per-channel buckets) of a run over `n` units.
    type Trace = (
        Vec<(f64, Vec<(&'static str, u64)>)>,
        Vec<(RecordId, RecordId)>,
        IoStats,
        Vec<IoStats>,
    );

    fn trace(threads: usize, n: u32) -> Trace {
        let disk = SimDisk::new(crate::DiskModel {
            channels: 2,
            ..crate::DiskModel::default()
        });
        let recorder = Arc::new(Recorder::new());
        let ctl = RunControl::none().with_recorder(Arc::clone(&recorder));
        let mut sink = PartitionSink::new(&ctl, &disk);
        let clock = |p: &IoStats| disk.io_seconds_with(p);
        let plan = plan(&clock);
        let mut pairs = Vec::new();
        let mut totals = (0, 0, 0);
        if threads == 1 {
            let mut w = Tally::default();
            for u in 0..n {
                let body = |w: &mut Tally, cx: &mut UnitCx<'_>| work(w, cx, u as usize);
                sink.run_inline(&plan, &mut w, u, ClockPos::default, body, &mut |a, b| {
                    pairs.push((a, b))
                });
            }
            totals = w.counts();
        } else {
            let units: Vec<Unit> = (0..n).map(|u| (u, None)).collect();
            let pool = Pool {
                threads,
                max_requeues: 0,
            };
            let (workers, requeued) = sink.run_pooled(
                &plan,
                pool,
                &units,
                ClockPos::default(),
                Tally::default,
                |_, _, _| (),
                |w, cx, u, _| work(w, cx, u),
                |_, _, _| {},
                &mut |a, b| pairs.push((a, b)),
            );
            assert_eq!((workers.len(), requeued), (threads, 0));
            for (w, _) in workers {
                let c = w.counts();
                totals = (totals.0 + c.0, totals.1 + c.1, totals.2 + c.2);
            }
        }
        let n = u64::from(n);
        assert_eq!(totals, (n * (n + 1) / 2, n * (n - 1) / 2, n));
        assert!(sink.check().is_ok());
        let events = recorder
            .events()
            .into_iter()
            .filter(|e| e.name == "partition-done")
            .map(|e| (e.t_s, e.attrs))
            .collect();
        (events, pairs, disk.stats(), disk.channel_stats())
    }

    #[test]
    fn a_pooled_run_delivers_what_the_inline_run_does() {
        let inline = trace(1, 24);
        assert_eq!(inline.0.len(), 24);
        assert_eq!(trace(3, 24), inline);
    }

    #[test]
    fn a_failed_pooled_unit_stops_the_pool_but_not_the_callers_token() {
        let disk = SimDisk::with_default_model();
        let recorder = Arc::new(Recorder::new());
        let ctl = durable(&disk).with_recorder(Arc::clone(&recorder));
        let mut sink = PartitionSink::new(&ctl, &disk);
        let clock = |p: &IoStats| disk.io_seconds_with(p);
        let units: Vec<Unit> = (0..100).map(|u| (u, None)).collect();
        let failed = std::sync::atomic::AtomicBool::new(false);
        let (_, requeued) = sink.run_pooled(
            &plan(&clock),
            Pool {
                threads: 3,
                max_requeues: 0,
            },
            &units,
            ClockPos::default(),
            Tally::default,
            |_, _, _| (),
            |w, cx, u, _| {
                if u == 0 {
                    return Err(JoinError::cancelled("join"));
                }
                // Later units finish only once the failure was delivered, so
                // the pool cannot drain before the stop signal trips.
                let t0 = std::time::Instant::now();
                while !failed.load(std::sync::atomic::Ordering::Acquire) {
                    assert!(t0.elapsed().as_secs() < 10, "failure never delivered");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                work(w, cx, u)
            },
            |_, u, out| {
                if u == 0 {
                    assert!(out.is_none());
                    failed.store(true, std::sync::atomic::Ordering::Release);
                }
            },
            &mut |_, _| {},
        );
        assert_eq!(requeued, 0);
        let err = sink.check().unwrap_err();
        assert!(matches!(err.kind, JoinErrorKind::Cancelled), "{err}");
        assert_eq!(sink.commits, 0, "nothing commits after the failure");
        assert!(!ctl.cancel.is_cancelled(), "the caller's token tripped");
        let drained = recorder
            .events()
            .into_iter()
            .find(|e| e.name == "pool-drained")
            .unwrap();
        // Each worker holds at most one unit computing and one prefetched.
        assert_eq!(drained.attrs[0].0, "tasks_claimed");
        assert!(drained.attrs[0].1 <= 1 + 2 * 3, "{:?}", drained.attrs);
    }
}
