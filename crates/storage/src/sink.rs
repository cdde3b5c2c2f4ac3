//! Exactly-once partition delivery — the one place that knows the
//! flush → journal → emit protocol.
//!
//! The Reference Point Method (§3.1, and its modified form for S³J, §4.3)
//! gives every result pair to exactly one partition. That is what lets a
//! partition-based join buffer a finished partition, make it durable, and
//! only then hand it downstream: every executor (PBSM's streaming loop and
//! its pool, the two-layer scheme riding the same loops, S³J's sequential
//! and parallel scans) calls [`PartitionSink::commit_and_emit`] once per
//! finished partition, in canonical partition order, and the sink does the
//! rest — the durable commit when the run is checkpointed, the pipelined
//! first-result probe, the terminal-error latch, and the `partition-done`
//! trace event.

use geom::RecordId;
use parking_lot::MutexGuard;

use crate::{
    CancelToken, ClockPos, IdPair, IoStats, JoinError, RunCheckpoint, RunControl, RunCost, SimDisk,
};

/// One finished work unit, handed to [`PartitionSink::commit_and_emit`].
pub struct Finished<'p> {
    /// Journal unit: the partition whose reference-point region owns
    /// every pair in `pairs`.
    pub partition: u32,
    /// Set only when the unit is a scheduling chunk rather than a journal
    /// unit (S³J's unchecked parallel scan); reported on the event.
    pub chunk: Option<u64>,
    /// (candidates, results, duplicates) this unit produced — its journal
    /// record.
    pub counts: (u64, u64, u64),
    /// The unit's own page I/O, excluding the commit, when it did any
    /// (reported on the event as pages read/written).
    pub io: Option<IoStats>,
    /// Buffered result pairs. Empty when the executor streamed them
    /// already, which only an unchecked run may do.
    pub pairs: &'p [(RecordId, RecordId)],
    /// Where the unit's first pair became available on the pipelined
    /// clock. For a buffered unit of a checkpointed run, pass where the
    /// unit's work ended: its pairs wait for the commit, whose I/O the sink
    /// adds. `None` when the unit produced no pair, or when the executor
    /// measures its deliveries itself and reports through
    /// [`PartitionSink::offer_first`] (S³J's sequential scans).
    pub first: Option<ClockPos>,
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
        }
    }

    pub fn checkpoint(&self) -> Option<&RunCheckpoint> {
        self.cp.as_deref()
    }

    pub fn is_checkpointing(&self) -> bool {
        self.cp.is_some()
    }

    /// `true` iff a resumed run already journaled `partition`: its pairs
    /// were emitted by the interrupted process, so the executor skips it.
    pub fn is_committed(&self, partition: u32) -> bool {
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
    /// trips the pool's stop signal so the workers stop claiming
    /// partitions. Committed state stays, and the caller's token is left
    /// as it was.
    pub fn fail(&mut self, e: JoinError) {
        self.err.get_or_insert(e);
        if self.cp.is_some() {
            self.stop.cancel();
        }
    }

    /// The stop signal a worker pool should watch: it trips when the
    /// caller's token does, and when a checkpointed run fails (see
    /// [`fail`](Self::fail)).
    pub fn pool_cancel(&self) -> CancelToken {
        self.stop.clone()
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

    /// Delivers one finished unit. Without a checkpoint its pairs go
    /// straight to `out`. With one, the commit protocol runs: the pairs are
    /// durably flushed to the results file, the unit's journal record is
    /// appended (the commit point — crash injection fires here), and only
    /// then are the pairs emitted. A commit failure is latched. The
    /// `partition-done` event is stamped at `at()` once the unit is
    /// delivered. Does nothing after a latched error.
    pub fn commit_and_emit(
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
                cp.commit_partition(unit.partition, candidates, results, duplicates)
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
            let delivered = res.is_ok() || cp.is_committed(unit.partition);
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
            let mut attrs = vec![("partition", u64::from(unit.partition))];
            attrs.extend(unit.chunk.map(|c| ("unit", c)));
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
#[allow(clippy::unwrap_used)]
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
            partition,
            chunk: None,
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
}
