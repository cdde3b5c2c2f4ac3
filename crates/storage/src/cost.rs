//! The run-cost record: one phase table and one simulated clock for every
//! join family.
//!
//! The paper compares algorithms by total runtime — measured CPU plus
//! `PT + n` disk time (§2) — split by phase (Table 3's passes per phase,
//! Fig 6's repartitioning share). [`RunCost`] holds that split for one run
//! and implements every time identity built on it exactly once: the totals,
//! the multi-channel clock, the pipelined first-result position, the
//! max-over-workers merge, and the phase rows of a [`MetricsReport`].

use std::ops::{Index, IndexMut};

use crate::disk::{DiskModel, IoStats};
use crate::metrics::{MetricsReport, PhaseMetric, RunCounters, METRICS_SCHEMA_VERSION};

/// A position on the pipelined clock: (CPU seconds, run-relative I/O meter).
pub type ClockPos = (f64, IoStats);

/// A phase of a join run. Each algorithm reports the subset it has, in the
/// order of its `&'static [Phase]` list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Partition,
    Repartition,
    Sort,
    Build,
    Probe,
    Join,
    Dedup,
    /// Durability I/O (manifest publishes, journal commits, result
    /// flushes). Commit work is I/O-dominated and not separately timed, so
    /// its CPU stays zero.
    Checkpoint,
}

impl Phase {
    const COUNT: usize = 8;

    /// The phase's name in reports and traces.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Partition => "partition",
            Phase::Repartition => "repartition",
            Phase::Sort => "sort",
            Phase::Build => "build",
            Phase::Probe => "probe",
            Phase::Join => "join",
            Phase::Dedup => "dedup",
            Phase::Checkpoint => "checkpoint",
        }
    }
}

/// One row of the phase table: raw (unscaled) CPU seconds and the phase's
/// disjoint I/O bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseCost {
    pub cpu: f64,
    pub io: IoStats,
}

impl PhaseCost {
    /// Charges `cpu` seconds and the I/O `io` to this phase.
    pub fn add(&mut self, cpu: f64, io: &IoStats) {
        self.cpu += cpu;
        self.io = self.io.plus(io);
    }
}

/// Cost of one join run on the simulated clock (see the module docs).
///
/// Index it by [`Phase`] to charge a phase: `cost[Phase::Join].cpu += dt`.
#[derive(Debug, Clone)]
pub struct RunCost {
    /// The disk model the run was costed under.
    pub model: DiskModel,
    /// The algorithm's phases: report order and CPU fold order.
    phases: &'static [Phase],
    rows: [PhaseCost; Phase::COUNT],
    /// Shared-lane I/O: untagged files (manifest, journal, results, dedup
    /// and sort scratch) whose requests serialize on the multi-channel
    /// clock. Together with `io_channels` this is an exact field-for-field
    /// decomposition of [`io_total`](Self::io_total).
    pub io_shared: IoStats,
    /// Per-data-channel I/O. Always `model.data_channels()` entries; with
    /// one channel the clock is bit-identical to the serial model.
    pub io_channels: Vec<IoStats>,
    /// Earliest result on the pipelined clock (`None` when the run emitted
    /// nothing or does not probe it). Its I/O leg is relative to the run's
    /// start.
    pub first: Option<ClockPos>,
}

impl Index<Phase> for RunCost {
    type Output = PhaseCost;
    fn index(&self, p: Phase) -> &PhaseCost {
        &self.rows[p as usize]
    }
}

impl IndexMut<Phase> for RunCost {
    fn index_mut(&mut self, p: Phase) -> &mut PhaseCost {
        debug_assert!(self.phases.contains(&p), "{p:?} is not a phase of this run");
        &mut self.rows[p as usize]
    }
}

impl RunCost {
    /// A zeroed record for a run with `phases` under `model`.
    pub fn new(model: DiskModel, phases: &'static [Phase]) -> Self {
        RunCost {
            model,
            phases,
            rows: [PhaseCost::default(); Phase::COUNT],
            io_shared: IoStats::default(),
            io_channels: vec![IoStats::default(); model.data_channels()],
            first: None,
        }
    }

    /// The run's phases with their rows, in report order.
    pub fn phases(&self) -> impl Iterator<Item = (Phase, &PhaseCost)> + '_ {
        self.phases.iter().map(|&p| (p, &self[p]))
    }

    /// Where a (CPU, I/O) reading sits on the simulated clock: scaled CPU
    /// plus disk time. Every pipelined position and span stamp is this sum.
    pub fn clock(model: &DiskModel, pos: &ClockPos) -> f64 {
        model.scaled_cpu(pos.0) + model.seconds(&pos.1)
    }

    /// Total I/O across all phases.
    pub fn io_total(&self) -> IoStats {
        self.phases()
            .fold(IoStats::default(), |acc, (_, row)| acc.plus(&row.io))
    }

    /// Total raw CPU seconds: the phase rows summed in phase order, the same
    /// fold [`MetricsReport::reconcile`] repeats over the exported rows.
    pub fn cpu_seconds(&self) -> f64 {
        self.phases().fold(0.0, |acc, (_, row)| acc + row.cpu)
    }

    /// CPU seconds stretched to the emulated 1999 machine.
    pub fn scaled_cpu_seconds(&self) -> f64 {
        self.model.scaled_cpu(self.cpu_seconds())
    }

    /// Serial-equivalent disk time: every unit on one spindle.
    pub fn io_seconds(&self) -> f64 {
        self.model.seconds(&self.io_total())
    }

    /// Simulated I/O wall time under the multi-channel clock: the shared
    /// lane serializes, data channels overlap. With one channel this is
    /// bit-identical to [`io_seconds`](Self::io_seconds).
    pub fn io_parallel_seconds(&self) -> f64 {
        self.model
            .parallel_io_seconds(&self.io_shared, &self.io_channels)
    }

    /// Disk time hidden behind computation by double-buffered prefetch —
    /// zero with one channel and under `cpu_slowdown = 0`.
    pub fn prefetch_hidden_seconds(&self) -> f64 {
        self.model
            .prefetch_hidden_seconds(self.scaled_cpu_seconds(), &self.io_channels)
    }

    /// The paper's "total runtime": emulated CPU plus channel-parallel disk
    /// time, minus the prefetch overlap. With one channel this reduces
    /// bit-exactly to `scaled_cpu_seconds() + io_seconds()`.
    pub fn total_seconds(&self) -> f64 {
        self.model.total_seconds(
            self.scaled_cpu_seconds(),
            &self.io_shared,
            &self.io_channels,
        )
    }

    /// Simulated seconds spent in one phase (e.g. Fig 6's repartitioning
    /// share), on the serial clock.
    pub fn phase_seconds(&self, p: Phase) -> f64 {
        Self::clock(&self.model, &(self[p].cpu, self[p].io))
    }

    /// Simulated position of the first emitted result (the pipelining
    /// metric of §3.1/§5).
    pub fn first_result_seconds(&self) -> Option<f64> {
        self.first.as_ref().map(|p| Self::clock(&self.model, p))
    }

    /// The I/O-only leg of the first-result position: pure simulated time,
    /// never past [`io_seconds`](Self::io_seconds).
    pub fn first_result_io_seconds(&self) -> Option<f64> {
        self.first.as_ref().map(|p| self.model.seconds(&p.1))
    }

    /// Folds a per-worker partial in: I/O rows sum (independent of worker
    /// interleaving); CPU rows take the **max over workers**, because
    /// workers run concurrently and a phase costs as much as its slowest
    /// worker. Run-level fields (`model`, the channel decomposition, which
    /// the coordinator derives from the disk's per-channel meters after all
    /// forks fold back, and the first-result probe) are kept from `self`.
    pub fn merge(&mut self, other: &RunCost) {
        for (row, o) in self.rows.iter_mut().zip(&other.rows) {
            row.io = row.io.plus(&o.io);
            row.cpu = row.cpu.max(o.cpu);
        }
    }

    /// Named per-phase I/O buckets, in report order. The buckets are
    /// disjoint, so they sum to [`io_total`](Self::io_total).
    pub fn io_phases(&self) -> Vec<(&'static str, IoStats)> {
        self.phases().map(|(p, row)| (p.name(), row.io)).collect()
    }

    /// The versioned metrics document of this run: the phase table, the
    /// channel decomposition and every derived time, plus the algorithm's
    /// own `counters`.
    pub fn report(&self, algo: &str, threads: usize, counters: RunCounters) -> MetricsReport {
        MetricsReport {
            schema_version: METRICS_SCHEMA_VERSION,
            algo: algo.to_string(),
            threads,
            model: self.model,
            phases: self
                .phases()
                .map(|(p, row)| PhaseMetric {
                    name: p.name(),
                    io: row.io,
                    cpu_seconds: row.cpu,
                })
                .collect(),
            counters,
            io_total: self.io_total(),
            channels: self.model.data_channels(),
            io_shared: self.io_shared,
            io_channels: self.io_channels.clone(),
            cpu_seconds: self.cpu_seconds(),
            scaled_cpu_seconds: self.scaled_cpu_seconds(),
            io_seconds: self.io_seconds(),
            io_parallel_seconds: self.io_parallel_seconds(),
            prefetch_hidden_seconds: self.prefetch_hidden_seconds(),
            total_seconds: self.total_seconds(),
            first_result_seconds: self.first_result_seconds(),
            first_result_io_seconds: self.first_result_io_seconds(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PHASES: &[Phase] = &[Phase::Partition, Phase::Join, Phase::Checkpoint];

    fn io(pages: u64) -> IoStats {
        IoStats {
            read_requests: 1,
            pages_read: pages,
            ..IoStats::default()
        }
    }

    #[test]
    fn merge_sums_io_and_takes_the_slowest_worker_cpu() {
        let model = DiskModel::default();
        let mut a = RunCost::new(model, PHASES);
        a[Phase::Join] = PhaseCost {
            cpu: 2.0,
            io: io(3),
        };
        a.first = Some((1.0, io(1)));
        let mut b = RunCost::new(model, PHASES);
        b[Phase::Join] = PhaseCost {
            cpu: 5.0,
            io: io(4),
        };
        b[Phase::Partition].cpu = 0.5;
        b.first = Some((0.0, IoStats::default()));
        a.merge(&b);
        assert_eq!(a[Phase::Join].cpu, 5.0);
        assert_eq!(a[Phase::Join].io, io(3).plus(&io(4)));
        assert_eq!(a[Phase::Partition].cpu, 0.5);
        assert_eq!(a.first, Some((1.0, io(1))), "run-level fields stay");
    }

    #[test]
    fn report_reconciles_and_lists_phases_in_order() {
        let model = DiskModel {
            cpu_slowdown: 3.0,
            ..DiskModel::default()
        };
        let mut c = RunCost::new(model, PHASES);
        c[Phase::Partition] = PhaseCost {
            cpu: 0.1,
            io: io(5),
        };
        c[Phase::Join] = PhaseCost {
            cpu: 0.7,
            io: io(2),
        };
        c[Phase::Checkpoint].io = io(1);
        c.io_shared = c.io_total();
        c.first = Some((0.2, io(5)));
        let rep = c.report("x", 1, RunCounters::default());
        let names: Vec<&str> = rep.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["partition", "join", "checkpoint"]);
        assert_eq!(rep.reconcile(), Ok(()));
        assert_eq!(c.total_seconds(), c.scaled_cpu_seconds() + c.io_seconds());
        assert_eq!(
            c.first_result_seconds(),
            Some(model.scaled_cpu(0.2) + model.seconds(&io(5)))
        );
    }
}
