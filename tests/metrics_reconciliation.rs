//! Satellite property tests (observability PR): per-phase metric
//! accounting sums *exactly* to the run totals — under fault injection, at
//! thread counts {1, 2, 4}, and across a crash/resume pair — and the
//! exported [`MetricsReport`]'s own reconciliation gate passes everywhere.
//! The `partition-done` trace stream is pinned the same way.
//!
//! "Exactly" means field-for-field [`IoStats`] equality (the struct is
//! `Eq`) and bit-exact f64 equality for the CPU fold: the total and the
//! exported rows come from one phase table summed in one order, so any
//! drift is a real accounting bug, not float noise.

use std::sync::Arc;

use datagen::Adversarial;
use geom::Kpe;
use spatialjoin::{
    Algorithm, CrashPoint, DiskModel, FaultPlan, InternalAlgo, JoinErrorKind, JoinStats, Recorder,
    RetryPolicy, SimDisk, SpatialJoin,
};
use storage::{FileId, IoStats, Recovered};

const MEM: usize = 8 * 1024;

fn workload(seed: u64, count: usize) -> (Vec<Kpe>, Vec<Kpe>) {
    Adversarial { count, seed }.generate_pair()
}

/// Field-for-field sum of every exported phase meter.
fn phase_sum(st: &JoinStats) -> IoStats {
    st.io_phases()
        .iter()
        .fold(IoStats::default(), |acc, (_, io)| acc.plus(io))
}

/// The full reconciliation contract for one completed run.
fn assert_reconciles(st: &JoinStats, threads: usize, ctx: &str) {
    assert_eq!(
        phase_sum(st),
        st.io_total(),
        "{ctx}: per-phase I/O does not sum exactly to io_total()"
    );
    if let Some(c) = st.candidates() {
        assert_eq!(
            c,
            st.results() + st.duplicates(),
            "{ctx}: candidate accounting leak"
        );
    }
    let report = st.metrics_report("reconciliation-test", threads);
    if let Err(e) = report.reconcile() {
        panic!("{ctx}: exported report fails its own gate: {e}");
    }
}

/// Every algorithm family × dedup mode × thread count × fault plan: the
/// per-phase meters (including PBSM's sort-phase dedup staging I/O) sum
/// exactly to the totals and the exported report reconciles.
#[test]
fn phase_meters_sum_exactly_under_faults_and_threads() {
    let (r, s) = workload(41, 160);
    let algos = [
        Algorithm::pbsm_rpm(MEM),
        Algorithm::pbsm_original(MEM), // sort-phase dedup: exercises dedup-phase staging
        Algorithm::s3j_replicated(MEM),
        Algorithm::sssj(MEM),
        Algorithm::shj(MEM),
    ];
    for base in algos {
        let threads: &[usize] = match base.threads() {
            Some(_) => &[1, 2, 4],
            None => &[1], // single-sweep baselines have no thread knob
        };
        // Only the partition-based joins have fallible code paths; a fault
        // plan on a baseline is a typed `Unsupported` configuration error.
        let plans: &[Option<FaultPlan>] = match base.threads() {
            Some(_) => &[None, Some(FaultPlan::recoverable(9))],
            None => &[None],
        };
        for &t in threads {
            for &plan in plans {
                let ctx = format!("{} threads={t} faults={}", base.name(), plan.is_some());
                let mut join = SpatialJoin::new(base.clone().with_threads(t));
                if let Some(p) = plan {
                    join = join.with_faults(p);
                }
                let (_, st) = join.count(&r, &s);
                if plan.is_some() {
                    assert!(
                        st.io_total().faults_injected > 0 || !matches!(base, Algorithm::Pbsm(_)),
                        "{ctx}: fault plan never fired on the PBSM workload"
                    );
                }
                assert_reconciles(&st, t, &ctx);
            }
        }
    }
}

/// Thread-count invariance of the deterministic meters: the phase sums at
/// threads 1, 2 and 4 are identical (the parallel executor redistributes
/// work, it must not re-account it), faults included.
#[test]
fn phase_sums_are_thread_invariant() {
    let (r, s) = workload(17, 160);
    for base in [Algorithm::pbsm_rpm(MEM), Algorithm::s3j_replicated(MEM)] {
        let sum_at = |t: usize| {
            let (_, st) = SpatialJoin::new(base.clone().with_threads(t))
                .with_faults(FaultPlan::recoverable(3))
                .count(&r, &s);
            (phase_sum(&st), st.results(), st.duplicates())
        };
        let one = sum_at(1);
        assert_eq!(one, sum_at(2), "{}: threads=2 diverges", base.name());
        assert_eq!(one, sum_at(4), "{}: threads=4 diverges", base.name());
    }
}

/// Crash/resume: each leg's report reconciles on its own, and the pair
/// together accounts for exactly the uninterrupted run — emitted pairs sum
/// with zero overlap and the resumed run's folded counters (results,
/// duplicates, candidates) equal the cold run's.
#[test]
fn metrics_reconcile_across_a_crash_resume_pair() {
    let (r, s) = workload(23, 140);
    for threads in [1usize, 4] {
        for base in [Algorithm::pbsm_rpm(4 * 1024), Algorithm::s3j_replicated(4 * 1024)] {
            let ctx = format!("{} threads={threads}", base.name());
            let join = SpatialJoin::new(base.clone().with_threads(threads));

            // Uninterrupted durable reference.
            let cold_disk = SimDisk::with_default_model();
            let mut want = Vec::new();
            let cold = join
                .try_run_durable_with(&cold_disk, &r, &s, 7, &mut |a, b| want.push((a.0, b.0)))
                .unwrap_or_else(|e| panic!("{ctx}: cold run failed: {e}"));
            want.sort_unstable();
            assert_reconciles(&cold, threads, &format!("{ctx} [cold]"));

            // Leg 1: crash after the second journal commit.
            let disk = SimDisk::with_default_model().with_faults(
                FaultPlan::crash_only(0, CrashPoint::AfterCommit(2)),
                RetryPolicy::default(),
            );
            let mut first = Vec::new();
            let err = join
                .try_run_durable_with(&disk, &r, &s, 7, &mut |a, b| first.push((a.0, b.0)))
                .expect_err("crash point must fire");
            assert!(
                matches!(err.kind, JoinErrorKind::Crashed(_)),
                "{ctx}: {err}"
            );
            first.sort_unstable();

            // Leg 2: resume; its exported report must reconcile even though
            // the disk meters carry the crashed leg's charges (run-relative
            // accounting).
            let mut second = Vec::new();
            let resumed = join
                .try_run_durable_with(&disk, &r, &s, 7, &mut |a, b| second.push((a.0, b.0)))
                .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
            second.sort_unstable();
            assert_reconciles(&resumed, threads, &format!("{ctx} [resume]"));

            // The pair sums to the uninterrupted run.
            let mut union: Vec<(u64, u64)> = first.iter().chain(second.iter()).copied().collect();
            union.sort_unstable();
            assert_eq!(union, want, "{ctx}: crash+resume pairs diverge");
            assert!(
                first.iter().all(|p| second.binary_search(p).is_err()),
                "{ctx}: a pair was emitted by both legs"
            );
            assert_eq!(
                (resumed.results(), resumed.duplicates(), resumed.candidates()),
                (cold.results(), cold.duplicates(), cold.candidates()),
                "{ctx}: resumed folded counters diverge from the cold run's"
            );
        }
    }
}

/// The exported JSON itself carries the reconciled numbers: schema version,
/// algorithm label, thread count, and a counters block whose results field
/// matches the stats accessor.
#[test]
fn exported_json_matches_the_stats_surface() {
    let (r, s) = workload(7, 120);
    let (_, st) = SpatialJoin::new(Algorithm::pbsm_rpm(MEM).with_threads(2)).count(&r, &s);
    let report = st.metrics_report("PBSM (reference point)", 2);
    report.reconcile().expect("report must reconcile");
    let json = report.to_json();
    assert!(json.contains("\"schema_version\": 2"));
    assert!(json.contains("\"algo\": \"PBSM (reference point)\""));
    assert!(json.contains("\"threads\": 2"));
    assert!(json.contains("\"channels\": 1"));
    assert!(json.contains("\"io_shared\""));
    assert!(json.contains("\"io_channels\""));
    assert!(json.contains("\"io_parallel_seconds\""));
    assert!(json.contains("\"prefetch_hidden_seconds\""));
    assert!(json.contains(&format!("\"results\": {}", st.results())));
    assert!(json.contains(&format!("\"duplicates\": {}", st.duplicates())));
}

/// The exported phase table of every variant, pinned: names and order of
/// `metrics_report().phases`, the same rows from `io_phases()`, and a report
/// that reconciles. At `cpu_slowdown` 0 every exported number is simulated
/// I/O, so nothing here depends on the host.
#[test]
fn exported_phase_table_is_pinned_for_every_variant() {
    const PBSM: &[&str] = &["partition", "repartition", "join", "dedup", "checkpoint"];
    const S3J: &[&str] = &["partition", "sort", "join", "checkpoint"];
    let (r, s) = workload(29, 160);
    let rpm = |internal| Algorithm::pbsm_rpm(MEM).with_internal(internal);
    let variants: [(Algorithm, &[&str]); 10] = [
        (rpm(InternalAlgo::NestedLoops), PBSM),
        (rpm(InternalAlgo::PlaneSweepList), PBSM),
        (rpm(InternalAlgo::PlaneSweepTrie), PBSM),
        (Algorithm::pbsm_original(MEM), PBSM),
        (Algorithm::two_layer(MEM), PBSM),
        (Algorithm::s3j_replicated(MEM), S3J),
        (Algorithm::s3j_original(MEM), S3J),
        (Algorithm::sssj(MEM), &["sort", "join"]),
        (Algorithm::shj(MEM), &["build", "probe", "join"]),
        (Algorithm::quadtree(1 << 20), &["build", "join"]),
    ];
    let model = DiskModel {
        cpu_slowdown: 0.0,
        ..DiskModel::default()
    };
    for (algo, want) in variants {
        let ctx = format!("{algo:?}");
        let (_, st) = SpatialJoin::new(algo).with_disk_model(model).count(&r, &s);
        let report = st.metrics_report("phase-table-test", 1);
        let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, want, "{ctx}: exported phase names or order changed");
        let rows: Vec<(&str, IoStats)> = report.phases.iter().map(|p| (p.name, p.io)).collect();
        assert_eq!(
            st.io_phases(),
            rows,
            "{ctx}: io_phases() disagrees with the report"
        );
        if let Err(e) = report.reconcile() {
            panic!("{ctx}: exported report fails its own gate: {e}");
        }
    }
}

/// One `partition-done` event reduced to what must not depend on the
/// executor: (partition, candidates, results, duplicates).
type Delivery = (u64, u64, u64, u64);

/// Runs `join` durably on `disk` with a fresh trace recorder and returns
/// the run's outcome plus its `partition-done` stream in recording order.
fn traced_durable(
    join: &SpatialJoin,
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
) -> (Result<JoinStats, spatialjoin::JoinError>, Vec<Delivery>) {
    let recorder = Arc::new(Recorder::new());
    let res = join
        .clone()
        .with_recorder(Arc::clone(&recorder))
        .try_run_durable_with(disk, r, s, 7, &mut |_, _| {});
    let attr = |e: &storage::TraceEvent, name: &str| {
        e.attrs
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("partition-done without `{name}`"))
    };
    let stream = recorder
        .events()
        .iter()
        .filter(|e| e.name == "partition-done")
        .map(|e| {
            (
                attr(e, "partition"),
                attr(e, "candidates"),
                attr(e, "results"),
                attr(e, "duplicates"),
            )
        })
        .collect();
    (res, stream)
}

/// The `partition-done` stream of durable runs is the exactly-once delivery
/// record: every executor reports the same partitions with the same counts
/// at threads 1 and 4, the counts sum to the run's totals, and a resumed run
/// reports only the partitions the journal had not committed.
#[test]
fn partition_done_stream_is_executor_invariant_and_skips_committed_partitions() {
    let (r, s) = workload(23, 140);
    let algos = [
        Algorithm::pbsm_rpm(4 * 1024),
        Algorithm::two_layer(4 * 1024),
        Algorithm::s3j_replicated(4 * 1024),
        // Budget above the input: the single-partition plan.
        Algorithm::pbsm_rpm(1 << 20),
    ];
    for base in algos {
        let mut fresh_at: Vec<Vec<Delivery>> = Vec::new();
        let mut resumed_at: Vec<Vec<Delivery>> = Vec::new();
        for threads in [1usize, 4] {
            let ctx = format!("{} mem={} threads={threads}", base.name(), base.mem_bytes());
            let join = SpatialJoin::new(base.clone().with_threads(threads));

            let (res, fresh) = traced_durable(&join, &SimDisk::with_default_model(), &r, &s);
            let st = res.unwrap_or_else(|e| panic!("{ctx}: fresh run failed: {e}"));
            let sum = fresh
                .iter()
                .fold((0, 0, 0), |(c, r, d), e| (c + e.1, r + e.2, d + e.3));
            assert_eq!(
                sum,
                (
                    st.candidates().expect("partition join"),
                    st.results(),
                    st.duplicates()
                ),
                "{ctx}: partition-done counts do not sum to the run's stats"
            );
            assert!(!fresh.is_empty(), "{ctx}: no partition-done events");

            // Crash right after the first journal commit, then resume.
            let disk = SimDisk::with_default_model().with_faults(
                FaultPlan::crash_only(0, CrashPoint::AfterCommit(1)),
                RetryPolicy::default(),
            );
            let (crashed, _) = traced_durable(&join, &disk, &r, &s);
            assert!(
                matches!(crashed.map_err(|e| e.kind), Err(JoinErrorKind::Crashed(_))),
                "{ctx}: crash point must fire"
            );
            let Ok(Recovered::Resumed(cp)) =
                storage::recover(&disk, FileId::from_raw(0), join.fingerprint(&r, &s))
            else {
                panic!("{ctx}: the crashed run left no manifest");
            };
            let committed: Vec<u64> = cp.committed().map(|e| u64::from(e.partition)).collect();
            assert!(!committed.is_empty(), "{ctx}: nothing was committed");
            let (res, resumed) = traced_durable(&join, &disk, &r, &s);
            res.unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
            assert!(
                resumed.iter().all(|e| !committed.contains(&e.0)),
                "{ctx}: the resumed run re-reported a committed partition: {resumed:?} (committed {committed:?})"
            );
            fresh_at.push(fresh);
            resumed_at.push(resumed);
        }
        let name = format!("{} mem={}", base.name(), base.mem_bytes());
        assert_eq!(
            fresh_at[0], fresh_at[1],
            "{name}: fresh stream differs at threads 4"
        );
        assert_eq!(
            resumed_at[0], resumed_at[1],
            "{name}: resumed stream differs at threads 4"
        );
    }
}
