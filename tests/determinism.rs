//! Reproducibility guarantees: every experiment binary's claim to be
//! regenerable rests on these.

use spatial_join_suite::{Algorithm, JoinStats, SpatialJoin};

#[test]
fn same_seed_same_dataset() {
    let a = datagen::sized(&datagen::la_rr_config(99), 0.01).generate();
    let b = datagen::sized(&datagen::la_rr_config(99), 0.01).generate();
    assert_eq!(a, b);
    let c = datagen::sized(&datagen::la_rr_config(100), 0.01).generate();
    assert_ne!(a, c);
}

/// Deterministic work counters: reruns agree not just on results but on
/// every I/O and comparison count (wall-clock CPU timings are the only
/// nondeterministic stats).
#[test]
fn reruns_have_identical_counters() {
    let r = datagen::sized(&datagen::la_rr_config(7), 0.008).generate();
    let s = datagen::sized(&datagen::la_st_config(7), 0.008).generate();
    for algo in [
        Algorithm::pbsm_rpm(24 * 1024),
        Algorithm::pbsm_original(24 * 1024),
        Algorithm::s3j_replicated(24 * 1024),
        Algorithm::sssj(24 * 1024),
        Algorithm::shj(24 * 1024),
    ] {
        let name = algo.name();
        let join = SpatialJoin::new(algo);
        let (n1, st1) = join.try_count(&r, &s).unwrap();
        let (n2, st2) = join.try_count(&r, &s).unwrap();
        assert_eq!(n1, n2, "{name} result count varies");
        assert_eq!(st1.io_total(), st2.io_total(), "{name} I/O varies");
        match (&st1, &st2) {
            (JoinStats::Pbsm(a), JoinStats::Pbsm(b)) => {
                assert_eq!(a.join_counters, b.join_counters);
                assert_eq!(a.candidates, b.candidates);
                assert_eq!(a.duplicates, b.duplicates);
                assert_eq!((a.copies_r, a.copies_s), (b.copies_r, b.copies_s));
            }
            (JoinStats::S3j(a), JoinStats::S3j(b)) => {
                assert_eq!(a.join_counters, b.join_counters);
                assert_eq!(a.histogram_r, b.histogram_r);
                assert_eq!(a.sort_runs, b.sort_runs);
            }
            (JoinStats::Sssj(a), JoinStats::Sssj(b)) => {
                assert_eq!(a.join_counters, b.join_counters);
                assert_eq!(a.peak_status, b.peak_status);
            }
            (JoinStats::Shj(a), JoinStats::Shj(b)) => {
                assert_eq!(a.join_counters, b.join_counters);
                assert_eq!(a.probe_copies, b.probe_copies);
            }
            _ => unreachable!("mismatched stats variants"),
        }
    }
}

/// Result *pairs* (not just counts) are identical across reruns and
/// independent of the output ordering assumption.
#[test]
fn rerun_pairs_identical() {
    let r = datagen::sized(&datagen::la_rr_config(8), 0.006).generate();
    let s = datagen::sized(&datagen::la_st_config(8), 0.006).generate();
    let join = SpatialJoin::new(Algorithm::pbsm_rpm(16 * 1024));
    let a = join.try_run(&r, &s).unwrap().pairs;
    let b = join.try_run(&r, &s).unwrap().pairs;
    assert_eq!(a, b, "even the emission order is deterministic");
}

/// The simulated clock is deterministic: identical runs report identical
/// io_seconds (cpu_seconds may differ — that is measured wall time).
#[test]
fn io_seconds_deterministic() {
    let r = datagen::sized(&datagen::la_rr_config(9), 0.006).generate();
    let s = datagen::sized(&datagen::la_st_config(9), 0.006).generate();
    let join = SpatialJoin::new(Algorithm::s3j_replicated(16 * 1024));
    let (_, st1) = join.try_count(&r, &s).unwrap();
    let (_, st2) = join.try_count(&r, &s).unwrap();
    assert_eq!(st1.io_seconds().to_bits(), st2.io_seconds().to_bits());
}
