//! The multi-channel I/O model's contract: the channel count of the
//! simulated disk is *pure time model*. File layout, request streams,
//! result sets and every deterministic counter are bit-identical for any
//! `channels × threads` configuration — only the simulated clock moves,
//! and only downward.
//!
//! Two relations are checked:
//!
//! * **invariance** — all nine algorithm variants, channels ∈ {1, 2, 4} ×
//!   threads ∈ {1, 4}: pairs, results, duplicates, candidates and the full
//!   I/O counter struct equal the channels=1/threads=1 baseline;
//! * **monotonicity** — `total_seconds` at four channels is never above the
//!   one-channel value (the busiest channel is at most the sum of all), and
//!   for the partitioned joins (PBSM, S³J), whose partition/level files
//!   spread across channels, the improvement is *strict*.
//!
//! `cpu_slowdown = 0` pins the clock to pure simulated disk time, so the
//! comparisons are exact and free of host-timing noise.

use conformance::{run_algo, AlgoId, RunConfig};
use spatialjoin::{Algorithm, DiskModel, JoinStats, SpatialJoin};

fn workload() -> (Vec<geom::Kpe>, Vec<geom::Kpe>) {
    datagen::Adversarial {
        count: 120,
        seed: 61,
    }
    .generate_pair()
}

fn cfg(threads: usize, channels: usize) -> RunConfig {
    RunConfig {
        mem: 4 * 1024, // tiny: every external algorithm spills to disk
        threads,
        channels: Some(channels),
        cpu_slowdown: Some(0.0),
        ..Default::default()
    }
}

/// Counters that must be bit-identical across every configuration.
fn fingerprint(stats: &JoinStats) -> (u64, u64, Option<u64>, storage::IoStats) {
    (
        stats.results(),
        stats.duplicates(),
        stats.candidates(),
        stats.io_total(),
    )
}

#[test]
fn all_variants_bit_equal_across_channels_and_threads() {
    let (r, s) = workload();
    for algo in AlgoId::ALL {
        let base = run_algo(algo, &cfg(1, 1), &r, &s)
            .unwrap_or_else(|e| panic!("{algo} baseline failed: {e}"));
        assert!(!base.pairs.is_empty(), "{algo}: degenerate workload");
        for channels in [1usize, 2, 4] {
            for threads in [1usize, 4] {
                let out = run_algo(algo, &cfg(threads, channels), &r, &s).unwrap_or_else(|e| {
                    panic!("{algo} (c={channels}, t={threads}) failed: {e}")
                });
                assert_eq!(
                    out.pairs, base.pairs,
                    "{algo}: result set moved at c={channels}, t={threads}"
                );
                if let (Some(a), Some(b)) = (&base.stats, &out.stats) {
                    assert_eq!(
                        fingerprint(a),
                        fingerprint(b),
                        "{algo}: counters moved at c={channels}, t={threads}"
                    );
                }
            }
        }
    }
}

/// Every external variant: four channels never cost more simulated time
/// than one, at either thread count.
#[test]
fn four_channels_never_slower_than_one() {
    let (r, s) = workload();
    for algo in AlgoId::ALL {
        if algo == AlgoId::Quadtree {
            continue; // in-memory: no disk, no stats
        }
        for threads in [1usize, 4] {
            let t = |channels| {
                run_algo(algo, &cfg(threads, channels), &r, &s)
                    .unwrap_or_else(|e| panic!("{algo} failed: {e}"))
                    .stats
                    .expect("external algorithms report stats")
                    .total_seconds()
            };
            let (t1, t4) = (t(1), t(4));
            assert!(
                t4 <= t1,
                "{algo} (t={threads}): 4 channels slower than 1: {t4} vs {t1}"
            );
        }
    }
}

/// The tentpole claim on a J5-shaped workload (self-join, external
/// partitioning): the partitioned joins get *strictly* faster with four
/// channels because their partition/level files overlap across channels,
/// and the four-channel clock no longer depends on the thread count alone.
#[test]
fn partitioned_joins_strictly_faster_with_four_channels() {
    let road = datagen::LineNetwork {
        count: 1800,
        coverage: 0.15,
        segments_per_line: 12,
        seed: 91,
    }
    .generate();
    for algo in [
        Algorithm::pbsm_rpm(32 * 1024),
        Algorithm::s3j_replicated(32 * 1024),
    ] {
        let run = |threads: usize, channels: usize| {
            let (n, stats) = SpatialJoin::new(algo.clone().with_threads(threads))
                .with_disk_model(DiskModel {
                    channels,
                    cpu_slowdown: 0.0,
                    ..Default::default()
                })
                .try_count(&road, &road)
                .unwrap();
            (n, stats)
        };
        let (n11, st11) = run(1, 1);
        let (n14, st14) = run(1, 4);
        let (n44, st44) = run(4, 4);
        assert_eq!(n11, n14);
        assert_eq!(n11, n44);
        assert!(
            st11.io_total().pages_written > 0,
            "{}: workload must actually spill",
            algo.name()
        );
        // One channel reproduces the old serial clock bit-for-bit.
        assert_eq!(
            st11.total_seconds(),
            st11.scaled_cpu_seconds() + st11.io_seconds(),
            "{}: one channel must equal the serial clock",
            algo.name()
        );
        // Four channels buy strict simulated time, independent of threads.
        assert!(
            st14.total_seconds() < st11.total_seconds(),
            "{}: 4 channels not strictly faster: {} vs {}",
            algo.name(),
            st14.total_seconds(),
            st11.total_seconds()
        );
        assert_eq!(
            st14.total_seconds(),
            st44.total_seconds(),
            "{}: the time model must not depend on the thread count",
            algo.name()
        );
        // The per-channel decomposition is exact at every configuration.
        for st in [&st11, &st14, &st44] {
            let mut sum = st.io_shared();
            for c in st.io_channels() {
                sum = sum.plus(c);
            }
            assert_eq!(sum, st.io_total(), "{}: channel buckets must sum", algo.name());
        }
    }
}
