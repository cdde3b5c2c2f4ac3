//! End-to-end microbenchmarks of the external join algorithms (wall-clock
//! cost of the real computation; the simulated-disk counters are exercised
//! but their *time* is not waited out), plus ablations of the design knobs
//! called out in DESIGN.md: tile→partition scheme, safety factor t, and the
//! S³J level shift.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbsm::{try_pbsm_join, Dedup, PbsmConfig, TileScheme};
use s3j::{try_s3j_join, S3jConfig};
use sssj::{try_sssj_join, SssjConfig};
use storage::{RunControl, SimDisk};
use sweep::InternalAlgo;

fn datasets() -> (Vec<geom::Kpe>, Vec<geom::Kpe>) {
    (
        datagen::sized(&datagen::la_rr_config(8), 0.02).generate(),
        datagen::sized(&datagen::la_st_config(8), 0.02).generate(),
    )
}

fn bench_algorithms(c: &mut Criterion) {
    let (r, s) = datasets();
    let mem = 64 * 1024;
    let mut group = c.benchmark_group("external_join");
    group.sample_size(10);
    group.bench_function("pbsm_rpm", |b| {
        b.iter(|| {
            let disk = SimDisk::with_default_model();
            let cfg = PbsmConfig {
                mem_bytes: mem,
                ..Default::default()
            };
            try_pbsm_join(&disk, &r, &s, &cfg, &RunControl::none(), &mut |_, _| {})
                .unwrap()
                .results
        })
    });
    group.bench_function("pbsm_sort_phase", |b| {
        b.iter(|| {
            let disk = SimDisk::with_default_model();
            let cfg = PbsmConfig {
                mem_bytes: mem,
                dedup: Dedup::SortPhase,
                ..Default::default()
            };
            try_pbsm_join(&disk, &r, &s, &cfg, &RunControl::none(), &mut |_, _| {})
                .unwrap()
                .results
        })
    });
    group.bench_function("s3j_replicated", |b| {
        b.iter(|| {
            let disk = SimDisk::with_default_model();
            let cfg = S3jConfig {
                mem_bytes: mem,
                ..Default::default()
            };
            try_s3j_join(&disk, &r, &s, &cfg, &RunControl::none(), &mut |_, _| {})
                .unwrap()
                .results
        })
    });
    group.bench_function("s3j_original", |b| {
        b.iter(|| {
            let disk = SimDisk::with_default_model();
            let cfg = S3jConfig {
                mem_bytes: mem,
                replicate: false,
                ..Default::default()
            };
            try_s3j_join(&disk, &r, &s, &cfg, &RunControl::none(), &mut |_, _| {})
                .unwrap()
                .results
        })
    });
    group.bench_function("sssj", |b| {
        b.iter(|| {
            let disk = SimDisk::with_default_model();
            let cfg = SssjConfig {
                mem_bytes: mem,
                ..Default::default()
            };
            try_sssj_join(&disk, &r, &s, &cfg, &mut |_, _| {})
                .unwrap()
                .results
        })
    });
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let (r, s) = datasets();
    let mem = 64 * 1024;
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    // Tile→partition assignment (hash decorrelates skew; round-robin keeps it).
    for scheme in [TileScheme::Hash, TileScheme::RoundRobin] {
        group.bench_with_input(
            BenchmarkId::new("tile_scheme", format!("{scheme:?}")),
            &scheme,
            |b, &scheme| {
                b.iter(|| {
                    let disk = SimDisk::with_default_model();
                    let cfg = PbsmConfig {
                        mem_bytes: mem,
                        tile_scheme: scheme,
                        ..Default::default()
                    };
                    try_pbsm_join(&disk, &r, &s, &cfg, &RunControl::none(), &mut |_, _| {})
                        .unwrap()
                        .results
                })
            },
        );
    }
    // Safety factor t of formula (1) (§3.2.3).
    for t in [1.0f64, 1.2, 2.0] {
        group.bench_with_input(
            BenchmarkId::new("safety_factor", t.to_string()),
            &t,
            |b, &t| {
                b.iter(|| {
                    let disk = SimDisk::with_default_model();
                    let cfg = PbsmConfig {
                        mem_bytes: mem,
                        safety_factor: t,
                        ..Default::default()
                    };
                    try_pbsm_join(&disk, &r, &s, &cfg, &RunControl::none(), &mut |_, _| {})
                        .unwrap()
                        .results
                })
            },
        );
    }
    // S³J size-separation level shift (replication rate vs test count).
    for shift in [0u8, 1, 2] {
        group.bench_with_input(
            BenchmarkId::new("s3j_level_shift", shift.to_string()),
            &shift,
            |b, &shift| {
                b.iter(|| {
                    let disk = SimDisk::with_default_model();
                    let cfg = S3jConfig {
                        mem_bytes: mem,
                        level_shift: shift,
                        ..Default::default()
                    };
                    try_s3j_join(&disk, &r, &s, &cfg, &RunControl::none(), &mut |_, _| {})
                        .unwrap()
                        .results
                })
            },
        );
    }
    // PBSM internal algorithm on realistic partitions.
    for internal in InternalAlgo::ALL {
        group.bench_with_input(
            BenchmarkId::new("pbsm_internal", internal.to_string()),
            &internal,
            |b, &internal| {
                b.iter(|| {
                    let disk = SimDisk::with_default_model();
                    let cfg = PbsmConfig {
                        mem_bytes: mem,
                        internal,
                        ..Default::default()
                    };
                    try_pbsm_join(&disk, &r, &s, &cfg, &RunControl::none(), &mut |_, _| {})
                        .unwrap()
                        .results
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_ablations);
criterion_main!(benches);
