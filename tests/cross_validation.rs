//! End-to-end cross-validation: every join algorithm in the library — five
//! external algorithms through the public API, the MX-CIF quadtree join, and
//! all three internal algorithms — must produce the identical result set as
//! a brute-force reference, across qualitatively different dataset shapes.

use spatial_join_suite::{Algorithm, InternalAlgo, Kpe, SpatialJoin};

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

fn sorted_pairs(run: spatial_join_suite::JoinRun) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
    v.sort_unstable();
    v
}

fn algorithms(mem: usize) -> Vec<Algorithm> {
    let mut out = vec![
        Algorithm::pbsm_rpm(mem),
        Algorithm::pbsm_original(mem),
        Algorithm::s3j_replicated(mem),
        Algorithm::s3j_original(mem),
        Algorithm::sssj(mem),
        Algorithm::shj(mem),
    ];
    // PBSM-RPM with each internal algorithm.
    for internal in InternalAlgo::ALL {
        if let Algorithm::Pbsm(mut cfg) = Algorithm::pbsm_rpm(mem) {
            cfg.internal = internal;
            out.push(Algorithm::Pbsm(cfg));
        }
    }
    // Literal §4.3 level assignment (no shift) and the naive level-pair scan.
    if let Algorithm::S3j(mut cfg) = Algorithm::s3j_replicated(mem) {
        cfg.level_shift = 0;
        out.push(Algorithm::S3j(cfg));
    }
    if let Algorithm::S3j(mut cfg) = Algorithm::s3j_replicated(mem) {
        cfg.scan = s3j::ScanMode::LevelPairs;
        out.push(Algorithm::S3j(cfg));
    }
    out
}

fn check_all(r: &[Kpe], s: &[Kpe], mem: usize, label: &str) {
    let want = brute(r, s);
    for algo in algorithms(mem) {
        let name = algo.name();
        let got = sorted_pairs(SpatialJoin::new(algo).try_run(r, s).unwrap());
        assert_eq!(got, want, "{label}: {name} diverges from brute force");
    }
    // The in-memory MX-CIF quadtree join (paper §4.1).
    let tr = quadtree::MxCifQuadtree::bulk(r, 12);
    let ts = quadtree::MxCifQuadtree::bulk(s, 12);
    let mut got = Vec::new();
    tr.join(&ts, &mut |a, b| got.push((a.id.0, b.id.0)));
    got.sort_unstable();
    assert_eq!(got, want, "{label}: quadtree join diverges");
}

#[test]
fn tiger_like_line_data() {
    let r = datagen::sized(&datagen::la_rr_config(11), 0.015).generate();
    let s = datagen::sized(&datagen::la_st_config(11), 0.015).generate();
    check_all(&r, &s, 48 * 1024, "tiger");
}

#[test]
fn scaled_up_rectangles_heavy_replication() {
    let r0 = datagen::sized(&datagen::la_rr_config(12), 0.01).generate();
    let s0 = datagen::sized(&datagen::la_st_config(12), 0.01).generate();
    let r = datagen::scale(&r0, 6.0);
    let s = datagen::scale(&s0, 6.0);
    check_all(&r, &s, 48 * 1024, "scaled(6)");
}

#[test]
fn clustered_skewed_data() {
    let r = datagen::clustered(2500, 3, 0.02, 21);
    let s = datagen::clustered(2500, 2, 0.02, 22);
    check_all(&r, &s, 32 * 1024, "clustered");
}

#[test]
fn uniform_squares() {
    let r = datagen::uniform(2500, 0.02, 31);
    let s = datagen::uniform(2500, 0.02, 32);
    check_all(&r, &s, 32 * 1024, "uniform");
}

#[test]
fn self_join() {
    let r = datagen::sized(&datagen::cal_st_config(41), 0.002).generate();
    check_all(&r, &r, 48 * 1024, "self-join");
}

#[test]
fn degenerate_axis_parallel_segments() {
    // Pure horizontal/vertical zero-area MBRs crossing each other.
    use spatial_join_suite::{Rect, RecordId};
    let mut r = Vec::new();
    let mut s = Vec::new();
    for i in 0..60u64 {
        let t = 0.05 + (i as f64) * 0.015;
        r.push(Kpe::new(RecordId(i), Rect::new(0.0, t, 1.0, t))); // horizontal
        s.push(Kpe::new(RecordId(i), Rect::new(t, 0.0, t, 1.0))); // vertical
    }
    check_all(&r, &s, 16 * 1024, "degenerate");
}

#[test]
fn tiny_memory_forces_everything() {
    // 8 KiB of memory against ~50 KiB of data: partitions, repartitioning,
    // multi-run sorts — every out-of-core path at once.
    let r = datagen::sized(&datagen::la_rr_config(51), 0.005).generate();
    let s = datagen::sized(&datagen::la_st_config(51), 0.005).generate();
    check_all(&r, &s, 8 * 1024, "tiny-memory");
}

#[test]
fn manhattan_street_grid() {
    let r = datagen::manhattan(2000, 24, 61);
    let s = datagen::manhattan(2000, 24, 62);
    check_all(&r, &s, 32 * 1024, "manhattan");
}

#[test]
fn diagonal_skewed_data() {
    let r = datagen::diagonal(2000, 0.003, 0.002, 71);
    let s = datagen::diagonal(2000, 0.003, 0.002, 72);
    check_all(&r, &s, 24 * 1024, "diagonal");
}

#[test]
fn disjoint_datasets_produce_nothing() {
    use spatial_join_suite::{Rect, RecordId};
    let r: Vec<Kpe> = (0..500)
        .map(|i| {
            let t = (i as f64) / 1200.0;
            Kpe::new(RecordId(i), Rect::new(t, t, t + 0.0003, t + 0.0003))
        })
        .collect();
    let s: Vec<Kpe> = (0..500)
        .map(|i| {
            let t = (i as f64) / 1200.0;
            Kpe::new(RecordId(i), Rect::new(t + 0.55, t, t + 0.5503, t + 0.0003))
        })
        .collect();
    let want = brute(&r, &s);
    assert!(want.is_empty());
    check_all(&r, &s, 16 * 1024, "disjoint");
}
