//! Property-based invariants of the duplicate-handling machinery, checked
//! through the public API on randomly generated workloads.

use proptest::prelude::*;
use spatial_join_suite::{Algorithm, Kpe, Point, Rect, RecordId, SpatialJoin};

fn arb_kpes(max_n: usize) -> impl Strategy<Value = Vec<Kpe>> {
    prop::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.2, 0.0f64..0.2, 0u8..8),
        1..max_n,
    )
    .prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (x, y, w, h, kind))| {
                // A continuous `0.0..0.2` extent hits exactly zero with
                // probability zero (and the old `(x + w).min(1.0)` clamp
                // squashed geometry instead of anchoring it), so degenerate
                // MBRs — legal per the paper's closed-rectangle semantics —
                // were never actually exercised. Kinds 0–2 force them.
                let (w, h) = match kind {
                    0 => (0.0, h),   // zero-width vertical segment
                    1 => (w, 0.0),   // zero-height horizontal segment
                    2 => (0.0, 0.0), // point rectangle
                    _ => (w, h),
                };
                // Anchor the corner so the full extent always fits in the
                // unit square instead of being clamped away at the border.
                let x = x * (1.0 - w);
                let y = y * (1.0 - h);
                Kpe::new(RecordId(i as u64), Rect::new(x, y, x + w, y + h))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RPM accounting: candidates = results + suppressed duplicates, and the
    /// result set is duplicate-free and equals the sort-phase result set.
    #[test]
    fn pbsm_rpm_accounting(r in arb_kpes(120), s in arb_kpes(120)) {
        let mem = 8 * 1024; // tiny: forces several partitions
        let rpm = SpatialJoin::new(Algorithm::pbsm_rpm(mem)).try_run(&r, &s).unwrap();
        if let spatial_join_suite::JoinStats::Pbsm(st) = &rpm.stats {
            prop_assert_eq!(st.candidates, st.results + st.duplicates);
        } else {
            unreachable!();
        }
        let mut pairs = rpm.pairs.clone();
        pairs.sort_unstable_by_key(|(a, b)| (a.0, b.0));
        let before = pairs.len();
        pairs.dedup();
        prop_assert_eq!(before, pairs.len(), "RPM emitted a duplicate");

        let sorted = SpatialJoin::new(Algorithm::pbsm_original(mem)).try_run(&r, &s).unwrap();
        prop_assert_eq!(rpm.stats.results(), sorted.stats.results());
    }

    /// S³J replication invariants: ≤4 copies per rectangle, duplicates
    /// fully suppressed, and agreement with the unreplicated original.
    #[test]
    fn s3j_replication_invariants(r in arb_kpes(120), s in arb_kpes(120)) {
        let mem = 8 * 1024;
        let repl = SpatialJoin::new(Algorithm::s3j_replicated(mem)).try_run(&r, &s).unwrap();
        if let spatial_join_suite::JoinStats::S3j(st) = &repl.stats {
            prop_assert!(st.copies_r <= 4 * r.len() as u64);
            prop_assert!(st.copies_s <= 4 * s.len() as u64);
            prop_assert_eq!(st.candidates, st.results + st.duplicates);
        } else {
            unreachable!();
        }
        let orig = SpatialJoin::new(Algorithm::s3j_original(mem)).try_run(&r, &s).unwrap();
        prop_assert_eq!(repl.stats.results(), orig.stats.results());
        prop_assert_eq!(orig.stats.duplicates(), 0);
    }

    /// The reference point of every reported pair lies inside both MBRs.
    #[test]
    fn reference_point_inside_both(r in arb_kpes(60), s in arb_kpes(60)) {
        let run = SpatialJoin::new(Algorithm::pbsm_rpm(8 * 1024)).try_run(&r, &s).unwrap();
        for (rid, sid) in run.pairs {
            let a = r[rid.0 as usize];
            let b = s[sid.0 as usize];
            prop_assert!(a.rect.intersects(&b.rect));
            let x: Point = spatial_join_suite::reference_point(&a.rect, &b.rect);
            prop_assert!(a.rect.contains_point(x) && b.rect.contains_point(x));
        }
    }

    /// Result symmetry: joining (r, s) and (s, r) gives mirrored pairs, for
    /// both replicating algorithms.
    #[test]
    fn join_is_symmetric(r in arb_kpes(80), s in arb_kpes(80)) {
        for algo in [Algorithm::pbsm_rpm(8 * 1024), Algorithm::s3j_replicated(8 * 1024)] {
            let name = algo.name();
            let ab = SpatialJoin::new(algo.clone()).try_run(&r, &s).unwrap();
            let ba = SpatialJoin::new(algo).try_run(&s, &r).unwrap();
            let mut x: Vec<(u64, u64)> = ab.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
            let mut y: Vec<(u64, u64)> = ba.pairs.iter().map(|(a, b)| (b.0, a.0)).collect();
            x.sort_unstable();
            y.sort_unstable();
            prop_assert_eq!(x, y, "{} not symmetric", name);
        }
    }

    /// Monotonicity under scaling: growing every rectangle can only add
    /// result pairs, never remove them.
    #[test]
    fn scaling_grows_result_set(r in arb_kpes(60), s in arb_kpes(60)) {
        let join = SpatialJoin::new(Algorithm::pbsm_rpm(8 * 1024));
        let base = join.try_run(&r, &s).unwrap();
        let bigger = join.try_run(&datagen::scale(&r, 1.5), &datagen::scale(&s, 1.5)).unwrap();
        let small: std::collections::HashSet<(u64, u64)> =
            base.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
        let big: std::collections::HashSet<(u64, u64)> =
            bigger.pairs.iter().map(|(a, b)| (b_ids(*a), b_ids(*b))).collect();
        for p in &small {
            prop_assert!(big.contains(p), "pair {:?} lost after scaling", p);
        }
    }
}

fn b_ids(id: RecordId) -> u64 {
    id.0
}

#[test]
fn memory_budget_does_not_change_results() {
    let r = datagen::sized(&datagen::la_rr_config(61), 0.008).generate();
    let s = datagen::sized(&datagen::la_st_config(61), 0.008).generate();
    let reference = SpatialJoin::new(Algorithm::pbsm_rpm(1 << 22))
        .try_run(&r, &s)
        .unwrap();
    for mem in [4 * 1024, 16 * 1024, 64 * 1024, 1 << 20] {
        for algo in [
            Algorithm::pbsm_rpm(mem),
            Algorithm::s3j_replicated(mem),
            Algorithm::sssj(mem),
        ] {
            let name = algo.name();
            let (n, _) = SpatialJoin::new(algo).try_count(&r, &s).unwrap();
            assert_eq!(
                n,
                reference.stats.results(),
                "{name} at M={mem} changed the result count"
            );
        }
    }
}

/// A zero memory budget never takes the process down. PBSM sizes its grid
/// with formula (1), `P = ⌈t·(|R|+|S|)/M⌉`, and SHJ its buckets the same
/// way, so at `M = 0` both refuse up front with a typed `setup` error
/// instead of asking for `u32::MAX` partitions. Every other family either
/// still joins correctly or refuses with a typed error — through
/// `SpatialJoin` and, for PBSM, through the streaming operator too.
#[test]
fn zero_memory_budget_ends_in_a_result_or_a_typed_error() {
    use spatial_join_suite::{IoErrorKind, JoinError, SimDisk};

    let r: Vec<Kpe> = (0..150)
        .map(|i| {
            let x = (i % 15) as f64 / 15.0;
            let y = (i / 15) as f64 / 10.0;
            Kpe::new(RecordId(i), Rect::new(x, y, x + 0.08, y + 0.12))
        })
        .collect();
    let s: Vec<Kpe> = r
        .iter()
        .map(|k| {
            Kpe::new(
                k.id,
                Rect::new(k.rect.xl + 0.03, k.rect.yl, k.rect.xh, k.rect.yh + 0.05),
            )
        })
        .collect();
    let mut want: Vec<(u64, u64)> = Vec::new();
    for a in &r {
        for b in &s {
            if a.rect.intersects(&b.rect) {
                want.push((a.id.0, b.id.0));
            }
        }
    }
    want.sort_unstable();
    let is_refusal = |e: &JoinError| {
        e.phase == "setup" && e.io().map(|io| io.kind) == Some(IoErrorKind::Unsupported)
    };

    for algo in [
        Algorithm::pbsm_rpm(0),
        Algorithm::pbsm_original(0),
        Algorithm::two_layer(0),
        Algorithm::quadtree(0),
        Algorithm::s3j_replicated(0),
        Algorithm::s3j_original(0),
        Algorithm::sssj(0),
        Algorithm::shj(0),
    ] {
        let name = algo.name();
        let must_refuse = matches!(algo, Algorithm::Pbsm(_) | Algorithm::Shj(_));
        match SpatialJoin::new(algo).try_run(&r, &s) {
            Ok(run) => {
                assert!(!must_refuse, "{name} ran at a zero budget");
                let mut got: Vec<(u64, u64)> = run.pairs.iter().map(|(a, b)| (a.0, b.0)).collect();
                got.sort_unstable();
                assert_eq!(got, want, "{name}");
            }
            Err(e) => assert!(!must_refuse || is_refusal(&e), "{name}: {e}"),
        }
    }

    use exec::{Collected, JoinAlgorithm, JoinOpError, KpeScan, SpatialJoinOp};
    let Algorithm::Pbsm(cfg) = Algorithm::pbsm_rpm(0) else {
        unreachable!("pbsm_rpm builds a PBSM configuration")
    };
    let mut op = SpatialJoinOp::new(
        KpeScan::new(r.clone()),
        KpeScan::new(s.clone()),
        JoinAlgorithm::Pbsm(cfg),
        SimDisk::with_default_model(),
    );
    let items = Collected::drain(&mut op).items;
    match items.as_slice() {
        [Err(JoinOpError::Join(e))] => assert!(is_refusal(e), "operator: {e}"),
        other => panic!("operator at a zero budget delivered {} items", other.len()),
    }
}
