//! The refinement step: exact-geometry verification of filter-step
//! candidates (multi-step query processing, [BKSS 94]).
//!
//! The paper deliberately confines itself to the *filter* step, but its
//! §3.1 argument for online duplicate elimination is exactly about what
//! happens downstream: with the Reference Point Method the join's candidate
//! stream is duplicate-free and can be piped straight into a refinement
//! operator — no sorting barrier, no duplicate exact-geometry tests. This
//! crate supplies that downstream stage:
//!
//! * [`Refiner`] — verdict on a candidate id pair,
//! * [`SegmentIntersect`] — exact segment/segment intersection (the
//!   geometry behind TIGER line MBRs),
//! * [`SegmentWithinDistance`] — ε-distance refinement for similarity
//!   joins (the paper's future-work direction, [KS 98]),
//! * [`Refinement`] — a counting adaptor that wraps any result callback and
//!   records hits / false positives of the filter step,
//! * [`RasterFilter`] — an optional raster-interval pre-filter (after
//!   Georgiadis & Mamoulis) that decides many candidates without an
//!   exact geometry test.

use geom::{RecordId, Segment};

mod raster;
pub use raster::{RasterFilter, DEFAULT_RASTER_LEVEL};

/// Verdict on one candidate pair of the filter step.
pub trait Refiner {
    /// `true` iff the exact geometries satisfy the join predicate.
    fn verify(&self, r: RecordId, s: RecordId) -> bool;

    /// `(rejects, accepts)` decided by an intermediate raster stage without
    /// an exact geometry test, if this refiner has one.
    fn raster_decided(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Exact segment intersection ("do the roads actually cross?").
pub struct SegmentIntersect<'a> {
    pub r: &'a [Segment],
    pub s: &'a [Segment],
}

impl Refiner for SegmentIntersect<'_> {
    fn verify(&self, r: RecordId, s: RecordId) -> bool {
        self.r[r.0 as usize].intersects(&self.s[s.0 as usize])
    }
}

/// Exact ε-distance predicate ("is the road within ε of the river?").
/// Pair this with a filter step over `eps/2`-expanded MBRs.
pub struct SegmentWithinDistance<'a> {
    pub r: &'a [Segment],
    pub s: &'a [Segment],
    pub eps: f64,
}

impl Refiner for SegmentWithinDistance<'_> {
    fn verify(&self, r: RecordId, s: RecordId) -> bool {
        self.r[r.0 as usize].distance_sq(&self.s[s.0 as usize]) <= self.eps * self.eps
    }
}

/// Counters of one refinement pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Candidates received from the filter step.
    pub candidates: u64,
    /// Candidates whose exact geometries satisfy the predicate.
    pub hits: u64,
    /// Candidates certainly rejected by the raster-interval stage (no
    /// exact geometry test ran). Zero when no [`RasterFilter`] is in play.
    pub raster_rejects: u64,
    /// Candidates certainly accepted by the raster-interval stage.
    pub raster_accepts: u64,
}

impl RefineStats {
    /// Filter-step false positives.
    pub fn false_positives(&self) -> u64 {
        self.candidates - self.hits
    }

    /// Fraction of candidates that were false positives — the quality
    /// measure of the MBR approximation.
    pub fn false_positive_rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.false_positives() as f64 / self.candidates as f64
        }
    }

    /// Candidates that needed an exact geometry test (not short-circuited
    /// by the raster stage).
    pub fn exact_tests(&self) -> u64 {
        self.candidates - self.raster_rejects - self.raster_accepts
    }
}

/// A streaming refinement stage: wraps a "hit" callback into a candidate
/// callback suitable for any filter-step join in this workspace.
pub struct Refinement<'a, R: Refiner> {
    refiner: R,
    stats: RefineStats,
    out: &'a mut dyn FnMut(RecordId, RecordId),
}

impl<'a, R: Refiner> Refinement<'a, R> {
    pub fn new(refiner: R, out: &'a mut dyn FnMut(RecordId, RecordId)) -> Self {
        Refinement {
            refiner,
            stats: RefineStats::default(),
            out,
        }
    }

    /// The candidate-side callback: feed this to the filter step.
    pub fn accept(&mut self, r: RecordId, s: RecordId) {
        self.stats.candidates += 1;
        if self.refiner.verify(r, s) {
            self.stats.hits += 1;
            (self.out)(r, s);
        }
    }

    pub fn stats(&self) -> RefineStats {
        let mut st = self.stats;
        if let Some((rejects, accepts)) = self.refiner.raster_decided() {
            st.raster_rejects = rejects;
            st.raster_accepts = accepts;
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::{Kpe, Point};
    use pbsm::{try_pbsm_join, PbsmConfig};
    use storage::{RunControl, SimDisk};

    fn brute_exact(r: &[Segment], s: &[Segment]) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        for (i, a) in r.iter().enumerate() {
            for (j, b) in s.iter().enumerate() {
                if a.intersects(b) {
                    v.push((i as u64, j as u64));
                }
            }
        }
        v.sort_unstable();
        v
    }

    fn gen(seed: u64, n: usize) -> datagen::LineDataset {
        datagen::LineNetwork {
            count: n,
            coverage: 0.15,
            segments_per_line: 12,
            seed,
        }
        .generate_dataset()
    }

    #[test]
    fn filter_plus_refine_equals_exact_join() {
        let dr = gen(1, 1500);
        let ds = gen(2, 1500);
        let want = brute_exact(&dr.segments, &ds.segments);

        let disk = SimDisk::with_default_model();
        let mut hits = Vec::new();
        let mut sink = |a: RecordId, b: RecordId| hits.push((a.0, b.0));
        let mut refinement = Refinement::new(
            SegmentIntersect {
                r: &dr.segments,
                s: &ds.segments,
            },
            &mut sink,
        );
        let cfg = PbsmConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        try_pbsm_join(
            &disk,
            &dr.kpes,
            &ds.kpes,
            &cfg,
            &RunControl::none(),
            &mut |a, b| refinement.accept(a, b),
        )
        .unwrap();
        let stats = refinement.stats();
        hits.sort_unstable();
        assert_eq!(hits, want);
        assert!(stats.candidates >= stats.hits);
        assert!(
            stats.false_positive_rate() > 0.0,
            "MBR filtering of line data always has false positives"
        );
    }

    #[test]
    fn distance_refiner_is_superset_of_intersection() {
        let dr = gen(3, 600);
        let ds = gen(4, 600);
        let exact = brute_exact(&dr.segments, &ds.segments);
        let eps = 0.002;
        let within = SegmentWithinDistance {
            r: &dr.segments,
            s: &ds.segments,
            eps,
        };
        // Every exactly-intersecting pair is within any ε ≥ 0.
        for &(i, j) in &exact {
            assert!(within.verify(RecordId(i), RecordId(j)));
        }
        // And some non-intersecting pairs are within ε.
        let mut extra = 0;
        for i in 0..dr.segments.len().min(200) {
            for j in 0..ds.segments.len().min(200) {
                let pair = (i as u64, j as u64);
                if within.verify(RecordId(pair.0), RecordId(pair.1))
                    && exact.binary_search(&pair).is_err()
                {
                    extra += 1;
                }
            }
        }
        assert!(extra > 0, "ε-join should find near misses");
    }

    #[test]
    fn expanded_mbr_filter_is_conservative_for_distance_join() {
        let dr = gen(5, 500);
        let ds = gen(6, 500);
        let eps = 0.003;
        // Filter: expanded MBRs intersect. Must not miss any ε-close pair.
        let expand = |k: &[Kpe]| -> Vec<Kpe> {
            k.iter()
                .map(|k| Kpe::new(k.id, k.rect.expanded(eps / 2.0)))
                .collect()
        };
        let re = expand(&dr.kpes);
        let se = expand(&ds.kpes);
        for (i, a) in dr.segments.iter().enumerate() {
            for (j, b) in ds.segments.iter().enumerate() {
                if a.distance_sq(b) <= eps * eps / 4.0 {
                    // Pairs within eps/2 certainly pass the filter.
                    assert!(
                        re[i].rect.intersects(&se[j].rect),
                        "filter missed a close pair"
                    );
                }
            }
        }
        let _ = Point::new(0.0, 0.0);
    }

    #[test]
    fn stats_accounting() {
        let mut n = 0;
        let mut sink = |_: RecordId, _: RecordId| n += 1;
        struct Odd;
        impl Refiner for Odd {
            fn verify(&self, r: RecordId, _: RecordId) -> bool {
                r.0 % 2 == 1
            }
        }
        let mut refinement = Refinement::new(Odd, &mut sink);
        for i in 0..10 {
            refinement.accept(RecordId(i), RecordId(0));
        }
        let st = refinement.stats();
        assert_eq!(st.candidates, 10);
        assert_eq!(st.hits, 5);
        assert_eq!(st.false_positives(), 5);
        assert!((st.false_positive_rate() - 0.5).abs() < 1e-12);
        let _ = refinement; // release the &mut sink borrow
        assert_eq!(n, 5);
    }
}
