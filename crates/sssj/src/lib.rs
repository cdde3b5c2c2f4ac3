//! Scalable Sweeping-Based Spatial Join (SSSJ) — comparison baseline.
//!
//! SSSJ ([APR+ 98]) is the third index-free competitor the paper discusses
//! (§1): externally sort both relations by their left edge, then run a
//! single plane sweep over the merged streams, keeping the sweep-line status
//! in memory. It is worst-case optimal and produces no duplicates (nothing
//! is replicated) — but it is *blocking*: not a single result can be
//! produced before both inputs are completely sorted, which is exactly the
//! [Gra 93] pipelining objection the paper raises against it.
//!
//! This implementation keeps the status structures in memory (lists with
//! lazy deletion), which on the paper's real datasets is the common case;
//! the original's distribution-sweeping fallback for an oversized status is
//! out of scope (documented in DESIGN.md). When both inputs fit in the
//! memory budget the sort happens entirely in memory and no I/O is charged,
//! matching the paper's cost model where input scans are free.

use std::time::Instant;

use geom::{Kpe, RecordId};
use storage::{
    try_external_sort_slice, IoError, JoinError, Phase, PhaseCost, RecordReader, RunCost, SimDisk,
    SortStats,
};
use sweep::JoinCounters;

/// SSSJ tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SssjConfig {
    /// Memory budget for the two external sorts.
    pub mem_bytes: usize,
    /// Buffer pages for sequential scans.
    pub io_buffer_pages: usize,
}

impl Default for SssjConfig {
    fn default() -> Self {
        SssjConfig {
            mem_bytes: 8 << 20,
            io_buffer_pages: 4,
        }
    }
}

/// Measurements of one SSSJ run.
#[derive(Debug, Clone)]
pub struct SssjStats {
    pub results: u64,
    pub join_counters: JoinCounters,
    pub sort_r: SortStats,
    pub sort_s: SortStats,
    /// Peak rectangles resident in the sweep-line status.
    pub peak_status: usize,
    /// Phase table and clock. SSSJ's sort/sweep files are untagged (one run
    /// file pair, scanned sequentially — no partition structure to spread),
    /// so all its I/O rides the shared lane: extra channels cannot speed
    /// SSSJ up.
    pub cost: RunCost,
}

/// Runs SSSJ on `r ⋈ s`, invoking `out` for every result pair (exactly
/// once; ordered `(r, s)` orientation).
///
/// A request that fails surfaces as a typed [`JoinError`] naming the phase
/// (`"sort"` or `"join"`), after the sorted run files have been deleted.
/// SSSJ has no degradation path: the first error ends the run.
pub fn try_sssj_join(
    disk: &SimDisk,
    r: &[Kpe],
    s: &[Kpe],
    cfg: &SssjConfig,
    out: &mut dyn FnMut(RecordId, RecordId),
) -> Result<SssjStats, JoinError> {
    let run_start = Instant::now();
    let io0 = disk.stats();
    let key = |k: &Kpe| ordered_f64(k.rect.xl);
    let in_memory = (r.len() + s.len()) * Kpe::ENCODED_SIZE <= cfg.mem_bytes;

    // --- Sort phase (blocking) ----------------------------------------------
    enum Sorted {
        Mem(Vec<Kpe>),
        Disk(storage::FileId),
    }
    let (sorted_r, sorted_s, sort_r, sort_s) = if in_memory {
        let mut rv = r.to_vec();
        let mut sv = s.to_vec();
        rv.sort_by_key(key);
        sv.sort_by_key(key);
        (
            Sorted::Mem(rv),
            Sorted::Mem(sv),
            SortStats { runs: 1, merge_passes: 0 },
            SortStats { runs: 1, merge_passes: 0 },
        )
    } else {
        let sort = |data| {
            try_external_sort_slice::<Kpe, _, _>(disk, data, cfg.mem_bytes / 2, key)
                .map_err(|e| JoinError::new("sort", e))
        };
        let (fr, st_r) = sort(r)?;
        let (fs, st_s) = sort(s).inspect_err(|_| disk.delete(fr))?;
        (Sorted::Disk(fr), Sorted::Disk(fs), st_r, st_s)
    };
    let mut cost = RunCost::new(disk.model(), &[Phase::Sort, Phase::Join]);
    cost[Phase::Sort] = PhaseCost {
        cpu: run_start.elapsed().as_secs_f64(),
        io: disk.stats().delta(&io0),
    };

    // --- Sweep phase ----------------------------------------------------------
    let t1 = Instant::now();
    let io1 = disk.stats();
    let mut counters = JoinCounters::default();
    let mut peak_status = 0usize;
    let swept = {
        let mut emit = |a: RecordId, b: RecordId| {
            if cost.first.is_none() {
                cost.first = Some((run_start.elapsed().as_secs_f64(), disk.stats()));
            }
            out(a, b);
        };
        match (&sorted_r, &sorted_s) {
            (Sorted::Mem(rv), Sorted::Mem(sv)) => sweep(
                rv.iter().copied().map(Ok),
                sv.iter().copied().map(Ok),
                &mut counters,
                &mut peak_status,
                &mut emit,
            ),
            (Sorted::Disk(fr), Sorted::Disk(fs)) => {
                let open = |f| RecordReader::<Kpe>::new(disk, f, cfg.io_buffer_pages);
                open(*fr).and_then(|mut rr| {
                    let mut rs = open(*fs)?;
                    sweep(
                        std::iter::from_fn(|| rr.try_next().transpose()),
                        std::iter::from_fn(|| rs.try_next().transpose()),
                        &mut counters,
                        &mut peak_status,
                        &mut emit,
                    )
                })
            }
            _ => unreachable!("both relations take the same path"),
        }
    };
    if let Sorted::Disk(f) = sorted_r {
        disk.delete(f);
    }
    if let Sorted::Disk(f) = sorted_s {
        disk.delete(f);
    }
    swept.map_err(|e| JoinError::new("join", e))?;

    cost[Phase::Join] = PhaseCost {
        cpu: t1.elapsed().as_secs_f64(),
        io: disk.stats().delta(&io1),
    };
    cost.io_shared = cost.io_total();
    Ok(SssjStats {
        results: counters.results,
        join_counters: counters,
        sort_r,
        sort_s,
        peak_status,
        cost,
    })
}

/// The external plane sweep over two `xl`-sorted streams: active lists with
/// lazy deletion; each intersecting pair reported exactly once. A stream
/// that fails ends the sweep with its error.
fn sweep(
    mut rs: impl Iterator<Item = Result<Kpe, IoError>>,
    mut ss: impl Iterator<Item = Result<Kpe, IoError>>,
    counters: &mut JoinCounters,
    peak_status: &mut usize,
    emit: &mut dyn FnMut(RecordId, RecordId),
) -> Result<(), IoError> {
    let mut active_r: Vec<Kpe> = Vec::new();
    let mut active_s: Vec<Kpe> = Vec::new();
    let mut nr = rs.next().transpose()?;
    let mut ns = ss.next().transpose()?;
    while nr.is_some() || ns.is_some() {
        let take_r = match (&nr, &ns) {
            (Some(a), Some(b)) => a.rect.xl <= b.rect.xl,
            (Some(_), None) => true,
            _ => false,
        };
        if take_r {
            // Invariant: `take_r` is only true when `nr` is `Some`.
            let cur = nr.take().expect("take_r implies nr is Some");
            nr = rs.next().transpose()?;
            sweep_step(&cur, &mut active_s, counters, &mut |b| emit(cur.id, b.id));
            active_r.push(cur);
        } else {
            // Invariant: the loop condition guarantees `ns` is `Some` when
            // `take_r` is false (both-None ends the loop, r-only sets it).
            let cur = ns.take().expect("!take_r implies ns is Some");
            ns = ss.next().transpose()?;
            sweep_step(&cur, &mut active_r, counters, &mut |a| emit(a.id, cur.id));
            active_s.push(cur);
        }
        *peak_status = (*peak_status).max(active_r.len() + active_s.len());
    }
    Ok(())
}

/// Tests `cur` against the other relation's active list, lazily evicting
/// rectangles the sweep line has passed.
fn sweep_step(
    cur: &Kpe,
    other_active: &mut Vec<Kpe>,
    counters: &mut JoinCounters,
    emit: &mut dyn FnMut(&Kpe),
) {
    let x = cur.rect.xl;
    let mut i = 0;
    while i < other_active.len() {
        if other_active[i].rect.xh < x {
            other_active.swap_remove(i);
            continue;
        }
        counters.tests += 1;
        let e = &other_active[i];
        if e.rect.yl <= cur.rect.yh && cur.rect.yl <= e.rect.yh {
            counters.results += 1;
            emit(e);
        }
        i += 1;
    }
}

/// Monotone map of finite f64 sort keys to u64 (sign-magnitude flip).
#[inline]
fn ordered_f64(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::LineNetwork;
    use storage::IoStats;

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

    fn tiger(n: usize, seed: u64) -> Vec<Kpe> {
        LineNetwork {
            count: n,
            coverage: 0.1,
            segments_per_line: 15,
            seed,
        }
        .generate()
    }

    #[test]
    fn in_memory_path_matches_brute_force_with_zero_io() {
        let r = tiger(2000, 1);
        let s = tiger(2200, 2);
        let disk = SimDisk::with_default_model();
        let mut got = Vec::new();
        let stats = try_sssj_join(&disk, &r, &s, &SssjConfig::default(), &mut |a, b| {
            got.push((a.0, b.0))
        })
        .unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&r, &s));
        assert_eq!(stats.results as usize, got.len());
        assert_eq!(disk.stats(), IoStats::default(), "in-memory path is free");
    }

    #[test]
    fn external_sort_path_still_correct() {
        let r = tiger(3000, 3);
        let s = tiger(3000, 4);
        let disk = SimDisk::with_default_model();
        let cfg = SssjConfig {
            mem_bytes: 32 * 1024, // tiny memory => runs + multiway merge
            ..Default::default()
        };
        let mut got = Vec::new();
        let stats = try_sssj_join(&disk, &r, &s, &cfg, &mut |a, b| got.push((a.0, b.0))).unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&r, &s));
        assert!(stats.sort_r.runs > 1);
        assert!(stats.cost[Phase::Sort].io.pages_written > 0);
    }

    #[test]
    fn negative_coordinates_sort_correctly() {
        use geom::{Rect, RecordId};
        let r = vec![
            Kpe::new(RecordId(0), Rect::new(-0.5, 0.0, -0.4, 1.0)),
            Kpe::new(RecordId(1), Rect::new(-0.45, 0.0, 0.2, 1.0)),
            Kpe::new(RecordId(2), Rect::new(0.1, 0.0, 0.3, 1.0)),
        ];
        let disk = SimDisk::with_default_model();
        let mut got = Vec::new();
        try_sssj_join(&disk, &r, &r, &SssjConfig::default(), &mut |a, b| {
            got.push((a.0, b.0))
        })
        .unwrap();
        got.sort_unstable();
        assert_eq!(got, brute(&r, &r));
    }

    #[test]
    fn first_result_waits_for_sorting_on_external_path() {
        let r = tiger(4000, 5);
        let s = tiger(4000, 6);
        let disk = SimDisk::with_default_model();
        let cfg = SssjConfig {
            mem_bytes: 32 * 1024,
            ..Default::default()
        };
        let stats = try_sssj_join(&disk, &r, &s, &cfg, &mut |_, _| {}).unwrap();
        let first_io = stats.cost.first.expect("has results").1;
        // Blocking: all sort I/O is already on the meter at first result.
        assert!(first_io.pages_written >= stats.cost[Phase::Sort].io.pages_written);
        assert!(stats.cost.first_result_seconds().unwrap() <= stats.cost.total_seconds());
    }

    #[test]
    fn empty_inputs() {
        let disk = SimDisk::with_default_model();
        let stats = try_sssj_join(&disk, &[], &[], &SssjConfig::default(), &mut |_, _| {
            panic!("no results expected")
        })
        .unwrap();
        assert_eq!(stats.results, 0);
        assert!(stats.cost.first_result_seconds().is_none());
    }

    #[test]
    fn sweep_peak_status_is_tracked() {
        let r = tiger(1000, 7);
        let disk = SimDisk::with_default_model();
        let stats = try_sssj_join(&disk, &r, &r, &SssjConfig::default(), &mut |_, _| {}).unwrap();
        assert!(stats.peak_status > 0);
        assert!(stats.peak_status <= 2 * r.len());
    }
}
