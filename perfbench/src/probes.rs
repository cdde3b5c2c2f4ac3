//! Per-layer probes of the traced run: each times public calls of one
//! layer on the workload's own inputs, inside a span.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use geom::Kpe;
use spatialjoin::datagen::LineDataset;
use spatialjoin::{DiskModel, SimDisk, SpatialJoin};
use storage::IoStats;
use sweep::InternalAlgo;

use crate::stats::{median, Tracer};
use crate::{batch, Opts, Report};

fn pages(io: IoStats) -> u64 {
    io.pages_read + io.pages_written
}

/// Layer probes shared by the batch workloads.
pub fn batch_layers(
    tracer: &mut Tracer,
    report: &mut Report,
    r: &[Kpe],
    s: &[Kpe],
    mem: usize,
    cands: &[(u64, u64)],
) {
    storage_layer(tracer, report, r, mem);
    sweep_layer(tracer, report, r, s);
    geom_sfc_layers(tracer, report, r, s, cands);
    common_layers(tracer, report, r, s, mem);
}

/// `storage`: page encode/copy of the workload's KPEs on a fresh disk, and
/// an external sort under the workload budget.
fn storage_layer(tracer: &mut Tracer, report: &mut Report, data: &[Kpe], mem: usize) {
    let disk = SimDisk::new(DiskModel::default());
    let t0 = Instant::now();
    let file = tracer.span("storage.write_all", |_| {
        storage::try_write_all(&disk, data, 8)
    });
    let write_s = t0.elapsed().as_secs_f64();
    let written = pages(disk.stats());
    match file {
        Ok(file) => {
            let t1 = Instant::now();
            let back = tracer.span("storage.read_all", |_| {
                storage::try_read_all::<Kpe>(&disk, file, 8)
            });
            let read_s = t1.elapsed().as_secs_f64();
            let read = pages(disk.stats()) - written;
            let ok = back.as_ref().is_ok_and(|v| v.len() == data.len());
            report.op(ok, || {
                "storage: read_all did not return what write_all wrote".into()
            });
            report.put(
                "storage.page_write_ns",
                write_s * 1e9 / written.max(1) as f64,
            );
            report.put("storage.page_read_ns", read_s * 1e9 / read.max(1) as f64);
        }
        Err(e) => report.op(false, || format!("storage: write_all failed: {e}")),
    }
    let disk = SimDisk::new(DiskModel::default());
    let t2 = Instant::now();
    let sorted = tracer.span("storage.external_sort", |_| {
        storage::try_external_sort_slice(&disk, data, mem, |k: &Kpe| k.rect.xl.to_bits())
    });
    report.put("storage.sort_s", t2.elapsed().as_secs_f64());
    report.op(sorted.is_ok(), || "storage: external sort failed".into());
}

/// `sweep`: both internal algorithms over the whole inputs, in memory.
fn sweep_layer(tracer: &mut Tracer, report: &mut Report, r: &[Kpe], s: &[Kpe]) {
    let mut results = Vec::new();
    for (algo, key) in [
        (InternalAlgo::PlaneSweepList, "sweep.list_ns_per_test"),
        (InternalAlgo::PlaneSweepTrie, "sweep.trie_ns_per_test"),
    ] {
        let (mut r, mut s) = (r.to_vec(), s.to_vec());
        let mut j = algo.create();
        let mut n = 0u64;
        let t0 = Instant::now();
        tracer.span(&format!("sweep.{algo}"), |_| {
            j.join(&mut r, &mut s, &mut |_, _| n += 1)
        });
        let wall = t0.elapsed().as_secs_f64();
        report.put(key, wall * 1e9 / j.counters().tests.max(1) as f64);
        results.push(n);
    }
    report.op(results[0] == results[1], || {
        format!(
            "sweep: list and trie disagree ({} vs {})",
            results[0], results[1]
        )
    });
}

/// `geom` reference points over candidate pairs, `sfc` Hilbert codes at the
/// raster level over the inputs' centres.
fn geom_sfc_layers(
    tracer: &mut Tracer,
    report: &mut Report,
    r: &[Kpe],
    s: &[Kpe],
    cands: &[(u64, u64)],
) {
    let by_id = |data: &[Kpe]| -> BTreeMap<u64, usize> {
        data.iter().enumerate().map(|(i, k)| (k.id.0, i)).collect()
    };
    let (ri, si) = (by_id(r), by_id(s));
    let rects: Vec<_> = cands
        .iter()
        .filter_map(|(a, b)| Some((r[*ri.get(a)?].rect, s[*si.get(b)?].rect)))
        .collect();
    let t0 = Instant::now();
    tracer.span("geom.reference_point", |_| {
        for (a, b) in &rects {
            black_box(geom::reference_point(black_box(a), black_box(b)));
        }
    });
    report.put(
        "geom.refpoint_ns",
        t0.elapsed().as_secs_f64() * 1e9 / rects.len().max(1) as f64,
    );

    let level = refine_level(0.0005);
    let side = f64::from(1u32 << level);
    let cells: Vec<(u32, u32)> = r
        .iter()
        .map(|k| {
            let c = |lo: f64, hi: f64| (((lo + hi) / 2.0 * side) as u32).min((1 << level) - 1);
            (c(k.rect.xl, k.rect.xh), c(k.rect.yl, k.rect.yh))
        })
        .collect();
    let t1 = Instant::now();
    tracer.span("sfc.hilbert", |_| {
        for &(x, y) in &cells {
            black_box(sfc::Curve::Hilbert.code(level, black_box(x), black_box(y)));
        }
    });
    report.put(
        "sfc.code_ns",
        t1.elapsed().as_secs_f64() * 1e9 / cells.len().max(1) as f64,
    );
}

/// The raster level `RasterFilter::within_distance` picks for `eps`.
fn refine_level(eps: f64) -> u8 {
    ((-eps.log2()).ceil() as i64).clamp(
        i64::from(refine::DEFAULT_RASTER_LEVEL),
        i64::from(sfc::MAX_LEVEL),
    ) as u8
}

/// `estimate` (profile + plan), `exec` (first item through the operator)
/// and `parallel` (the CPU meter) — run on every workload.
pub fn common_layers(tracer: &mut Tracer, report: &mut Report, r: &[Kpe], s: &[Kpe], mem: usize) {
    let t0 = Instant::now();
    let (pr, ps) = tracer.span("estimate.profile", |_| {
        (
            estimate::DatasetProfile::build(r),
            estimate::DatasetProfile::build(s),
        )
    });
    report.put("estimate.profile_s", t0.elapsed().as_secs_f64());
    let t1 = Instant::now();
    let plan = tracer.span("estimate.plan", |_| {
        estimate::Planner::new(mem).plan(&pr, &ps)
    });
    report.put("estimate.plan_s", t1.elapsed().as_secs_f64());
    black_box(plan);

    let spatialjoin::Algorithm::Pbsm(cfg) = spatialjoin::Algorithm::pbsm_rpm(mem) else {
        unreachable!("pbsm_rpm builds a PBSM configuration")
    };
    let mut op = exec::SpatialJoinOp::new(
        exec::KpeScan::new(r.to_vec()),
        exec::KpeScan::new(s.to_vec()),
        exec::JoinAlgorithm::Pbsm(cfg),
        SimDisk::new(DiskModel::default()),
    );
    let t2 = Instant::now();
    let first = tracer.span("exec.first_item", |_| {
        use exec::Operator;
        op.open();
        let first = op.next();
        op.close();
        first
    });
    report.put("exec.first_item_ms", t2.elapsed().as_secs_f64() * 1e3);
    report.op(matches!(first, Some(Ok(_))), || {
        "exec: SpatialJoinOp yielded no first item".into()
    });

    let calls = 20_000;
    let t3 = Instant::now();
    tracer.span("parallel.work_clock", |_| {
        let clock = parallel::WorkClock::start();
        for _ in 0..calls {
            black_box(clock.seconds());
        }
    });
    report.put(
        "parallel.cpu_meter_ns",
        t3.elapsed().as_secs_f64() * 1e9 / f64::from(calls),
    );
}

/// `refine` on `road-mem`: the filter step alone, raster construction, and
/// the exact and raster paths' counters.
pub fn refine_layers(
    tracer: &mut Tracer,
    report: &mut Report,
    r: &LineDataset,
    s: &LineDataset,
    mem: usize,
    eps: f64,
    walls: &BTreeMap<&'static str, Vec<f64>>,
) {
    use refine::Refiner;
    let join = SpatialJoin::new(batch::algorithm("pbsm", mem, 1));
    let expand = |d: &[Kpe]| -> Vec<Kpe> {
        d.iter()
            .map(|k| Kpe::new(k.id, k.rect.expanded(eps / 2.0)))
            .collect()
    };
    let (re, se) = (expand(&r.kpes), expand(&s.kpes));
    let t0 = Instant::now();
    let filter = tracer.span("refine.filter", |_| join.try_run(&re, &se));
    report.put("refine.filter_s", t0.elapsed().as_secs_f64());
    let cands = match filter {
        Ok(run) => run.pairs,
        Err(e) => return report.op(false, || format!("refine: filter join failed: {e}")),
    };
    let exact = refine::SegmentWithinDistance {
        r: &r.segments,
        s: &s.segments,
        eps,
    };
    let t1 = Instant::now();
    let hits = tracer.span("refine.exact_verify", |_| {
        cands.iter().filter(|(a, b)| exact.verify(*a, *b)).count()
    });
    report.put(
        "refine.exact_ns_per_test",
        t1.elapsed().as_secs_f64() * 1e9 / cands.len().max(1) as f64,
    );
    let t2 = Instant::now();
    let raster = tracer.span("refine.raster_build", |_| {
        refine::RasterFilter::within_distance(&r.segments, &s.segments, eps, sfc::Curve::Hilbert)
    });
    report.put("refine.raster_build_s", t2.elapsed().as_secs_f64());
    let raster_hits = tracer.span("refine.raster_verify", |_| {
        cands.iter().filter(|(a, b)| raster.verify(*a, *b)).count()
    });
    let (rejects, accepts) = raster.decided();
    let decided = rejects + accepts;
    report.op(hits == raster_hits, || {
        format!("refine: exact keeps {hits} pairs, raster {raster_hits}")
    });
    report.put("refine.exact_tests.exact", cands.len() as f64);
    report.put(
        "refine.exact_tests.raster",
        (cands.len() as u64 - decided) as f64,
    );
    report.put(
        "refine.raster_decided_ratio",
        decided as f64 / cands.len().max(1) as f64,
    );
    report.note(format!(
        "eps join: {hits} of {} candidates survive",
        cands.len()
    ));
    for (key, name) in [
        ("eps_exact", "refine.exact_s"),
        ("eps_raster", "refine.raster_s"),
    ] {
        if let Some(m) = walls.get(key).and_then(|v| median(v)) {
            report.put(name, m);
        }
    }
}

/// Closes the traced run: self time per layer, span count and cost, and
/// the span file.
pub fn finish_trace(opts: &Opts, report: &mut Report, tracer: &Tracer) {
    // A span named `<layer>.<what>` counts toward `self_s.<layer>`.
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    for (name, secs) in tracer.self_seconds_by_name() {
        let key = format!("self_s.{}", name.split('.').next().unwrap_or(""));
        if crate::PER_LAYER.iter().any(|(n, _)| *n == key) {
            *by_layer.entry(key).or_default() += secs;
        }
    }
    for (key, secs) in by_layer {
        report.put(&key, secs);
    }
    report.put("trace.spans", tracer.spans().len() as f64);
    // Cost of one span, measured on a scratch tracer.
    let mut scratch = Tracer::new(true, 0);
    let n = 10_000;
    let t0 = Instant::now();
    for _ in 0..n {
        scratch.span("x", |_| ());
    }
    report.put(
        "trace.span_cost_ns",
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(n),
    );

    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.json", opts.workload, opts.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}
