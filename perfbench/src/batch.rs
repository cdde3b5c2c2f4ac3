//! The batch workloads: `tiger-ooc` (out-of-core self-join) and `road-mem`
//! (in-memory filter joins plus the ε-distance join).

use std::collections::BTreeMap;
use std::time::Instant;

use geom::Kpe;
use spatialjoin::datagen::LineDataset;
use spatialjoin::{Algorithm, JoinStats, SpatialJoin};

use crate::stats::{median, percentile, PairSum, Tracer};
use crate::{probes, timed, Opts, Report, Setup};

/// The three algorithms every join set runs.
pub const ALGOS: [&str; 3] = ["pbsm", "twolayer", "s3j"];

/// Dataset scale of `tiger-ooc` (CAL_ST at a quarter: 472,003 MBRs).
const TIGER_SCALE: f64 = 0.25;
/// ε of the distance join on `road-mem`.
const EPS: f64 = 0.0005;
/// `road-mem` budget: above the J4 input size, so PBSM and two-layer
/// partition into one in-memory partition.
const ROAD_MEM: usize = 64 << 20;

/// Result counts and checksums recorded at seed 2026:
/// (check, count, checksum). Every run at that seed must reproduce them.
const RECORDED_2026: [(&str, u64, u64); 3] = [
    ("tiger-ooc", 721_163, 0x97b9_3c83_9aa5_1858),
    ("J4", 920_896, 0x8a5f_fb1d_c34f_b16d),
    ("eps", 84_023, 0x4781_7331_bdaa_ba5e),
];

/// Samples in run order, for the human-readable part of the output.
fn fmt_samples(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// "The paper's M megabytes" in our bytes (40-byte KPEs vs the paper's
/// ~20 bytes), scaled with the dataset.
fn paper_mem(paper_mb: f64, scale: f64) -> usize {
    ((paper_mb * 2.0 * 1024.0 * 1024.0) * scale).max(4096.0) as usize
}

pub fn algorithm(name: &str, mem: usize, threads: usize) -> Algorithm {
    match name {
        "pbsm" => Algorithm::pbsm_rpm(mem),
        "twolayer" => Algorithm::two_layer(mem),
        "s3j" => Algorithm::s3j_replicated(mem),
        other => unreachable!("unknown algorithm {other}"),
    }
    .with_threads(threads)
}

/// One timed join call.
pub struct JoinSample {
    pub wall_s: f64,
    /// Seconds from the call to the first pair reaching the sink (`+∞` for
    /// an empty result).
    pub first_pair_s: f64,
    pub sum: PairSum,
    pub stats: JoinStats,
}

/// Runs one join through the public API, timing the call and its first
/// pair from outside. `kept` collects the result pairs.
pub fn timed_join(
    algo: Algorithm,
    r: &[Kpe],
    s: &[Kpe],
    mut kept: Option<&mut Vec<(u64, u64)>>,
) -> Result<JoinSample, String> {
    let join = SpatialJoin::new(algo);
    let mut sum = PairSum::default();
    let mut first = None;
    let t0 = Instant::now();
    let stats = join
        .try_run_with(r, s, &mut |a, b| {
            if first.is_none() {
                first = Some(t0.elapsed().as_secs_f64());
            }
            if let Some(k) = kept.as_mut() {
                k.push((a.0, b.0));
            }
            sum.add(a.0, b.0);
        })
        .map_err(|e| e.to_string())?;
    Ok(JoinSample {
        wall_s: t0.elapsed().as_secs_f64(),
        first_pair_s: first.unwrap_or(f64::INFINITY),
        sum,
        stats,
    })
}

/// Checks a result against the other results of its group and, at the
/// reference seed, against the recorded value. Returns whether it agrees.
struct Checker {
    seed: u64,
    seen: BTreeMap<&'static str, PairSum>,
}

impl Checker {
    fn new(seed: u64) -> Checker {
        Checker {
            seed,
            seen: BTreeMap::new(),
        }
    }

    fn check(&mut self, group: &'static str, got: PairSum) -> Result<(), String> {
        if self.seed == 2026 {
            if let Some(&(_, count, sum)) = RECORDED_2026.iter().find(|(g, ..)| *g == group) {
                if got != (PairSum { count, sum }) {
                    return Err(format!(
                        "{group}: got {got}, recorded at seed 2026: {count}:{sum:016x}"
                    ));
                }
            }
        }
        match self.seen.get(group) {
            Some(want) if *want != got => Err(format!("{group}: got {got}, earlier {want}")),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(group, got);
                Ok(())
            }
        }
    }
}

/// Timings collected over a run's rounds.
#[derive(Default)]
struct Samples {
    join: BTreeMap<&'static str, Vec<f64>>,
    first: BTreeMap<&'static str, Vec<f64>>,
    /// Wall seconds of each complete join set (the batch workloads'
    /// request); `+∞` when any call of the set failed.
    sets: Vec<f64>,
    /// Summed simulated I/O seconds of the first complete join set.
    sim_io: Option<f64>,
}

/// A batch workload's inputs.
struct Batch<'a> {
    name: &'static str,
    check: &'static str,
    r: &'a [Kpe],
    s: &'a [Kpe],
    mem: usize,
    /// `road-mem`'s ε-join geometry (J1).
    eps: Option<(&'a LineDataset, &'a LineDataset)>,
}

/// One join set: the three algorithms, then (on `road-mem`) the two ε-join
/// paths. Correctness is checked for every call.
fn round(
    b: &Batch,
    threads: usize,
    chk: &mut Checker,
    report: &mut Report,
    samples: &mut Samples,
    tracer: &mut Tracer,
) -> Vec<(&'static str, JoinSample)> {
    let mut out = Vec::new();
    let mut io = 0.0;
    let mut set_s = 0.0;
    for name in ALGOS {
        let algo = algorithm(name, b.mem, threads);
        let res = tracer.span(&format!("join.{name}"), |_| {
            timed_join(algo, b.r, b.s, None)
        });
        match res {
            Ok(js) => {
                let ok = chk.check(b.check, js.sum);
                report.op(ok.is_ok(), || {
                    format!("{}/{name}: {}", b.name, ok.unwrap_err())
                });
                samples.join.entry(name).or_default().push(js.wall_s);
                samples.first.entry(name).or_default().push(js.first_pair_s);
                set_s += js.wall_s;
                io += js.stats.io_seconds();
                out.push((name, js));
            }
            Err(e) => {
                report.op(false, || format!("{}/{name}: join error: {e}", b.name));
                set_s = f64::INFINITY;
            }
        }
    }
    if out.len() == ALGOS.len() {
        match samples.sim_io {
            None => samples.sim_io = Some(io),
            Some(prev) => report.guard(prev == io, || {
                format!(
                    "{}: simulated I/O seconds changed between rounds: {prev} vs {io}",
                    b.name
                )
            }),
        }
    }
    if let Some((r1, s1)) = b.eps {
        let join = SpatialJoin::new(algorithm("pbsm", b.mem, threads));
        for (path, raster) in [("exact", false), ("raster", true)] {
            let t0 = Instant::now();
            let res = tracer.span(&format!("refine.eps_{path}"), |_| {
                if raster {
                    join.try_within_distance_raster(r1, s1, EPS, sfc::Curve::Hilbert)
                } else {
                    join.try_within_distance(r1, s1, EPS)
                }
            });
            let wall = t0.elapsed().as_secs_f64();
            match res {
                Ok(run) => {
                    let ok = chk.check(
                        "eps",
                        PairSum::of(run.pairs.iter().map(|(a, b)| (a.0, b.0))),
                    );
                    report.op(ok.is_ok(), || {
                        format!("{}/eps_{path}: {}", b.name, ok.unwrap_err())
                    });
                    samples
                        .join
                        .entry(if raster { "eps_raster" } else { "eps_exact" })
                        .or_default()
                        .push(wall);
                    set_s += wall;
                }
                Err(e) => {
                    report.op(false, || format!("{}/eps_{path}: join error: {e}", b.name));
                    set_s = f64::INFINITY;
                }
            }
        }
    }
    samples.sets.push(set_s);
    out
}

/// Workload-property guards, asserted on every run.
fn guards(b: &Batch, set: &[(&'static str, JoinSample)], report: &mut Report) {
    for (name, js) in set {
        let io = js.stats.io_total();
        let pages = io.pages_read + io.pages_written;
        match b.name {
            "tiger-ooc" => {
                report.guard(pages > 0, || {
                    format!("tiger-ooc/{name}: no page I/O, not out of core")
                });
                if let (&"pbsm", JoinStats::Pbsm(p)) = (name, &js.stats) {
                    report.guard(p.partitions > 1, || {
                        format!(
                            "tiger-ooc/pbsm: {} partition(s), expected more than 1",
                            p.partitions
                        )
                    });
                }
            }
            _ => {
                if *name != "s3j" {
                    report.guard(pages == 0, || {
                        format!("road-mem/{name}: {pages} pages of I/O, expected 0")
                    });
                }
            }
        }
    }
}

/// Runs the workload. `regen` generates the inputs once more (discarding
/// them), for the set-up blocks between join sets.
fn run(
    opts: &Opts,
    b: &Batch,
    report: &mut Report,
    tracer: &mut Tracer,
    mut setup: Setup,
    regen: &dyn Fn(),
) {
    let threads = opts.threads();
    let mut chk = Checker::new(opts.seed);
    let mut samples = Samples::default();
    if opts.trace {
        traced(opts, b, threads, &mut chk, report, tracer);
        return;
    }
    let t0 = Instant::now();
    let mut rounds = 0;
    let mut elapsed = 0.0;
    while rounds == 0 || t0.elapsed() < opts.budget() {
        let t1 = Instant::now();
        let set = round(b, threads, &mut chk, report, &mut samples, tracer);
        elapsed += t1.elapsed().as_secs_f64();
        guards(b, &set, report);
        rounds += 1;
        setup
            .block(|| Ok(timed(regen)))
            .expect("generation cannot fail");
    }
    setup.report(report, "generations");
    report.note(format!(
        "{}: {rounds} rounds in {elapsed:.3} s, threads {threads}",
        b.name
    ));
    for (group, sum) in &chk.seen {
        report.note(format!("result {group}: {sum} (count:checksum)"));
    }
    for name in ALGOS {
        let j = samples.join.get(name).map(Vec::as_slice).unwrap_or(&[]);
        let f = samples.first.get(name).map(Vec::as_slice).unwrap_or(&[]);
        report.note(format!(
            "{name}: join_s {} / first_pair_s {}",
            fmt_samples(j),
            fmt_samples(f)
        ));
        if let (Some(j), Some(f)) = (median(j), median(f)) {
            report.put(&format!("join_s.{name}"), j);
            report.put(&format!("first_pair_s.{name}"), f);
        }
    }
    for (key, label) in [("eps_exact", "exact"), ("eps_raster", "raster")] {
        if let Some(m) = samples.join.get(key).and_then(|v| median(v)) {
            report.note(format!(
                "refine_s.{label} {m:.6} s (median of {})",
                samples.join[key].len()
            ));
        }
    }
    if let Some(io) = samples.sim_io {
        report.put("sim_io_s", io);
    }
    let n = samples.sets.len();
    let completed = samples.sets.iter().filter(|v| v.is_finite()).count();
    report.put(
        "req_p50_ms",
        percentile(&samples.sets, 50.0).unwrap_or(0.0) * 1e3,
    );
    report.put(
        "req_p95_ms",
        percentile(&samples.sets, 95.0).unwrap_or(0.0) * 1e3,
    );
    report.put("req_per_s", completed as f64 / elapsed);
    report.note(format!(
        "requests: {n} join sets, percentile rule admits p{}",
        crate::stats::tail_percentile(n).map_or("-".into(), |p| p.to_string())
    ));
}

/// The traced run: one untraced join set for the overhead baseline, one
/// traced join set with every call in a span, the threads-1 reference
/// legs, and the layer probes.
fn traced(
    opts: &Opts,
    b: &Batch,
    threads: usize,
    chk: &mut Checker,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let mut scratch = Samples::default();
    let mut off = Tracer::new(false, opts.seed);
    let t0 = Instant::now();
    round(b, threads, chk, report, &mut scratch, &mut off);
    let untraced = t0.elapsed().as_secs_f64();
    let mut samples = Samples::default();
    let t1 = Instant::now();
    let set = tracer.span("join.set", |t| {
        round(b, threads, chk, report, &mut samples, t)
    });
    let traced = t1.elapsed().as_secs_f64();
    report.put("trace.overhead_s", traced - untraced);
    guards(b, &set, report);

    let inputs = (b.r.len() + b.s.len()) as f64;
    let mut phase: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut read, mut written) = (0, 0);
    for (name, js) in &set {
        let st = &js.stats;
        let io = st.io_total();
        read += io.pages_read;
        written += io.pages_written;
        for (p, ps) in st.io_phases() {
            *phase.entry(p).or_default() += ps.pages_read + ps.pages_written;
        }
        report.put(&format!("sweep.tests.{name}"), st.tests() as f64);
        let cands = st.candidates().unwrap_or(0) as f64;
        report.put(
            &format!("sweep.hit_ratio.{name}"),
            cands / st.tests().max(1) as f64,
        );
        match (name, st) {
            (&"pbsm", JoinStats::Pbsm(p)) => {
                report.put("pbsm.partitions", f64::from(p.partitions));
                report.put(
                    "pbsm.copies_per_record",
                    (p.copies_r + p.copies_s) as f64 / inputs,
                );
                report.put(
                    "pbsm.dup_ratio",
                    p.duplicates as f64 / p.candidates.max(1) as f64,
                );
            }
            (&"s3j", JoinStats::S3j(p)) => {
                report.put(
                    "s3j.copies_per_record",
                    (p.copies_r + p.copies_s) as f64 / inputs,
                );
                report.put("s3j.sort_runs", p.sort_runs as f64);
                report.put(
                    "s3j.dup_ratio",
                    p.duplicates as f64 / p.candidates.max(1) as f64,
                );
            }
            _ => {}
        }
    }
    report.put("storage.pages_read", read as f64);
    report.put("storage.pages_written", written as f64);
    for (p, n) in phase {
        report.put(&format!("storage.phase_pages.{p}"), n as f64);
    }

    // Threads-1 reference legs: what the parallel pool buys or costs.
    for (name, js) in &set {
        let one = tracer.span(&format!("parallel.threads1_{name}"), |_| {
            timed_join(algorithm(name, b.mem, 1), b.r, b.s, None)
        });
        match one {
            Ok(one) => {
                report.op(one.sum == js.sum, || {
                    format!("{}/{name}: threads 1 and {threads} disagree", b.name)
                });
                report.put(&format!("parallel.speedup.{name}"), one.wall_s / js.wall_s);
                report.put(
                    &format!("parallel.first_pair_hold_s.{name}"),
                    js.first_pair_s - one.first_pair_s,
                );
            }
            Err(e) => report.op(false, || format!("{}/{name} threads 1: {e}", b.name)),
        }
    }

    // Candidate pairs for the reference-point probe.
    let mut kept = Vec::new();
    if let Err(e) = timed_join(algorithm("pbsm", b.mem, threads), b.r, b.s, Some(&mut kept)) {
        report.op(false, || format!("{}: candidate join: {e}", b.name));
    }
    probes::batch_layers(tracer, report, b.r, b.s, b.mem, &kept);
    if let Some((r1, s1)) = b.eps {
        probes::refine_layers(tracer, report, r1, s1, b.mem, EPS, &samples.join);
    }
}

pub fn tiger_ooc(opts: &Opts, report: &mut Report, tracer: &mut Tracer) {
    let cfg =
        spatialjoin::datagen::sized(&spatialjoin::datagen::cal_st_config(opts.seed), TIGER_SCALE);
    let mut data = Vec::new();
    let mut setup = Setup::default();
    setup
        .block(|| Ok(timed(|| data = cfg.generate())))
        .expect("generation cannot fail");
    if tracer.enabled() {
        let gen = Instant::now();
        tracer.span("datagen.cal_st", |_| data = cfg.generate());
        report.put("datagen.gen_s", gen.elapsed().as_secs_f64());
    }
    report.note(format!(
        "tiger-ooc: CAL_ST scale {TIGER_SCALE} self-join, {} MBRs",
        data.len()
    ));
    let b = Batch {
        name: "tiger-ooc",
        check: "tiger-ooc",
        r: &data,
        s: &data,
        mem: paper_mem(8.0, TIGER_SCALE),
        eps: None,
    };
    report.note(format!("memory budget {} bytes, channels 1", b.mem));
    run(opts, &b, report, tracer, setup, &|| drop(cfg.generate()));
}

fn road_inputs(seed: u64) -> (LineDataset, LineDataset, Vec<Kpe>, Vec<Kpe>) {
    let r1 = spatialjoin::datagen::la_rr_config(seed).generate_dataset();
    let s1 = spatialjoin::datagen::la_st_config(seed).generate_dataset();
    let r4 = spatialjoin::datagen::scale(&r1.kpes, 4.0);
    let s4 = spatialjoin::datagen::scale(&s1.kpes, 4.0);
    (r1, s1, r4, s4)
}

pub fn road_mem(opts: &Opts, report: &mut Report, tracer: &mut Tracer) {
    let mut data = None;
    let mut setup = Setup::default();
    setup
        .block(|| Ok(timed(|| data = Some(road_inputs(opts.seed)))))
        .expect("generation cannot fail");
    if tracer.enabled() {
        let gen = Instant::now();
        tracer.span("datagen.la", |_| data = Some(road_inputs(opts.seed)));
        report.put("datagen.gen_s", gen.elapsed().as_secs_f64());
    }
    let (r1, s1, r4, s4) = data.expect("setup ran at least once");
    report.note(format!(
        "road-mem: J4 LA_RR(4) {} x LA_ST(4) {} MBRs; eps join over J1 segments, eps {EPS}",
        r4.len(),
        s4.len()
    ));
    let b = Batch {
        name: "road-mem",
        check: "J4",
        r: &r4,
        s: &s4,
        mem: ROAD_MEM,
        eps: Some((&r1, &s1)),
    };
    report.note(format!("memory budget {} bytes, channels 1", b.mem));
    run(opts, &b, report, tracer, setup, &|| {
        drop(road_inputs(opts.seed))
    });
}
