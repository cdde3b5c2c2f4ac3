//! Wall-clock benchmark of the spatial-join workspace.
//!
//! ```text
//! perfbench --workload <tiger-ooc|road-mem|service-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) runs report the end-to-end metrics; traced runs
//! (`--trace 1`) wrap each call into a layer in a span and report the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod batch;
mod probes;
mod service;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("join_s.pbsm", "s"),
    ("join_s.twolayer", "s"),
    ("join_s.s3j", "s"),
    ("first_pair_s.pbsm", "s"),
    ("first_pair_s.twolayer", "s"),
    ("first_pair_s.s3j", "s"),
    ("sim_io_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// Per-layer metrics, reported by every traced run. A layer the workload
/// does not exercise reports 0 (see README.md for which workload fills
/// which metric).
pub const PER_LAYER: [(&str, &str); 73] = [
    ("datagen.gen_s", "s"),
    ("storage.pages_read", "count"),
    ("storage.pages_written", "count"),
    ("storage.phase_pages.partition", "count"),
    ("storage.phase_pages.repartition", "count"),
    ("storage.phase_pages.sort", "count"),
    ("storage.phase_pages.join", "count"),
    ("storage.phase_pages.dedup", "count"),
    ("storage.phase_pages.checkpoint", "count"),
    ("storage.page_write_ns", "ns"),
    ("storage.page_read_ns", "ns"),
    ("storage.sort_s", "s"),
    ("parallel.cpu_meter_ns", "ns"),
    ("parallel.speedup.pbsm", "ratio"),
    ("parallel.speedup.twolayer", "ratio"),
    ("parallel.speedup.s3j", "ratio"),
    ("parallel.first_pair_hold_s.pbsm", "s"),
    ("parallel.first_pair_hold_s.twolayer", "s"),
    ("parallel.first_pair_hold_s.s3j", "s"),
    ("sweep.list_ns_per_test", "ns"),
    ("sweep.trie_ns_per_test", "ns"),
    ("sweep.tests.pbsm", "count"),
    ("sweep.tests.twolayer", "count"),
    ("sweep.tests.s3j", "count"),
    ("sweep.hit_ratio.pbsm", "ratio"),
    ("sweep.hit_ratio.twolayer", "ratio"),
    ("sweep.hit_ratio.s3j", "ratio"),
    ("pbsm.partitions", "count"),
    ("pbsm.copies_per_record", "ratio"),
    ("pbsm.dup_ratio", "ratio"),
    ("s3j.copies_per_record", "ratio"),
    ("s3j.sort_runs", "count"),
    ("s3j.dup_ratio", "ratio"),
    ("geom.refpoint_ns", "ns"),
    ("sfc.code_ns", "ns"),
    ("refine.exact_s", "s"),
    ("refine.raster_s", "s"),
    ("refine.filter_s", "s"),
    ("refine.raster_build_s", "s"),
    ("refine.exact_ns_per_test", "ns"),
    ("refine.exact_tests.exact", "count"),
    ("refine.exact_tests.raster", "count"),
    ("refine.raster_decided_ratio", "ratio"),
    ("estimate.profile_s", "s"),
    ("estimate.plan_s", "s"),
    ("exec.first_item_ms", "ms"),
    ("sjoind.lat_p50_ms.cold", "ms"),
    ("sjoind.lat_p50_ms.reuse", "ms"),
    ("sjoind.lat_p50_ms.plan", "ms"),
    ("sjoind.lat_p50_ms.s3j", "ms"),
    ("sjoind.ttfp_ms.cold", "ms"),
    ("sjoind.ttfp_ms.reuse", "ms"),
    ("sjoind.ttfp_ms.plan", "ms"),
    ("sjoind.ttfp_ms.s3j", "ms"),
    ("sjoind.parse_ns", "ns"),
    ("sjoind.cache_hit_ratio", "ratio"),
    ("sjoind.shed", "count"),
    ("sjoind.bytes_per_pair", "B"),
    ("self_s.datagen", "s"),
    ("self_s.storage", "s"),
    ("self_s.parallel", "s"),
    ("self_s.sweep", "s"),
    ("self_s.join", "s"),
    ("self_s.geom", "s"),
    ("self_s.sfc", "s"),
    ("self_s.refine", "s"),
    ("self_s.estimate", "s"),
    ("self_s.exec", "s"),
    ("self_s.sjoind", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.span_cost_ns", "ns"),
    ("error_rate", "ratio"),
];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Worker threads / client connections: two, capped at the host's cores.
    pub fn threads(&self) -> usize {
        parallel::available_threads().clamp(1, 2)
    }
}

/// What a run measured and how many of its operations failed.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure: join errors, error lines, mismatches and
    /// violated workload-property guards.
    pub problems: Vec<String>,
    /// Human-readable context lines (sample counts, cardinalities).
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one operation; a failed one is recorded with its reason.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// A workload-property guard: a violation fails the run without being
    /// an operation of its own.
    pub fn guard(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(format!("guard: {}", what()));
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up times of a run. Set-up is timed in blocks spread over the run
/// (one before the measurement and one after each join set or request
/// epoch), so `setup_s` samples the host over the same period as the other
/// metrics. A block repeats the step at least [`SETUP_MIN`] times and for
/// at least [`SETUP_BLOCK_SECONDS`], at most [`SETUP_MAX`] times.
#[derive(Default)]
pub struct Setup {
    times: Vec<f64>,
}

const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 50;
const SETUP_BLOCK_SECONDS: f64 = 0.25;

impl Setup {
    /// Runs one block of a set-up step that returns its own seconds.
    pub fn block(&mut self, mut once: impl FnMut() -> Result<f64, String>) -> Result<(), String> {
        let start = Instant::now();
        let mut n = 0;
        while n < SETUP_MIN
            || (n < SETUP_MAX && start.elapsed().as_secs_f64() < SETUP_BLOCK_SECONDS)
        {
            self.times.push(once()?);
            n += 1;
        }
        Ok(())
    }

    /// Reports the median as `setup_s`.
    pub fn report(&self, report: &mut Report, what: &str) {
        report.put("setup_s", stats::median(&self.times).unwrap_or(0.0));
        report.note(format!("setup: median of {} {what}", self.times.len()));
    }
}

/// Seconds `f` takes.
pub fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 2026u64, 10.0f64, false);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn provenance(opts: &Opts) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{},\"threads\":{},\"cpu\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        parallel::available_threads(),
        opts.threads(),
        cpu.replace('"', "'"),
        kernel,
        env("PERFBENCH_RUSTC").replace('"', "'"),
        env("PERFBENCH_COMMIT"),
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&opts));
    let mut report = Report::default();
    let mut tracer = stats::Tracer::new(opts.trace, opts.seed);
    match opts.workload.as_str() {
        "tiger-ooc" => batch::tiger_ooc(&opts, &mut report, &mut tracer),
        "road-mem" => batch::road_mem(&opts, &mut report, &mut tracer),
        "service-mix" => service::service_mix(&opts, &mut report, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    if opts.trace {
        probes::finish_trace(&opts, &mut report, &tracer);
    } else {
        report.put("peak_rss_mb", peak_rss_mb());
    }
    for line in &report.notes {
        println!("# {line}");
    }
    for p in &report.problems {
        println!("! {p}");
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.put("error_rate", error_rate);
    println!(
        "# error_rate {error_rate} ({} failed of {} attempted)",
        report.failed, report.attempted
    );

    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut missing = Vec::new();
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = match report.get(name) {
            Some(v) if v.is_finite() => v,
            // A layer this workload does not exercise did no work.
            None if opts.trace => 0.0,
            _ => {
                missing.push(name);
                continue;
            }
        };
        println!("{name:<36} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let correct = report.problems.is_empty() && report.attempted > 0;
    if correct && !missing.is_empty() {
        eprintln!("perfbench: no finite value for {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    // A failed run still reports what it measured, with `correct: false`;
    // failed requests (`+∞`) can leave a latency metric without a value.
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above and the benchmark manifest at the repository
    /// root must name the same metrics with the same units.
    #[test]
    fn metric_lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let manifest = sjoind::Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = manifest.get(key).and_then(sjoind::Json::as_arr).expect(key);
            let got: Vec<(String, String)> = entries
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(sjoind::Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
    }
}
