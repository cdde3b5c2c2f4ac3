//! The `service-mix` workload: an in-process `sjoind` server on an
//! ephemeral port, driven by closed-loop client connections over TCP.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sjoind::{JoinRequest, Json, Server, ServerConfig, ServerHandle};
use spatialjoin::SpatialJoin;

use crate::stats::{median, percentile, tail_percentile, PairSum, Rng, Tracer};
use crate::{batch, probes, Opts, Report, Setup};

/// Scale of the registered `la_rr` / `la_st` / `clustered` datasets.
const SCALE: f64 = 0.05;
const DATASETS: [(&str, &str); 3] = [("rr", "la_rr"), ("st", "la_st"), ("cl", "clustered")];
const PAIRS: [(&str, &str); 3] = [("rr", "st"), ("st", "cl"), ("rr", "cl")];
/// Join budget per request: small enough that the joins partition (and so
/// a `reuse` snapshot exists), far below the server budget so 2 clients
/// are never shed.
const MEM_MB: f64 = 0.125;
/// Length of one request epoch (fresh client connections).
const EPOCH_SECONDS: f64 = 5.0;

/// What one request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Cold(&'static str),
    Reuse(&'static str),
    Plan,
    Metrics,
}

impl Kind {
    /// Latency class reported by the traced run.
    fn class(self) -> &'static str {
        match self {
            Kind::Cold("s3j") => "s3j",
            Kind::Cold(_) => "cold",
            Kind::Reuse(_) => "reuse",
            Kind::Plan => "plan",
            Kind::Metrics => "metrics",
        }
    }

    fn line(self, pair: usize) -> String {
        let (l, r) = PAIRS[pair];
        let base =
            format!("{{\"cmd\":\"join\",\"left\":\"{l}\",\"right\":\"{r}\",\"mem_mb\":{MEM_MB}");
        match self {
            Kind::Cold(a) => format!("{base},\"algo\":\"{a}\",\"metrics\":true}}"),
            Kind::Reuse(a) => format!("{base},\"algo\":\"{a}\",\"reuse\":true}}"),
            Kind::Plan => format!("{base},\"plan\":\"auto\",\"metrics\":true}}"),
            Kind::Metrics => "{\"cmd\":\"metrics\"}".to_owned(),
        }
    }
}

/// One completed (or failed) request.
struct Sample {
    kind: Kind,
    pair: usize,
    sent: Instant,
    /// Send → terminal line; `+∞` when the request failed.
    lat_s: f64,
    /// Send → first `pairs` line.
    ttfp_s: Option<f64>,
    done: Option<Instant>,
    cache_hit: bool,
    io_s: Option<f64>,
    pair_bytes: u64,
    pairs: u64,
}

/// A protocol connection that counts the bytes it reads.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one line; returns it parsed with its byte length.
    fn recv(&mut self) -> Result<(Json, usize), String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server hung up".into());
        }
        Json::parse(self.line.trim())
            .map(|j| (j, n))
            .map_err(|e| format!("bad line: {e}"))
    }

    fn request(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        self.recv().map(|(j, _)| j)
    }
}

/// Runs one request and checks a join's result against `want`.
fn run_request(
    conn: &mut Conn,
    kind: Kind,
    pair: usize,
    want: PairSum,
) -> (Sample, Result<(), String>) {
    let mut s = Sample {
        kind,
        pair,
        sent: Instant::now(),
        lat_s: f64::INFINITY,
        ttfp_s: None,
        done: None,
        cache_hit: false,
        io_s: None,
        pair_bytes: 0,
        pairs: 0,
    };
    let res = (|| {
        if kind == Kind::Metrics {
            let v = conn.request(&kind.line(pair))?;
            return v
                .get("ok")
                .map(|_| ())
                .ok_or_else(|| format!("metrics: {v}"));
        }
        conn.send(&kind.line(pair))?;
        let mut sum = PairSum::default();
        loop {
            let (v, bytes) = conn.recv()?;
            if let Some(batch) = v.get("pairs").and_then(Json::as_arr) {
                s.ttfp_s
                    .get_or_insert_with(|| s.sent.elapsed().as_secs_f64());
                s.pair_bytes += bytes as u64;
                for p in batch {
                    match p.as_arr() {
                        Some([a, b]) => sum.add(
                            a.as_u64().unwrap_or(u64::MAX),
                            b.as_u64().unwrap_or(u64::MAX),
                        ),
                        _ => return Err(format!("malformed pair {p}")),
                    }
                }
            } else if let Some(done) = v.get("done") {
                s.cache_hit = done
                    .get("cache_hit")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                s.io_s = done
                    .get("metrics")
                    .and_then(|m| m.get("io_seconds"))
                    .and_then(Json::as_f64);
                s.pairs = sum.count;
                return if sum == want {
                    Ok(())
                } else {
                    Err(format!("result {sum}, solo in-process run {want}"))
                };
            } else if let Some(err) = v.get("error") {
                return Err(format!("error line {err}"));
            } else {
                return Err(format!("unexpected line {v}"));
            }
        }
    })();
    if res.is_ok() {
        s.lat_s = s.sent.elapsed().as_secs_f64();
        s.done = Some(Instant::now());
    }
    (s, res)
}

/// The request deck: every kind on every pair, plus metrics polls. Each
/// client plays shuffled copies of it, so every configuration recurs.
fn deck() -> Vec<(Kind, usize)> {
    let mut d = Vec::new();
    for pair in 0..PAIRS.len() {
        for algo in batch::ALGOS {
            d.push((Kind::Cold(algo), pair));
        }
        d.push((Kind::Reuse("pbsm"), pair));
        d.push((Kind::Reuse("twolayer"), pair));
        d.push((Kind::Plan, pair));
    }
    d.push((Kind::Metrics, 0));
    d.push((Kind::Metrics, 0));
    d
}

/// Closed loop: `clients` connections, each sending its next request when
/// the previous reply has ended, until `budget` has passed.
fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    seed: u64,
    budget: Duration,
    want: &[PairSum; 3],
    tracer: &mut Tracer,
) -> (Vec<Sample>, Vec<String>, f64) {
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Sample>, Vec<String>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut tr = tracer.child();
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0xc1 + c as u64));
                    let (mut samples, mut errors) = (Vec::new(), Vec::new());
                    let mut conn = match Conn::connect(addr) {
                        Ok(c) => c,
                        Err(e) => return (samples, vec![format!("connect: {e}")], tr),
                    };
                    'outer: loop {
                        let mut d = deck();
                        rng.shuffle(&mut d);
                        for (kind, pair) in d {
                            if t0.elapsed() >= budget {
                                break 'outer;
                            }
                            let want = want[pair];
                            let name = format!("sjoind.{}", kind.class());
                            let (s, res) =
                                tr.span(&name, |_| run_request(&mut conn, kind, pair, want));
                            if let Err(e) = res {
                                errors.push(format!("{kind:?} {:?}: {e}", PAIRS[pair]));
                                // The stream position is unknown after a
                                // protocol failure: start a new connection.
                                match Conn::connect(addr) {
                                    Ok(c) => conn = c,
                                    Err(e) => {
                                        errors.push(format!("reconnect: {e}"));
                                        samples.push(s);
                                        break 'outer;
                                    }
                                }
                            }
                            samples.push(s);
                        }
                    }
                    (samples, errors, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let (mut samples, mut errors) = (Vec::new(), Vec::new());
    for (s, e, tr) in per_client {
        samples.extend(s);
        errors.extend(e);
        tracer.absorb(tr);
    }
    (samples, errors, elapsed)
}

/// Starts a server and registers the datasets. Returns it with the set-up
/// seconds: the start plus the registrations. The wait for the first
/// connection to be accepted is left out: the accept loop polls every few
/// milliseconds, so that wait is a uniform random delay larger than the
/// set-up itself.
fn start_server(seed: u64) -> Result<(ServerHandle, f64), String> {
    let t0 = Instant::now();
    let handle = Server::new(ServerConfig::default())
        .start("127.0.0.1:0")
        .map_err(|e| format!("server start: {e}"))?;
    let started = t0.elapsed().as_secs_f64();
    let mut conn = Conn::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    conn.request("{\"cmd\":\"ping\"}")?;
    let t1 = Instant::now();
    for (name, source) in DATASETS {
        let v = conn.request(&format!(
            "{{\"cmd\":\"register\",\"name\":\"{name}\",\"source\":\"{source}\",\"scale\":{SCALE},\"seed\":{seed}}}"
        ))?;
        if v.get("ok").is_none() {
            return Err(format!("register {name}: {v}"));
        }
    }
    Ok((handle, started + t1.elapsed().as_secs_f64()))
}

fn stop_server(handle: ServerHandle) -> Result<(), String> {
    let res = Conn::connect(handle.addr())
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.request("{\"cmd\":\"shutdown\"}"));
    handle.join();
    res.map(|_| ())
}

/// Reference results: each pair joined alone, in process, on the same
/// generated inputs the server registered.
fn reference(seed: u64) -> Result<[PairSum; 3], String> {
    let data: BTreeMap<&str, Vec<geom::Kpe>> = DATASETS
        .iter()
        .map(|(n, src)| sjoind::proto::dataset(src, SCALE, seed).map(|d| (*n, d)))
        .collect::<Result<_, _>>()?;
    let mut out = [PairSum::default(); 3];
    for (i, (l, r)) in PAIRS.iter().enumerate() {
        let join = SpatialJoin::new(spatialjoin::Algorithm::pbsm_rpm(64 << 20));
        let mut sum = PairSum::default();
        join.try_run_with(&data[l], &data[r], &mut |a, b| sum.add(a.0, b.0))
            .map_err(|e| e.to_string())?;
        out[i] = sum;
    }
    Ok(out)
}

pub fn service_mix(opts: &Opts, report: &mut Report, tracer: &mut Tracer) {
    let clients = opts.threads();
    // The first set-up block keeps its last server for the measurement;
    // later blocks, between request epochs, stop theirs again. Stopping is
    // not timed.
    let mut setup = Setup::default();
    let mut server: Option<ServerHandle> = None;
    let first = setup.block(|| {
        if let Some(h) = server.take() {
            stop_server(h)?;
        }
        let (h, secs) = start_server(opts.seed)?;
        server = Some(h);
        Ok(secs)
    });
    let handle = match (first, server) {
        (Ok(()), Some(h)) => h,
        (res, h) => {
            if let Some(h) = h {
                let _ = stop_server(h);
            }
            let e = res.err().unwrap_or_default();
            return report.op(false, || format!("setup: {e}"));
        }
    };
    let want = match reference(opts.seed) {
        Ok(w) => w,
        Err(e) => {
            report.op(false, || format!("reference join: {e}"));
            let _ = stop_server(handle);
            return;
        }
    };
    report.note(format!(
        "service-mix: la_rr/la_st/clustered at scale {SCALE}, {clients} closed-loop clients, mem_mb {MEM_MB}; \
         reference results {} {} {}",
        want[0], want[1], want[2]
    ));

    let addr = handle.addr();
    let mut overhead_base = None;
    let (mut samples, mut errors, mut elapsed) = (Vec::new(), Vec::new(), 0.0);
    if opts.trace {
        // Untraced half first, as the tracing-overhead baseline.
        let mut off = Tracer::new(false, opts.seed);
        let (s, e, _) = closed_loop(addr, clients, opts.seed, opts.budget() / 2, &want, &mut off);
        overhead_base = Some(median_latency(&s));
        for x in &s {
            report.op(x.lat_s.is_finite(), || {
                format!("{:?} {:?} failed", x.kind, PAIRS[x.pair])
            });
        }
        report.problems.extend(e);
        (samples, errors, elapsed) =
            closed_loop(addr, clients, opts.seed, opts.budget() / 2, &want, tracer);
    } else {
        // Request epochs on fresh connections, with a set-up block on a
        // spare server after each.
        for epoch in 0u64.. {
            let left = opts.seconds - elapsed;
            if left <= 0.0 {
                break;
            }
            let budget = Duration::from_secs_f64(left.min(EPOCH_SECONDS));
            let (s, e, t) = closed_loop(
                addr,
                clients,
                opts.seed ^ (epoch << 8),
                budget,
                &want,
                tracer,
            );
            samples.extend(s);
            errors.extend(e);
            elapsed += t;
            let spare = setup.block(|| {
                let (h, secs) = start_server(opts.seed)?;
                stop_server(h)?;
                Ok(secs)
            });
            if let Err(e) = spare {
                errors.push(format!("setup: {e}"));
            }
        }
        setup.report(report, "server starts with registration");
    }
    let server_metrics = Conn::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.request("{\"cmd\":\"metrics\"}"));
    if let Err(e) = stop_server(handle) {
        report.op(false, || format!("shutdown: {e}"));
    }

    let failed = samples.iter().filter(|s| !s.lat_s.is_finite()).count();
    for s in &samples {
        report.op(s.lat_s.is_finite(), || {
            format!("{:?} {:?} failed", s.kind, PAIRS[s.pair])
        });
    }
    report.problems.extend(errors);
    report.note(format!(
        "requests: {} in {elapsed:.3} s, {failed} failed",
        samples.len()
    ));

    guards(report, &samples, server_metrics.as_ref().ok());
    let lat: Vec<f64> = samples.iter().map(|s| s.lat_s).collect();
    report.put("req_p50_ms", percentile(&lat, 50.0).unwrap_or(0.0) * 1e3);
    report.put("req_p95_ms", percentile(&lat, 95.0).unwrap_or(0.0) * 1e3);
    report.put("req_per_s", (samples.len() - failed) as f64 / elapsed);
    report.note(format!(
        "latency samples: {}, percentile rule admits p{}",
        lat.len(),
        tail_percentile(lat.len()).map_or("-".into(), |p| p.to_string())
    ));
    // Per algorithm: the mean over the three dataset pairs of each pair's
    // median, so the figure does not jump between the pairs' levels.
    for algo in batch::ALGOS {
        let (mut lat, mut ttfp, mut n) = (Vec::new(), Vec::new(), 0);
        for pair in 0..PAIRS.len() {
            let of = |f: &dyn Fn(&Sample) -> Option<f64>| -> Vec<f64> {
                samples
                    .iter()
                    .filter(|s| s.kind == Kind::Cold(algo) && s.pair == pair)
                    .filter_map(f)
                    .collect()
            };
            let l = of(&|s| Some(s.lat_s));
            n += l.len();
            lat.extend(median(&l));
            ttfp.extend(median(&of(&|s| s.ttfp_s)));
        }
        report.note(format!("cold {algo}: {n} samples"));
        if lat.len() == PAIRS.len() && ttfp.len() == PAIRS.len() {
            report.put(
                &format!("join_s.{algo}"),
                lat.iter().sum::<f64>() / lat.len() as f64,
            );
            report.put(
                &format!("first_pair_s.{algo}"),
                ttfp.iter().sum::<f64>() / ttfp.len() as f64,
            );
        }
    }
    sim_io(report, &samples);

    if opts.trace {
        traced_layers(
            opts,
            report,
            tracer,
            &samples,
            server_metrics.ok(),
            overhead_base,
        );
    }
}

fn median_latency(samples: &[Sample]) -> f64 {
    let lat: Vec<f64> = samples.iter().map(|s| s.lat_s).collect();
    median(&lat).unwrap_or(f64::NAN)
}

/// Summed simulated I/O seconds over the distinct cold and planned join
/// configurations; every repeat of a configuration must report the same.
fn sim_io(report: &mut Report, samples: &[Sample]) {
    let mut per: BTreeMap<(Kind, usize), f64> = BTreeMap::new();
    for s in samples
        .iter()
        .filter(|s| matches!(s.kind, Kind::Cold(_) | Kind::Plan))
    {
        let Some(io) = s.io_s else { continue };
        match per.get(&(s.kind, s.pair)) {
            Some(&prev) => report.guard(prev == io, || {
                format!(
                    "{:?} {:?}: simulated I/O {io} differs from {prev}",
                    s.kind, PAIRS[s.pair]
                )
            }),
            None => {
                per.insert((s.kind, s.pair), io);
            }
        }
    }
    let expect = PAIRS.len() * (batch::ALGOS.len() + 1);
    report.guard(per.len() == expect, || {
        format!(
            "only {} of {expect} join configurations completed; run longer",
            per.len()
        )
    });
    report.put("sim_io_s", per.values().sum());
}

/// Workload-property guards: reuse requests hit the cache once a miss for
/// the same configuration has completed, and nothing is shed.
fn guards(report: &mut Report, samples: &[Sample], metrics: Option<&Json>) {
    let mut first_done: BTreeMap<(Kind, usize), Instant> = BTreeMap::new();
    for s in samples.iter().filter(|s| matches!(s.kind, Kind::Reuse(_))) {
        if let Some(d) = s.done {
            let e = first_done.entry((s.kind, s.pair)).or_insert(d);
            *e = (*e).min(d);
        }
    }
    let late_misses = samples
        .iter()
        .filter(|s| matches!(s.kind, Kind::Reuse(_)) && s.done.is_some() && !s.cache_hit)
        .filter(|s| {
            first_done
                .get(&(s.kind, s.pair))
                .is_some_and(|d| s.sent > *d)
        })
        .count();
    report.guard(late_misses == 0, || {
        format!("{late_misses} reuse request(s) missed a warm cache")
    });
    let shed = metrics
        .and_then(|m| m.get("ok")?.get("joins")?.get("shed")?.as_u64())
        .unwrap_or(u64::MAX);
    report.guard(shed == 0, || {
        format!("server shed {shed} join(s) at 2 clients")
    });
    report.put("sjoind.shed", shed as f64);
}

fn traced_layers(
    opts: &Opts,
    report: &mut Report,
    tracer: &mut Tracer,
    samples: &[Sample],
    metrics: Option<Json>,
    base: Option<f64>,
) {
    if let Some(untraced) = base {
        report.put("trace.overhead_s", median_latency(samples) - untraced);
    }
    for class in ["cold", "reuse", "plan", "s3j"] {
        let of = |f: &dyn Fn(&Sample) -> Option<f64>| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.kind.class() == class)
                .filter_map(f)
                .collect()
        };
        if let Some(m) = median(&of(&|s| Some(s.lat_s))) {
            report.put(&format!("sjoind.lat_p50_ms.{class}"), m * 1e3);
        }
        if let Some(m) = median(&of(&|s| s.ttfp_s)) {
            report.put(&format!("sjoind.ttfp_ms.{class}"), m * 1e3);
        }
    }
    let reuse: Vec<&Sample> = samples
        .iter()
        .filter(|s| matches!(s.kind, Kind::Reuse(_)))
        .collect();
    let hits = reuse.iter().filter(|s| s.cache_hit).count();
    report.put(
        "sjoind.cache_hit_ratio",
        hits as f64 / reuse.len().max(1) as f64,
    );
    let (bytes, pairs) = samples
        .iter()
        .fold((0, 0), |(b, p), s| (b + s.pair_bytes, p + s.pairs));
    report.put("sjoind.bytes_per_pair", bytes as f64 / pairs.max(1) as f64);
    if let Some(m) = metrics {
        report.note(format!("server metrics: {m}"));
    }

    let line = Kind::Cold("pbsm").line(0);
    let n = 20_000;
    let t0 = Instant::now();
    let parsed = tracer.span("sjoind.parse", |_| {
        let mut ok = 0;
        for _ in 0..n {
            let v = Json::parse(std::hint::black_box(&line));
            ok += usize::from(v.is_ok_and(|v| JoinRequest::from_json(&v).is_ok()));
        }
        ok
    });
    report.put(
        "sjoind.parse_ns",
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(n),
    );
    report.op(parsed == n as usize, || {
        "sjoind: a join line failed to parse".into()
    });

    // The in-process layers on the service's own inputs.
    let gen = Instant::now();
    let data: Vec<Vec<geom::Kpe>> = tracer.span("datagen.service", |_| {
        DATASETS
            .iter()
            .filter_map(|(_, src)| sjoind::proto::dataset(src, SCALE, opts.seed).ok())
            .collect()
    });
    report.put("datagen.gen_s", gen.elapsed().as_secs_f64());
    if let [rr, st, _] = data.as_slice() {
        let mem = (MEM_MB * 1024.0 * 1024.0) as usize;
        let mut cands = Vec::new();
        if let Err(e) =
            batch::timed_join(batch::algorithm("pbsm", mem, 1), rr, st, Some(&mut cands))
        {
            report.op(false, || format!("service-mix: candidate join: {e}"));
        }
        probes::batch_layers(tracer, report, rr, st, mem, &cands);
    }
}
