//! Integration tests for the `sjoind` join service (PR 7): concurrent
//! clients over loopback, admission control and overload shedding, fault
//! isolation, deadline propagation and partition-file reuse.
//!
//! The load-bearing property everywhere: a join admitted under concurrent
//! load is **bit-identical to a solo run** of the same request — the memory
//! arbiter grants all-or-nothing, so co-tenancy shares the budget but never
//! the configuration.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::prelude::*;

use sjoind::{Client, Json, JoinResponse, Server, ServerConfig, ServerHandle};
use spatialjoin::{Algorithm, Kpe, SpatialJoin};

const MB: u64 = 1024 * 1024;

fn start(cfg: ServerConfig) -> ServerHandle {
    Server::new(cfg)
        .start("127.0.0.1:0")
        .expect("bind ephemeral port")
}

/// Registers the standard test pair: two small uniform networks.
fn register_ab(addr: SocketAddr) -> (Vec<Kpe>, Vec<Kpe>) {
    let mut c = Client::connect(addr).expect("connect");
    for (name, seed) in [("a", 7u64), ("b", 7 ^ 0xFFFF)] {
        let resp = c
            .request(&format!(
                "{{\"cmd\":\"register\",\"name\":\"{name}\",\"source\":\"uniform\",\"scale\":0.004,\"seed\":{seed}}}"
            ))
            .expect("register");
        assert!(resp.get("ok").is_some(), "register failed: {resp}");
    }
    (
        sjoind::proto::dataset("uniform", 0.004, 7).expect("dataset a"),
        sjoind::proto::dataset("uniform", 0.004, 7 ^ 0xFFFF).expect("dataset b"),
    )
}

/// Solo (non-service) run of the same request — the bit-identity oracle.
fn solo(left: &[Kpe], right: &[Kpe], mem: usize) -> (Vec<(u64, u64)>, u64, u64) {
    let run = SpatialJoin::new(Algorithm::pbsm_rpm(mem))
        .try_run(left, right)
        .expect("solo run");
    let mut pairs: Vec<(u64, u64)> = run
        .pairs
        .iter()
        .map(|&(a, b)| (a.0, b.0))
        .collect();
    pairs.sort_unstable();
    (pairs, run.stats.results(), run.stats.duplicates())
}

fn sorted_pairs(resp: &JoinResponse) -> Vec<(u64, u64)> {
    let mut pairs = resp.pairs.clone();
    pairs.sort_unstable();
    pairs
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn concurrent_clients_are_bit_identical_to_solo_runs() {
    // Budget fits two 1 MiB joins; four concurrent clients force the other
    // two through the admission queue. Every response must still be
    // bit-identical to a solo run, and the arbiter must never over-commit.
    let handle = start(ServerConfig {
        budget_bytes: 2 * MB,
        max_queue: 4,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let (want_pairs, want_results, want_duplicates) = solo(&left, &right, MB as usize);
    assert!(want_results > 0, "test join must produce results");

    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"algo\":\"pbsm\",\"mem_mb\":1.0}")
                    .expect("join stream")
            })
        })
        .collect();
    for t in threads {
        let resp = t.join().expect("client thread");
        assert_eq!(resp.error, None, "co-tenant join failed: {:?}", resp.error);
        let done = resp.done.clone().expect("done line");
        assert_eq!(done.get("results").and_then(Json::as_u64), Some(want_results));
        assert_eq!(
            done.get("duplicates").and_then(Json::as_u64),
            Some(want_duplicates)
        );
        assert_eq!(sorted_pairs(&resp), want_pairs, "pair stream differs from solo");
    }
    let snap = handle.arbiter().snapshot();
    assert!(
        snap.peak_leased_bytes <= snap.budget_bytes,
        "arbiter over-committed: {} > {}",
        snap.peak_leased_bytes,
        snap.budget_bytes
    );
    assert_eq!(snap.admitted, 4);
    assert!(handle.arbiter().is_idle(), "leases leaked after load");
}

#[test]
fn overload_is_shed_with_typed_retry_hint() {
    // Queue depth zero: while one join holds most of the budget, a second
    // that does not fit must be rejected `overloaded` immediately — and the
    // holder must still complete bit-identically.
    let handle = start(ServerConfig {
        budget_bytes: MB,
        max_queue: 0,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let (want_pairs, want_results, _) = solo(&left, &right, (0.8 * MB as f64) as usize);

    let holder = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect holder");
        c.join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":0.8,\"hold_ms\":1500}")
            .expect("holder stream")
    });
    wait_until("holder to take its lease", || {
        handle.arbiter().snapshot().leased_bytes > 0
    });

    let mut shed = Client::connect(addr).expect("connect shed");
    let resp = shed
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":0.5}")
        .expect("shed stream");
    assert_eq!(resp.error_kind(), Some("overloaded"), "{:?}", resp.error);
    let retry_after = resp
        .error
        .as_ref()
        .and_then(|e| e.get("retry_after"))
        .and_then(Json::as_f64)
        .expect("retry_after hint");
    assert!(retry_after > 0.0, "retry_after must be positive");
    assert!(resp.pairs.is_empty(), "shed join must not stream pairs");

    // An impossible request is typed differently: it can never be admitted.
    let resp = shed
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":64}")
        .expect("too-large stream");
    assert_eq!(resp.error_kind(), Some("too_large"), "{:?}", resp.error);
    assert_eq!(
        resp.error.as_ref().and_then(|e| e.get("budget")).and_then(Json::as_u64),
        Some(MB)
    );

    let held = holder.join().expect("holder thread");
    assert_eq!(held.error, None, "{:?}", held.error);
    assert_eq!(
        held.done.as_ref().and_then(|d| d.get("results")).and_then(Json::as_u64),
        Some(want_results)
    );
    assert_eq!(sorted_pairs(&held), want_pairs);
    assert!(handle.arbiter().is_idle());
}

#[test]
fn killed_client_releases_lease_and_server_stays_healthy() {
    // Small batches force many socket writes, so the mid-stream hangup is
    // detected while the join is still emitting.
    let handle = start(ServerConfig {
        budget_bytes: 4 * MB,
        batch: 4,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (left, right) = register_ab(addr);

    let mut victim = Client::connect(addr).expect("connect victim");
    victim
        .send("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"hold_ms\":100}")
        .expect("send join");
    let _ = victim.recv(); // at most one line, then walk away mid-stream
    drop(victim);

    wait_until("the dead client's lease to be released", || {
        handle.arbiter().is_idle()
    });

    // The server must remain fully operational for other clients.
    let mut c = Client::connect(addr).expect("connect after kill");
    assert_eq!(
        c.request("{\"cmd\":\"ping\"}").expect("ping").get("ok").and_then(Json::as_str),
        Some("pong")
    );
    let (want_pairs, want_results, _) = solo(&left, &right, MB as usize);
    let resp = c
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0}")
        .expect("follow-up join");
    assert_eq!(resp.error, None, "{:?}", resp.error);
    assert_eq!(
        resp.done.as_ref().and_then(|d| d.get("results")).and_then(Json::as_u64),
        Some(want_results)
    );
    assert_eq!(sorted_pairs(&resp), want_pairs);
    assert!(handle.arbiter().is_idle());
}

#[test]
fn deadline_expiry_returns_typed_resumable_error() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    register_ab(addr);
    let mut c = Client::connect(addr).expect("connect");
    let resp = c
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"deadline\":1e-9}")
        .expect("join stream");
    let err = resp.error.clone().expect("deadline must trip");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("deadline"));
    assert_eq!(err.get("resumable").and_then(Json::as_bool), Some(true));
    assert!(err.get("elapsed").and_then(Json::as_f64).is_some());
    assert!(handle.arbiter().is_idle(), "deadline expiry leaked its lease");
}

#[test]
fn partition_reuse_is_bit_identical_and_reports_cache_hits() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let (want_pairs, want_results, _) = solo(&left, &right, MB as usize);

    let mut c = Client::connect(addr).expect("connect");
    let line =
        "{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"reuse\":true,\"metrics\":true}";
    let cold = c.join(line).expect("cold reuse join");
    assert_eq!(cold.error, None, "{:?}", cold.error);
    let cold_done = cold.done.clone().expect("done");
    assert_eq!(cold_done.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert_eq!(sorted_pairs(&cold), want_pairs);

    let warm = c.join(line).expect("warm reuse join");
    assert_eq!(warm.error, None, "{:?}", warm.error);
    let warm_done = warm.done.clone().expect("done");
    assert_eq!(
        warm_done.get("cache_hit").and_then(Json::as_bool),
        Some(true),
        "second identical reuse join must hit the cache"
    );
    assert_eq!(
        warm_done.get("results").and_then(Json::as_u64),
        Some(want_results)
    );
    assert_eq!(sorted_pairs(&warm), want_pairs, "cached serve differs from solo");

    // The hit is visible in the request's reconciled metrics report…
    let report = warm_done.get("metrics").expect("metrics attached");
    assert_eq!(
        report.get("partition_cache_hits").and_then(Json::as_u64),
        Some(1),
        "metrics report must count the partition cache hit"
    );
    // …and in the server-wide metrics command.
    let metrics = c.request("{\"cmd\":\"metrics\"}").expect("metrics cmd");
    let cache = metrics.get("ok").and_then(|o| o.get("cache")).expect("cache block");
    assert!(cache.get("hits").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(handle.cache_hits(), 1);
    assert!(handle.arbiter().is_idle());
}

#[test]
fn crash_and_panic_are_contained_to_their_session() {
    let handle = start(ServerConfig {
        budget_bytes: 8 * MB,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let (want_pairs, want_results, _) = solo(&left, &right, MB as usize);

    // A well-behaved co-tenant runs concurrently with both fault legs.
    let cotenant = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect co-tenant");
        c.join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"hold_ms\":50}")
            .expect("co-tenant stream")
    });

    let mut crasher = Client::connect(addr).expect("connect crasher");
    let resp = crasher
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"crash\":\"mid-partition:0\"}")
        .expect("crash stream");
    let err = resp.error.clone().expect("crash point must fire");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("crashed"));
    assert_eq!(err.get("resumable").and_then(Json::as_bool), Some(true));
    // The crash fires while committing the first partition, so the crashed
    // leg streamed a strict prefix of the output.
    assert!(resp.pairs.len() < want_pairs.len());

    // The same *session* stays usable after its request crashed…
    assert_eq!(
        crasher.request("{\"cmd\":\"ping\"}").expect("ping").get("ok").and_then(Json::as_str),
        Some("pong")
    );

    // …and a panicking worker is likewise contained to one typed line.
    let resp = crasher
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"panic_after\":1}")
        .expect("panic stream");
    assert_eq!(resp.error_kind(), Some("panicked"), "{:?}", resp.error);

    let good = cotenant.join().expect("co-tenant thread");
    assert_eq!(good.error, None, "{:?}", good.error);
    assert_eq!(
        good.done.as_ref().and_then(|d| d.get("results")).and_then(Json::as_u64),
        Some(want_results)
    );
    assert_eq!(
        sorted_pairs(&good),
        want_pairs,
        "co-tenant of a crashed/panicked join must be bit-identical to solo"
    );
    wait_until("fault legs to release their leases", || {
        handle.arbiter().is_idle()
    });
}

#[test]
fn shutdown_drains_in_flight_joins_and_refuses_new_ones() {
    let handle = start(ServerConfig {
        budget_bytes: 4 * MB,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (left, right) = register_ab(addr);
    let (want_pairs, want_results, _) = solo(&left, &right, MB as usize);

    // Pre-open every connection: once draining starts the listener stops
    // accepting.
    let mut shutter = Client::connect(addr).expect("connect shutter");
    let mut late = Client::connect(addr).expect("connect late");

    let in_flight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect in-flight");
        c.join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"hold_ms\":1500}")
            .expect("in-flight stream")
    });
    wait_until("the in-flight join to be admitted", || {
        handle.arbiter().snapshot().leased_bytes > 0
    });

    let ack = shutter.request("{\"cmd\":\"shutdown\"}").expect("shutdown ack");
    assert_eq!(ack.get("ok").and_then(Json::as_str), Some("draining"));

    // A join arriving during the drain gets the typed refusal.
    let refused = late
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0}")
        .expect("late join");
    assert_eq!(refused.error_kind(), Some("draining"), "{:?}", refused.error);

    // The in-flight join still finishes streaming, bit-identically.
    let done = in_flight.join().expect("in-flight thread");
    assert_eq!(done.error, None, "{:?}", done.error);
    assert_eq!(
        done.done.as_ref().and_then(|d| d.get("results")).and_then(Json::as_u64),
        Some(want_results)
    );
    assert_eq!(sorted_pairs(&done), want_pairs);

    // And the server thread exits once drained.
    assert!(handle.arbiter().is_idle());
    handle.join();
}

#[test]
fn plan_auto_reports_its_choice_and_stays_bit_identical() {
    use spatialjoin::estimate::{DatasetProfile, PlanSpace, Planner};

    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let (left, right) = register_ab(addr);

    // Re-derive the pick the server must make: streamable space, identity
    // coefficients, single channel — then its answer is an oracle for both
    // the done-line annotation and the pair stream.
    let plan = Planner::new(MB as usize)
        .with_space(PlanSpace::Streamable)
        .plan(&DatasetProfile::build(&left), &DatasetProfile::build(&right));
    let choice = plan.chosen().choice;
    let run = SpatialJoin::new(Algorithm::from_choice(&choice))
        .try_run(&left, &right)
        .expect("oracle run");
    let mut want_pairs: Vec<(u64, u64)> = run.pairs.iter().map(|&(a, b)| (a.0, b.0)).collect();
    want_pairs.sort_unstable();

    let mut c = Client::connect(addr).expect("connect");
    let resp = c
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0,\"plan\":\"auto\"}")
        .expect("planned join");
    assert_eq!(resp.error, None, "{:?}", resp.error);
    let done = resp.done.clone().expect("done line");
    assert_eq!(
        done.get("plan").and_then(Json::as_str),
        Some(choice.describe().as_str()),
        "done line must report the chosen plan"
    );
    assert_eq!(
        done.get("results").and_then(Json::as_u64),
        Some(run.stats.results())
    );
    assert_eq!(sorted_pairs(&resp), want_pairs, "planned join differs from oracle");

    // Planning composes with neither reuse nor crash/resume: both key on a
    // fixed configuration fingerprint.
    let refused = c
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"plan\":\"auto\",\"reuse\":true}")
        .expect("plan+reuse stream");
    assert_eq!(refused.error_kind(), Some("bad_request"), "{:?}", refused.error);

    // An unplanned join's done line carries no plan field.
    let plain = c
        .join("{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":1.0}")
        .expect("plain join");
    assert!(plain.done.expect("done").get("plan").is_none());
    assert!(handle.arbiter().is_idle());
}

#[test]
fn protocol_rejects_garbage_without_dying() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).expect("connect");
    for bad in [
        "not json at all",
        "{\"cmd\":\"frobnicate\"}",
        "{\"cmd\":\"join\",\"left\":\"a\"}",
        "{\"cmd\":\"join\",\"left\":\"nope\",\"right\":\"nada\"}",
        // Nested far past the parser's depth cap, inside the line cap: a
        // recursive parser without the cap overflows the session's stack,
        // which aborts the whole process.
        &"[".repeat(60_000),
        // Longer than the request-line cap.
        &"[".repeat(200_000),
    ] {
        let resp = c.request(bad).expect("error response");
        let err = resp.get("error").expect("typed error");
        let kind = err.get("kind").and_then(Json::as_str).expect("kind");
        assert!(
            kind == "bad_request" || kind == "unknown_dataset",
            "unexpected kind {kind} for {:?}",
            &bad[..bad.len().min(40)]
        );
    }
    // A budget below one disk page is refused before the join starts. With
    // both names registered nothing else can refuse the request: 1e-9 MB
    // truncates to a 0-byte budget, which the partitioning formula divides
    // by, and the daemon would die asking for ~2^32 partitions.
    register_ab(addr);
    for mem_mb in ["1e-9", "0.0001"] {
        let line =
            format!("{{\"cmd\":\"join\",\"left\":\"a\",\"right\":\"b\",\"mem_mb\":{mem_mb}}}");
        let resp = c.request(&line).expect("error response");
        let kind = resp
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        assert_eq!(kind, Some("bad_request"), "mem_mb {mem_mb}: {resp}");
    }
    // Session still alive after every rejection.
    assert_eq!(
        c.request("{\"cmd\":\"ping\"}").expect("ping").get("ok").and_then(Json::as_str),
        Some("pong")
    );
    // Inputs the protocol fuzz below found: each must get one typed answer
    // and leave the session serving.
    let mut raw = RawSession::connect(addr);
    for bad in [
        // A flipped byte that is not UTF-8 used to close the session
        // without an answer.
        &b"{\"cmd\":\"pi\xC3ng\"}"[..],
        &b"{\"cmd\":\"join\",\"left\":\"\xFF\"}"[..],
    ] {
        assert_eq!(raw.answer(bad).as_deref(), Ok("bad_request"));
    }
    handle.request_drain();
    handle.join();
}

/// A client on a raw socket, so a test can send arbitrary bytes and notice
/// a missing answer instead of blocking on it.
struct RawSession {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawSession {
    fn connect(addr: SocketAddr) -> RawSession {
        let out = TcpStream::connect(addr).expect("connect");
        out.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = BufReader::new(out.try_clone().expect("clone socket"));
        RawSession { out, reader }
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("session closed".into()),
            Ok(_) => Json::parse(line.trim()).map_err(|e| format!("untyped answer {line:?}: {e}")),
            Err(e) => Err(format!("no answer: {e}")),
        }
    }

    /// Sends `line` then a `ping`. The line must get exactly one typed
    /// answer — an `ok`, or an `error` with a `kind` — and the ping must
    /// still be answered after it. Returns the error kind, or `"ok"`.
    fn answer(&mut self, line: &[u8]) -> Result<String, String> {
        let mut msg = line.to_vec();
        msg.extend_from_slice(b"\n{\"cmd\":\"ping\"}\n");
        self.out.write_all(&msg).map_err(|e| format!("send: {e}"))?;
        let first = self.recv()?;
        let kind = match (first.get("ok"), first.get("error")) {
            (Some(_), None) => "ok".to_owned(),
            (None, Some(err)) => err
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("error without a kind: {first}"))?
                .to_owned(),
            _ => return Err(format!("untyped answer {first}")),
        };
        let pong = self.recv()?;
        if pong.get("ok").and_then(Json::as_str) != Some("pong") {
            return Err(format!("a second answer {pong} instead of the ping's"));
        }
        Ok(kind)
    }
}

/// Request lines from a small grammar of the real verbs and fields. Joins
/// name datasets the fuzz never registers, so every line has a one-line
/// answer; `shutdown` is left out because it ends the session by design.
fn grammar_line(rng: &mut StdRng) -> String {
    let pick = |rng: &mut StdRng, xs: &[&str]| xs[rng.gen_range(0..xs.len())].to_owned();
    let num = |rng: &mut StdRng| pick(rng, &["0", "1", "0.5", "0.01", "7", "-1", "1e-9", "3.5e2"]);
    let mut fields = Vec::new();
    let verb = pick(rng, &["ping", "list", "metrics", "register", "join", "frobnicate"]);
    fields.push(format!("\"cmd\":\"{verb}\""));
    let keys: &[&str] = match verb.as_str() {
        "register" => &["name", "source", "scale", "seed"],
        "join" => &[
            "left", "right", "algo", "mem_mb", "threads", "channels", "deadline", "limit", "reuse",
            "plan", "metrics", "faults", "crash", "hold_ms",
        ],
        _ => &["name", "limit"],
    };
    for key in keys {
        if !rng.gen_bool(0.6) {
            continue;
        }
        let value = match *key {
            "name" => format!("\"{}\"", pick(rng, &["fz", "", "a b"])),
            "source" => format!("\"{}\"", pick(rng, &["uniform", "clustered", "mars"])),
            "left" | "right" => format!("\"{}\"", pick(rng, &["fz1", "fz2", ""])),
            "algo" => format!("\"{}\"", pick(rng, &["pbsm", "s3j", "twolayer", "sssj"])),
            "plan" => format!("\"{}\"", pick(rng, &["auto", "explain", "no"])),
            "crash" => format!("\"{}\"", pick(rng, &["after-commit:1", "mid-partition:0", "x"])),
            "reuse" | "metrics" => pick(rng, &["true", "false", "null"]),
            // Register scales stay small so a line that does register a
            // dataset costs milliseconds.
            "scale" => pick(rng, &["0.001", "0", "-2", "5", "\"0.01\""]),
            _ => num(rng),
        };
        fields.push(format!("\"{key}\":{value}"));
    }
    fields.shuffle(rng);
    // Keep `cmd` first most of the time, as clients send it.
    if let Some(i) = fields.iter().position(|f| f.starts_with("\"cmd\"")) {
        if rng.gen_bool(0.8) {
            fields.swap(0, i);
        }
    }
    format!("{{{}}}", fields.join(","))
}

/// One random mutation: flip a byte, truncate, nest, or swap a number for
/// another type. Never introduces a newline (that would be two requests).
fn mutate(rng: &mut StdRng, line: &mut Vec<u8>) {
    match rng.gen_range(0..4) {
        0 if !line.is_empty() => {
            let i = rng.gen_range(0..line.len());
            line[i] = match rng.gen_range(0..3) {
                0 => rng.gen_range(0x20..0x7F),
                1 => rng.gen_range(0x80..=0xFF),
                _ => *b"{}[]\":,\\0-e".choose(rng).expect("non-empty"),
            };
        }
        1 if !line.is_empty() => line.truncate(rng.gen_range(0..line.len())),
        2 => {
            let depth = rng.gen_range(1..80);
            let (open, close) = if rng.gen_bool(0.5) {
                ("[", "]")
            } else {
                ("{\"k\":", "}")
            };
            let mut nested = open.repeat(depth).into_bytes();
            nested.append(line);
            nested.extend(close.repeat(depth).bytes());
            *line = nested;
        }
        _ => {
            let text = String::from_utf8_lossy(line).into_owned();
            let digits: Vec<usize> = text
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if let Some(&i) = digits.choose(rng) {
                let end = text[i..]
                    .find(|c: char| !(c.is_ascii_digit() || ".eE+-".contains(c)))
                    .map_or(text.len(), |n| i + n);
                let swapped = *[
                    "\"12\"",
                    "null",
                    "true",
                    "[]",
                    "{}",
                    "1e999",
                    "-0",
                    "18446744073709551616",
                    "0.0000001",
                ]
                .choose(rng)
                .expect("non-empty");
                *line = format!("{}{swapped}{}", &text[..i], &text[end..]).into_bytes();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded grammar-and-mutation fuzz of the request protocol: every line
    /// gets exactly one typed answer and the session keeps serving.
    #[test]
    fn protocol_fuzz_every_line_gets_one_typed_answer(seed in any::<u64>()) {
        let handle = start(ServerConfig::default());
        let mut session = RawSession::connect(handle.addr());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..40 {
            let mut line = grammar_line(&mut rng).into_bytes();
            for _ in 0..rng.gen_range(0..4) {
                mutate(&mut rng, &mut line);
            }
            // A blank line is skipped by the protocol, not answered.
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            let answer = session.answer(&line);
            prop_assert!(
                answer.is_ok(),
                "{answer:?} for {:?}",
                String::from_utf8_lossy(&line)
            );
        }
        handle.request_drain();
        handle.join();
    }
}

/// Open file descriptors of this process.
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

/// Finished sessions give back their descriptors: hundreds of short
/// sequential connections leave the fd count where it started (within the
/// slack other tests in this binary may hold at the same time), instead of
/// growing by one socket per session until `accept` fails with EMFILE.
#[cfg(target_os = "linux")]
#[test]
fn finished_sessions_release_their_descriptors() {
    let handle = start(ServerConfig::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(
        c.request("{\"cmd\":\"ping\"}")
            .expect("ping")
            .get("ok")
            .and_then(Json::as_str),
        Some("pong")
    );
    drop(c);
    let baseline = open_fds();
    for _ in 0..300 {
        let mut c = Client::connect(addr).expect("connect");
        assert!(c
            .request("{\"cmd\":\"ping\"}")
            .expect("ping")
            .get("ok")
            .is_some());
    }
    wait_until("finished sessions to release their descriptors", || {
        open_fds() <= baseline + 32
    });
    handle.request_drain();
    handle.join();
}
