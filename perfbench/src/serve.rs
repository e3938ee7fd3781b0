//! The `serve-routed` workload: an open loop over two v2 connections
//! into one `sempe-router` fronting two `sempe-serve` shards with one
//! worker each, all started in this process.
//!
//! A run sets the stack up three times (reporting the median) and
//! measures per-class latency at the reference rate. The traced run then
//! searches the rate ladder for the highest rate that meets the latency
//! limit, repeats the reference phase with spans recorded, scrapes the
//! `metrics` op of every shard and the router around it, and adds two
//! short side phases for the router's and the event loop's own cost.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sempe_core::json::{self, Json};
use sempe_service::{Envelope, Router, RouterConfig, Server, ServiceConfig};

use crate::gen::{Arrival, Class, Expect, Traffic, BATCH_TRIALS, HIT_KEYS};
use crate::report::{peak_rss_mib, Report};
use crate::stats::{detect_backlog, geomean, median, min_samples, percentile, Backlog, Completion};
use crate::trace::Tracer;

/// Offered rate of the reference phase, requests/s. Chosen, not taken
/// from observed client traffic (the repository has none): it is about
/// 0.45 of the `max_rps_slo` this workload measured on the 2-vCPU bench
/// VM (medians 1375-1410 req/s), so the latencies are read well below
/// the knee, where queueing has not yet taken over.
const REF_RATE: f64 = 600.0;
/// Blocks of the reference phase; each alone supports a p99 per class.
/// Their median outlasts host stalls of a few seconds in two of them.
const REF_BLOCKS: usize = 5;
/// Rate ladder: `LADDER_BASE * LADDER_STEP^k` for `k` in `0..LADDER_RUNGS`.
const LADDER_BASE: f64 = 400.0;
/// Ratio between adjacent rungs, far finer than the bound on `max_rps_slo`.
const LADDER_STEP: f64 = 1.025;
/// Rungs on the ladder (400 to about 6000 requests/s).
const LADDER_RUNGS: usize = 111;
/// Limit on the overall p99 latency of a ladder phase, ms. It sits above
/// the p99 of every stable rate below saturation, so the ladder finds
/// where latency leaves its stable band.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// Staircase probes after the search has bracketed the edge.
const STAIRCASE_PROBES: usize = 10;
/// Passing staircase probes the result needs, after its first fail.
const STAIRCASE_PASSES: usize = 5;
/// Staircase probes at most.
const STAIRCASE_MAX: usize = 30;
/// Idle time between phases, so one phase's tail does not load the next.
const PAUSE: Duration = Duration::from_millis(200);
/// Failed share of a ladder phase above which its rate fails.
const MAX_FAILED_SHARE: f64 = 0.005;
/// Class mix of every phase, as parts of hit : miss : batch. Chosen, not
/// observed: equal parts give every class the same number of samples
/// beyond its p99 in each block.
const MIX: [usize; 3] = [1, 1, 1];
/// Load connections into the router.
const CONNS: usize = 2;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// How long after its last due time a phase waits for answers; a
/// request still unanswered then has timed out.
const DRAIN: Duration = Duration::from_secs(15);
/// Latency charged to a failed request: it misses any limit.
const FAILED_MS: f64 = 1e6;
/// Queue-depth sampling period during a phase.
const PROBE_EVERY: Duration = Duration::from_millis(20);
/// Requests per side phase of the traced run.
const SIDE_REQUESTS: usize = 1000;

// ---------------------------------------------------------------- stack

/// Two shards and a router, in this process.
struct Stack {
    shards: Vec<Server>,
    router: Router,
}

impl Stack {
    fn start() -> Stack {
        let shards: Vec<Server> = (0..2)
            .map(|_| {
                Server::start(&ServiceConfig { workers: 1, ..ServiceConfig::default() })
                    .expect("shard starts")
            })
            .collect();
        let router = Router::start(&RouterConfig {
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouterConfig::default()
        })
        .expect("router starts");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let healthy = control(router.local_addr(), r#"{"type":"health"}"#)
                .ok()
                .and_then(|v| v.get("shards_healthy").and_then(Json::as_u64));
            if healthy == Some(2) {
                break;
            }
            assert!(Instant::now() < deadline, "router never saw both shards healthy");
            std::thread::sleep(Duration::from_millis(2));
        }
        Stack { shards, router }
    }

    fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(Server::local_addr).collect()
    }

    fn stop(self) {
        self.router.shutdown();
        self.router.join();
        for s in self.shards {
            s.shutdown();
            s.join();
        }
    }
}

/// Read one `\n`-terminated line byte by byte (used only where nothing
/// else can be in flight on the connection).
fn read_line(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut line = Vec::new();
    let mut b = [0u8; 1];
    loop {
        if stream.read(&mut b)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"));
        }
        if b[0] == b'\n' {
            return Ok(String::from_utf8_lossy(&line).into_owned());
        }
        line.push(b[0]);
    }
}

/// A v1 connection for control requests, answered in order.
fn connect_v1(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    s
}

/// One control request (`health`, `metrics`) on a v1 connection.
fn ask(s: &mut TcpStream, line: &str) -> std::io::Result<Json> {
    writeln!(s, "{line}")?;
    let resp = read_line(s)?;
    json::parse(&resp).map_err(|e| std::io::Error::other(e.to_string()))
}

/// One control request on a fresh connection.
fn control(addr: SocketAddr, line: &str) -> std::io::Result<Json> {
    ask(&mut connect_v1(addr), line)
}

/// A v2 connection: `hello` sent and acknowledged.
fn connect_v2(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    writeln!(s, r#"{{"id":"hello","type":"hello","proto":2}}"#).expect("send hello");
    let resp = read_line(&mut s).expect("hello answered");
    assert!(resp.contains(r#""ok":true"#), "hello refused: {resp}");
    s
}

// ---------------------------------------------------------------- phases

/// The answer to one request, as the client saw it.
#[derive(Debug, Default, Clone)]
struct Answer {
    /// When the terminal line arrived.
    at: Option<Instant>,
    /// The terminal line.
    line: String,
    /// Streamed frames before the terminal.
    frames: u32,
}

/// The load connections and the id space they share.
struct Load {
    conns: Vec<TcpStream>,
    next_id: u64,
}

/// What one timed phase produced.
#[derive(Debug, Default)]
struct Phase {
    rate: f64,
    /// Per request: class, due offset (s), latency (ms) or failure code.
    results: Vec<(Class, f64, Result<f64, String>)>,
    /// How late each send ran, ms.
    lag_ms: Vec<f64>,
    /// Sampled total queue depth over the shards: (seconds, depth).
    depths: Vec<(f64, f64)>,
    mismatches: Vec<String>,
}

impl Phase {
    fn sent(&self) -> u64 {
        self.results.len() as u64
    }
    fn failed(&self) -> u64 {
        self.results.iter().filter(|r| r.2.is_err()).count() as u64
    }
    fn refused(&self) -> u64 {
        self.results.iter().filter(|r| matches!(&r.2, Err(c) if c == "E_BUSY")).count() as u64
    }

    /// Sorted latencies (failures at [`FAILED_MS`]) of one class, or all.
    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .results
            .iter()
            .filter(|r| class.is_none_or(|c| r.0 == c))
            .map(|r| *r.2.as_ref().unwrap_or(&FAILED_MS))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn backlog(&self) -> Option<Backlog> {
        let c: Vec<Completion> = self
            .results
            .iter()
            .map(|r| Completion { due_s: r.1, latency_ms: *r.2.as_ref().unwrap_or(&FAILED_MS) })
            .collect();
        detect_backlog(&c, &self.depths)
    }

    fn to_json(&self) -> Json {
        let p99 = percentile(&self.latencies(None), 0.99);
        let lag = {
            let mut l = self.lag_ms.clone();
            l.sort_by(f64::total_cmp);
            percentile(&l, 0.99)
        };
        Json::obj()
            .with("rate", self.rate)
            .with("sent", self.sent())
            .with("ok", self.sent() - self.failed())
            .with("failed", self.failed())
            .with("refused", self.refused())
            .with("p99_ms", p99.map_or(Json::Null, Json::from))
            .with(
                "class_p50_ms",
                Json::Arr(
                    Class::ALL
                        .iter()
                        .map(|&c| {
                            percentile(&self.latencies(Some(c)), 0.5).map_or(Json::Null, Json::from)
                        })
                        .collect(),
                ),
            )
            .with("gen_lag_ms_p99", lag.map_or(Json::Null, Json::from))
            .with("backlog", self.backlog().map_or(Json::Null, |b| Json::from(format!("{b:?}"))))
    }
}

/// Run one open-loop phase: send every arrival at its due time, collect
/// the answers, and check each against its expectation.
fn run_phase(
    load: &mut Load,
    arrivals: &[Arrival],
    rate: f64,
    shards: &[SocketAddr],
    hit_refs: &[String],
    tracer: &mut Tracer,
) -> Phase {
    let base = load.next_id;
    load.next_id += arrivals.len() as u64;
    let n = arrivals.len();
    let start = Instant::now() + Duration::from_millis(5);
    let last_due = start + Duration::from_secs_f64(arrivals.last().map_or(0.0, |a| a.due_s));
    let give_up = last_due + DRAIN;
    let stop_probe = AtomicBool::new(false);
    let mut sent_at = vec![start; n];
    let mut answers: Vec<Answer> = vec![Answer::default(); n];
    let mut depths = Vec::new();

    std::thread::scope(|s| {
        let readers: Vec<_> = load
            .conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let stream = conn.try_clone().expect("clone load connection");
                let expected = arrivals.iter().filter(|a| a.conn == c).count();
                s.spawn(move || read_answers(stream, base, n, expected, give_up))
            })
            .collect();
        let probe = s.spawn(|| {
            let mut links: Vec<TcpStream> = shards.iter().map(|&a| connect_v1(a)).collect();
            let mut out = Vec::new();
            while !stop_probe.load(Ordering::SeqCst) {
                let depth: u64 = links
                    .iter_mut()
                    .filter_map(|l| ask(l, r#"{"type":"health"}"#).ok())
                    .filter_map(|v| {
                        v.get("queue").and_then(|q| q.get("depth")).and_then(Json::as_u64)
                    })
                    .sum();
                out.push((start.elapsed().as_secs_f64(), depth as f64));
                std::thread::sleep(PROBE_EVERY);
            }
            out
        });

        let mut line = String::new();
        for (i, a) in arrivals.iter().enumerate() {
            let due = start + Duration::from_secs_f64(a.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            line.clear();
            line.push_str(&format!(r#"{{"id":"{}",{}}}"#, base + i as u64, a.body));
            line.push('\n');
            let id = base + i as u64;
            let send = tracer.begin("gen.send", None, id);
            load.conns[a.conn].write_all(line.as_bytes()).expect("send request");
            tracer.end(send);
            sent_at[i] = Instant::now();
        }
        for r in readers {
            for (i, ans) in r.join().expect("reader thread") {
                answers[i] = ans;
            }
        }
        stop_probe.store(true, Ordering::SeqCst);
        depths = probe.join().expect("probe thread");
    });

    let mut phase = Phase { rate, depths, ..Phase::default() };
    for (i, a) in arrivals.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.due_s);
        phase.lag_ms.push(sent_at[i].saturating_duration_since(due).as_secs_f64() * 1e3);
        let ans = &answers[i];
        let id = base + i as u64;
        let outcome = match ans.at {
            None => Err("timeout".to_string()),
            Some(at) => {
                let root = tracer.record("request", due, at, None, id);
                tracer.record("gen.lag", due, sent_at[i], root, id);
                check(ans, &a.expect, hit_refs)
                    .map(|()| at.saturating_duration_since(due).as_secs_f64() * 1e3)
            }
        };
        if let Err(e) = &outcome {
            if let Some(m) = e.strip_prefix("mismatch: ") {
                phase.mismatches.push(format!("request {id} ({}): {m}", a.class.name()));
            }
        }
        phase.results.push((a.class, a.due_s, outcome));
    }
    phase
}

/// Collect terminal answers for one connection until every request it
/// carries is answered or `give_up` passes. Returns `(index, answer)`.
fn read_answers(
    mut stream: TcpStream,
    base: u64,
    n: usize,
    expected: usize,
    give_up: Instant,
) -> Vec<(usize, Answer)> {
    stream.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
    let mut frames = vec![0u32; n];
    let mut out = Vec::with_capacity(expected);
    let mut buf = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    while out.len() < expected && Instant::now() < give_up {
        let got = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => k,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        let at = Instant::now();
        buf.extend_from_slice(&chunk[..got]);
        let mut consumed = 0;
        while let Some(nl) = buf[consumed..].iter().position(|&b| b == b'\n') {
            let line = &buf[consumed..consumed + nl];
            consumed += nl + 1;
            let Some((idx, is_frame)) = parse_head(line, base, n) else { continue };
            if is_frame {
                frames[idx] += 1;
            } else {
                let line = String::from_utf8_lossy(line).into_owned();
                out.push((idx, Answer { at: Some(at), line, frames: frames[idx] }));
            }
        }
        buf.drain(..consumed);
    }
    out
}

/// Request index and frame flag from a line led by `{"id":"<n>",`.
fn parse_head(line: &[u8], base: u64, n: usize) -> Option<(usize, bool)> {
    let rest = line.strip_prefix(br#"{"id":""#)?;
    let end = rest.iter().position(|&b| b == b'"')?;
    let id: u64 = std::str::from_utf8(&rest[..end]).ok()?.parse().ok()?;
    let idx = usize::try_from(id.checked_sub(base)?).ok().filter(|&i| i < n)?;
    Some((idx, rest[end + 1..].starts_with(br#","seq":"#)))
}

/// The response body after the id member, for byte comparison.
fn body_after_id(line: &str) -> &str {
    line.find("\",").map_or(line, |i| &line[i + 2..])
}

fn outputs_of(v: &Json) -> Option<Vec<u64>> {
    v.get("outputs")?.as_array()?.iter().map(Json::as_u64).collect()
}

/// Check one answer: `Err("E_…")` for an error response, `Err("mismatch: …")`
/// for a wrong answer.
fn check(ans: &Answer, expect: &Expect, hit_refs: &[String]) -> Result<(), String> {
    if !ans.line.contains(r#""ok":true"#) {
        let v = json::parse(&ans.line).ok();
        let code = v.as_ref().and_then(|v| v.get("code")).and_then(Json::as_str);
        return Err(code.unwrap_or("E_UNKNOWN").to_string());
    }
    let fail = |m: String| Err(format!("mismatch: {m}"));
    match expect {
        Expect::Hit(k) => {
            if body_after_id(&ans.line) != hit_refs[*k] {
                return fail(format!("hit key {k} response differs from its first response"));
            }
        }
        Expect::Run(want) => {
            let got = json::parse(&ans.line).ok().and_then(|v| outputs_of(&v));
            if got.as_ref() != Some(want) {
                return fail(format!("run outputs {got:?} != WIR reference {want:?}"));
            }
        }
        Expect::Batch(want) => {
            let v = json::parse(&ans.line).ok();
            let got: Option<Vec<Vec<u64>>> = v
                .as_ref()
                .and_then(|v| v.get("results"))
                .and_then(Json::as_array)
                .and_then(|r| r.iter().map(outputs_of).collect());
            if got.as_ref() != Some(want) {
                return fail(format!("batch outputs {got:?} != WIR reference {want:?}"));
            }
            if ans.frames as usize != BATCH_TRIALS {
                return fail(format!("batch streamed {} frames, want {BATCH_TRIALS}", ans.frames));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- setup

/// Start the stack, wait for both shards, open the load connections and
/// warm every hit key and the batch victim's checkpoint. Returns the
/// stack, the load, the hit keys' reference bodies and the set-up time.
fn setup(
    traffic: &Traffic,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (Stack, Load, Vec<String>, Duration) {
    let t0 = Instant::now();
    let stack = tracer.span("setup.stack", None, 0, Stack::start);
    let warm_span = tracer.begin("setup.warm", None, 0);
    let addr = stack.router.local_addr();
    let mut load = Load { conns: (0..CONNS).map(|_| connect_v2(addr)).collect(), next_id: 0 };
    let mut warm = String::new();
    for (k, body) in traffic.hit_bodies.iter().enumerate() {
        warm.push_str(&format!("{{\"id\":\"{k}\",{body}}}\n"));
    }
    let batch = traffic.warm_batch();
    warm.push_str(&format!("{{\"id\":\"{HIT_KEYS}\",{}}}\n", batch.0));
    load.conns[0].write_all(warm.as_bytes()).expect("send warm-up");
    let stream = load.conns[0].try_clone().expect("clone");
    let answers = read_answers(stream, 0, HIT_KEYS + 1, HIT_KEYS + 1, Instant::now() + DRAIN);
    tracer.end(warm_span);
    let elapsed = t0.elapsed();
    load.next_id = HIT_KEYS as u64 + 1;

    let mut refs = vec![String::new(); HIT_KEYS];
    report.attempted += HIT_KEYS as u64 + 1;
    for (i, ans) in &answers {
        if *i == HIT_KEYS {
            if let Err(e) = check(ans, &batch.1, &[]) {
                report.mismatch(format!("warm-up batch: {e}"));
            }
            continue;
        }
        refs[*i] = body_after_id(&ans.line).to_string();
        if let Err(e) = check(ans, &Expect::Run(traffic.hit_outputs[*i].clone()), &[]) {
            report.mismatch(format!("warm-up hit key {i}: {e}"));
        }
    }
    if answers.len() != HIT_KEYS + 1 {
        report.mismatch(format!("warm-up answered {} of {}", answers.len(), HIT_KEYS + 1));
    }
    (stack, load, refs, elapsed)
}

// ---------------------------------------------------------------- ladder

fn rung(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(i32::try_from(k).expect("rung index fits"))
}

/// Why a ladder phase failed its rate, if it did.
fn slo_verdict(p: &Phase) -> Option<String> {
    let p99 = percentile(&p.latencies(None), 0.99).expect("ladder phases are sized for p99");
    if p99 > LATENCY_LIMIT_MS {
        return Some(format!("p99 {p99:.2} ms over the {LATENCY_LIMIT_MS} ms limit"));
    }
    let share = p.failed() as f64 / p.sent().max(1) as f64;
    if share > MAX_FAILED_SHARE {
        return Some(format!("failed share {share:.4} over {MAX_FAILED_SHARE}"));
    }
    p.backlog().map(|b| format!("growing backlog: {b:?}"))
}

/// Find the highest ladder rung whose phase meets the latency limit with
/// no growing backlog. Near saturation one phase's verdict is noisy, so
/// a binary search only brackets the edge; an up-down staircase then
/// probes around it (up a rung after a pass, down after a fail) and the
/// result is the median rung of its passing probes.
fn ladder(
    load: &mut Load,
    traffic: &mut Traffic,
    shards: &[SocketAddr],
    hit_refs: &[String],
    tracer: &mut Tracer,
    log: &mut Vec<Json>,
    mismatches: &mut Vec<String>,
) -> f64 {
    let per = min_samples(0.99).div_ceil(MIX.iter().sum());
    let counts = MIX.map(|m| m * per);
    let mut probe = |k: usize, stage: &str| {
        let rate = rung(k);
        let arrivals = traffic.phase(rate, counts, CONNS);
        let phase = run_phase(load, &arrivals, rate, shards, hit_refs, tracer);
        let verdict = slo_verdict(&phase);
        mismatches.extend(phase.mismatches.iter().cloned());
        log.push(
            phase
                .to_json()
                .with("stage", stage)
                .with("rung", k as u64)
                .with("verdict", verdict.clone().map_or(Json::from("pass"), Json::from)),
        );
        std::thread::sleep(PAUSE);
        verdict.is_none()
    };
    let (mut lo, mut hi) = (0, LADDER_RUNGS);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if probe(mid, "search") {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Steps double while moves repeat in one direction, so the staircase
    // quickly leaves a bracket that a brief fast or slow spell of the
    // host put in the wrong place. Only passes after its first fail
    // count: before that it is still climbing towards the edge.
    let (mut k, mut up, mut down) = (lo, 1, 1);
    let mut failed = false;
    let mut passed = Vec::new();
    for probes in 1..=STAIRCASE_MAX {
        if probe(k, "staircase") {
            if failed {
                passed.push(k as f64);
            }
            k = (k + up).min(LADDER_RUNGS - 1);
            (up, down) = (up * 2, 1);
        } else {
            failed = true;
            k = k.saturating_sub(down);
            (up, down) = (1, down * 2);
        }
        if probes >= STAIRCASE_PROBES && passed.len() >= STAIRCASE_PASSES {
            break;
        }
    }
    if passed.is_empty() {
        return 0.0;
    }
    rung(median(&passed).floor() as usize)
}

// ---------------------------------------------------------------- metrics op

/// Summed counter over the snapshots of several processes.
fn counter(snaps: &[Json], name: &str) -> f64 {
    snaps.iter().filter_map(|s| s.get("metrics")?.get("counters")?.get(name)?.as_u64()).sum::<u64>()
        as f64
}

/// One process's snapshot of histogram `name`.
fn hist<'a>(snap: &'a Json, name: &str) -> Option<&'a Json> {
    snap.get("metrics")?.get("histograms")?.get(name)
}

/// A histogram member (`count` or `sum`) summed over several processes.
fn hist_total(snaps: &[Json], name: &str, member: &str) -> f64 {
    snaps.iter().filter_map(|s| hist(s, name)?.get(member)?.as_u64()).sum::<u64>() as f64
}

/// Samples at or below `le`, summed over several processes. Snapshots
/// list cumulative counts only at bounds that hold samples, so each
/// process contributes its count at the largest listed bound ≤ `le`.
fn hist_at(snaps: &[Json], name: &str, le: f64) -> f64 {
    let mut total = 0.0;
    for s in snaps {
        let buckets = hist(s, name).and_then(|h| h.get("buckets")).and_then(Json::as_array);
        let below = buckets.unwrap_or(&[]).iter().filter_map(|b| {
            let bound = b.get("le").and_then(Json::as_u64).map_or(f64::INFINITY, |v| v as f64);
            (bound <= le).then(|| b.get("count").and_then(Json::as_u64).unwrap_or(0) as f64)
        });
        total += below.fold(0.0, f64::max);
    }
    total
}

/// Scrapes of every shard and the router, before and after a phase.
struct Scrape {
    before: Vec<Json>,
    after: Vec<Json>,
}

impl Scrape {
    fn take(addrs: &[SocketAddr]) -> Vec<Json> {
        addrs
            .iter()
            .map(|&a| control(a, r#"{"type":"metrics"}"#).expect("metrics op answers"))
            .collect()
    }

    fn counter(&self, name: &str) -> f64 {
        counter(&self.after, name) - counter(&self.before, name)
    }

    /// The same scrape restricted to the first `n` processes: the shards,
    /// since the router is scraped last.
    fn first(&self, n: usize) -> Scrape {
        Scrape { before: self.before[..n].to_vec(), after: self.after[..n].to_vec() }
    }

    /// Samples recorded in histogram `name` during the phase.
    fn count(&self, name: &str) -> f64 {
        hist_total(&self.after, name, "count") - hist_total(&self.before, name, "count")
    }

    /// Mean of the samples recorded in histogram `name` during the phase.
    fn mean(&self, name: &str) -> f64 {
        let sum = hist_total(&self.after, name, "sum") - hist_total(&self.before, name, "sum");
        sum / self.count(name).max(1.0)
    }

    /// Upper bucket bound of the `q`-quantile of the phase's samples: the
    /// histograms are log2-bucketed, so this has factor-of-two resolution.
    fn quantile(&self, name: &str, q: f64) -> f64 {
        let total = self.count(name);
        (0..64)
            .map(|i| f64::from(1u32 << (i % 32)) * f64::from(1u32 << (i / 32)))
            .find(|&le| {
                hist_at(&self.after, name, le) - hist_at(&self.before, name, le) >= q * total
            })
            .unwrap_or(f64::INFINITY)
    }
}

// ---------------------------------------------------------------- run

/// Measured per-class latencies and the ladder result of one pass.
struct Pass {
    /// The reference phase's schedule (its request lines feed the
    /// protocol parse timing).
    arrivals: Vec<Arrival>,
    /// The reference phase, block by block.
    blocks: Vec<Phase>,
    /// Metrics-op scrapes around the reference phase (traced runs).
    scrape: Option<Scrape>,
    /// The ladder's result, when the pass ran it.
    max_rps: Option<f64>,
    ladder_log: Vec<Json>,
}

impl Pass {
    /// Every block's requests, sends and depth samples together.
    fn reference(&self) -> Phase {
        let mut all = Phase { rate: REF_RATE, ..Phase::default() };
        for b in &self.blocks {
            all.results.extend(b.results.iter().cloned());
            all.lag_ms.extend(&b.lag_ms);
            all.depths.extend(&b.depths);
        }
        all
    }
}

#[allow(clippy::too_many_arguments)]
fn measure(
    load: &mut Load,
    traffic: &mut Traffic,
    shards: &[SocketAddr],
    hit_refs: &[String],
    seconds: u64,
    tracer: &mut Tracer,
    scrape: Option<&[SocketAddr]>,
    with_ladder: bool,
    report: &mut Report,
) -> Pass {
    let share = REF_RATE * seconds as f64 / (MIX.iter().sum::<usize>() * REF_BLOCKS) as f64;
    let per = (share as usize).max(min_samples(0.99) + 10);
    let before = scrape.map(Scrape::take);
    let mut arrivals = Vec::new();
    let mut blocks = Vec::new();
    for _ in 0..REF_BLOCKS {
        let block = traffic.phase(REF_RATE, MIX.map(|m| m * per), CONNS);
        let phase = run_phase(load, &block, REF_RATE, shards, hit_refs, tracer);
        report.attempted += phase.sent();
        report.failed += phase.failed() - phase.mismatches.len() as u64;
        for m in &phase.mismatches {
            report.mismatch(m.clone());
        }
        arrivals.extend(block);
        blocks.push(phase);
        std::thread::sleep(PAUSE);
    }
    let scrape = before.zip(scrape).map(|(before, a)| Scrape { before, after: Scrape::take(a) });
    let mut ladder_log = Vec::new();
    let mut max_rps = None;
    if with_ladder {
        let mut mismatches = Vec::new();
        max_rps =
            Some(ladder(load, traffic, shards, hit_refs, tracer, &mut ladder_log, &mut mismatches));
        for m in mismatches {
            report.mismatch(m);
        }
    }
    Pass { arrivals, blocks, scrape, max_rps, ladder_log }
}

/// A class's `q`-quantile latency: the median over reference blocks of
/// each block's percentile, so a burst of host noise in one or two
/// blocks does not set the run's value. Also returns the sample count.
fn class_latency(p: &Pass, class: Class, q: f64) -> (f64, u64) {
    let lats: Vec<Vec<f64>> = p.blocks.iter().map(|b| b.latencies(Some(class))).collect();
    let per_block: Vec<f64> = lats
        .iter()
        .map(|l| percentile(l, q).expect("reference blocks are sized for p99"))
        .collect();
    (median(&per_block), lats.iter().map(Vec::len).sum::<usize>() as u64)
}

/// The end-to-end `job_ms`: geometric mean over the three classes of
/// each class's median latency in its fastest reference block, so every
/// class counts equally, as every row does on the simulator workloads.
/// Other tenants of the host only ever slow a block down, for seconds at
/// a time; the fastest of 5 blocks spread about half as much between
/// runs on the bench host as their median.
fn job_ms(p: &Pass) -> (f64, u64) {
    let p50s: Vec<f64> = Class::ALL
        .iter()
        .map(|&class| {
            p.blocks
                .iter()
                .map(|b| percentile(&b.latencies(Some(class)), 0.5).expect("blocks are sized"))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let n = p.blocks.iter().map(Phase::sent).sum();
    (geomean(&p50s), n)
}

/// Per-class p50 and p99, and the ladder's result.
fn push_latencies(report: &mut Report, p: &Pass) {
    for class in Class::ALL {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            let (v, n) = class_latency(p, class, q);
            report.push(&format!("{}_{tag}_ms", class.name()), v, "ms", n);
        }
    }
    let max_rps = p.max_rps.expect("the pass ran the ladder");
    report.push("max_rps_slo", max_rps, "req/s", p.ladder_log.len() as u64);
}

/// Closed-loop hit latencies of `n` sequential requests for hit key 0.
fn side_phase(addr: SocketAddr, body: &str, n: usize, id0: u64) -> Vec<f64> {
    let mut s = connect_v2(addr);
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let line = format!("{{\"id\":\"{}\",{body}}}\n", id0 + i as u64);
        let t0 = Instant::now();
        s.write_all(line.as_bytes()).expect("send");
        let resp = read_line(&mut s).expect("answer");
        out.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(resp.contains(r#""ok":true"#), "side-phase request failed: {resp}");
    }
    out
}

/// The untraced measurement, or the traced run's per-layer metrics.
pub fn run(seed: u64, seconds: u64, traced: bool, report: &mut Report) {
    let mut traffic = Traffic::new(seed);
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin);

    let mut setup_times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (stack, load, refs, t) = setup(&traffic, &mut off, report);
        setup_times.push(t.as_secs_f64());
        if i + 1 == SETUPS {
            kept = Some((stack, load, refs));
        } else {
            drop(load);
            stack.stop();
        }
    }
    let (stack, mut load, hit_refs) = kept.expect("kept the last setup");
    let shards = stack.shard_addrs();
    let setup_s = median(&setup_times);

    // The untraced pass. Only the traced run climbs the rate ladder after
    // the reference phase: its `max_rps_slo` is a per-layer figure.
    let pass = measure(
        &mut load,
        &mut traffic,
        &shards,
        &hit_refs,
        seconds,
        &mut off,
        None,
        traced,
        report,
    );
    let (untraced_job_ms, jobs) = job_ms(&pass);
    report.push("job_ms", untraced_job_ms, "ms", jobs);
    report.push("setup_s", setup_s, "s", SETUPS as u64);
    let untraced_rss = peak_rss_mib();
    report.push("peak_rss_mib", untraced_rss, "MiB", 1);
    let mut detail = Json::obj()
        .with("rates", rates_json())
        .with("reference", Json::Arr(pass.blocks.iter().map(Phase::to_json).collect()))
        .with("ladder", Json::Arr(pass.ladder_log.clone()));

    if !traced {
        report.detail = detail;
        drop(load);
        stack.stop();
        return;
    }
    report.metrics.clear();
    push_latencies(report, &pass);

    // Traced set-ups, each stopped at once; the measured stack stays up.
    let mut on = Tracer::new(true, origin);
    let traced_setup_times: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let (stack, load, _, t) = setup(&traffic, &mut on, report);
            drop(load);
            stack.stop();
            t.as_secs_f64()
        })
        .collect();
    report.push("trace.overhead.setup_s", median(&traced_setup_times) / setup_s - 1.0, "ratio", 2);

    // Traced pass: the reference phase again with spans, and metrics-op
    // scrapes of every shard and the router around it.
    let mut all = shards.clone();
    all.push(stack.router.local_addr());
    let tpass = measure(
        &mut load,
        &mut traffic,
        &shards,
        &hit_refs,
        seconds,
        &mut on,
        Some(&all),
        false,
        report,
    );
    let traced_rss = peak_rss_mib();
    let scrape = tpass.scrape.as_ref().expect("traced pass scrapes");

    // Side phases: hit key 0 straight to each shard (cached on both
    // first) and through the router.
    let body = &traffic.hit_bodies[0];
    for (i, &a) in shards.iter().enumerate() {
        side_phase(a, body, 1, 900_000 + i as u64);
    }
    let direct_before = Scrape::take(&shards);
    let direct: Vec<f64> = shards
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| side_phase(a, body, SIDE_REQUESTS / 2, 1_000_000 * (i as u64 + 1)))
        .collect();
    let direct_scrape = Scrape { before: direct_before, after: Scrape::take(&shards) };
    let routed = side_phase(stack.router.local_addr(), body, SIDE_REQUESTS, 3_000_000);
    let shard_run_us = direct_scrape.mean("request_latency_us{op=\"run\"}");

    layer_metrics(report, scrape, &tpass, (&direct, &routed, shard_run_us), &mut on);
    report.push("trace.overhead.job_ms", job_ms(&tpass).0 / untraced_job_ms - 1.0, "ratio", 2);
    report.push("trace.overhead.peak_rss_mib", traced_rss / untraced_rss - 1.0, "ratio", 2);
    detail = detail
        .with("traced_reference", Json::Arr(tpass.blocks.iter().map(Phase::to_json).collect()));
    report.detail = detail;
    crate::report::write_spans(&on, "serve-routed");
    drop(load);
    stack.stop();
}

/// Mean time of `Envelope::parse` — the shard's request parser — over
/// the reference phase's request lines, µs, recorded as spans.
fn protocol_parse_us(arrivals: &[Arrival], tracer: &mut Tracer) -> f64 {
    let lines: Vec<String> =
        arrivals.iter().enumerate().map(|(i, a)| format!(r#"{{"id":"{i}",{}}}"#, a.body)).collect();
    for (i, l) in lines.iter().enumerate() {
        let parsed = tracer.span("protocol.parse", None, i as u64, || Envelope::parse(l));
        assert!(parsed.is_ok_and(|e| e.req.is_ok()), "generated line {i} does not parse");
    }
    let t = tracer.layer("protocol.parse");
    t.total_ns as f64 / 1e3 / t.calls.max(1) as f64
}

/// The service-side per-layer metrics of the traced reference phase.
/// `all` scrapes the shards and then the router; the exec, pool, cache
/// and fork metrics come from the shards alone, because the router
/// records some of the same histograms (its own `write` phase).
fn layer_metrics(
    report: &mut Report,
    all: &Scrape,
    traced: &Pass,
    side: (&[f64], &[f64], f64),
    tracer: &mut Tracer,
) {
    let (direct, routed, shard_run_us) = side;
    let s = &all.first(all.after.len() - 1);
    let phase = |name: &str| format!("phase_latency_us{{phase=\"{name}\"}}");
    let mean = |report: &mut Report, metric: &str, hist: &str| {
        report.push(metric, s.mean(hist), "us", s.count(hist) as u64);
    };
    let compile = s.count(&phase("compile"));
    report.push("compile.calls", compile, "count", compile as u64);
    mean(report, "compile.us_per_call", &phase("compile"));

    let (fh, fm) = (s.counter("fork_hits_total"), s.counter("fork_misses_total"));
    report.push("fork.hit_rate", fh / (fh + fm).max(1.0), "ratio", (fh + fm) as u64);
    let restores = s.counter("sim_restores_total");
    let restore_us = {
        let h = "sim_host_us{phase=\"restore\"}";
        s.mean(h) * s.count(h)
    };
    report.push("fork.restore_us_per_trial", restore_us / restores.max(1.0), "us", restores as u64);
    mean(report, "phase.checkpoint_restore_us", &phase("checkpoint_restore"));
    let (ch, cm) = (s.counter("cache_hits_total"), s.counter("cache_misses_total"));
    report.push("cache.hit_rate", ch / (ch + cm).max(1.0), "ratio", (ch + cm) as u64);

    let wait = phase("queue_wait");
    let waits = s.count(&wait) as u64;
    report.push("phase.queue_wait_us.p50", s.quantile(&wait, 0.5), "us", waits);
    report.push("phase.queue_wait_us.p99", s.quantile(&wait, 0.99), "us", waits);
    let r = &traced.reference();
    let depth_max = r.depths.iter().map(|d| d.1).fold(0.0, f64::max);
    report.push("queue_depth.max", depth_max, "count", r.depths.len() as u64);
    for p in ["compile", "simulate", "encode", "write"] {
        mean(report, &format!("phase.{p}_us"), &phase(p));
    }

    let parse_us = protocol_parse_us(&traced.arrivals, tracer);
    report.push("protocol.parse_us", parse_us, "us", traced.arrivals.len() as u64);
    report.push("serve.loop_us", median(direct) - shard_run_us, "us", direct.len() as u64);
    report.push("router.added_us", median(routed) - median(direct), "us", routed.len() as u64);
    for (metric, counter) in [
        ("router.retries", "router_retries_total"),
        ("router.hedges", "router_hedges_total"),
        ("router.shed", "router_shed_total"),
    ] {
        report.push(metric, all.counter(counter), "count", 1);
    }
    let jobs: Vec<f64> =
        (0..2).map(|i| all.count(&format!("router_shard_latency_us{{shard=\"{i}\"}}"))).collect();
    let total: f64 = jobs.iter().sum();
    let balance = jobs.iter().copied().fold(0.0, f64::max) / (total / jobs.len() as f64).max(1.0);
    report.push("router.shard_balance", balance, "ratio", total as u64);

    let mut lag = r.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    let lag_p99 = percentile(&lag, 0.99).expect("reference phase is sized for p99");
    report.push("gen.lag_ms_p99", lag_p99, "ms", lag.len() as u64);
    report.push("gen.sent", r.sent() as f64, "count", 1);
    report.push("gen.ok", (r.sent() - r.failed()) as f64, "count", 1);
    report.push("gen.failed", r.failed() as f64, "count", 1);
    report.push("gen.refused", r.refused() as f64, "count", 1);
}

fn rates_json() -> Json {
    Json::obj()
        .with("reference_rate", REF_RATE)
        .with("ladder_base", LADDER_BASE)
        .with("ladder_step", LADDER_STEP)
        .with("ladder_rungs", LADDER_RUNGS as u64)
        .with("latency_limit_ms", LATENCY_LIMIT_MS)
        .with("max_failed_share", MAX_FAILED_SHARE)
        .with("mix_hit_miss_batch", Json::Arr(MIX.iter().map(|&m| Json::from(m as u64)).collect()))
        .with("connections", CONNS as u64)
}
