//! Protocol-v2 integration tests over a real TCP daemon: `hello`
//! negotiation, pipelined out-of-order responses matched by id,
//! streamed per-trial frames (ordering, monotonic `seq`, interleaving
//! across concurrent streams on one connection), torn-write detection,
//! and byte-level framing robustness.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sempe_core::json::{self, Json};
use sempe_service::{FaultPlan, Server, ServiceConfig};

/// A program whose runtime is controlled by the patchable `n` variable
/// (~250k loop iterations per second of wall time on the simulator).
const TUNABLE: &str = r"
    secret k = 1;
    var n = 1;
    var acc = 0;
    var i = 0;
    while (i < n) bound 2000001 { acc = acc + 1; i = i + 1; }
    output acc;
";

fn start(workers: usize) -> Server {
    Server::start(&ServiceConfig { workers, ..ServiceConfig::default() }).expect("server starts")
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read");
    assert!(n > 0, "unexpected EOF");
    assert!(line.ends_with('\n'), "responses are newline-terminated: {line}");
    line.trim_end().to_string()
}

/// Upgrade a fresh connection to v2 and sanity-check the hello reply.
fn hello(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
    writeln!(stream, r#"{{"id":"hello","type":"hello","proto":2}}"#).expect("send hello");
    let resp = read_line(reader);
    let v = json::parse(&resp).expect("hello parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    assert_eq!(v.get("proto").and_then(Json::as_u64), Some(2), "{resp}");
    assert_eq!(v.get("streaming").and_then(Json::as_bool), Some(true), "{resp}");
}

fn run_line(id: &str, n: u64) -> String {
    let source = json::escape(&TUNABLE.replace("var n = 1;", &format!("var n = {n};")));
    format!(
        r#"{{"id":"{id}","type":"run","source":{source},"backend":"sempe","max_cycles":80000000}}"#
    )
}

fn batch_line(id: &str, ns: &[u64]) -> String {
    let inputs: Vec<String> = ns.iter().map(|n| format!(r#"{{"n":{n}}}"#)).collect();
    format!(
        r#"{{"id":"{id}","type":"batch","source":{},"backend":"sempe","inputs":[{}],"max_cycles":80000000}}"#,
        json::escape(TUNABLE),
        inputs.join(",")
    )
}

#[test]
fn hello_negotiates_v2_and_enforces_its_rules() {
    let server = start(1);

    // Happy path, then the two v2-only rules on the same connection.
    let (mut stream, mut reader) = connect(&server);
    hello(&mut stream, &mut reader);

    // v2 requests must carry an id.
    writeln!(stream, r#"{{"type":"stats"}}"#).expect("send");
    let resp = read_line(&mut reader);
    assert!(resp.contains("E_BAD_REQUEST"), "{resp}");
    assert!(resp.contains("must carry an id"), "{resp}");

    // A second hello is a protocol error.
    writeln!(stream, r#"{{"id":"h2","type":"hello","proto":2}}"#).expect("send");
    let resp = read_line(&mut reader);
    assert!(resp.starts_with(r#"{"id":"h2","#), "{resp}");
    assert!(resp.contains("duplicate hello"), "{resp}");

    // An unsupported version is refused and the connection stays v1.
    let (mut stream, mut reader) = connect(&server);
    writeln!(stream, r#"{{"id":"h","type":"hello","proto":3}}"#).expect("send");
    let resp = read_line(&mut reader);
    assert!(resp.contains("unsupported protocol version 3"), "{resp}");
    writeln!(stream, r#"{{"type":"stats"}}"#).expect("send");
    let resp = read_line(&mut reader);
    assert!(resp.contains(r#""ok":true"#), "connection stays usable as v1: {resp}");

    server.shutdown();
    server.join();
}

#[test]
fn pipelined_responses_arrive_out_of_order_matched_by_id() {
    let server = start(2);
    let (mut stream, mut reader) = connect(&server);
    hello(&mut stream, &mut reader);

    // Slow request first, fast second, both in flight at once on two
    // workers: the fast response must overtake the slow one.
    writeln!(stream, "{}", run_line("slow", 120_000)).expect("send slow");
    writeln!(stream, "{}", run_line("fast", 2)).expect("send fast");

    let first = read_line(&mut reader);
    let second = read_line(&mut reader);
    assert!(first.starts_with(r#"{"id":"fast","#), "fast overtakes slow: {first}");
    assert!(second.starts_with(r#"{"id":"slow","#), "{second}");
    for resp in [&first, &second] {
        let v = json::parse(resp).expect("parses");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        assert_eq!(v.get("type").and_then(Json::as_str), Some("run"), "{resp}");
    }

    server.shutdown();
    server.join();
}

#[test]
fn batch_streams_early_frames_before_the_slow_last_trial() {
    let server = start(1);
    let (mut stream, mut reader) = connect(&server);
    hello(&mut stream, &mut reader);

    // 1000 trials: 999 trivial, the last one ~0.5 s of simulation. The
    // early frames must be on the wire while the tail trial is still
    // running — streaming, not buffer-then-flush.
    const ITEMS: u64 = 1000;
    let mut ns = vec![1u64; (ITEMS - 1) as usize];
    ns.push(120_000);
    writeln!(stream, "{}", batch_line("b", &ns)).expect("send batch");

    let mut first_frame_at: Option<Instant> = None;
    let mut next_seq = 0u64;
    let terminal = loop {
        let resp = read_line(&mut reader);
        let v = json::parse(&resp).expect("frame parses");
        assert!(resp.starts_with(r#"{"id":"b","#), "every line is id-tagged: {resp}");
        if v.get("partial").and_then(Json::as_bool) == Some(true) {
            first_frame_at.get_or_insert_with(Instant::now);
            assert_eq!(
                v.get("seq").and_then(Json::as_u64),
                Some(next_seq),
                "seq must be dense and monotonic: {resp}"
            );
            assert_eq!(v.get("item").and_then(Json::as_u64), Some(next_seq), "{resp}");
            next_seq += 1;
        } else {
            break v;
        }
    };
    let streamed_for = first_frame_at.expect("at least one frame streamed").elapsed();

    assert_eq!(next_seq, ITEMS, "one frame per trial");
    assert_eq!(terminal.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(terminal.get("items").and_then(Json::as_u64), Some(ITEMS));
    let Some(Json::Arr(results)) = terminal.get("results") else { panic!("results array") };
    assert_eq!(results.len() as u64, ITEMS, "terminal still carries the full result set");
    assert!(
        streamed_for >= Duration::from_millis(100),
        "first frame must precede the terminal by the slow trial's runtime, \
         gap was only {streamed_for:?}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn interleaved_streams_keep_per_id_seq_monotonic() {
    let server = start(2);
    let (mut stream, mut reader) = connect(&server);
    hello(&mut stream, &mut reader);

    // Two streamed batches in flight on one connection, one per worker:
    // their frames interleave on the wire, each id's seq stays dense.
    const ITEMS: usize = 30;
    let ns = vec![3_000u64; ITEMS];
    writeln!(stream, "{}", batch_line("a", &ns)).expect("send a");
    writeln!(stream, "{}", batch_line("b", &ns)).expect("send b");

    let mut next_seq: std::collections::HashMap<String, u64> = Default::default();
    let mut arrival: Vec<String> = Vec::new();
    let mut terminals = 0;
    while terminals < 2 {
        let resp = read_line(&mut reader);
        let v = json::parse(&resp).expect("frame parses");
        let id = v.get("id").and_then(Json::as_str).expect("id-tagged").to_string();
        assert!(id == "a" || id == "b", "{resp}");
        if v.get("partial").and_then(Json::as_bool) == Some(true) {
            let seq = next_seq.entry(id.clone()).or_insert(0);
            assert_eq!(v.get("seq").and_then(Json::as_u64), Some(*seq), "{resp}");
            *seq += 1;
            arrival.push(id);
        } else {
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
            assert_eq!(next_seq[&id], ITEMS as u64, "all frames precede the terminal");
            terminals += 1;
        }
    }
    // Both streams actually overlapped on the wire: the arrival order
    // switches id at least once before either stream finishes.
    let a_span = (
        arrival.iter().position(|id| id == "a").expect("a streamed"),
        arrival.iter().rposition(|id| id == "a").expect("a streamed"),
    );
    let b_span = (
        arrival.iter().position(|id| id == "b").expect("b streamed"),
        arrival.iter().rposition(|id| id == "b").expect("b streamed"),
    );
    assert!(
        a_span.0 < b_span.1 && b_span.0 < a_span.1,
        "streams must interleave, got disjoint spans {a_span:?} / {b_span:?}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn torn_writes_on_v2_are_detectable_by_framing() {
    // write_trunc at 1000‰: every response is cut mid-line and the
    // connection closed — the newline framing is what lets a client
    // reject the fragment instead of trusting it.
    let plan = FaultPlan::parse("seed=1,write_trunc=1000").expect("plan");
    let server = Server::start(&ServiceConfig {
        workers: 1,
        fault_plan: Some(plan),
        ..ServiceConfig::default()
    })
    .expect("server");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    writeln!(stream, r#"{{"id":"hello","type":"hello","proto":2}}"#).expect("send");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read to EOF");
    assert!(!bytes.is_empty(), "the torn fragment still flushes");
    assert!(!bytes.ends_with(b"\n"), "no terminator: the frame is detectably torn");
    assert!(json::parse(&String::from_utf8_lossy(&bytes)).is_err(), "fragment must not parse");

    server.shutdown();
    server.join();
}

#[test]
fn byte_at_a_time_requests_parse_identically() {
    let server = start(1);

    // Golden: one-shot send on a v2 connection.
    let (mut stream, mut reader) = connect(&server);
    hello(&mut stream, &mut reader);
    let line = run_line("x", 5);
    writeln!(stream, "{line}").expect("send");
    let golden = read_line(&mut reader);
    assert!(golden.contains(r#""ok":true"#), "{golden}");

    // Same request dribbled one byte per write on a fresh v2
    // connection: the framer must reassemble it into identical bytes.
    let (mut stream, mut reader) = connect(&server);
    hello(&mut stream, &mut reader);
    for b in line.as_bytes() {
        stream.write_all(std::slice::from_ref(b)).expect("send byte");
        stream.flush().expect("flush");
    }
    stream.write_all(b"\n").expect("terminator");
    let resp = read_line(&mut reader);
    assert_eq!(resp, golden, "byte-at-a-time delivery must not change the response");

    server.shutdown();
    server.join();
}

#[test]
fn legacy_connections_stay_in_order_without_frames() {
    let server = start(2);
    let (mut stream, mut reader) = connect(&server);

    // No hello: three pipelined requests (a streamed-eligible batch in
    // the middle) must come back strictly in order, one line each, with
    // no partial frames — byte-compatible with a v1 client.
    let reqs = [run_line("one", 2), batch_line("two", &[1, 1, 1]), run_line("three", 3)];
    for req in &reqs {
        writeln!(stream, "{req}").expect("send");
    }
    for id in ["one", "two", "three"] {
        let resp = read_line(&mut reader);
        assert!(resp.starts_with(&format!(r#"{{"id":"{id}","#)), "in-order: {resp}");
        let v = json::parse(&resp).expect("parses");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        assert!(v.get("partial").is_none(), "no frames on a legacy connection: {resp}");
    }

    server.shutdown();
    server.join();
}

/// Send one streamed `batch` and read its frames through the terminal;
/// returns the round trip. Asserts every trial streamed a frame.
fn timed_batch(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    id: &str,
    ns: &[u64],
) -> Duration {
    let started = Instant::now();
    writeln!(stream, "{}", batch_line(id, ns)).expect("send batch");
    let mut frames = 0;
    loop {
        let resp = read_line(reader);
        let v = json::parse(&resp).expect("frame parses");
        if v.get("partial").and_then(Json::as_bool) == Some(true) {
            frames += 1;
            continue;
        }
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        assert_eq!(frames, ns.len(), "one streamed frame per trial: {resp}");
        return started.elapsed();
    }
}

#[test]
fn streamed_batch_replies_are_not_held_for_delayed_acks() {
    let server = start(1);
    let (mut stream, mut reader) = connect(&server);
    // Nagle off on the client, so only the server's socket is under test:
    // a frame written in a later loop tick than the unacknowledged one
    // before it must not wait for the client's 40 ms delayed ACK.
    stream.set_nodelay(true).expect("client nodelay");
    hello(&mut stream, &mut reader);

    let ns = [1u64, 2, 3, 4];
    timed_batch(&mut stream, &mut reader, "warm", &ns);
    let mut rtts: Vec<Duration> =
        (0..20).map(|i| timed_batch(&mut stream, &mut reader, &format!("b{i}"), &ns)).collect();
    rtts.sort();
    // The upper median: with Nagle on the server, every other round trip
    // stalls (each delayed-ACK timeout makes the client ACK at once for
    // the next round), so exactly half of the samples are slow.
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "4-trial streamed batch median round trip {median:?} (all: {rtts:?})"
    );

    server.shutdown();
    server.join();
}
