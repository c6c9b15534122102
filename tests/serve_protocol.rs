//! Protocol robustness battery for the `century-serve` daemon: hostile
//! and unlucky clients get typed error frames, never a panic, never a
//! hang, and never a wedged listener.
//!
//! Each test drives the daemon over a real TCP connection with some
//! flavor of defect — malformed JSON, oversized frames, truncated
//! frames, mid-stream disconnects, expired deadlines, overload,
//! deterministic garbage-byte floods — and then proves the daemon is
//! still healthy by completing an ordinary request on a *fresh*
//! connection. A companion adversarial corpus for the pure decoder
//! lives in `tests/properties.rs` (`serve_frame_decode_is_total`).

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fleet::sim::{FleetConfig, FleetSim};
use serve::client::{Client, Response};
use serve::frame::encode;
use serve::json::Object;
use serve::{Server, ServerConfig};
use simcore::time::SimDuration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("century-serve-protocol").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(cache: &str, workers: usize, queue_depth: usize) -> Server {
    let mut cfg = ServerConfig::local(temp_dir(cache));
    cfg.workers = workers;
    cfg.queue_depth = queue_depth;
    Server::start(cfg).expect("server starts")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string()).expect("client connects")
}

/// The liveness probe every test ends with: a fresh connection must
/// still complete a ping.
fn assert_healthy(server: &Server) {
    let mut client = connect(server);
    match client.call("{\"op\":\"ping\"}").expect("daemon must still answer") {
        (_, Response::Result(obj)) => assert_eq!(obj.str_field("op"), Some("ping")),
        (_, other) => panic!("expected ping result, got {other:?}"),
    }
}

/// Polls the `stats` op until `ready` holds (bounded): the way tests
/// order themselves against the daemon without sleeping.
fn wait_for_stats(server: &Server, what: &str, ready: impl Fn(&Object) -> bool) {
    let mut client = connect(server);
    let give_up = Instant::now() + Duration::from_secs(120);
    loop {
        match client.call("{\"op\":\"stats\"}").expect("transport holds") {
            (_, Response::Result(obj)) if ready(&obj) => return,
            (_, Response::Result(_)) => {}
            (_, other) => panic!("expected stats, got {other:?}"),
        }
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A numeric `stats` field (gauges and counters alike).
fn stat(obj: &Object, name: &str) -> f64 {
    obj.f64_field(name).unwrap_or_else(|| panic!("stats missing {name:?}: {obj:?}"))
}

/// Runs `f` on its own thread and fails if it has not returned within
/// `limit`, so a shutdown that never wakes fails instead of hanging.
fn returns_within(limit: Duration, what: &str, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    if finished.recv_timeout(limit).is_err() {
        panic!("{what} did not return within {limit:?} (or panicked)");
    }
}

/// Reads frames until the terminal one and returns the run's digest.
fn read_digest(client: &mut Client) -> u64 {
    loop {
        match client.read().expect("transport holds") {
            Response::Stream(_) => continue,
            Response::Result(obj) => return obj.u64_field("digest").expect("digest"),
            Response::Error { code, message } => panic!("run failed: {code}: {message}"),
        }
    }
}

/// Expects the next terminal frame to be an error with `code`.
fn expect_error(client: &mut Client, request: &str, code: &str) {
    match client.call(request).expect("transport holds") {
        (_, Response::Error { code: got, message }) => {
            assert_eq!(got, code, "wrong error code (message: {message})");
        }
        (_, other) => panic!("expected {code} error, got {other:?}"),
    }
}

#[test]
fn malformed_requests_get_typed_errors_and_keep_the_connection() {
    let server = start_server("malformed", 1, 4);
    let mut client = connect(&server);

    // Every flavor of bad request on ONE connection: the connection must
    // survive request-level defects (only framing defects close it).
    expect_error(&mut client, "not json at all", "bad_request");
    expect_error(&mut client, "{\"op\":\"run\",\"seed\":1,", "bad_request");
    expect_error(&mut client, "{\"op\":\"conquer\"}", "bad_request");
    expect_error(&mut client, "{\"seed\":1}", "bad_request");
    expect_error(&mut client, "{\"op\":\"run\",\"years\":0}", "bad_request");
    expect_error(&mut client, "{\"op\":\"run\",\"shards\":65}", "bad_request");
    expect_error(&mut client, "{\"op\":\"run\",\"seed\":-3}", "bad_request");
    expect_error(&mut client, "{\"op\":\"run\",\"nested\":{\"a\":1}}", "bad_request");
    expect_error(&mut client, "{\"op\":\"run\",\"seed\":1,\"seed\":2}", "bad_request");
    expect_error(&mut client, "{\"op\":\"run\",\"cache\":\"maybe\"}", "bad_request");

    // And the same connection still does real work afterwards.
    match client.call("{\"op\":\"run\",\"seed\":3,\"years\":2}").expect("transport holds") {
        (_, Response::Result(obj)) => assert_eq!(obj.str_field("served"), Some("miss")),
        (_, other) => panic!("expected run result, got {other:?}"),
    }
    assert_healthy(&server);
}

#[test]
fn oversized_frame_is_refused_before_payload_and_connection_closed() {
    let server = start_server("oversized", 1, 4);
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");

    // A header declaring 2 GiB. The daemon must answer with a typed
    // "oversized" error immediately — without buffering a single payload
    // byte (we never send any).
    raw.write_all(&(2u32 << 30).to_be_bytes()).expect("header write");
    let mut response = Vec::new();
    raw.read_to_end(&mut response).expect("daemon answers then closes");
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.contains("\"code\":\"oversized\""),
        "expected oversized error frame, got: {text}"
    );
    assert_healthy(&server);
}

#[test]
fn truncated_frame_and_mid_stream_disconnect_do_not_wedge_the_daemon() {
    let server = start_server("disconnect", 1, 4);

    // Half a header, then vanish.
    {
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.write_all(&[0x00, 0x00]).expect("partial header");
    }
    // A full header promising 64 bytes, deliver 10, then vanish.
    {
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.write_all(&64u32.to_be_bytes()).expect("header");
        raw.write_all(b"0123456789").expect("partial payload");
    }
    // Disconnect mid-*response*: request a streamed body, read one
    // frame's worth of bytes, and hang up while the server is writing.
    {
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.write_all(&encode("{\"op\":\"run\",\"seed\":8,\"years\":2,\"stream\":true}"))
            .expect("request");
        let mut first = [0u8; 16];
        raw.read_exact(&mut first).expect("start of response");
    }

    assert_healthy(&server);
}

#[test]
fn garbage_byte_floods_never_hang_or_kill_the_listener() {
    let server = start_server("garbage", 1, 4);

    // Deterministic splitmix64 stream: reproducible hostile bytes with
    // no ambient randomness (same discipline as the simulation core).
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };

    for round in 0..16 {
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let len = 1 + (next() % 512) as usize;
        let flood: Vec<u8> = (0..len).flat_map(|_| next().to_be_bytes()).collect();
        let _ = raw.write_all(&flood);
        // The daemon either answers with an error frame and closes, or
        // just closes (if the bytes happened to open a huge frame it
        // waits for more — dropping the socket resolves that). Either
        // way this read must terminate.
        let mut sink = Vec::new();
        drop(raw.set_read_timeout(Some(Duration::from_millis(500))));
        let _ = raw.read_to_end(&mut sink);
        drop(raw);
        assert!(round < 16, "bounded");
    }

    assert_healthy(&server);
}

#[test]
fn deadline_expiry_is_a_typed_error_and_the_run_still_lands_in_cache() {
    let server = start_server("deadline", 1, 4);
    let mut client = connect(&server);

    // A slow scenario (centuries of simulated time) with a 1 ms deadline:
    // the wait gives up, typed.
    let slow = "{\"op\":\"run\",\"seed\":21,\"years\":900,\"deadline_ms\":1}";
    let started = Instant::now();
    expect_error(&mut client, slow, "deadline");
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "deadline error must arrive promptly, not after the run"
    );

    // The abandoned run was NOT cancelled: it completes in the
    // background and pays for the next request as a cache hit.
    let patient = "{\"op\":\"run\",\"seed\":21,\"years\":900}";
    match client.call(patient).expect("transport holds") {
        (_, Response::Result(obj)) => {
            let served = obj.str_field("served").expect("served field");
            assert!(
                served == "hit" || served == "coalesced",
                "the deadline-abandoned run must still fill the cache (got {served:?})"
            );
        }
        (_, other) => panic!("expected result, got {other:?}"),
    }
    assert_healthy(&server);
}

#[test]
fn overload_sheds_excess_requests_with_typed_errors() {
    // One worker, queue depth 1: request A executes, request B queues,
    // request C must be refused at admission.
    let server = start_server("overload", 1, 1);
    let addr = server.addr().to_string();
    // A runs the longest horizon the protocol admits (seconds, in any
    // build); each step below is ordered on a `stats` observation, so
    // nothing depends on how long A takes beyond outlasting a few
    // loopback round trips.
    let run =
        |seed: u64, years: u64| format!("{{\"op\":\"run\",\"seed\":{seed},\"years\":{years}}}");

    let mut a = Client::connect(&addr).expect("connect a");
    a.send(&run(100, 10_000)).expect("send a");
    wait_for_stats(&server, "A to occupy the worker", |s| stat(s, "serve.workers.busy") == 1.0);
    let mut b = Client::connect(&addr).expect("connect b");
    b.send(&run(101, 1)).expect("send b");
    wait_for_stats(&server, "B to queue behind A", |s| {
        stat(s, "serve.workers.busy") == 1.0 && stat(s, "serve.queue.depth") == 1.0
    });

    // C finds the queue full.
    let mut c = Client::connect(&addr).expect("connect c");
    let started = Instant::now();
    expect_error(&mut c, &run(102, 1), "overloaded");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "admission control must reject immediately, not after the backlog"
    );

    // A and B still complete correctly — shedding C lost no work.
    for client in [&mut a, &mut b] {
        read_digest(client);
    }
    assert_healthy(&server);
}

#[test]
fn shutdown_op_drains_gracefully_and_refuses_new_work() {
    let server = start_server("shutdown", 1, 8);
    let mut worker_client = connect(&server);
    // Queue real work, then shut down before reading its result — but
    // only once the daemon has admitted it, so the drain owes it.
    worker_client.send("{\"op\":\"run\",\"seed\":31,\"years\":200}").expect("send run");
    wait_for_stats(&server, "the run to be admitted", |s| {
        stat(s, "serve.workers.busy") + stat(s, "serve.queue.depth") >= 1.0
            || stat(s, "serve.executed") >= 1.0
    });

    let mut admin = connect(&server);
    match admin.call("{\"op\":\"shutdown\"}").expect("transport holds") {
        (_, Response::Result(obj)) => assert_eq!(obj.str_field("op"), Some("shutdown")),
        (_, other) => panic!("expected shutdown ack, got {other:?}"),
    }

    // The admitted run drains to completion: the client that submitted
    // it still gets its digest.
    match worker_client.read().expect("transport holds") {
        Response::Result(obj) => {
            assert!(obj.u64_field("digest").is_some(), "drained run must return its digest");
        }
        other => panic!("expected drained result, got {other:?}"),
    }

    // New connections are refused (reset) or answered with shutting_down;
    // either way the daemon reaches full stop and the cache is intact.
    let mut server = server;
    server.wait();
    assert!(server.shutting_down());
}

#[test]
fn both_shutdown_paths_wake_the_blocking_accept_loop() {
    // `Server::shutdown` on a daemon that never saw a connection, bound
    // to the unspecified address (its wake connect goes to loopback).
    let mut cfg = ServerConfig::local(temp_dir("shutdown-idle"));
    cfg.addr = "0.0.0.0:0".to_string();
    let mut idle = Server::start(cfg).expect("server starts");
    returns_within(Duration::from_secs(30), "Server::shutdown", move || {
        idle.shutdown();
        assert!(idle.shutting_down());
    });

    // `op:"shutdown"`, then `wait` with no `Server::shutdown` call.
    let mut server = start_server("shutdown-op", 1, 4);
    match connect(&server).call("{\"op\":\"shutdown\"}").expect("transport holds") {
        (_, Response::Result(obj)) => assert_eq!(obj.str_field("op"), Some("shutdown")),
        (_, other) => panic!("expected shutdown ack, got {other:?}"),
    }
    returns_within(Duration::from_secs(30), "Server::wait after op:shutdown", move || {
        server.wait();
    });
}

#[test]
fn latency_histograms_reach_stats_and_never_enter_a_digest() {
    let server = start_server("histograms", 1, 4);
    let mut client = connect(&server);
    let mut digest = |request: &str| {
        client.send(request).expect("send run");
        read_digest(&mut client)
    };
    let cold = digest("{\"op\":\"run\",\"seed\":41,\"years\":5,\"stream\":true}");

    let mut admin = connect(&server);
    let stats = match admin.call("{\"op\":\"stats\"}").expect("transport holds") {
        (_, Response::Result(obj)) => obj,
        (_, other) => panic!("expected stats, got {other:?}"),
    };
    for name in [
        "serve.queue_wait_ms",
        "serve.execute_ms",
        "serve.cache.lookup_ms",
        "serve.cache.store_ms",
        "serve.respond_ms",
    ] {
        // One miss so far: one lookup, one queued job, one execution,
        // one cache store, one response.
        assert_eq!(stat(&stats, &format!("{name}.count")), 1.0, "{name}");
        let (p50, p99) =
            (stat(&stats, &format!("{name}.p50")), stat(&stats, &format!("{name}.p99")));
        assert!(0.0 < p50 && p50 <= p99, "{name}: p50 {p50}, p99 {p99}");
    }

    // Wall-clock observations are now in the registry; the digest of the
    // same scenario — cached, recomputed, or run directly — is not moved.
    let warm = digest("{\"op\":\"run\",\"seed\":41,\"years\":5}");
    let recomputed = digest("{\"op\":\"run\",\"seed\":41,\"years\":5,\"cache\":\"bypass\"}");
    let mut cfg = FleetConfig::paper_experiment(41);
    cfg.horizon = SimDuration::from_years(5);
    let direct = FleetSim::run(cfg).digest();
    assert_eq!([cold, warm, recomputed], [direct; 3]);
}
