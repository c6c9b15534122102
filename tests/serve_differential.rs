//! Differential battery for the `century-serve` daemon: the wire is not
//! allowed to change the math.
//!
//! The serving contract under test (ISSUE: serve tentpole; DESIGN.md
//! §16): for every scenario, **cold serve ≡ cached serve ≡ direct
//! library call**, digest for digest, across seeds, chaos recipes and
//! shard counts — plus the operational half of the story: concurrent
//! identical requests coalesce to one execution, the cache survives a
//! daemon restart, and a torn cache entry is refused fail-closed and
//! transparently recomputed. A sweep streams the library replicate
//! driver's summaries, at any thread count.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::collections::BTreeSet;
use std::path::PathBuf;

use serve::client::{Client, Response};
use serve::{Server, ServerConfig, CHAOS_PLAN_SALT};

use chaos::FaultPlanBuilder;
use fleet::sim::{FleetConfig, FleetSim};
use simcore::time::SimDuration;

const SEEDS: [u64; 8] = [1, 2, 3, 7, 42, 97, 1001, 0xdead_beef];
const YEARS: u64 = 6;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("century-serve-differential").join(name);
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

/// Runs one request to completion and returns the terminal result object.
fn call_ok(client: &mut Client, request: &str) -> serve::json::Object {
    match client.call(request).expect("transport holds") {
        (_, Response::Result(obj)) => obj,
        (_, Response::Error { code, message }) => {
            panic!("request {request} refused: {code}: {message}")
        }
        (_, Response::Stream(_)) => unreachable!("call() only returns terminal frames"),
    }
}

fn u64_field(obj: &serve::json::Object, key: &str) -> u64 {
    obj.u64_field(key).unwrap_or_else(|| panic!("result missing u64 field {key:?}: {obj:?}"))
}

fn stat(client: &mut Client, name: &str) -> u64 {
    let obj = call_ok(client, "{\"op\":\"stats\"}");
    u64_field(&obj, name)
}

/// The direct library run the daemon must reproduce bit-for-bit: the
/// same config constructor and, for chaos, the same published plan
/// recipe (`FaultPlanBuilder::full(seed ^ CHAOS_PLAN_SALT)`).
fn direct_digest(seed: u64, chaos: bool) -> (u64, String) {
    let mut cfg = FleetConfig::paper_experiment(seed);
    cfg.horizon = SimDuration::from_years(YEARS);
    let report = if chaos {
        let plan = FaultPlanBuilder::full(seed ^ CHAOS_PLAN_SALT)
            .build(&cfg, 1.0)
            .expect("plan builds");
        chaos::run_with_plan(cfg, plan)
    } else {
        FleetSim::run(cfg)
    };
    (report.digest(), report.export_jsonl())
}

#[test]
fn cold_cached_and_direct_digests_agree_across_seeds_chaos_and_shards() {
    let server = start_server("matrix", 2, 16);
    let mut client = connect(&server);
    let mut cold_runs = 0u64;
    let mut bypass_runs = 0u64;
    let mut hits = 0u64;

    for seed in SEEDS {
        for chaos in [false, true] {
            let (want_digest, _) = direct_digest(seed, chaos);
            let chaos_field = if chaos { ",\"chaos\":\"full\"" } else { "" };

            // Cold: a genuine execution (cache miss).
            let req = format!("{{\"op\":\"run\",\"seed\":{seed},\"years\":{YEARS}{chaos_field}}}");
            let cold = call_ok(&mut client, &req);
            assert_eq!(cold.str_field("served"), Some("miss"), "first request must execute");
            assert_eq!(u64_field(&cold, "digest"), want_digest, "cold ≢ direct (seed {seed})");
            cold_runs += 1;

            // Cached: answered from disk, digest unchanged.
            let cached = call_ok(&mut client, &req);
            assert_eq!(cached.str_field("served"), Some("hit"), "second request must hit");
            assert_eq!(u64_field(&cached, "digest"), want_digest, "cached ≢ cold (seed {seed})");
            assert_eq!(u64_field(&cached, "events"), u64_field(&cold, "events"));
            hits += 1;

            // Sharded: k=4 must *execute* (bypass — the cache key ignores
            // shards, so a plain rerun would be a hit and prove nothing)
            // through the forced multi-shard path and re-derive the digest.
            let req4 = format!(
                "{{\"op\":\"run\",\"seed\":{seed},\"years\":{YEARS},\"shards\":4,\
                 \"cache\":\"bypass\"{chaos_field}}}"
            );
            let sharded = call_ok(&mut client, &req4);
            assert_eq!(sharded.str_field("served"), Some("bypass"));
            assert_eq!(u64_field(&sharded, "digest"), want_digest, "k=4 ≢ serial (seed {seed})");
            bypass_runs += 1;
        }
    }

    // The counters prove the execution accounting: every digest above was
    // produced by exactly one cold run, one disk hit, one bypass rerun.
    assert_eq!(stat(&mut client, "serve.executed"), cold_runs + bypass_runs);
    assert_eq!(stat(&mut client, "serve.cache.hits"), hits);
    assert_eq!(stat(&mut client, "serve.cache.misses"), cold_runs);
}

#[test]
fn streamed_body_is_the_direct_library_export() {
    let server = start_server("body", 1, 4);
    let mut client = connect(&server);
    let (want_digest, want_body) = direct_digest(42, false);

    let (streamed, terminal) = client
        .call(&format!("{{\"op\":\"run\",\"seed\":42,\"years\":{YEARS},\"stream\":true}}"))
        .expect("transport holds");
    let Response::Result(obj) = terminal else { panic!("expected result, got {terminal:?}") };
    assert_eq!(u64_field(&obj, "digest"), want_digest);

    let lines: Vec<&str> = streamed
        .iter()
        .map(|frame| frame.str_field("line").expect("body frame has a line"))
        .collect();
    let direct_lines: Vec<&str> = want_body.lines().collect();
    assert_eq!(lines, direct_lines, "streamed body ≢ FleetReport::export_jsonl");
    assert_eq!(u64_field(&obj, "body_lines"), lines.len() as u64);
}

#[test]
fn replay_reproves_a_cached_digest_by_reexecution() {
    let server = start_server("replay", 1, 4);
    let mut client = connect(&server);
    let req = format!("{{\"op\":\"run\",\"seed\":7,\"years\":{YEARS},\"chaos\":\"storm\"}}");
    let first = call_ok(&mut client, &req);

    // Replay is not a cache read: it re-executes and cross-checks.
    let replay = call_ok(
        &mut client,
        &format!("{{\"op\":\"replay\",\"seed\":7,\"years\":{YEARS},\"chaos\":\"storm\"}}"),
    );
    assert_eq!(replay.bool_field("verified"), Some(true));
    assert_eq!(u64_field(&replay, "cached_digest"), u64_field(&first, "digest"));
    assert_eq!(
        u64_field(&replay, "recomputed_digest"),
        u64_field(&first, "digest"),
        "replay must re-derive the cached digest from scratch"
    );
    assert_eq!(stat(&mut client, "serve.executed"), 2, "run + replay both execute");

    // Replaying a scenario that was never served is a typed refusal.
    let (_, resp) = client
        .call(&format!("{{\"op\":\"replay\",\"seed\":9999,\"years\":{YEARS}}}"))
        .expect("transport holds");
    match resp {
        Response::Error { code, .. } => assert_eq!(code, "not_cached"),
        other => panic!("expected not_cached error, got {other:?}"),
    }
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_execution() {
    // One worker + a slow scenario forces the requests to overlap: the
    // first becomes the miss, the rest must attach to its in-flight job
    // (or, if they arrive after completion, hit the cache) — never a
    // second execution.
    let server = start_server("coalesce", 1, 32);
    let addr = server.addr().to_string();
    const N: usize = 8;
    let req = "{\"op\":\"run\",\"seed\":5,\"years\":400}";

    let digests: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("client connects");
                    let obj = call_ok(&mut client, req);
                    u64_field(&obj, "digest")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("requester thread")).collect()
    });

    let unique: BTreeSet<u64> = digests.iter().copied().collect();
    assert_eq!(unique.len(), 1, "all {N} concurrent requests must agree");

    let mut client = connect(&server);
    assert_eq!(stat(&mut client, "serve.executed"), 1, "exactly one execution for {N} requests");
    let accounted = stat(&mut client, "serve.cache.misses")
        + stat(&mut client, "serve.coalesced")
        + stat(&mut client, "serve.cache.hits");
    assert_eq!(accounted, N as u64, "every request is a miss, a coalesce or a hit");
    assert_eq!(stat(&mut client, "serve.cache.misses"), 1);
}

#[test]
fn cache_survives_daemon_restart() {
    let dir = temp_dir("restart");
    let req = format!("{{\"op\":\"run\",\"seed\":97,\"years\":{YEARS}}}");

    let cold_digest = {
        let mut cfg = ServerConfig::local(dir.clone());
        cfg.workers = 1;
        let mut server = Server::start(cfg).expect("first server starts");
        let mut client = connect(&server);
        let obj = call_ok(&mut client, &req);
        assert_eq!(obj.str_field("served"), Some("miss"));
        let digest = u64_field(&obj, "digest");
        drop(client);
        server.shutdown();
        digest
    };

    // A fresh daemon over the same directory serves the run from disk
    // without executing anything.
    let mut cfg = ServerConfig::local(dir);
    cfg.workers = 1;
    let server = Server::start(cfg).expect("second server starts");
    let mut client = connect(&server);
    let obj = call_ok(&mut client, &req);
    assert_eq!(obj.str_field("served"), Some("hit"), "restart must not forget the cache");
    assert_eq!(u64_field(&obj, "digest"), cold_digest);
    assert_eq!(stat(&mut client, "serve.executed"), 0, "the restarted daemon never executed");
}

#[test]
fn torn_cache_entry_is_refused_and_recomputed() {
    let dir = temp_dir("torn");
    let mut cfg = ServerConfig::local(dir.clone());
    cfg.workers = 1;
    let server = Server::start(cfg).expect("server starts");
    let mut client = connect(&server);

    let req = format!("{{\"op\":\"run\",\"seed\":1001,\"years\":{YEARS}}}");
    let cold = call_ok(&mut client, &req);
    let key_hex = cold.str_field("key_hex").expect("result carries key_hex").to_string();

    // Tear the entry the way a crashed write would: truncate mid-file.
    let entry = dir.join(format!("{key_hex}.run"));
    let bytes = std::fs::read(&entry).expect("entry exists");
    assert!(!bytes.is_empty());
    std::fs::write(&entry, &bytes[..bytes.len() / 3]).expect("truncate entry");

    // Fail-closed: the torn entry is never served; the scenario is
    // recomputed (a fresh miss) and the digest is unchanged.
    let again = call_ok(&mut client, &req);
    assert_eq!(again.str_field("served"), Some("miss"), "torn entry must not be a hit");
    assert_eq!(u64_field(&again, "digest"), u64_field(&cold, "digest"));
    assert_eq!(stat(&mut client, "serve.cache.damaged"), 1);

    // The recompute atomically repaired the entry.
    let repaired = call_ok(&mut client, &req);
    assert_eq!(repaired.str_field("served"), Some("hit"));
    assert_eq!(u64_field(&repaired, "digest"), u64_field(&cold, "digest"));
}

#[test]
fn sweep_frames_are_the_library_replicate_driver() {
    let server = start_server("sweep", 1, 4);
    let mut client = connect(&server);
    let make = |seed: u64| FleetConfig {
        horizon: SimDuration::from_years(5),
        ..FleetConfig::paper_experiment(seed)
    };
    let mut want = century::experiment::run_replicated(&make, 5, 3, 1).expect("sweep runs").arms;

    for threads in [1, 4] {
        let (frames, terminal) = client
            .call(&format!(
                "{{\"op\":\"sweep\",\"seed\":5,\"replicates\":3,\"years\":5,\"threads\":{threads}}}"
            ))
            .expect("transport holds");
        let Response::Result(obj) = terminal else { panic!("expected result, got {terminal:?}") };
        assert_eq!(u64_field(&obj, "arms"), want.len() as u64);
        assert_eq!(frames.len(), want.len());
        for (frame, arm) in frames.iter().zip(&mut want) {
            assert_eq!(frame.str_field("type"), Some("sweep_arm"));
            assert_eq!(frame.str_field("arm"), Some(arm.name));
            for (key, value) in [
                ("uptime_mean", arm.uptime.mean()),
                ("uptime_p50", arm.uptime.quantile(0.5).expect("three samples")),
                ("spend_mean", arm.spend_dollars.mean()),
                ("labor_mean", arm.labor_hours.mean()),
            ] {
                assert_eq!(
                    frame.f64_field(key).map(f64::to_bits),
                    Some(value.to_bits()),
                    "{key} of {} at threads {threads}",
                    arm.name
                );
            }
        }
    }

    match client.call("{\"op\":\"sweep\",\"replicates\":0}").expect("transport holds") {
        (_, Response::Error { code, .. }) => assert_eq!(code, "bad_request"),
        other => panic!("expected a bad_request error frame, got {other:?}"),
    }
}
