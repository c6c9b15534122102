//! The serving workload `serve_mix`, and the serve probe every traced
//! run ends with.
//!
//! `serve_mix` starts an in-process `century-serve`
//! (`ServerConfig::local`: loopback, 2 workers) on a fresh cache
//! directory, prefills it during set-up, then runs `nproc` persistent
//! client connections in a closed loop: each client sends its next
//! request only when the previous reply has arrived. Every `run` request
//! streams its body. The seeded mix, per round of 20 request slots of a
//! client (the first 19 in seeded order, the coalesce request last):
//!
//! * 16 hits on the working set (paper 50-year plain and `chaos:"full"`
//!   scenarios, plus two `scaled` 10k-device aggregate ones);
//! * 1 fresh-key miss of one of those shapes;
//! * 1 coalesce round: every client sends the same fresh key at the
//!   same moment, so one executes and the rest coalesce onto it;
//! * 1 extend: a 50-year request whose 10-, 25- or 40-year prefix is
//!   cached;
//! * 1 reconnect: a hit on a fresh connection.
//!
//! Gates: every response digest and every streamed body equal a direct
//! library run of the same `RunSpec`, and every `served` label matches
//! the request's intent.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use serve::cache::{Lookup, ResultCache};
use serve::client::{Client, Response};
use serve::json::push_escaped;
use serve::scenario::{ChaosSpec, RunSpec, Scenario};
use serve::{frame, Server, ServerConfig};
use simcore::rng::Rng;
use simcore::snapshot::fnv1a;

use crate::adapter::{self, paper_spec, scaled_spec, with_chaos, Sliced};
use crate::report::{self, mean, median, ms, quantile, Report};
use crate::sims::{record_fleet_layers, replicate_speedup, shard_speedup, SETUP_ROUNDS};
use crate::trace::Tracer;
use crate::Args;

/// Devices of the `scaled` shape (bodies about 20× a paper run's).
pub const SCALED_DEVICES: usize = 10_000;
/// Horizon of the `scaled` shape, in years.
pub const SCALED_YEARS: u64 = 2;
/// Working-set sizes per shape.
const WS_PAPER: u64 = 24;
const WS_CHAOS: u64 = 8;
const WS_SCALED: u64 = 2;
/// Request slots generated per client; a run stops early if it uses
/// them all. Every extend slot needs its prefix cached during set-up,
/// and each cache store is fsynced, so this also sizes `setup_s`.
pub const PER_CLIENT: usize = 1000;
/// Slots per round; the last slot of every round is a coalesce request.
pub const ROUND: usize = 20;
/// Horizons whose cached prefix an extend request finds.
const PREFIX_YEARS: [u64; 3] = [10, 25, 40];

/// Why a request is sent: what the daemon should answer it with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A working-set key: must be served from the cache.
    Hit,
    /// A fresh key: must execute.
    Miss,
    /// A fresh key every client sends at once: one executes, the rest
    /// coalesce (or hit, if the execution finished first).
    Coalesce,
    /// A fresh 50-year key whose shorter prefix is cached.
    Extend,
    /// A working-set key on a fresh connection.
    Reconnect,
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    /// Intent.
    pub class: Class,
    /// The scenario asked for.
    pub spec: RunSpec,
}

/// Everything a serve session sends: the set-up prefill and each
/// client's request sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct MixPlan {
    /// Scenarios cached during set-up (working set, extend prefixes).
    pub prefill: Vec<RunSpec>,
    /// Per-client request sequences.
    pub clients: Vec<Vec<Req>>,
}

/// The `serve_mix` requests for a workload seed: a pure function of
/// `(seed, clients, per_client)`.
pub fn mix_plan(seed: u64, clients: usize, per_client: usize) -> MixPlan {
    let root = Rng::seed_from(seed).split("serve_mix", 0);
    // Disjoint seed ranges per role keep every fresh key fresh.
    let base = root.split("base", 0).next_u64() >> 24;
    let stride = 1u64 << 32;
    let shape = |k: u64, s: u64| match k {
        0 => paper_spec(s, 50),
        1 => with_chaos(paper_spec(s, 50)),
        _ => scaled_spec(SCALED_DEVICES, s, SCALED_YEARS),
    };
    let working: Vec<RunSpec> = (0..WS_PAPER + WS_CHAOS + WS_SCALED)
        .map(|i| {
            shape(
                u64::from(i >= WS_PAPER) + u64::from(i >= WS_PAPER + WS_CHAOS),
                base + i,
            )
        })
        .collect();
    let first_shape = root.split("coalesce", 0).next_below(3);
    let coalesce: Vec<RunSpec> = (0..per_client.div_ceil(ROUND) as u64)
        .map(|r| shape((first_shape + r) % 3, base + 3 * stride + r))
        .collect();

    let mut prefill = working.clone();
    let mut sequences = Vec::with_capacity(clients);
    for c in 0..clients as u64 {
        let mut rng = root.split("client", c);
        let own = c * per_client as u64;
        // Hits walk a seeded permutation of the working set, fresh
        // misses and coalesce rounds cycle through the shapes: every seed
        // asks for the same amount of work, in a different order.
        let mut order: Vec<usize> = (0..working.len()).collect();
        rng.shuffle(&mut order);
        let mut hits = order.iter().cycle();
        let mut miss_shape = rng.next_below(3);
        let mut seq = Vec::with_capacity(per_client);
        for (round, coalesce_spec) in coalesce.iter().enumerate() {
            let mut slots = [Class::Hit; ROUND];
            slots[..3].copy_from_slice(&[Class::Miss, Class::Extend, Class::Reconnect]);
            rng.shuffle(&mut slots[..ROUND - 1]);
            slots[ROUND - 1] = Class::Coalesce;
            for (i, class) in slots.into_iter().enumerate() {
                let slot = own + (round * ROUND + i) as u64;
                let spec = match class {
                    Class::Hit | Class::Reconnect => working[*hits.next().expect("cycle")].clone(),
                    Class::Coalesce => coalesce_spec.clone(),
                    Class::Miss => {
                        miss_shape = (miss_shape + 1) % 3;
                        shape(miss_shape, base + stride + slot)
                    }
                    Class::Extend => {
                        let s = base + 2 * stride + slot;
                        let prefix =
                            PREFIX_YEARS[rng.next_below(PREFIX_YEARS.len() as u64) as usize];
                        prefill.push(paper_spec(s, prefix));
                        paper_spec(s, 50)
                    }
                };
                seq.push(Req { class, spec });
            }
        }
        seq.truncate(per_client);
        sequences.push(seq);
    }
    MixPlan {
        prefill,
        clients: sequences,
    }
}

/// The wire request for `spec`.
pub fn request_json(spec: &RunSpec, stream: bool) -> String {
    let mut out = String::from("{\"op\":\"run\"");
    match spec.scenario {
        Scenario::Paper => out.push_str(",\"scenario\":\"paper\""),
        Scenario::Scaled { devices } => {
            out.push_str(&format!(",\"scenario\":\"scaled\",\"devices\":{devices}"))
        }
    }
    out.push_str(&format!(",\"seed\":{},\"years\":{}", spec.seed, spec.years));
    if spec.sampling == fleet::sim::SamplingMode::Aggregate {
        out.push_str(",\"sampling\":\"aggregate\"");
    }
    match spec.chaos {
        ChaosSpec::Off => {}
        ChaosSpec::Full { intensity } => {
            out.push_str(&format!(",\"chaos\":\"full\",\"intensity\":{intensity:?}"))
        }
        ChaosSpec::Storm { intensity } => {
            out.push_str(&format!(",\"chaos\":\"storm\",\"intensity\":{intensity:?}"))
        }
    }
    out.push_str(&format!(",\"stream\":{stream}}}"));
    out
}

fn shape_name(spec: &RunSpec) -> &'static str {
    match (spec.scenario, spec.chaos) {
        (Scenario::Scaled { .. }, _) => "scaled",
        (_, ChaosSpec::Off) => "paper",
        _ => "chaos",
    }
}

/// One answered (or failed) request.
#[derive(Clone, Debug)]
struct Done {
    class: Class,
    key: u64,
    spec: RunSpec,
    served: String,
    digest: u64,
    body_fnv: u64,
    latency: Duration,
    error: Option<String>,
    /// Layer time the traced replay attributes to this request.
    attributed: Duration,
}

/// Where a traced session replays each request's layer calls.
struct Replay {
    /// The daemon's cache, read for lookups.
    cache: ResultCache,
    /// A scratch cache that replayed stores write to.
    scratch: ResultCache,
}

/// Lets clients stop together at a coalesce round, so nobody waits for
/// a partner that has left.
struct Rendezvous {
    clients: usize,
    state: Mutex<(u64, usize, bool)>,
    cv: Condvar,
}

impl Rendezvous {
    fn new(clients: usize) -> Rendezvous {
        Rendezvous {
            clients,
            state: Mutex::new((0, 0, false)),
            cv: Condvar::new(),
        }
    }

    /// Waits for every client; returns whether the run should stop (the
    /// deadline has passed, or a partner never came).
    fn meet(&self, deadline: Option<Instant>) -> bool {
        let mut g = self.state.lock().expect("rendezvous lock");
        let round = g.0;
        g.1 += 1;
        if g.1 == self.clients {
            *g = (round + 1, 0, deadline.is_some_and(|d| Instant::now() >= d));
            self.cv.notify_all();
            return g.2;
        }
        loop {
            let (next, timeout) = self
                .cv
                .wait_timeout(g, Duration::from_secs(30))
                .expect("rendezvous lock");
            g = next;
            if g.0 != round {
                return g.2;
            }
            if timeout.timed_out() {
                return true;
            }
        }
    }
}

/// What one client leaves behind.
#[derive(Default)]
struct ClientOut {
    done: Vec<Done>,
    tracer: Option<Tracer>,
    runs: Vec<Sliced>,
    lookup_bytes: Vec<f64>,
    frames: Vec<f64>,
    execute_ms: Vec<(&'static str, f64)>,
    connect_ms: Vec<f64>,
}

/// Runs one closed-loop session: one thread per request sequence.
fn session(
    addr: &str,
    seqs: &[&[Req]],
    deadline: Option<Instant>,
    replay: Option<&Replay>,
    origin: Instant,
) -> (Vec<ClientOut>, Duration) {
    let rendezvous = Rendezvous::new(seqs.len());
    let start = Instant::now();
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                let rendezvous = &rendezvous;
                s.spawn(move || client_loop(addr, seq, c, rendezvous, deadline, replay, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (outs, start.elapsed())
}

fn client_loop(
    addr: &str,
    seq: &[Req],
    client: usize,
    rendezvous: &Rendezvous,
    deadline: Option<Instant>,
    replay: Option<&Replay>,
    origin: Instant,
) -> ClientOut {
    let mut out = ClientOut {
        tracer: replay.map(|_| Tracer::new(origin)),
        ..ClientOut::default()
    };
    let mut conn: Option<Client> = None;
    for (i, req) in seq.iter().enumerate() {
        if req.class == Class::Coalesce && rendezvous.meet(deadline) {
            break;
        }
        let payload = request_json(&req.spec, true);
        let start = Instant::now();
        let reply = if req.class == Class::Reconnect {
            Client::connect(addr).and_then(|mut c| c.call(&payload))
        } else {
            let c = match conn.take() {
                Some(c) => Ok(c),
                None => Client::connect(addr),
            };
            c.and_then(|mut c| {
                let r = c.call(&payload);
                conn = Some(c);
                r
            })
        };
        let latency = start.elapsed();
        let mut done = Done {
            class: req.class,
            key: req.spec.request_key(),
            spec: req.spec.clone(),
            served: String::new(),
            digest: 0,
            body_fnv: 0,
            latency,
            error: None,
            attributed: Duration::ZERO,
        };
        let mut lines = Vec::new();
        match reply {
            Ok((streamed, Response::Result(obj))) => {
                let mut body = String::new();
                for frame in &streamed {
                    let line = frame.str_field("line").unwrap_or_default();
                    body.push_str(line);
                    body.push('\n');
                    lines.push(line.to_string());
                }
                done.body_fnv = fnv1a(body.as_bytes());
                done.served = obj.str_field("served").unwrap_or_default().to_string();
                match obj.u64_field("digest") {
                    Some(d) => done.digest = d,
                    None => done.error = Some("result without a digest".to_string()),
                }
            }
            Ok((_, Response::Error { code, message })) => {
                done.error = Some(format!("{code}: {message}"))
            }
            Ok((_, Response::Stream(_))) => {
                done.error = Some("stream frame as terminal".to_string())
            }
            Err(e) => {
                conn = None;
                done.error = Some(e.to_string());
            }
        }
        if let (Some(r), Some(t)) = (replay, out.tracer.as_mut()) {
            if done.error.is_none() {
                let request = (client as u64) << 32 | i as u64;
                let sample = replay_layers(r, &done, &lines, t, request);
                done.attributed = sample.attributed;
                out.runs.extend(sample.run);
                out.lookup_bytes.extend(sample.lookup_bytes);
                // Body frames plus the terminal result frame.
                out.frames.push(lines.len() as f64 + 1.0);
                out.execute_ms
                    .extend(sample.execute_ms.map(|m| (shape_name(&done.spec), m)));
                if req.class == Class::Reconnect {
                    out.connect_ms.extend(connect_ping(addr));
                }
            }
        }
        out.done.push(done);
    }
    out
}

/// Connect → first `ping` reply on a fresh connection, in ms.
fn connect_ping(addr: &str) -> Option<f64> {
    let start = Instant::now();
    let mut c = Client::connect(addr).ok()?;
    match c.call("{\"op\":\"ping\"}") {
        Ok((_, Response::Result(_))) => Some(ms(start.elapsed())),
        _ => None,
    }
}

struct ReplaySample {
    attributed: Duration,
    run: Option<Sliced>,
    lookup_bytes: Option<f64>,
    execute_ms: Option<f64>,
}

/// Replays, from outside the daemon, the layer calls that served `done`:
/// `ResultCache::lookup` for a hit; `RunSpec::fault_plan`,
/// `RunSpec::execute` and `ResultCache::store` for an execution (plus a
/// sliced run of the same config for the `fleet::sim` split, for plain
/// shapes); `frame::encode` of every body frame for all.
fn replay_layers(
    r: &Replay,
    done: &Done,
    lines: &[String],
    t: &mut Tracer,
    request: u64,
) -> ReplaySample {
    let root = t.open("serve.replay", None, request);
    let mut sample = ReplaySample {
        attributed: Duration::ZERO,
        run: None,
        lookup_bytes: None,
        execute_ms: None,
    };
    match done.served.as_str() {
        "hit" => {
            let id = t.open("serve.cache.lookup", Some(root), request);
            let found = r.cache.lookup(done.key);
            t.close(id);
            sample.attributed += t.busy(id);
            if let Lookup::Hit(hit) = found {
                sample.lookup_bytes = Some(hit.body.len() as f64);
            }
        }
        "coalesced" => {}
        _ => {
            if done.spec.chaos != ChaosSpec::Off {
                t.span("chaos.plan", Some(root), request, || {
                    done.spec.fault_plan().is_ok()
                });
            }
            let id = t.open("serve.execute", Some(root), request);
            let artifact = done.spec.execute();
            t.close(id);
            sample.attributed += t.busy(id);
            sample.execute_ms = Some(ms(t.busy(id)));
            if let Ok(artifact) = artifact {
                let id = t.open("serve.cache.store", Some(root), request);
                let _ = r.scratch.store(done.key, &artifact);
                t.close(id);
                sample.attributed += t.busy(id);
            }
        }
    }
    let texts: Vec<String> = lines
        .iter()
        .map(|line| {
            let mut text = String::with_capacity(line.len() + 32);
            text.push_str("{\"type\":\"body\",\"line\":");
            push_escaped(&mut text, line);
            text.push('}');
            text
        })
        .collect();
    let id = t.open("serve.frame.encode", Some(root), request);
    for text in &texts {
        std::hint::black_box(frame::encode(text));
    }
    t.close(id);
    sample.attributed += t.busy(id);
    t.close(root);
    if done.served != "hit" && done.served != "coalesced" && done.spec.chaos == ChaosSpec::Off {
        let run_root = t.open("fleet.replay", None, request);
        sample.run = Some(adapter::sliced(
            done.spec.fleet_config(),
            t,
            Some(run_root),
            request,
        ));
        t.close(run_root);
    }
    sample
}

/// Starts a daemon on `dir` and caches `prefill` through it over
/// `clients` connections (unstreamed requests).
fn start_and_prefill(dir: &Path, prefill: &[RunSpec], clients: usize) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::start(ServerConfig::local(dir.to_path_buf()))
        .map_err(|e| format!("daemon start: {e}"))?;
    let addr = server.addr().to_string();
    let chunks: Vec<Vec<RunSpec>> = (0..clients)
        .map(|c| prefill.iter().skip(c).step_by(clients).cloned().collect())
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let addr = &addr;
                s.spawn(move || -> Result<(), String> {
                    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
                    for spec in chunk {
                        match c
                            .call(&request_json(spec, false))
                            .map_err(|e| e.to_string())?
                        {
                            (_, Response::Result(obj))
                                if obj.str_field("served") == Some("miss") => {}
                            (_, other) => return Err(format!("prefill of {spec:?}: {other:?}")),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "prefill thread panicked".to_string())?
        })
    })?;
    Ok(server)
}

/// Daemon counters from the `stats` op.
fn stats(addr: &str) -> Result<Counters, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    match c.call("{\"op\":\"stats\"}").map_err(|e| e.to_string())? {
        (_, Response::Result(obj)) => Ok(obj
            .fields()
            .iter()
            .filter_map(|(k, _)| obj.u64_field(k).map(|v| (k.clone(), v)))
            .collect()),
        (_, other) => Err(format!("stats: {other:?}")),
    }
}

type Counters = BTreeMap<String, u64>;

/// Counter increments between two `stats` snapshots.
fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Checks every request: transport, `served` label against intent, and
/// digest and body against a direct library run. Counts each failed
/// request once.
fn check(done: &[Done], report: &mut Report) -> Result<(), String> {
    let fresh = |label: &str| !label.is_empty() && !matches!(label, "hit" | "coalesced" | "bypass");
    let mut bad = vec![None::<String>; done.len()];
    let mut rounds: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, d) in done.iter().enumerate() {
        if let Some(e) = &d.error {
            bad[i] = Some(format!("{:?} request failed: {e}", d.class));
            continue;
        }
        let label_ok = match d.class {
            Class::Hit | Class::Reconnect => d.served == "hit",
            Class::Miss | Class::Extend => fresh(&d.served),
            Class::Coalesce => {
                rounds.entry(d.key).or_default().push(i);
                true
            }
        };
        if !label_ok {
            bad[i] = Some(format!("{:?} request served as {:?}", d.class, d.served));
        }
    }
    for members in rounds.values() {
        let executed = members.iter().filter(|&&i| fresh(&done[i].served)).count();
        let others_ok = members.iter().all(|&i| {
            fresh(&done[i].served) || matches!(done[i].served.as_str(), "coalesced" | "hit")
        });
        if executed != 1 || !others_ok {
            for &i in members {
                bad[i] = Some(format!(
                    "coalesce round served as {:?}",
                    members.iter().map(|&j| &done[j].served).collect::<Vec<_>>()
                ));
            }
        }
    }
    let mut oracle: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (i, d) in done.iter().enumerate() {
        if d.error.is_some() {
            continue;
        }
        let expected = match oracle.get(&d.key) {
            Some(&e) => e,
            None => {
                let e = adapter::direct(&d.spec)?;
                oracle.insert(d.key, e);
                e
            }
        };
        if (d.digest, d.body_fnv) != expected {
            bad[i].get_or_insert(format!(
                "{:?} seed {}: served digest/body differ from the direct run",
                d.class, d.spec.seed
            ));
        }
    }
    report.attempted += done.len() as u64;
    for why in bad.into_iter().flatten() {
        report.fail(why);
    }
    Ok(())
}

/// Latencies of a class, in ms (coalesce requests count as misses).
fn class_ms(done: &[Done], class: Class) -> Vec<f64> {
    class_values(done, class, |d| ms(d.latency))
}

/// `f` of every answered request of `class` (coalesce requests count as
/// misses).
fn class_values(done: &[Done], class: Class, f: impl Fn(&Done) -> f64) -> Vec<f64> {
    let merged = |c: Class| if c == Class::Coalesce { Class::Miss } else { c };
    done.iter()
        .filter(|d| d.error.is_none() && merged(d.class) == merged(class))
        .map(f)
        .collect()
}

/// Runs `serve_mix`.
pub fn serve_mix(args: &Args) -> Result<Report, String> {
    let clients = crate::nproc();
    let plan = mix_plan(args.seed, clients, PER_CLIENT);
    let work = crate::work_dir("serve_mix")?;
    let mut report = Report::default();

    let mut setups = Vec::new();
    let mut server = None;
    for round in 0..SETUP_ROUNDS {
        drop(server.take());
        let start = Instant::now();
        server = Some(start_and_prefill(
            &work.join(format!("cache-{round}")),
            &plan.prefill,
            clients,
        )?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let server = server.ok_or("no set-up round ran")?;
    let addr = server.addr().to_string();
    let cache_dir = work.join(format!("cache-{}", SETUP_ROUNDS - 1));
    let origin = Instant::now();

    let result = if args.trace {
        let half = PER_CLIENT / 2;
        let seqs_a: Vec<&[Req]> = plan.clients.iter().map(|s| &s[..half]).collect();
        let seqs_b: Vec<&[Req]> = plan.clients.iter().map(|s| &s[half..]).collect();
        let phase = args.run_time() / 2;
        let before = stats(&addr)?;
        let (outs_a, _) = session(&addr, &seqs_a, Some(Instant::now() + phase), None, origin);
        let replay = Replay {
            cache: ResultCache::open(&cache_dir).map_err(|e| e.to_string())?,
            scratch: ResultCache::open(&work.join("replay")).map_err(|e| e.to_string())?,
        };
        let (outs_b, _) = session(
            &addr,
            &seqs_b,
            Some(Instant::now() + phase),
            Some(&replay),
            origin,
        );
        let done_a: Vec<Done> = outs_a.into_iter().flat_map(|o| o.done).collect();
        let mut tracer = Tracer::new(origin);
        let layers = merge(outs_b, &mut tracer);
        record_serve_layers(
            &mut report,
            &done_a,
            &layers,
            &tracer,
            &delta(&before, &stats(&addr)?),
        );
        record_fleet_layers(&mut report, &tracer, &layers.runs);
        let p50 = |done: &[Done]| median(&done.iter().map(|d| ms(d.latency)).collect::<Vec<_>>());
        report.set(
            "trace.overhead_frac",
            p50(&layers.done) / p50(&done_a) - 1.0,
        );
        let mut next = crate::sims::op_seeds("serve_mix", args.seed);
        report.set(
            "replicate.speedup",
            replicate_speedup(adapter::paper_config, next(), 4 * clients, clients)?,
        );
        let scaled = scaled_spec(SCALED_DEVICES, next(), SCALED_YEARS).fleet_config();
        report.set("shard.speedup", shard_speedup(scaled, clients)?);
        crate::write_trace(args, &tracer);
        let mut all = done_a;
        all.extend(layers.done);
        check(&all, &mut report)
    } else {
        report::reset_peak_rss();
        let seqs: Vec<&[Req]> = plan.clients.iter().map(Vec::as_slice).collect();
        let (outs, wall) = session(
            &addr,
            &seqs,
            Some(Instant::now() + args.run_time()),
            None,
            origin,
        );
        let peak = report::peak_rss_mb();
        let done: Vec<Done> = outs.into_iter().flat_map(|o| o.done).collect();
        let checked = check(&done, &mut report);
        summarize(&mut report, median(&setups), peak, &done, wall);
        checked
    };
    drop(server);
    let _ = std::fs::remove_dir_all(&work);
    result.map(|()| report)
}

/// The end-to-end metrics of a serve session.
fn summarize(report: &mut Report, setup_s: f64, peak_mb: f64, done: &[Done], wall: Duration) {
    let ok: Vec<&Done> = done.iter().filter(|d| d.error.is_none()).collect();
    let wall = wall.as_secs_f64();
    report.set("setup_s", setup_s);
    report.set("ok_frac", report.ok_frac());
    report.set("peak_rss_mb", peak_mb);
    report.set(
        "run_s_p50",
        median(
            &done
                .iter()
                .map(|d| d.latency.as_secs_f64())
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "device_weeks_per_s",
        ok.iter()
            .map(|d| adapter::device_weeks(&d.spec.fleet_config()))
            .sum::<f64>()
            / wall,
    );
    report.set("requests_per_s", ok.len() as f64 / wall);
    for class in [Class::Hit, Class::Miss, Class::Extend, Class::Reconnect] {
        let xs = class_ms(done, class);
        report.notes.push(format!(
            "{class:?}: n={} p50={:.3} ms p90={:.3} ms p99={:.3} ms",
            xs.len(),
            median(&xs),
            quantile(&xs, 0.9).unwrap_or(0.0),
            quantile(&xs, 0.99).unwrap_or(0.0)
        ));
    }
}

/// Merged output of a traced session's clients.
#[derive(Default)]
struct Layers {
    done: Vec<Done>,
    runs: Vec<Sliced>,
    lookup_bytes: Vec<f64>,
    frames: Vec<f64>,
    execute_ms: Vec<(&'static str, f64)>,
    connect_ms: Vec<f64>,
}

fn merge(outs: Vec<ClientOut>, tracer: &mut Tracer) -> Layers {
    let mut l = Layers::default();
    for o in outs {
        if let Some(t) = o.tracer {
            tracer.absorb_under(t, None);
        }
        l.done.extend(o.done);
        l.runs.extend(o.runs);
        l.lookup_bytes.extend(o.lookup_bytes);
        l.frames.extend(o.frames);
        l.execute_ms.extend(o.execute_ms);
        l.connect_ms.extend(o.connect_ms);
    }
    l
}

/// The `serve` and `chaos` layer metrics: class latencies from the
/// untraced requests `plain`, layer times from the traced session.
fn record_serve_layers(
    report: &mut Report,
    plain: &[Done],
    l: &Layers,
    tracer: &Tracer,
    counters: &Counters,
) {
    let pct = |xs: &[f64], q: f64| quantile(xs, q).unwrap_or(0.0);
    let hit = class_ms(plain, Class::Hit);
    let miss = class_ms(plain, Class::Miss);
    report.set("serve.hit_p50_ms", pct(&hit, 0.5));
    report.set("serve.hit_p90_ms", pct(&hit, 0.9));
    report.set("serve.miss_p50_ms", pct(&miss, 0.5));
    report.set("serve.miss_p90_ms", pct(&miss, 0.9));
    report.set(
        "serve.extend_p50_ms",
        median(&class_ms(plain, Class::Extend)),
    );
    report.set(
        "serve.reconnect_p50_ms",
        median(&class_ms(plain, Class::Reconnect)),
    );
    report.notes.push(format!(
        "untraced class samples: hit={} miss={} extend={} reconnect={}",
        hit.len(),
        miss.len(),
        class_ms(plain, Class::Extend).len(),
        class_ms(plain, Class::Reconnect).len()
    ));

    for (metric, span) in [
        ("chaos.plan_ms", "chaos.plan"),
        ("serve.execute_ms", "serve.execute"),
        ("serve.cache.lookup_ms", "serve.cache.lookup"),
        ("serve.cache.store_ms", "serve.cache.store"),
        ("serve.frame.encode_ms", "serve.frame.encode"),
    ] {
        report.set(metric, tracer.mean_self_ms(span));
    }
    for shape in ["paper", "chaos", "scaled"] {
        let xs: Vec<f64> = l
            .execute_ms
            .iter()
            .filter(|(s, _)| *s == shape)
            .map(|&(_, m)| m)
            .collect();
        report.notes.push(format!(
            "serve.execute_ms[{shape}]: n={} mean={:.3}",
            xs.len(),
            mean(&xs)
        ));
    }
    report.set("serve.cache.lookup_bytes", mean(&l.lookup_bytes));
    report.set("serve.frames_per_response", mean(&l.frames));
    report.set("serve.connect_ms", median(&l.connect_ms));
    for (metric, class) in [
        ("serve.unattributed_ms.hit", Class::Hit),
        ("serve.unattributed_ms.miss", Class::Miss),
        ("serve.unattributed_ms.extend", Class::Extend),
        ("serve.unattributed_ms.reconnect", Class::Reconnect),
    ] {
        let residual = class_values(&l.done, class, |d| ms(d.latency) - ms(d.attributed));
        report.set(metric, median(&residual));
    }

    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.coalesced",
        "serve.executed",
        "serve.rejected.overload",
        "serve.cache.damaged",
    ] {
        report.set(name, counter(name));
    }
    let (hits, misses, coalesced) = (
        counter("serve.cache.hits"),
        counter("serve.cache.misses"),
        counter("serve.coalesced"),
    );
    report.set(
        "serve.cache.hit_ratio",
        hits / (hits + misses + coalesced).max(1.0),
    );
    report.set(
        "serve.coalesce_ratio",
        coalesced / (misses + coalesced).max(1.0),
    );
}

/// The serve probe of a simulator workload's traced run: a one-client
/// session over the workload's own request shape — a miss, two hits, a
/// reconnect and an extend whose prefix is prefilled — with every
/// request's layer calls replayed, and the chaos plan of the same shape.
pub fn probe(
    workload: &str,
    spec: RunSpec,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let work = crate::work_dir(workload)?;
    // A 50-year shape extends from a 40-year prefix, a 1-year one to 2.
    let (prefix, full) = if spec.years >= 2 {
        (spec.years * 4 / 5, spec.years)
    } else {
        (spec.years, spec.years + 1)
    };
    let extend_prefix = RunSpec {
        seed: spec.seed ^ 1,
        years: prefix,
        ..spec.clone()
    };
    let extend = RunSpec {
        years: full,
        ..extend_prefix.clone()
    };
    let seq: Vec<Req> = [Class::Miss, Class::Hit, Class::Hit, Class::Reconnect]
        .into_iter()
        .map(|class| Req {
            class,
            spec: spec.clone(),
        })
        .chain([Req {
            class: Class::Extend,
            spec: extend,
        }])
        .collect();
    let cache_dir = work.join("cache");
    let server = start_and_prefill(&cache_dir, &[extend_prefix], 1)?;
    let addr = server.addr().to_string();
    let replay = Replay {
        cache: ResultCache::open(&cache_dir).map_err(|e| e.to_string())?,
        scratch: ResultCache::open(&work.join("replay")).map_err(|e| e.to_string())?,
    };
    let before = stats(&addr)?;
    let (outs, _) = session(&addr, &[&seq], None, Some(&replay), tracer.origin());
    let mut probe_tracer = Tracer::new(tracer.origin());
    let layers = merge(outs, &mut probe_tracer);
    let chaos_spec = with_chaos(spec);
    probe_tracer.span("chaos.plan", None, u64::MAX, || {
        chaos_spec.fault_plan().is_ok()
    });
    let counters = delta(&before, &stats(&addr)?);
    record_serve_layers(report, &layers.done, &layers, &probe_tracer, &counters);
    check(&layers.done, report)?;
    tracer.absorb_under(probe_tracer, None);
    drop(server);
    let _ = std::fs::remove_dir_all(&work);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn answered(spec: &RunSpec, class: Class, served: &str, digest: u64, body_fnv: u64) -> Done {
        Done {
            class,
            key: spec.request_key(),
            spec: spec.clone(),
            served: served.to_string(),
            digest,
            body_fnv,
            latency: Duration::from_millis(40),
            error: None,
            attributed: Duration::from_millis(1),
        }
    }

    #[test]
    fn check_flags_wrong_labels_and_wrong_bodies() {
        let spec = paper_spec(4, 1);
        let (d, b) = adapter::direct(&spec).unwrap();
        let good = [
            answered(&spec, Class::Hit, "hit", d, b),
            answered(&spec, Class::Miss, "miss", d, b),
            answered(&spec, Class::Coalesce, "miss", d, b),
            answered(&spec, Class::Coalesce, "coalesced", d, b),
        ];
        let mut r = Report::default();
        check(&good, &mut r).unwrap();
        assert_eq!((r.attempted, r.failed), (4, 0));

        let bad = [
            answered(&spec, Class::Hit, "miss", d, b),
            answered(&spec, Class::Extend, "hit", d, b),
            answered(&spec, Class::Coalesce, "miss", d, b),
            answered(&spec, Class::Coalesce, "miss", d, b),
            answered(&spec, Class::Reconnect, "hit", d, b ^ 1),
        ];
        let mut r = Report::default();
        check(&bad, &mut r).unwrap();
        assert_eq!((r.attempted, r.failed), (5, 5));
    }

    #[test]
    fn summaries_print_every_metric_of_both_catalogues() {
        let spec = paper_spec(2, 1);
        let done: Vec<Done> = [
            Class::Hit,
            Class::Miss,
            Class::Coalesce,
            Class::Extend,
            Class::Reconnect,
        ]
        .into_iter()
        .map(|c| answered(&spec, c, "hit", 0, 0))
        .collect();
        let mut r = Report {
            attempted: 5,
            ..Report::default()
        };
        summarize(&mut r, 0.5, 12.0, &done, Duration::from_secs(1));
        r.render(END_TO_END).unwrap();

        let mut t = Tracer::new(Instant::now());
        let run = adapter::sliced(spec.fleet_config(), &mut t, None, 0);
        let layers = Layers {
            done: done.clone(),
            runs: vec![run],
            ..Layers::default()
        };
        let mut r = Report {
            attempted: 5,
            ..Report::default()
        };
        record_serve_layers(&mut r, &done, &layers, &t, &Counters::new());
        record_fleet_layers(&mut r, &t, &layers.runs);
        // Set by the traced runs themselves, outside the two recorders.
        for name in ["replicate.speedup", "shard.speedup", "trace.overhead_frac"] {
            r.set(name, 1.0);
        }
        r.render(PER_LAYER).unwrap();
    }

    fn mix_of(plan: &MixPlan) -> BTreeMap<Class, usize> {
        let mut m = BTreeMap::new();
        for r in plan.clients.iter().flatten() {
            *m.entry(r.class).or_default() += 1;
        }
        m
    }

    fn fresh_keys(plan: &MixPlan) -> Vec<u64> {
        plan.clients
            .iter()
            .flatten()
            .filter(|r| matches!(r.class, Class::Miss | Class::Coalesce | Class::Extend))
            .map(|r| r.spec.request_key())
            .collect()
    }

    #[test]
    fn same_seed_same_requests_and_mix() {
        let a = mix_plan(7, 2, 400);
        let b = mix_plan(7, 2, 400);
        assert_eq!(a, b);
        assert_eq!(mix_of(&a), mix_of(&b));
        let mix = mix_of(&a);
        let share = |c: Class| mix.get(&c).copied().unwrap_or(0) as f64 / 800.0;
        assert!((share(Class::Hit) - 0.80).abs() < 0.05, "{mix:?}");
        assert!(
            (share(Class::Miss) + share(Class::Coalesce) - 0.10).abs() < 0.03,
            "{mix:?}"
        );
        assert_eq!(share(Class::Coalesce), 0.05);
        assert!((share(Class::Extend) - 0.05).abs() < 0.03, "{mix:?}");
        assert!((share(Class::Reconnect) - 0.05).abs() < 0.03, "{mix:?}");
    }

    #[test]
    fn different_seed_different_fresh_keys() {
        let a: std::collections::BTreeSet<u64> =
            fresh_keys(&mix_plan(7, 2, 400)).into_iter().collect();
        let b = fresh_keys(&mix_plan(8, 2, 400));
        assert!(b.iter().all(|k| !a.contains(k)));
    }

    #[test]
    fn fresh_keys_are_fresh_and_hits_are_prefilled() {
        let plan = mix_plan(3, 2, 400);
        let prefilled: std::collections::BTreeSet<u64> =
            plan.prefill.iter().map(RunSpec::request_key).collect();
        assert_eq!(
            prefilled.len(),
            plan.prefill.len(),
            "prefill keys are distinct"
        );
        let mut seen = std::collections::BTreeSet::new();
        for (c, seq) in plan.clients.iter().enumerate() {
            for r in seq {
                let key = r.spec.request_key();
                match r.class {
                    Class::Hit | Class::Reconnect => assert!(prefilled.contains(&key)),
                    Class::Coalesce => assert!(!prefilled.contains(&key)),
                    Class::Miss | Class::Extend => {
                        assert!(!prefilled.contains(&key));
                        assert!(seen.insert(key), "client {c} repeats a fresh key");
                    }
                }
            }
        }
        // Both clients send the same coalesce key in the same slot.
        assert!(plan.clients[0]
            .iter()
            .zip(&plan.clients[1])
            .all(|(a, b)| (a.class == Class::Coalesce) == (b.class == Class::Coalesce)));
    }

    #[test]
    fn request_json_round_trips_through_the_daemon_parser() {
        for r in mix_plan(11, 1, 200).clients[0].iter().take(60) {
            let obj = serve::json::parse_object(&request_json(&r.spec, true)).unwrap();
            assert_eq!(serve::scenario::run_spec_from(&obj).unwrap(), r.spec);
        }
    }
}
