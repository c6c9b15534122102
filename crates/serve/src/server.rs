//! The TCP daemon: accept loop, per-connection protocol, shutdown.
//!
//! Topology: one accept thread owns the listener; each connection gets a
//! thread that decodes frames, dispatches ops, and writes response
//! frames. Long work (scenario runs) goes through the shared
//! [`Scheduler`], so concurrency is bounded by the worker pool no matter
//! how many connections are open; sweeps and stats run inline on the
//! connection thread.
//!
//! There are no signals and no async runtime: shutdown is a flag
//! ([`Server::shutdown`] or the `op:"shutdown"` frame). The accept
//! thread blocks in `accept`; whoever sets the flag wakes it with one
//! loopback connect to the listener's own address. Connection readers
//! poll the flag via short read timeouts ([`ReadFrame::Idle`]). The
//! sequencing is strictly graceful — stop accepting, join connections
//! (each finishes its in-flight request), then drop the scheduler, whose
//! drain finishes every queued job and completes its cache stores before
//! the workers join.
//!
//! Protocol (all frames are flat JSON objects, see [`crate::json`]):
//!
//! | op         | effect |
//! |------------|--------|
//! | `ping`     | liveness check |
//! | `run`      | execute/serve a scenario (`cache`, `stream`, `deadline_ms` knobs) |
//! | `replay`   | re-execute a cached scenario and re-prove its digest |
//! | `sweep`    | replicated parallel summary over seeds ([`bench::parallel`]) |
//! | `stats`    | snapshot of the `serve.*` telemetry registry |
//! | `shutdown` | begin graceful drain |
//!
//! Responses are `{"type":"result",...}` on success, `{"type":"error",
//! "code":...,"message":...}` on refusal (codes from
//! [`ServeError::code`]), with `{"type":"body",...}` /
//! `{"type":"sweep_arm",...}` frames streamed ahead of the terminal
//! frame. Every defect — malformed frame, hostile length, bad request,
//! overload, deadline — is answered with a typed error frame or a closed
//! connection, never a panic and never a hang.
//!
//! Transport: every connection sets `TCP_NODELAY` and writes through
//! one 64 KiB [`BufWriter`]. Streamed frames are
//! appended without a flush ([`frame::push_frame`]); the terminal
//! `result`/`error` frame flushes, once per response. A streamed
//! response therefore leaves in a handful of full-buffer writes, not one
//! small segment per body line that would wait on the peer's delayed
//! ACK.

use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use telemetry::registry::{Counter, Histogram, MetricValue, Registry};

use crate::cache::{Lookup, ResultCache};
use crate::frame::{self, FrameError, ReadFrame, DEFAULT_MAX_FRAME};
use crate::json::{self, push_escaped, Object};
use crate::pool::{latency_ms_buckets, observe_ms, CacheMode, PoolMetrics, Scheduler, Served};
use crate::scenario::{run_spec_from, RunSpec};
use crate::ServeError;

/// How long connection reads wait before re-polling the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Capacity of each connection's response buffer. Bounded so a large
/// streamed body costs the daemon this much memory per connection, not
/// the whole response.
const RESPONSE_BUFFER: usize = 64 << 10;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests rely on it).
    pub addr: String,
    /// Result-cache directory (created if needed).
    pub cache_dir: PathBuf,
    /// Worker threads executing scenario runs.
    pub workers: usize,
    /// Bounded queue depth behind the workers (admission control).
    pub queue_depth: usize,
    /// Per-connection frame cap in bytes.
    pub max_frame: usize,
}

impl ServerConfig {
    /// Loopback defaults around a cache directory: ephemeral port, two
    /// workers, a queue of eight, the 1 MiB frame cap.
    pub fn local(cache_dir: PathBuf) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir,
            workers: 2,
            queue_depth: 8,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Connection-level telemetry (the pool has its own, [`PoolMetrics`]).
#[derive(Clone)]
struct ServerMetrics {
    connections: Counter,
    requests: Counter,
    protocol_errors: Counter,
    sweeps: Counter,
    /// `run` artifact ready → response flushed.
    respond_ms: Histogram,
}

impl ServerMetrics {
    fn register(reg: &Registry) -> Result<ServerMetrics, telemetry::TelemetryError> {
        Ok(ServerMetrics {
            connections: reg.counter("serve.connections")?,
            requests: reg.counter("serve.requests")?,
            protocol_errors: reg.counter("serve.protocol.errors")?,
            sweeps: reg.counter("serve.sweeps")?,
            respond_ms: reg.histogram("serve.respond_ms", latency_ms_buckets()?)?,
        })
    }
}

/// Everything a connection thread needs, shared by `Arc`.
struct Ctx {
    scheduler: Arc<Scheduler>,
    cache: ResultCache,
    registry: Arc<Registry>,
    metrics: ServerMetrics,
    shutdown: Arc<AtomicBool>,
    /// Where a connect wakes the blocked accept loop.
    wake: SocketAddr,
    max_frame: usize,
}

/// A startup failure: the daemon refuses to half-start.
fn internal(what: &str, e: &dyn core::fmt::Display) -> ServeError {
    ServeError::Internal(format!("{what}: {e}"))
}

impl Ctx {
    /// Opens the cache, registers metrics and starts the worker pool.
    fn start(cfg: &ServerConfig, wake: SocketAddr) -> Result<Ctx, ServeError> {
        let registry = Arc::new(Registry::new());
        let pool_metrics =
            PoolMetrics::register(&registry).map_err(|e| internal("metrics", &e))?;
        let metrics =
            ServerMetrics::register(&registry).map_err(|e| internal("metrics", &e))?;
        let cache = ResultCache::open(&cfg.cache_dir)
            .map_err(|e| internal("cache open failed", &e))?;
        let scheduler =
            Scheduler::start(cache.clone(), cfg.workers, cfg.queue_depth, pool_metrics)?;
        Ok(Ctx {
            scheduler: Arc::new(scheduler),
            cache,
            registry,
            metrics,
            shutdown: Arc::new(AtomicBool::new(false)),
            wake,
            max_frame: cfg.max_frame.max(64),
        })
    }
}

/// A running daemon. Dropping it shuts it down gracefully.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    registry: Arc<Registry>,
}

impl Server {
    /// Binds, spawns the worker pool and accept thread, and returns once
    /// the daemon is accepting connections.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] if the bind, cache open, metric
    /// registration or thread spawn fails — a daemon that cannot fully
    /// start refuses to half-start.
    pub fn start(cfg: ServerConfig) -> Result<Server, ServeError> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| internal("bind failed", &e))?;
        let addr = listener.local_addr().map_err(|e| internal("local_addr failed", &e))?;
        let ctx = Arc::new(Ctx::start(&cfg, loopback(addr))?);
        let shutdown = Arc::clone(&ctx.shutdown);
        let registry = Arc::clone(&ctx.registry);

        // The accept thread holds the only `Ctx` outside connection
        // threads, so its exit drops the scheduler (see `accept_loop`).
        let accept = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &ctx))
            .map_err(|e| internal("cannot spawn accept thread", &e))?;

        Ok(Server { addr, shutdown, accept: Some(accept), registry })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's telemetry registry (shared with the pool).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Whether a shutdown has been requested (by [`Self::shutdown`] or a
    /// client's `op:"shutdown"` frame).
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown and blocks until in-flight work has
    /// drained and every thread has joined. Idempotent.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.accept.take() {
            begin_shutdown(&self.shutdown, loopback(self.addr));
            let _ = handle.join();
        }
    }

    /// Blocks until the daemon has shut down (a client's `op:"shutdown"`
    /// or a concurrent [`Self::shutdown`]).
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The address a local connect reaches `bound` at: an unspecified bind
/// IP (`0.0.0.0`, `::`) maps to the loopback of its family.
fn loopback(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Sets the shutdown flag, then unblocks the accept loop with a
/// throwaway connection to `wake`. A refused connect means the listener
/// is already gone, which is the goal.
fn begin_shutdown(flag: &AtomicBool, wake: SocketAddr) {
    flag.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // The flag is set before the wake connect, so the connection
        // that unblocked this accept (or any racing it) is dropped here.
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                ctx.metrics.connections.inc();
                let ctx_conn = Arc::clone(ctx);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || connection_loop(stream, &ctx_conn));
                match spawned {
                    Ok(handle) => connections.push(handle),
                    // Thread exhaustion: the stream drops (connection
                    // refused-by-close); the daemon itself stays up.
                    Err(_) => ctx.metrics.protocol_errors.inc(),
                }
            }
            // Transient accept failures (EMFILE, aborted handshake):
            // back off and keep serving.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
        connections.retain(|h| !h.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
    // Last owner standing: dropping the scheduler drains it — queued
    // jobs finish, cache stores complete, workers join.
}

fn connection_loop(stream: TcpStream, ctx: &Arc<Ctx>) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // Without it, every small segment after the first waits on the
    // peer's delayed ACK (Nagle); responses are flushed whole anyway.
    let _ = stream.set_nodelay(true);
    let mut reader = &stream;
    let mut out = BufWriter::with_capacity(RESPONSE_BUFFER, &stream);
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            // Best-effort notice; the peer may already be gone.
            let _ = send_error(&mut out, &ServeError::ShuttingDown);
            return;
        }
        match frame::read_frame(&mut reader, ctx.max_frame) {
            Ok(ReadFrame::Idle) => continue,
            Ok(ReadFrame::Closed) => return,
            Ok(ReadFrame::Frame(payload)) => {
                ctx.metrics.requests.inc();
                if handle_request(&mut out, &payload, ctx).is_err() {
                    // The peer vanished mid-response; nothing to tell it.
                    return;
                }
            }
            Err(e) => {
                // A framing defect desynchronizes the stream: report the
                // typed error, then close rather than guess at a resync.
                ctx.metrics.protocol_errors.inc();
                let _ = send_error(&mut out, &ServeError::BadFrame(e));
                return;
            }
        }
    }
}

/// Dispatches one request frame, answering into `out`: streamed frames
/// are appended, and the terminal frame flushes the response. `Err`
/// means the *transport* failed (peer gone) and the connection should
/// close; request-level failures are answered in-band as error frames
/// and return `Ok`.
fn handle_request<W: Write>(
    out: &mut BufWriter<W>,
    payload: &str,
    ctx: &Ctx,
) -> Result<(), FrameError> {
    let obj = match json::parse_object(payload) {
        Ok(obj) => obj,
        Err(e) => {
            ctx.metrics.protocol_errors.inc();
            return send_error(out, &ServeError::BadRequest(format!("invalid JSON: {e}")));
        }
    };
    let outcome = match obj.str_field("op") {
        Some("ping") => {
            return write_result(out, "ping", &[]);
        }
        Some("run") => op_run(out, &obj, ctx),
        Some("replay") => op_replay(out, &obj, ctx),
        Some("sweep") => op_sweep(out, &obj, ctx),
        Some("stats") => {
            return op_stats(out, ctx);
        }
        Some("shutdown") => {
            begin_shutdown(&ctx.shutdown, ctx.wake);
            return write_result(out, "shutdown", &[]);
        }
        Some(other) => Err(RequestFailure::Refused(ServeError::BadRequest(format!(
            "unknown op {other:?}"
        )))),
        None => Err(RequestFailure::Refused(ServeError::BadRequest(
            "missing required field 'op'".to_string(),
        ))),
    };
    match outcome {
        Ok(()) => Ok(()),
        Err(RequestFailure::Refused(e)) => send_error(out, &e),
        Err(RequestFailure::Transport(e)) => Err(e),
    }
}

/// Splits "the request was refused" (answer in-band, keep the
/// connection) from "the transport failed" (close the connection).
enum RequestFailure {
    Refused(ServeError),
    Transport(FrameError),
}

impl From<ServeError> for RequestFailure {
    fn from(e: ServeError) -> RequestFailure {
        RequestFailure::Refused(e)
    }
}

impl From<FrameError> for RequestFailure {
    fn from(e: FrameError) -> RequestFailure {
        RequestFailure::Transport(e)
    }
}

/// Parses the request-level (non-digest) knobs shared by run/replay.
fn cache_mode(obj: &Object) -> Result<CacheMode, ServeError> {
    match obj.str_field("cache") {
        None | Some("use") => Ok(CacheMode::Use),
        Some("bypass") => Ok(CacheMode::Bypass),
        Some("refresh") => Ok(CacheMode::Refresh),
        Some(other) => Err(ServeError::BadRequest(format!(
            "unknown cache mode {other:?} (expected \"use\", \"bypass\" or \"refresh\")"
        ))),
    }
}

fn deadline_from(obj: &Object) -> Result<Option<Instant>, ServeError> {
    match obj.get("deadline_ms") {
        None => Ok(None),
        Some(json::Value::UInt(ms)) => {
            Ok(Some(Instant::now() + Duration::from_millis((*ms).min(86_400_000))))
        }
        Some(_) => Err(ServeError::BadRequest(
            "field 'deadline_ms' must be a non-negative integer".to_string(),
        )),
    }
}

fn op_run<W: Write>(
    out: &mut BufWriter<W>,
    obj: &Object,
    ctx: &Ctx,
) -> Result<(), RequestFailure> {
    let spec = run_spec_from(obj)?;
    let mode = cache_mode(obj)?;
    let deadline = deadline_from(obj)?;
    let stream_body = obj.bool_field("stream") == Some(true);
    if ctx.shutdown.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown.into());
    }
    let (artifact, served) = ctx.scheduler.run(&spec, mode, deadline)?;
    let ready = Instant::now();
    let mut body_lines = 0u64;
    if stream_body {
        for line in artifact.body.lines() {
            body_lines += 1;
            let mut frame_text = String::with_capacity(line.len() + 32);
            frame_text.push_str("{\"type\":\"body\",\"line\":");
            push_escaped(&mut frame_text, line);
            frame_text.push('}');
            frame::push_frame(out, &frame_text)?;
        }
    } else {
        body_lines = artifact.body.lines().count() as u64;
    }
    write_result(
        out,
        "run",
        &[
            ("served", Field::Str(served.as_str())),
            ("digest", Field::U64(artifact.digest)),
            ("digest_hex", Field::Hex(artifact.digest)),
            ("key_hex", Field::Hex(spec.request_key())),
            ("events", Field::U64(artifact.events)),
            ("body_lines", Field::U64(body_lines)),
        ],
    )?;
    observe_ms(&ctx.metrics.respond_ms, ready);
    Ok(())
}

fn op_replay<W: Write>(
    out: &mut BufWriter<W>,
    obj: &Object,
    ctx: &Ctx,
) -> Result<(), RequestFailure> {
    let spec: RunSpec = run_spec_from(obj)?;
    let deadline = deadline_from(obj)?;
    let key = spec.request_key();
    let cached = match ctx.cache.lookup(key) {
        Lookup::Hit(hit) => hit,
        Lookup::Miss => return Err(ServeError::NotCached.into()),
        // A damaged entry proves nothing; it cannot anchor a replay.
        Lookup::Damaged { .. } => return Err(ServeError::NotCached.into()),
    };
    if ctx.shutdown.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown.into());
    }
    // Bypass: a determinism proof must never be answered by the cache
    // entry it is trying to prove.
    let (fresh, served) = ctx.scheduler.run(&spec, CacheMode::Bypass, deadline)?;
    debug_assert_eq!(served, Served::Bypassed);
    let verified = fresh.digest == cached.digest && fresh.body == cached.body;
    write_result(
        out,
        "replay",
        &[
            ("verified", Field::Bool(verified)),
            ("cached_digest", Field::U64(cached.digest)),
            ("recomputed_digest", Field::U64(fresh.digest)),
            ("key_hex", Field::Hex(key)),
            ("events", Field::U64(fresh.events)),
        ],
    )?;
    Ok(())
}

fn op_sweep<W: Write>(
    out: &mut BufWriter<W>,
    obj: &Object,
    ctx: &Ctx,
) -> Result<(), RequestFailure> {
    let bad = |msg: &str| ServeError::BadRequest(msg.to_string());
    let seed = match obj.get("seed") {
        None => 0,
        Some(json::Value::UInt(v)) => *v,
        Some(_) => return Err(bad("field 'seed' must be a non-negative integer").into()),
    };
    let years = match obj.get("years") {
        None => 50,
        Some(json::Value::UInt(v)) if (1..=crate::scenario::MAX_YEARS).contains(v) => *v,
        Some(_) => {
            return Err(bad("field 'years' must be an integer in 1..=10000").into());
        }
    };
    let replicates = match obj.get("replicates") {
        None => 4usize,
        Some(json::Value::UInt(v)) if (1..=64).contains(v) => *v as usize,
        Some(_) => return Err(bad("field 'replicates' must be an integer in 1..=64").into()),
    };
    let threads = match obj.get("threads") {
        None => 1usize,
        Some(json::Value::UInt(v)) if (1..=16).contains(v) => *v as usize,
        Some(_) => return Err(bad("field 'threads' must be an integer in 1..=16").into()),
    };
    if ctx.shutdown.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown.into());
    }

    let make = |s: u64| {
        let mut cfg = fleet::sim::FleetConfig::paper_experiment(s);
        cfg.horizon = simcore::time::SimDuration::from_years(years);
        cfg
    };
    let mut arms = bench::parallel::run_replicated_parallel_summaries(
        &make, seed, replicates, threads,
    )
    .map_err(|e| ServeError::Internal(format!("sweep failed: {e}")))?;
    ctx.metrics.sweeps.inc();

    let arm_count = arms.len() as u64;
    for arm in &mut arms {
        let mut text = String::from("{\"type\":\"sweep_arm\",\"arm\":");
        push_escaped(&mut text, arm.name);
        push_field(&mut text, "uptime_mean", &Field::F64(arm.uptime.mean()));
        push_field(
            &mut text,
            "uptime_p50",
            &Field::F64(arm.uptime.quantile(0.5).unwrap_or(0.0)),
        );
        push_field(&mut text, "spend_mean", &Field::F64(arm.spend_dollars.mean()));
        push_field(&mut text, "labor_mean", &Field::F64(arm.labor_hours.mean()));
        text.push('}');
        frame::push_frame(out, &text)?;
    }
    write_result(
        out,
        "sweep",
        &[
            ("arms", Field::U64(arm_count)),
            ("replicates", Field::U64(replicates as u64)),
            ("seed", Field::U64(seed)),
        ],
    )?;
    Ok(())
}

fn op_stats<W: Write>(out: &mut BufWriter<W>, ctx: &Ctx) -> Result<(), FrameError> {
    let snapshot = ctx.registry.snapshot();
    let mut text = String::from("{\"type\":\"result\",\"op\":\"stats\"");
    for (name, value) in snapshot.entries() {
        match value {
            MetricValue::Counter(v) => push_field(&mut text, name, &Field::U64(*v)),
            MetricValue::Gauge(v) => push_field(&mut text, name, &Field::F64(*v)),
            // The protocol is flat: a histogram becomes three scalars.
            MetricValue::Histogram { bounds, counts, count, .. } => {
                push_field(&mut text, &format!("{name}.count"), &Field::U64(*count));
                for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
                    let at = bucket_quantile(bounds, counts, *count, q);
                    push_field(&mut text, &format!("{name}.{suffix}"), &Field::F64(at));
                }
            }
        }
    }
    text.push('}');
    finish(out, &text)
}

/// The upper bound of the bucket holding the `q`-quantile observation:
/// an overestimate by at most one bucket width. Zero for an empty
/// histogram; infinite (rendered `null`) when the quantile lies in the
/// overflow bucket.
fn bucket_quantile(bounds: &[f64], counts: &[u64], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    // Rank of the quantile observation, 1-based: ⌈q·count⌉, at least 1.
    let rank = ((q * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bounds.get(i).copied().unwrap_or(f64::INFINITY);
        }
    }
    f64::INFINITY
}

/// Scalar response-field values (the protocol is flat by design).
enum Field {
    Str(&'static str),
    U64(u64),
    Hex(u64),
    F64(f64),
    Bool(bool),
}

fn push_field(out: &mut String, key: &str, value: &Field) {
    out.push(',');
    push_escaped(out, key);
    out.push(':');
    match value {
        Field::Str(s) => push_escaped(out, s),
        Field::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Field::Hex(v) => {
            let _ = write!(out, "\"{v:016x}\"");
        }
        // Whole floats render without a decimal point ("1"); receivers
        // widen integers back to f64, so the roundtrip is lossless.
        Field::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        Field::F64(_) => out.push_str("null"),
        Field::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Appends the terminal frame and flushes: the one flush of a response.
fn finish<W: Write>(out: &mut BufWriter<W>, text: &str) -> Result<(), FrameError> {
    frame::push_frame(out, text)?;
    out.flush().map_err(FrameError::Io)
}

fn write_result<W: Write>(
    out: &mut BufWriter<W>,
    op: &str,
    fields: &[(&str, Field)],
) -> Result<(), FrameError> {
    let mut text = String::from("{\"type\":\"result\",\"op\":");
    push_escaped(&mut text, op);
    for (key, value) in fields {
        push_field(&mut text, key, value);
    }
    text.push('}');
    finish(out, &text)
}

fn send_error<W: Write>(out: &mut BufWriter<W>, e: &ServeError) -> Result<(), FrameError> {
    let mut text = String::from("{\"type\":\"error\",\"code\":");
    push_escaped(&mut text, e.code());
    text.push_str(",\"message\":");
    push_escaped(&mut text, &e.to_string());
    text.push('}');
    finish(out, &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Decoded;

    /// What reaches the socket side of a response buffer.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        writes: usize,
        flushes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    fn ctx(name: &str) -> Ctx {
        let dir = std::env::temp_dir().join("century-serve-server-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Ctx::start(&ServerConfig::local(dir), loopback("0.0.0.0:0".parse().unwrap())).unwrap()
    }

    /// Answers one request into a fresh counting response buffer.
    fn answer(ctx: &Ctx, request: &str) -> Counting {
        let mut out = BufWriter::with_capacity(RESPONSE_BUFFER, Counting::default());
        handle_request(&mut out, request, ctx).unwrap();
        assert!(out.buffer().is_empty(), "a response never lingers in the buffer");
        out.into_inner().map_err(|_| ()).unwrap()
    }

    fn frames(mut bytes: &[u8]) -> Vec<Object> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            match frame::decode(bytes, DEFAULT_MAX_FRAME).unwrap() {
                Decoded::Frame { payload, consumed } => {
                    out.push(json::parse_object(&payload).unwrap());
                    bytes = &bytes[consumed..];
                }
                Decoded::NeedMore => panic!("response ends mid-frame"),
            }
        }
        out
    }

    #[test]
    fn streamed_run_reaches_the_writer_in_full_buffers_with_one_flush() {
        let ctx = ctx("streamed");
        let request = "{\"op\":\"run\",\"seed\":5,\"years\":200,\"stream\":true}";
        for served in ["miss", "hit"] {
            let sink = answer(&ctx, request);
            let frames = frames(&sink.bytes);
            let (result, body) = frames.split_last().unwrap();
            assert_eq!(result.str_field("served"), Some(served));
            assert_eq!(result.u64_field("body_lines"), Some(body.len() as u64));
            assert!(body.iter().all(|f| f.str_field("type") == Some("body")));
            // Big enough that the bound is not met by a single write.
            assert!(sink.bytes.len() > RESPONSE_BUFFER, "{} bytes", sink.bytes.len());
            assert!(
                sink.writes <= sink.bytes.len().div_ceil(RESPONSE_BUFFER) + 1,
                "{} frames, {} bytes, {} writes",
                frames.len(),
                sink.bytes.len(),
                sink.writes
            );
            assert_eq!(sink.flushes, 1, "one flush per response, at the terminal frame");
        }
    }

    #[test]
    fn unstreamed_answers_are_one_write_and_one_flush() {
        let ctx = ctx("unstreamed");
        for request in [
            "{\"op\":\"ping\"}",
            "{\"op\":\"stats\"}",
            "not json",
            "{\"op\":\"run\",\"seed\":1,\"years\":1}",
        ] {
            let sink = answer(&ctx, request);
            assert_eq!((sink.writes, sink.flushes), (1, 1), "{request}");
            assert_eq!(frames(&sink.bytes).len(), 1, "{request}");
        }
    }

    #[test]
    fn bucket_quantile_reports_the_holding_bucket_bound() {
        let bounds = [1.0, 2.0, 4.0];
        assert_eq!(bucket_quantile(&bounds, &[0, 0, 0, 0], 0, 0.5), 0.0);
        // Ranks 1..=4 fall in buckets 0, 1, 1, 2.
        let counts = [1, 2, 1, 0];
        assert_eq!(bucket_quantile(&bounds, &counts, 4, 0.25), 1.0);
        assert_eq!(bucket_quantile(&bounds, &counts, 4, 0.5), 2.0);
        assert_eq!(bucket_quantile(&bounds, &counts, 4, 0.99), 4.0);
        assert!(bucket_quantile(&bounds, &[0, 0, 0, 3], 3, 0.5).is_infinite());
    }

    #[test]
    fn unspecified_bind_addresses_wake_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:4300".parse().unwrap();
        let v6: SocketAddr = "[::]:4300".parse().unwrap();
        let bound: SocketAddr = "10.1.2.3:4300".parse().unwrap();
        assert_eq!(loopback(v4), "127.0.0.1:4300".parse().unwrap());
        assert_eq!(loopback(v6), "[::1]:4300".parse().unwrap());
        assert_eq!(loopback(bound), bound);
    }
}
