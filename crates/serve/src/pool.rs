//! Bounded worker pool with request coalescing and admission control.
//!
//! The scheduler owns the daemon's execution discipline:
//!
//! * **Bounded everything.** `workers` threads execute runs; at most
//!   `queue_depth` jobs wait behind them. A request that finds the queue
//!   full is rejected *immediately* with a typed
//!   [`ServeError::Overloaded`] — under heavy traffic the daemon sheds
//!   load at admission instead of accumulating invisible latency.
//! * **Coalescing.** Scenario runs are pure functions of their request
//!   key, so concurrent identical requests collapse onto one in-flight
//!   job: the first miss schedules the execution, every later identical
//!   request becomes a waiter on the same `Job` and is answered by the
//!   single completion (counted `serve.coalesced`). The differential
//!   suite asserts N concurrent identical requests cost exactly one
//!   execution.
//! * **Deadlines.** Waiters time out (typed
//!   [`ServeError::DeadlineExpired`]) without cancelling the job — the
//!   run completes, lands in the cache, and pays for the *next* request.
//!   A worker is therefore never abandoned mid-run and never hung by a
//!   departed client.
//! * **Graceful drain.** [`Scheduler::drain`] stops admission
//!   ([`ServeError::ShuttingDown`]), lets workers finish every queued
//!   and in-flight job (completing their cache stores), then joins them.
//!
//! The pool runs *scenarios*, not arbitrary closures: workers call
//! [`RunSpec::execute`], which routes through the existing serial /
//! sharded substrate.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use telemetry::registry::{Buckets, Counter, Gauge, Histogram, Registry};

use crate::cache::{Lookup, ResultCache};
use crate::scenario::{RunArtifact, RunSpec};
use crate::ServeError;

/// How a run request may interact with the result cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Read and write: serve hits, memoize misses (the default).
    Use,
    /// Neither read nor write: always execute. `op:"replay"` uses this —
    /// a determinism proof must not be answered by the artifact it is
    /// trying to prove.
    Bypass,
    /// Write without reading: force recomputation and overwrite.
    Refresh,
}

/// Where a served artifact came from (reported in the result frame and
/// counted in telemetry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Verified cache entry; no execution.
    CacheHit,
    /// Fresh execution scheduled by this request.
    Miss,
    /// Answered by another request's in-flight execution.
    Coalesced,
    /// Cache deliberately bypassed (`Bypass`/`Refresh`).
    Bypassed,
}

impl Served {
    /// Wire spelling used in result frames.
    pub fn as_str(self) -> &'static str {
        match self {
            Served::CacheHit => "hit",
            Served::Miss => "miss",
            Served::Coalesced => "coalesced",
            Served::Bypassed => "bypass",
        }
    }
}

enum JobState {
    Pending,
    Done(Arc<RunArtifact>),
    Failed(String),
}

/// One scheduled execution; waiters block on `cv` until the worker
/// publishes a result.
struct Job {
    spec: RunSpec,
    key: u64,
    /// Whether the completed artifact should be written to the cache.
    store: bool,
    /// When the job entered the queue (for `serve.queue_wait_ms`).
    queued_at: Instant,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl Job {
    fn wait(&self, deadline: Option<Instant>) -> Result<Arc<RunArtifact>, ServeError> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            match &*state {
                JobState::Done(artifact) => return Ok(Arc::clone(artifact)),
                JobState::Failed(msg) => return Err(ServeError::Internal(msg.clone())),
                JobState::Pending => {}
            }
            state = match deadline {
                None => match self.cv.wait(state) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                },
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        return Err(ServeError::DeadlineExpired);
                    }
                    match self.cv.wait_timeout(state, at - now) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    }
                }
            };
        }
    }

    fn fulfill(&self, result: Result<RunArtifact, ServeError>) {
        let mut state = lock_unpoisoned(&self.state);
        *state = match result {
            Ok(artifact) => JobState::Done(Arc::new(artifact)),
            Err(e) => JobState::Failed(e.to_string()),
        };
        self.cv.notify_all();
    }
}

/// A poisoned mutex only means another thread panicked while holding it;
/// the protected data is still structurally sound and the panic-free
/// discipline prefers recovery over propagation (same rationale as
/// `telemetry::Registry`).
fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct SchedState {
    queue: VecDeque<Arc<Job>>,
    /// In-flight (queued or executing) cacheable jobs by request key —
    /// the coalescing index. Deterministically ordered, though order is
    /// never observable.
    inflight: BTreeMap<u64, Arc<Job>>,
    draining: bool,
}

/// Buckets of every serve latency histogram, in milliseconds: 10 µs
/// doubling to ~22 min, beyond which observations overflow.
pub(crate) fn latency_ms_buckets() -> Result<Buckets, telemetry::TelemetryError> {
    Buckets::exponential(0.01, 2.0, 28)
}

/// Records the milliseconds since `since` into a latency histogram —
/// the one place serve wall-clock time enters telemetry. The serve
/// registry is never folded into a run digest (DESIGN.md §6).
pub(crate) fn observe_ms(h: &Histogram, since: Instant) {
    h.observe(since.elapsed().as_secs_f64() * 1e3);
}

/// Telemetry handles the scheduler updates (registered once at startup
/// so a zero-traffic `stats` snapshot already shows every counter).
#[derive(Clone)]
pub struct PoolMetrics {
    /// Fresh executions completed by workers.
    pub executed: Counter,
    /// Requests answered from the verified disk cache.
    pub cache_hits: Counter,
    /// Requests that scheduled a fresh execution.
    pub cache_misses: Counter,
    /// Cache entries refused by verification (torn/corrupt) and recomputed.
    pub cache_damaged: Counter,
    /// Requests answered by another request's in-flight execution.
    pub coalesced: Counter,
    /// Requests rejected at admission (queue full).
    pub rejected_overload: Counter,
    /// Waits abandoned at their deadline.
    pub deadline_expired: Counter,
    /// Workers currently executing a run.
    pub workers_busy: Gauge,
    /// Jobs currently queued behind the workers.
    pub queue_depth: Gauge,
    /// Enqueue → picked up by a worker, per job.
    pub queue_wait_ms: Histogram,
    /// Scenario execution time, per job.
    pub execute_ms: Histogram,
    /// Cache lookup (read + verify) time, per cache-using request.
    pub lookup_ms: Histogram,
    /// Cache store (seal + atomic write) time, per stored execution.
    pub store_ms: Histogram,
}

impl PoolMetrics {
    /// Registers the pool's metrics in `reg`.
    ///
    /// # Errors
    ///
    /// [`telemetry::TelemetryError`] if a name is already taken with a
    /// different kind.
    pub fn register(reg: &Registry) -> Result<PoolMetrics, telemetry::TelemetryError> {
        Ok(PoolMetrics {
            executed: reg.counter("serve.executed")?,
            cache_hits: reg.counter("serve.cache.hits")?,
            cache_misses: reg.counter("serve.cache.misses")?,
            cache_damaged: reg.counter("serve.cache.damaged")?,
            coalesced: reg.counter("serve.coalesced")?,
            rejected_overload: reg.counter("serve.rejected.overload")?,
            deadline_expired: reg.counter("serve.rejected.deadline")?,
            workers_busy: reg.gauge("serve.workers.busy")?,
            queue_depth: reg.gauge("serve.queue.depth")?,
            queue_wait_ms: reg.histogram("serve.queue_wait_ms", latency_ms_buckets()?)?,
            execute_ms: reg.histogram("serve.execute_ms", latency_ms_buckets()?)?,
            lookup_ms: reg.histogram("serve.cache.lookup_ms", latency_ms_buckets()?)?,
            store_ms: reg.histogram("serve.cache.store_ms", latency_ms_buckets()?)?,
        })
    }
}

/// The bounded, coalescing scheduler plus its worker threads.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<SchedState>,
    work_cv: Condvar,
    cache: ResultCache,
    queue_depth: usize,
    metrics: PoolMetrics,
}

impl Scheduler {
    /// Starts `workers` worker threads over `cache`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] if a worker thread cannot be spawned
    /// (startup-time resource exhaustion) — a daemon with no workers
    /// cannot serve, so this fails closed instead of limping.
    pub fn start(
        cache: ResultCache,
        workers: usize,
        queue_depth: usize,
        metrics: PoolMetrics,
    ) -> Result<Scheduler, ServeError> {
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                inflight: BTreeMap::new(),
                draining: false,
            }),
            work_cv: Condvar::new(),
            cache,
            queue_depth,
            metrics,
        });
        let mut handles = Vec::with_capacity(workers.max(1));
        for i in 0..workers.max(1) {
            let shared_i = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared_i))
                .map_err(|e| ServeError::Internal(format!("cannot spawn worker {i}: {e}")))?;
            handles.push(handle);
        }
        Ok(Scheduler { shared, workers: handles })
    }

    /// Admits, coalesces or rejects one run request, then blocks until
    /// the artifact is available or the deadline passes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is full,
    /// [`ServeError::ShuttingDown`] during drain,
    /// [`ServeError::DeadlineExpired`] if `deadline` passes first, and
    /// [`ServeError::Internal`] if the execution itself failed.
    pub fn run(
        &self,
        spec: &RunSpec,
        mode: CacheMode,
        deadline: Option<Instant>,
    ) -> Result<(Arc<RunArtifact>, Served), ServeError> {
        let key = spec.request_key();
        // Draining refuses even cache hits: "shutting down" is a single
        // crisp fact about the daemon, not a per-path judgement call.
        if lock_unpoisoned(&self.shared.state).draining {
            return Err(ServeError::ShuttingDown);
        }
        if mode == CacheMode::Use {
            let started = Instant::now();
            let found = self.shared.cache.lookup(key);
            observe_ms(&self.shared.metrics.lookup_ms, started);
            match found {
                Lookup::Hit(hit) => {
                    self.shared.metrics.cache_hits.inc();
                    return Ok((
                        Arc::new(RunArtifact {
                            digest: hit.digest,
                            events: hit.events,
                            body: hit.body,
                        }),
                        Served::CacheHit,
                    ));
                }
                Lookup::Damaged { reason: _reason } => {
                    // Fail-closed: the entry is never served; recompute
                    // below and let the atomic store overwrite it.
                    self.shared.metrics.cache_damaged.inc();
                }
                Lookup::Miss => {}
            }
        }

        let (job, served) = {
            let mut state = lock_unpoisoned(&self.shared.state);
            if state.draining {
                return Err(ServeError::ShuttingDown);
            }
            if mode == CacheMode::Use {
                if let Some(job) = state.inflight.get(&key) {
                    self.shared.metrics.coalesced.inc();
                    (Arc::clone(job), Served::Coalesced)
                } else {
                    let job = self.enqueue(&mut state, spec, key, true)?;
                    self.shared.metrics.cache_misses.inc();
                    (job, Served::Miss)
                }
            } else {
                let store = mode == CacheMode::Refresh;
                let job = self.enqueue(&mut state, spec, key, store)?;
                (job, Served::Bypassed)
            }
        };
        self.shared.work_cv.notify_all();

        match job.wait(deadline) {
            Ok(artifact) => Ok((artifact, served)),
            Err(ServeError::DeadlineExpired) => {
                self.shared.metrics.deadline_expired.inc();
                Err(ServeError::DeadlineExpired)
            }
            Err(e) => Err(e),
        }
    }

    fn enqueue(
        &self,
        state: &mut SchedState,
        spec: &RunSpec,
        key: u64,
        store: bool,
    ) -> Result<Arc<Job>, ServeError> {
        if state.queue.len() >= self.shared.queue_depth {
            self.shared.metrics.rejected_overload.inc();
            return Err(ServeError::Overloaded { queue_depth: self.shared.queue_depth });
        }
        let job = Arc::new(Job {
            spec: spec.clone(),
            key,
            store,
            queued_at: Instant::now(),
            state: Mutex::new(JobState::Pending),
            cv: Condvar::new(),
        });
        state.queue.push_back(Arc::clone(&job));
        if store {
            // Only cache-visible jobs join the coalescing index: a
            // bypass run is a deliberate re-execution and must not be
            // answered by (or answer) anyone else. Keep the first
            // cacheable job if one is already indexed.
            state.inflight.entry(key).or_insert_with(|| Arc::clone(&job));
        }
        self.shared.metrics.queue_depth.set(state.queue.len() as f64);
        Ok(job)
    }

    /// Stops admission, finishes every queued and in-flight job, joins
    /// the workers. Idempotent.
    pub fn drain(&mut self) {
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.draining = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked already published Failed to its
            // job; the drain still completes.
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = lock_unpoisoned(&shared.state);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    // Gauge updates happen under the state lock so the
                    // read-modify-write is serialized across workers.
                    shared.metrics.queue_depth.set(state.queue.len() as f64);
                    shared.metrics.workers_busy.set(shared.metrics.workers_busy.get() + 1.0);
                    break job;
                }
                if state.draining {
                    return;
                }
                state = match shared.work_cv.wait(state) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };

        observe_ms(&shared.metrics.queue_wait_ms, job.queued_at);
        let started = Instant::now();
        let result = job.spec.execute();
        observe_ms(&shared.metrics.execute_ms, started);
        if let Ok(artifact) = &result {
            shared.metrics.executed.inc();
            if job.store {
                // A failed store only loses memoization, never the
                // response; the artifact is still published to waiters.
                let started = Instant::now();
                let _ = shared.cache.store(job.key, artifact);
                observe_ms(&shared.metrics.store_ms, started);
            }
        }
        {
            let mut state = lock_unpoisoned(&shared.state);
            if let Some(indexed) = state.inflight.get(&job.key) {
                if Arc::ptr_eq(indexed, &job) {
                    state.inflight.remove(&job.key);
                }
            }
            shared.metrics.workers_busy.set((shared.metrics.workers_busy.get() - 1.0).max(0.0));
        }
        job.fulfill(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_spec_from;

    fn scheduler(name: &str, workers: usize, depth: usize) -> (Scheduler, PoolMetrics) {
        let dir = std::env::temp_dir().join("century-serve-pool-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let reg = Registry::new();
        let metrics = PoolMetrics::register(&reg).unwrap();
        (Scheduler::start(cache, workers, depth, metrics.clone()).unwrap(), metrics)
    }

    fn spec(json: &str) -> RunSpec {
        run_spec_from(&crate::json::parse_object(json).unwrap()).unwrap()
    }

    #[test]
    fn miss_then_hit_with_one_execution() {
        let (sched, metrics) = scheduler("hit", 1, 4);
        let s = spec("{\"seed\":11,\"years\":2}");
        let (a, served) = sched.run(&s, CacheMode::Use, None).unwrap();
        assert_eq!(served, Served::Miss);
        let (b, served) = sched.run(&s, CacheMode::Use, None).unwrap();
        assert_eq!(served, Served::CacheHit);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.body, b.body);
        assert_eq!(metrics.executed.get(), 1);
        assert_eq!(metrics.cache_hits.get(), 1);
        assert_eq!(metrics.cache_misses.get(), 1);
    }

    #[test]
    fn bypass_reexecutes_and_matches() {
        let (sched, metrics) = scheduler("bypass", 1, 4);
        let s = spec("{\"seed\":12,\"years\":2}");
        let (a, _) = sched.run(&s, CacheMode::Use, None).unwrap();
        let (b, served) = sched.run(&s, CacheMode::Bypass, None).unwrap();
        assert_eq!(served, Served::Bypassed);
        assert_eq!(a.digest, b.digest, "re-execution must re-prove the digest");
        assert_eq!(metrics.executed.get(), 2);
    }

    #[test]
    fn overload_is_rejected_typed() {
        let (sched, metrics) = scheduler("overload", 1, 0);
        // Queue depth 0: the admission check trips before any execution.
        let s = spec("{\"seed\":13,\"years\":1}");
        match sched.run(&s, CacheMode::Use, None) {
            Err(ServeError::Overloaded { queue_depth: 0 }) => {}
            other => panic!("expected overload rejection, got {other:?}"),
        }
        assert_eq!(metrics.rejected_overload.get(), 1);
        assert_eq!(metrics.executed.get(), 0);
    }

    #[test]
    fn drain_completes_queued_work() {
        let (mut sched, metrics) = scheduler("drain", 1, 4);
        let s = spec("{\"seed\":14,\"years\":1}");
        let (_, served) = sched.run(&s, CacheMode::Use, None).unwrap();
        assert_eq!(served, Served::Miss);
        sched.drain();
        assert_eq!(metrics.executed.get(), 1);
        match sched.run(&s, CacheMode::Use, None) {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected shutting-down rejection, got {other:?}"),
        }
    }
}
