//! The resident mining service: bounded admission, a worker pool running
//! jobs, the dataset registry, and graceful degradation.
//!
//! # Robustness policy
//!
//! * **Backpressure, not unbounded queueing.** Work requests (`load`,
//!   `mine`, `freq`, `stats`) go through a bounded queue; when it
//!   is full the request is rejected *immediately* with `status=busy` and
//!   the current depth, so a client can back off. Control messages
//!   (`ping`, `cancel`, `shutdown`, `auth`) never queue — they are handled
//!   on the reader thread, so a saturated server can still be probed,
//!   cancelled into headroom, or shut down. A refused request is never
//!   visible to `cancel`: its id is registered only on admission, so
//!   `found=true` always means "the server accepted this id".
//! * **One scheduling model.** Every admitted request becomes one job
//!   (see the `scheduler` module): a worker runs it once, and one
//!   completion function writes its one response, however it ended.
//! * **Load ordering.** A request naming dataset X sees every `load` of X
//!   admitted before it, from any connection (see the `registry` module).
//! * **Per-request governance.** Every job carries its own
//!   [`CancelToken`] and a [`Budget`] assembled from the request's
//!   `timeout_ms`/`max_steps`, clamped by the server's ceilings. Deadlines
//!   run from *submission*, so time spent queued counts — a request that
//!   waited out its deadline returns `truncated (deadline exceeded)`
//!   instead of silently mining stale work.
//! * **Panic isolation.** Jobs run under
//!   [`try_par_map`](graphsig_core::try_par_map): a poisoned request
//!   (malformed data tripping a bug, injected faults in tests) produces a
//!   `status=error` response carrying the panic message; the worker and
//!   the server keep serving.
//! * **Graceful shutdown.** `shutdown` stops intake, waits for queued and
//!   running work under a drain deadline, cancels whatever outlives the
//!   deadline (those requests respond `truncated (cancelled)` — still a
//!   structured response, never a silent drop), and only then confirms.
//! * **Shared state with versioned invalidation.** Each resident dataset
//!   version owns one lazily prepared window pass, shared by every `mine`,
//!   and one lazily built label-pair index shared by every `freq`. `load`
//!   replaces the whole entry under a bumped version: in-flight requests
//!   keep mining their pinned `Arc` snapshot, new requests see the new
//!   version, and the old caches die with their last reference.
//! * **Observability.** `stats` (no dataset) reports per-op acceptance
//!   counters and cumulative queue-wait and execute times; `--log` writes
//!   one line per answered request with its queue wait and execute time.
//! * **Bounded fan-out.** A request's `threads=` is clamped to the core
//!   count (see `request_threads`): the value arrives from the network,
//!   and the pipeline spreads it over outer × inner workers.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use graphsig_core::{render_subgraphs, Budget, CancelToken, GraphSigConfig};
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_graph::{parse_transactions_into, GraphDb};
use graphsig_gspan::Pattern;

use crate::protocol::{
    parse_request, BudgetParams, FreqRequest, LoadFormat, LoadRequest, LoadSource, MineRequest,
    ProtocolError, Request, Response, Status,
};
use crate::registry::{unknown_dataset, Exhausted, Registry, StoreInfo};
use crate::scheduler::{Job, Refusal, Scheduler};

/// Tunables for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads processing queued requests (0 = one per core).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected `busy`.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not ask for one (ms).
    pub default_timeout_ms: Option<u64>,
    /// Ceiling clamping every request deadline (ms). With
    /// `default_timeout_ms` unset this also applies to requests that did
    /// not ask for a deadline.
    pub max_timeout_ms: Option<u64>,
    /// Ceiling clamping *explicit* `max_steps` requests. Never imposed on
    /// requests without one: a blanket step budget would truncate their
    /// search and forfeit byte identity with the unbudgeted one-shot CLI.
    pub max_steps_ceiling: Option<u64>,
    /// Default drain deadline for shutdown (ms).
    pub drain_ms: u64,
    /// Honor the fault-injection request keys (`sleep_ms`, `inject=panic`).
    /// Off by default; smoke tests and CI turn it on.
    pub allow_inject: bool,
    /// Memory admission ceiling: `load`s that would push the approximate
    /// resident footprint (databases + prepared window passes + built
    /// indexes) past this many bytes are rejected with a structured
    /// `code=resource_exhausted` error after evicting other datasets'
    /// prepared passes — the server never OOM-aborts on admission. `None`
    /// disables the governor.
    pub max_resident_bytes: Option<u64>,
    /// Connection auth token. When set, TCP connections must present it
    /// via `auth token=...` before any other op; stdio connections are
    /// exempt (local trust).
    pub auth_token: Option<String>,
    /// Emit one structured log line per completed request on stderr.
    pub log: bool,
    /// The store I/O seam every packed load goes through. Defaults to
    /// real I/O; the chaos soak test swaps in a seeded fault plan.
    pub io: graphsig_store::Io,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 16,
            default_timeout_ms: None,
            max_timeout_ms: None,
            max_steps_ceiling: None,
            drain_ms: 5_000,
            allow_inject: false,
            max_resident_bytes: None,
            auth_token: None,
            log: false,
            io: graphsig_store::Io::real(),
        }
    }
}

/// Where responses go. Whole responses are written under the lock, so
/// concurrent workers interleave *responses*, never bytes.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Wrap a sink as a [`SharedWriter`].
pub fn shared_writer(w: impl Write + Send + 'static) -> SharedWriter {
    Arc::new(Mutex::new(Box::new(w)))
}

#[derive(Default)]
struct Counters {
    received: AtomicU64,
    served: AtomicU64,
    busy_rejected: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    // Accepted (queued) submissions by op.
    op_load: AtomicU64,
    op_mine: AtomicU64,
    op_freq: AtomicU64,
    op_stats: AtomicU64,
    /// Total microseconds requests spent queued before a worker picked
    /// them up (latency attribution: waiting vs working).
    queue_wait_us: AtomicU64,
    /// Total microseconds workers spent executing jobs.
    exec_us: AtomicU64,
}

/// A point-in-time view of the server counters (smoke assertions, stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Request lines received (including rejected and malformed ones).
    pub received: u64,
    /// Responses written for queued work (ok or error).
    pub served: u64,
    /// Submissions rejected with `status=busy`.
    pub busy_rejected: u64,
    /// Error responses (including panics and parse errors).
    pub errors: u64,
    /// Request handlers that panicked (isolated; server kept serving).
    pub panics: u64,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently executing.
    pub active: usize,
    /// Cumulative queue wait across picked-up requests (µs).
    pub queue_wait_us: u64,
    /// Cumulative handler execution time (µs).
    pub exec_us: u64,
}

struct ServerInner {
    cfg: ServerConfig,
    registry: Registry,
    sched: Scheduler,
    counters: Counters,
}

/// A running mining service. Workers start on construction; requests are
/// fed in as protocol lines via [`Server::dispatch_line`] or one of the
/// transport loops ([`Server::serve_connection`], the event-driven
/// [`crate::transport::serve`] behind `serve --tcp`).
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // A worker panicking while holding a lock is already isolated by
    // try_par_map; a poisoned mutex here would only ever hold consistent
    // data, so recover rather than propagate.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Server {
    /// Start a server: spawns the worker pool immediately.
    pub fn new(cfg: ServerConfig) -> Self {
        let worker_count = graphsig_core::resolve_threads(cfg.workers);
        let inner = Arc::new(ServerInner {
            registry: Registry::new(cfg.max_resident_bytes),
            sched: Scheduler::new(cfg.queue_capacity),
            counters: Counters::default(),
            cfg,
        });
        let workers = (0..worker_count)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();
        Server { inner, workers }
    }

    /// Feed one request line; any response is written to `out`. Returns
    /// `true` when the line was a completed `shutdown` — the caller should
    /// stop reading.
    pub fn dispatch_line(&self, line: &str, out: &SharedWriter) -> bool {
        self.inner.dispatch_line(line, out)
    }

    /// Whether connections must authenticate (`--auth-token` configured).
    pub fn requires_auth(&self) -> bool {
        self.inner.cfg.auth_token.is_some()
    }

    /// Feed one request line from a connection that may not have
    /// authenticated yet. Until `*authed` is true every op except a
    /// correct `auth` is rejected with `status=error code=unauthorized`
    /// (the connection stays open so the client can retry). A correct
    /// `auth` flips `*authed` for the rest of the connection. Used by the
    /// TCP transport; stdio uses [`Server::dispatch_line`] directly.
    pub fn dispatch_line_gated(&self, line: &str, authed: &mut bool, out: &SharedWriter) -> bool {
        if *authed {
            return self.inner.dispatch_line(line, out);
        }
        *authed = self.inner.gate_unauthenticated(line, out);
        false
    }

    /// Serve one connection: read request lines until EOF or shutdown.
    /// On EOF without a `shutdown` request the connection just closes;
    /// the server (and other connections) keep running.
    pub fn serve_connection(&self, reader: impl std::io::BufRead, out: SharedWriter) {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if self.inner.dispatch_line(&line, &out) || self.is_terminated() {
                break;
            }
        }
    }

    /// Whether a completed `shutdown` has terminated the worker pool.
    pub fn is_terminated(&self) -> bool {
        self.inner.sched.is_terminated()
    }

    /// Drain and stop without a client `shutdown` request (EOF on stdio,
    /// Ctrl-C handling, tests). Uses the configured drain deadline.
    pub fn shutdown_now(&self) {
        self.inner.sched.drain(self.inner.cfg.drain_ms);
    }

    /// Current counters.
    pub fn snapshot(&self) -> ServerSnapshot {
        self.inner.snapshot()
    }

    /// Wait for all workers to exit. Call after shutdown (a completed
    /// `shutdown` request or [`Server::shutdown_now`]).
    pub fn join(mut self) {
        self.stop();
    }

    /// Shut down if nobody did (so joining cannot hang), then join.
    fn stop(&mut self) {
        if !self.is_terminated() {
            self.shutdown_now();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl ServerInner {
    fn snapshot(&self) -> ServerSnapshot {
        let (queued, active) = self.sched.depths();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerSnapshot {
            received: load(&self.counters.received),
            served: load(&self.counters.served),
            busy_rejected: load(&self.counters.busy_rejected),
            errors: load(&self.counters.errors),
            panics: load(&self.counters.panics),
            queued,
            active,
            queue_wait_us: load(&self.counters.queue_wait_us),
            exec_us: load(&self.counters.exec_us),
        }
    }

    fn write_response(&self, out: &SharedWriter, resp: &Response) {
        if resp.status == Status::Error {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        let mut w = lock(out);
        let _ = w.write_all(resp.render().as_bytes());
        let _ = w.flush();
    }

    /// Answer a job. The only place an admitted request is answered: it
    /// releases the id, counts the request, logs it with its queue wait and
    /// execute time, and writes the response.
    fn complete(&self, job: &Job, resp: &Response, queue_wait_us: u64, exec_us: u64) {
        self.sched.release(job.request.id());
        self.counters.served.fetch_add(1, Ordering::Relaxed);
        self.log_request(resp, queue_wait_us, exec_us);
        self.write_response(&job.out, resp);
    }

    /// One structured stderr line per completed request (`--log`).
    fn log_request(&self, resp: &Response, queue_wait_us: u64, exec_us: u64) {
        if !self.cfg.log {
            return;
        }
        let f = |key: &str| resp.field(key).unwrap_or("-").to_string();
        eprintln!(
            "[graphsig] op={} id={} status={} dataset={} version={} degraded={} \
             completion={} queue_wait_us={queue_wait_us} exec_us={exec_us}",
            crate::protocol::escape(&resp.op),
            crate::protocol::escape(&resp.id),
            match resp.status {
                Status::Ok => "ok",
                Status::Error => "error",
                Status::Busy => "busy",
            },
            f("dataset"),
            f("version"),
            f("degraded"),
            f("completion"),
        );
    }

    /// Answer `auth token=...`; returns whether the token is accepted.
    /// With no token configured every connection is already trusted.
    fn auth(&self, id: &str, token: &str, out: &SharedWriter) -> bool {
        let ok = self.cfg.auth_token.as_deref().is_none_or(|t| t == token);
        let resp = if ok {
            Response::new(id, "auth", Status::Ok).with_field("authorized", true)
        } else {
            Response::error(id, "auth", "bad token").with_field("code", "unauthorized")
        };
        self.write_response(out, &resp);
        ok
    }

    /// Handle one line from a connection that has not authenticated.
    /// Returns the connection's new authed state. Everything except a
    /// correct `auth` gets `status=error code=unauthorized`; op and id are
    /// echoed where the line parses so the client can correlate.
    fn gate_unauthenticated(&self, line: &str, out: &SharedWriter) -> bool {
        let (id, op) = match parse_request(line) {
            Ok(None) => return false, // blank / comment
            Ok(Some(Request::Auth { id, token })) => {
                self.counters.received.fetch_add(1, Ordering::Relaxed);
                return self.auth(&id, &token, out);
            }
            Ok(Some(other)) => (other.id().to_string(), other.op()),
            Err(ProtocolError { id, .. }) => (id.unwrap_or_else(|| "-".into()), "?"),
        };
        self.counters.received.fetch_add(1, Ordering::Relaxed);
        self.write_response(
            out,
            &Response::error(&id, op, "authenticate first (auth token=...)")
                .with_field("code", "unauthorized"),
        );
        false
    }

    fn dispatch_line(&self, line: &str, out: &SharedWriter) -> bool {
        let request = match parse_request(line) {
            Ok(None) => return false, // blank / comment
            Ok(Some(req)) => req,
            Err(ProtocolError { message, id }) => {
                self.counters.received.fetch_add(1, Ordering::Relaxed);
                let id = id.as_deref().unwrap_or("-");
                self.write_response(out, &Response::error(id, "?", message));
                return false;
            }
        };
        self.counters.received.fetch_add(1, Ordering::Relaxed);
        match &request {
            Request::Ping { id } => {
                self.write_response(out, &Response::new(id, "ping", Status::Ok));
            }
            // Reaching here means the connection is already trusted (stdio,
            // or a TCP connection past its gate). Re-auth is validated
            // anyway so a client can probe its token.
            Request::Auth { id, token } => {
                self.auth(id, token, out);
            }
            Request::Cancel { id, target } => {
                let found = self.sched.cancel(target);
                self.write_response(
                    out,
                    &Response::new(id, "cancel", Status::Ok)
                        .with_field("target", target)
                        .with_field("found", found),
                );
            }
            Request::Shutdown { id, drain_ms } => {
                let forced = self.sched.drain(drain_ms.unwrap_or(self.cfg.drain_ms));
                self.write_response(
                    out,
                    &Response::new(id, "shutdown", Status::Ok)
                        .with_field("served", self.counters.served.load(Ordering::Relaxed))
                        .with_field("forced", forced),
                );
                return true;
            }
            Request::Load(_) | Request::Mine(_) | Request::Freq(_) | Request::Stats { .. } => {
                self.submit(request, out)
            }
        }
        false
    }

    /// Admit a work request, or refuse it (shutdown / `busy` / duplicate).
    fn submit(&self, request: Request, out: &SharedWriter) {
        let (id, op) = (request.id().to_string(), request.op());
        let refusal = match self.sched.admit(request, out, &self.registry) {
            Ok(()) => {
                let counter = match op {
                    "load" => &self.counters.op_load,
                    "mine" => &self.counters.op_mine,
                    "freq" => &self.counters.op_freq,
                    _ => &self.counters.op_stats,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(Refusal::Closed) => Response::error(&id, op, "server is shutting down"),
            Err(Refusal::Busy(depth)) => {
                self.counters.busy_rejected.fetch_add(1, Ordering::Relaxed);
                Response::new(&id, op, Status::Busy)
                    .with_field("queue", depth)
                    .with_field("capacity", self.cfg.queue_capacity)
            }
            Err(Refusal::Duplicate) => {
                Response::error(&id, op, format!("request id '{id}' already in flight"))
            }
        };
        self.write_response(out, &refusal);
    }

    fn worker_loop(&self) {
        while let Some(job) = self.sched.next() {
            self.run_job(job);
            self.sched.job_done();
        }
    }

    /// Run one job with panic isolation, then answer it.
    fn run_job(&self, job: Job) {
        let started = Instant::now();
        let queue_wait_us = started.saturating_duration_since(job.submitted).as_micros() as u64;
        self.counters
            .queue_wait_us
            .fetch_add(queue_wait_us, Ordering::Relaxed);
        // try_par_map with a single item runs inline under catch_unwind:
        // a panicking job yields a structured error, not a dead worker.
        let result =
            graphsig_core::try_par_map(1, std::slice::from_ref(&job), |job| self.execute(job));
        let exec_us = started.elapsed().as_micros() as u64;
        self.counters.exec_us.fetch_add(exec_us, Ordering::Relaxed);
        let resp = match result {
            Ok(mut resps) => resps.pop().expect("one job, one response"),
            Err(panicked) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                let (id, op) = (job.request.id(), job.request.op());
                Response::error(
                    id,
                    op,
                    format!("request handler panicked: {}", panicked.message),
                )
            }
        };
        self.complete(&job, &resp, queue_wait_us, exec_us);
    }

    /// Build the effective budget for a request: request limits clamped by
    /// server ceilings, deadline measured from submission, and always the
    /// job's cancel token.
    fn budget_for(&self, params: &BudgetParams, job: &Job) -> Budget {
        let mut budget = Budget::unlimited().with_cancel(job.token.clone());
        let timeout_ms = params.timeout_ms.or(self.cfg.default_timeout_ms);
        let timeout_ms = match (timeout_ms, self.cfg.max_timeout_ms) {
            (Some(t), Some(ceiling)) => Some(t.min(ceiling)),
            (None, ceiling) => ceiling,
            (t, None) => t,
        };
        if let Some(ms) = timeout_ms {
            budget = budget.with_deadline_at(job.submitted + Duration::from_millis(ms));
        }
        let max_steps = match (params.max_steps, self.cfg.max_steps_ceiling) {
            (Some(s), Some(ceiling)) => Some(s.min(ceiling)),
            (s, _) => s,
        };
        if let Some(steps) = max_steps {
            budget = budget.with_max_steps(steps);
        }
        budget
    }

    /// Run a job's request into its response.
    fn execute(&self, job: &Job) -> Response {
        match &job.request {
            Request::Load(r) => self.exec_load(r, job.ticket),
            Request::Mine(r) => self.exec_mine(r, job),
            Request::Freq(r) => self.exec_freq(r, job),
            Request::Stats { id, dataset } => self.exec_stats(id, dataset.as_deref(), job),
            // Control ops never reach the queue.
            other => Response::error(other.id(), other.op(), "internal: control op queued"),
        }
    }

    fn exec_load(&self, r: &LoadRequest, ticket: u64) -> Response {
        // Every earlier load of this name commits first; this one commits
        // when `turn` drops, however the load ends.
        let turn = self.registry.load_turn(&r.dataset, ticket);
        let started = Instant::now();
        let error = |message: String| Response::error(&r.id, "load", message);
        // Appends extend the current version's graphs; a plain load starts
        // from nothing.
        let base = match (r.append, &turn.current) {
            (false, _) => None,
            (true, Some(d)) => Some(Arc::clone(d)),
            (true, None) => {
                return error(format!("append failed: {}", unknown_dataset(&r.dataset)))
            }
        };
        let mut db = base.as_ref().map_or_else(GraphDb::new, |d| (*d.db).clone());
        let base_len = db.len();
        let (mut store, mut retries) = (None, None);
        match (&r.source, r.format) {
            (LoadSource::Path(path), LoadFormat::Text) => {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => return error(format!("cannot read {path}: {e}")),
                };
                if let Err(e) = parse_transactions_into(&mut db, &text) {
                    return error(format!("{path}: {e}"));
                }
            }
            (LoadSource::Path(path), LoadFormat::Packed) => {
                // Lenient open through the server's I/O seam: damaged
                // shards are quarantined (moved aside, reported) and the
                // dataset serves the survivors in an explicitly degraded
                // state; transient faults are retried with backoff and
                // surface only as a `retries=` count on the response.
                let retries_before = self.cfg.io.retries();
                let opened = match graphsig_store::open_lenient_with(
                    std::path::Path::new(path),
                    &self.cfg.io,
                ) {
                    Ok(o) => o,
                    Err(e) => return error(e.to_string()),
                };
                retries = Some(self.cfg.io.retries() - retries_before);
                store = Some(StoreInfo::of(&opened));
                absorb(&mut db, opened.db, base.is_none());
            }
            (LoadSource::AidsLike { count, seed }, _) => {
                let batch = graphsig_datagen::aids_like(*count, *seed).db;
                absorb(&mut db, batch, base.is_none());
            }
        }
        let loaded = db.len() - base_len;
        match turn.install(base.as_deref(), db, store) {
            Err(Exhausted {
                requested,
                resident,
                max,
            }) => error(format!(
                "resident ceiling exceeded: loading {requested} bytes over \
                 {resident} resident would pass max_resident_bytes={max}"
            ))
            .with_field("code", "resource_exhausted")
            .with_field("requested_bytes", requested)
            .with_field("resident_bytes", resident)
            .with_field("max_resident_bytes", max),
            Ok(d) => {
                let mut resp = Response::new(&r.id, "load", Status::Ok)
                    .with_field("dataset", &d.name)
                    .with_field("version", d.version)
                    .with_field("graphs", d.db.len())
                    .with_field("loaded", loaded)
                    .with_field("resident_bytes", d.db_bytes)
                    .with_field("parse_ms", started.elapsed().as_millis());
                if let Some(n) = retries {
                    resp = resp.with_field("retries", n);
                }
                d.with_store_fields(resp)
            }
        }
    }

    /// `mine`: one governed pipeline run over the dataset version's one
    /// prepared window pass. Fault injection happens here, under the job's
    /// token, so an injected sleep is cancellable exactly like real work.
    fn exec_mine(&self, r: &MineRequest, job: &Job) -> Response {
        let error = |message: &str| Response::error(&r.id, "mine", message);
        if (r.inject_panic || r.sleep_ms.is_some()) && !self.cfg.allow_inject {
            return error("fault-injection keys are disabled");
        }
        let dataset = match self.registry.get(&r.dataset, job.ticket) {
            Ok(d) => d,
            Err(e) => return error(&e),
        };
        let defaults = GraphSigConfig::default();
        let cfg = GraphSigConfig {
            max_pvalue: r.max_pvalue.unwrap_or(defaults.max_pvalue),
            min_freq: r.min_freq.unwrap_or(defaults.min_freq),
            radius: r.radius.unwrap_or(defaults.radius),
            fsm_freq: r.fsm_freq.unwrap_or(defaults.fsm_freq),
            threads: request_threads(r.threads),
            budget: Some(self.budget_for(&r.budget, job)),
            ..defaults
        };
        // GraphSig::new panics on these; reject structured instead.
        if let Err(e) = cfg.validate() {
            return error(&e);
        }
        // A mine cancelled while queued, or during its injected sleep,
        // answers without running.
        let slept = r
            .sleep_ms
            .is_none_or(|ms| sleep_cancellable(ms, &job.token));
        if !slept || job.token.is_cancelled() {
            return dataset
                .ok_response(&r.id, "mine")
                .with_field("completion", "truncated (cancelled)")
                .with_field("cached", "none")
                .with_field("subgraphs", 0);
        }
        if r.inject_panic {
            panic!("injected fault (inject=panic)");
        }
        let (outcome, cached) = dataset.mine(&cfg);
        dataset
            .ok_response(&r.id, "mine")
            .with_field("completion", outcome.completion)
            .with_field("cached", cached)
            .with_field("subgraphs", outcome.result.subgraphs.len())
            .with_payload(render_subgraphs(
                &dataset.db,
                &outcome.result,
                r.top.unwrap_or(usize::MAX),
            ))
    }

    /// `freq`: FSG over the dataset version's one label-pair index, which
    /// the first `freq` builds and every later one shares.
    fn exec_freq(&self, r: &FreqRequest, job: &Job) -> Response {
        let dataset = match self.registry.get(&r.dataset, job.ticket) {
            Ok(d) => d,
            Err(e) => return Response::error(&r.id, "freq", e),
        };
        if r.min_support == 0 {
            return Response::error(&r.id, "freq", "min_support must be >= 1");
        }
        let index = dataset.index();
        let outcome = Fsg::new(
            FsgConfig::new(r.min_support)
                .with_max_edges(r.max_edges.unwrap_or(8))
                .with_max_patterns(r.max_patterns.unwrap_or(10_000))
                .with_threads(request_threads(r.threads))
                .with_budget(self.budget_for(&r.budget, job)),
        )
        .mine_indexed_outcome(&dataset.db, &index);
        dataset
            .ok_response(&r.id, "freq")
            .with_field("completion", outcome.completion)
            .with_field("patterns", outcome.result.len())
            .with_field("index_types", index.len())
            .with_payload(render_patterns(&dataset.db, &outcome.result))
    }

    fn exec_stats(&self, id: &str, dataset: Option<&str>, job: &Job) -> Response {
        if let Some(name) = dataset {
            return match self.registry.get(name, job.ticket) {
                Ok(d) => d.stats_response(id),
                Err(e) => Response::error(id, "stats", e),
            };
        }
        let snap = self.snapshot();
        let (datasets, resident) = self.registry.totals();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let c = &self.counters;
        let resp = Response::new(id, "stats", Status::Ok)
            .with_field("datasets", datasets)
            .with_field("received", snap.received)
            .with_field("served", snap.served)
            .with_field("busy_rejected", snap.busy_rejected)
            .with_field("errors", snap.errors)
            .with_field("panics", snap.panics)
            .with_field("queued", snap.queued)
            .with_field("active", snap.active)
            .with_field("queue_capacity", self.cfg.queue_capacity)
            .with_field("workers", graphsig_core::resolve_threads(self.cfg.workers))
            .with_field("queue_wait_us", snap.queue_wait_us)
            .with_field("exec_us", snap.exec_us)
            .with_field("op_load", load(&c.op_load))
            .with_field("op_mine", load(&c.op_mine))
            .with_field("op_freq", load(&c.op_freq))
            .with_field("op_stats", load(&c.op_stats))
            .with_field("resident_bytes", resident)
            .with_field("evictions", load(&self.registry.evictions))
            .with_field("store_retries", self.cfg.io.retries());
        match self.cfg.max_resident_bytes {
            Some(max) => resp.with_field("max_resident_bytes", max),
            None => resp,
        }
    }
}

/// A request's `threads=` (absent or 0 = auto), clamped to the core count.
/// The value arrives from the network and the pipeline spreads it over
/// outer × inner workers, so an unclamped value could ask for tens of
/// thousands of OS threads. Output is identical at any thread count.
fn request_threads(requested: Option<usize>) -> usize {
    requested.map_or(0, |t| t.min(graphsig_core::resolve_threads(0)))
}

/// Render `freq` results: a stats comment plus a transaction block per
/// pattern (same shape as the `mine` payload).
fn render_patterns(db: &GraphDb, patterns: &[Pattern]) -> String {
    let mut out = String::new();
    for (i, p) in patterns.iter().enumerate() {
        let _ = writeln!(
            out,
            "# pattern {i}: support {} graphs ({:.3}%), {} edges",
            p.support,
            100.0 * p.frequency(db.len()),
            p.graph.edge_count()
        );
        let one = GraphDb::from_parts(vec![p.graph.clone()], db.labels().clone());
        out.push_str(&graphsig_graph::write_transactions(&one));
    }
    out
}

/// Add a load batch to `db`. A fresh load takes the batch whole, keeping
/// its label table exactly as read.
fn absorb(db: &mut GraphDb, batch: GraphDb, fresh: bool) {
    if fresh {
        *db = batch;
    } else {
        db.absorb(&batch);
    }
}

/// Sleep in small cancellable slices. Returns `false` when cancelled.
fn sleep_cancellable(ms: u64, token: &CancelToken) -> bool {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < deadline {
        if token.is_cancelled() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    !token.is_cancelled()
}

#[cfg(test)]
mod tests {
    use super::request_threads;

    #[test]
    fn request_threads_are_clamped_to_the_core_count() {
        let cores = graphsig_core::resolve_threads(0);
        assert_eq!(request_threads(Some(usize::MAX)), cores);
        assert_eq!(request_threads(Some(cores + 1)), cores);
        assert_eq!(request_threads(Some(1)), 1);
        // Absent and 0 both stay auto.
        assert_eq!(request_threads(None), 0);
        assert_eq!(request_threads(Some(0)), 0);
    }
}
