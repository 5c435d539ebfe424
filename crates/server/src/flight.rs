//! The scheduling model: every admitted work request becomes a *flight* —
//! exactly one work unit, answered to one or more riders.
//!
//! * A solo request is a flight with one rider.
//! * An unbudgeted `mine` keys its flight by [`MineKey`] when it reaches a
//!   worker. Identical mines that reach a worker while it runs join it as
//!   riders and free their worker at once: the pipeline runs once and
//!   every rider's response is rendered from the one outcome —
//!   byte-identical to a solo run, because the output for a fixed config is
//!   deterministic and only the render cap (`top=`) differs per rider.
//!
//! When a flight's unit finishes, [`Scheduler::settle`] hands its riders
//! to the server's single completion path, which renders one response per
//! rider from the unit's [`Ending`]. Cancelling a rider of a coalesced run
//! detaches it at once (it answers `truncated (cancelled)`); the run's
//! token falls only with its last rider, and the key is dropped at that
//! instant so a newcomer leads a fresh run instead of joining a doomed
//! one. Cancelling any other admitted request cancels its flight's token,
//! and the run answers truncated. A panicking unit fails every rider of
//! its flight with the same structured error.
//!
//! Explicitly budgeted mines (`timeout_ms`/`max_steps`) never coalesce: a
//! step budget is a per-request determinism contract, and a deadline
//! anchors to its own request's submission. They still mine the dataset
//! version's one prepared window pass, as every mine does. Unbudgeted
//! riders adopt the leader's effective budget (the server's default
//! ceilings).
//!
//! # Locks
//!
//! [`Scheduler`] has one mutex over the queue, the request id → flight
//! map and the coalescing index; each flight has a mutex over its riders.
//! A flight lock is taken alone or under the scheduler lock, never two
//! flight locks at once. Under the scheduler lock, admission also takes
//! the registry lock for the request's load-order ticket.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use graphsig_core::{render_subgraphs, Budget, CancelToken, GraphSigResult, Outcome};
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_graph::{GraphDb, LabelPairIndex};
use graphsig_gspan::{GSpan, MinerConfig, Pattern};

use crate::protocol::{BackendKind, MineRequest, Request, Response};
use crate::registry::{Cached, Dataset, Registry};
use crate::server::SharedWriter;

/// Everything a coalesced `mine` run depends on. Two requests with equal
/// keys would run the exact same pipeline over the exact same data, so
/// they may share one execution. `top=` is absent (rendering-only, applied
/// per rider); budgets are absent because budgeted requests never coalesce;
/// the window parameters are absent because every server mine uses the
/// defaults, so every mine of a version shares its one prepared pass.
/// The fault-injection keys are *included*: two identical injected
/// requests may share a (deterministically faulty) run, but an injected
/// request never shares with a clean one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MineKey {
    dataset: String,
    version: u64,
    max_pvalue_bits: u64,
    min_freq_bits: u64,
    fsm_freq_bits: u64,
    radius: usize,
    threads: usize,
    sleep_ms: Option<u64>,
    inject_panic: bool,
}

impl MineKey {
    /// Key for `r` resolved against `cfg` (the fully defaulted config the
    /// run will use) over `dataset`.
    pub(crate) fn of(
        dataset: &Dataset,
        cfg: &graphsig_core::GraphSigConfig,
        r: &MineRequest,
    ) -> Self {
        MineKey {
            dataset: dataset.name.clone(),
            version: dataset.version,
            max_pvalue_bits: cfg.max_pvalue.to_bits(),
            min_freq_bits: cfg.min_freq.to_bits(),
            fsm_freq_bits: cfg.fsm_freq.to_bits(),
            radius: cfg.radius,
            threads: cfg.threads,
            sleep_ms: r.sleep_ms,
            inject_panic: r.inject_panic,
        }
    }
}

/// One admitted request waiting on a flight.
pub(crate) struct Rider {
    pub(crate) id: String,
    pub(crate) out: SharedWriter,
    /// Per-rider `top=` render cap (`mine` only).
    top: usize,
    /// How it took part, for the request log: `solo`, `lead` or `rider`.
    pub(crate) role: &'static str,
    /// Microseconds from submission until its request reached a worker.
    pub(crate) waited_us: u64,
}

/// One admitted request's work, shared by every rider that joins it.
pub(crate) struct Flight {
    pub(crate) op: &'static str,
    /// Falls on `cancel` (solo), with the last rider of a coalesced run,
    /// or on forced drain.
    pub(crate) token: CancelToken,
    pub(crate) submitted: Instant,
    /// Load-order ticket for the dataset the request names (see
    /// [`Registry::ticket`]).
    pub(crate) ticket: u64,
    state: Mutex<FlightState>,
}

struct FlightState {
    riders: Vec<Rider>,
    /// Set while the flight leads a coalesced run, which riders may join
    /// and detach from.
    shared: Option<(MineKey, Arc<Dataset>)>,
}

impl Flight {
    /// Record how long the flight's request waited for a worker.
    pub(crate) fn picked_up(&self, waited_us: u64) {
        for rider in &mut lock(&self.state).riders {
            rider.waited_us = waited_us;
        }
    }
}

/// What a worker runs: one flight's request.
pub(crate) struct Unit {
    pub(crate) flight: Arc<Flight>,
    pub(crate) request: Request,
}

/// How one governed pipeline run ended.
pub(crate) enum MineRun {
    /// The run's token fell before (injected sleep) or during the work.
    Cancelled,
    /// The pipeline produced an outcome (complete or truncated).
    Done(Outcome<GraphSigResult>, Cached),
}

/// How a flight ended, rendered into each rider's response.
pub(crate) enum Ending {
    /// A solo request's response.
    Response(Response),
    /// A pipeline run over a dataset version; rendering (`top=`) is the
    /// only per-rider step.
    Mine(Arc<Dataset>, MineRun),
    /// The flight's unit panicked.
    Panicked { op: &'static str, message: String },
}

impl Ending {
    pub(crate) fn respond(&self, rider: &Rider) -> Cow<'_, Response> {
        Cow::Owned(match self {
            Ending::Response(resp) => return Cow::Borrowed(resp),
            Ending::Mine(dataset, MineRun::Cancelled) => dataset
                .ok_response(&rider.id, "mine")
                .with_field("completion", "truncated (cancelled)")
                .with_field("cached", "none")
                .with_field("subgraphs", 0),
            Ending::Mine(dataset, MineRun::Done(outcome, cached)) => dataset
                .ok_response(&rider.id, "mine")
                .with_field("completion", outcome.completion)
                .with_field("cached", cached)
                .with_field("subgraphs", outcome.result.subgraphs.len())
                .with_payload(render_subgraphs(&dataset.db, &outcome.result, rider.top)),
            Ending::Panicked { op, message } => Response::error(
                &rider.id,
                op,
                format!("request handler panicked: {message}"),
            ),
        })
    }
}

/// The per-threshold knobs shared by `freq` and `sweep`.
pub(crate) struct FreqParams {
    pub(crate) backend: Option<BackendKind>,
    pub(crate) max_edges: usize,
    pub(crate) max_patterns: usize,
    pub(crate) threads: usize,
}

/// One indexed frequent-mining run — the single implementation behind both
/// `freq` and each `sweep` threshold, so their results (and rendered
/// payloads) agree byte-for-byte.
pub(crate) fn run_freq(
    db: &GraphDb,
    index: &LabelPairIndex,
    min_support: usize,
    params: &FreqParams,
    budget: Budget,
) -> Outcome<Vec<Pattern>> {
    match params.backend {
        None | Some(BackendKind::Fsg) => Fsg::new(
            FsgConfig::new(min_support)
                .with_max_edges(params.max_edges)
                .with_max_patterns(params.max_patterns)
                .with_threads(params.threads)
                .with_budget(budget),
        )
        .mine_indexed_outcome(db, index),
        Some(BackendKind::GSpan) => GSpan::new(
            MinerConfig::new(min_support)
                .with_max_edges(params.max_edges)
                .with_max_patterns(params.max_patterns)
                .with_threads(params.threads)
                .with_budget(budget),
        )
        .mine_indexed_outcome(db, index),
    }
}

/// Render `freq` results: a stats comment plus a transaction block per
/// pattern (same shape as the `mine` payload).
pub(crate) fn render_patterns(db: &GraphDb, patterns: &[Pattern]) -> String {
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

/// Why [`Scheduler::admit`] turned a request away.
pub(crate) enum Refusal {
    /// Intake is closed (shutdown).
    Closed,
    /// The queue is full; carries its depth.
    Busy(usize),
    /// A request with this id is still in flight.
    Duplicate,
}

/// Where a coalescable `mine` sits (see [`Scheduler::coalesce`]).
pub(crate) enum Seat {
    /// This flight runs the pipeline.
    Run,
    /// The request joined an identical run in flight; its own flight is
    /// empty now.
    Ride,
    /// The request was cancelled before it could run or join.
    Cancelled,
}

/// What [`Scheduler::cancel`] did.
pub(crate) enum Cancelled {
    /// No admitted request has that id.
    Unknown,
    /// The target's flight token was cancelled; its run answers.
    Signalled,
    /// The target rode a coalesced run and detached: answer it now with
    /// the run's dataset.
    Detached(Rider, Arc<Dataset>),
}

#[derive(Default)]
struct Queue {
    /// Admitted requests, FIFO and bounded by `capacity`.
    units: VecDeque<Unit>,
    /// Units executing.
    active: usize,
    /// Intake stopped (shutdown).
    closed: bool,
    /// Every admitted request not yet answered, by id.
    ids: HashMap<String, Arc<Flight>>,
    /// Coalesced runs accepting riders.
    mines: HashMap<MineKey, Arc<Flight>>,
}

/// The queue, the id map and the coalescing index behind one lock.
pub(crate) struct Scheduler {
    queue: Mutex<Queue>,
    /// Wakes workers when a unit is queued (or termination is flagged).
    work_cv: Condvar,
    /// Wakes the drain when the queue is empty and no unit runs.
    idle_cv: Condvar,
    capacity: usize,
    /// Workers exit once set (after the drain).
    terminated: AtomicBool,
    /// Coalesced runs led (each ran the pipeline once).
    pub(crate) leads: AtomicU64,
    /// Mines that joined a run instead of executing.
    pub(crate) riders: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking unit is isolated by the worker; every update under these
    // locks leaves the data consistent, so recover rather than propagate.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Scheduler {
    pub(crate) fn new(capacity: usize) -> Self {
        Scheduler {
            queue: Mutex::new(Queue::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            capacity,
            terminated: AtomicBool::new(false),
            leads: AtomicU64::new(0),
            riders: AtomicU64::new(0),
        }
    }

    /// Admit `request` as a new flight at the back of the queue. The id is
    /// registered only once admitted, so a `cancel` never finds a refused
    /// request.
    pub(crate) fn admit(
        &self,
        request: Request,
        out: &SharedWriter,
        registry: &Registry,
    ) -> Result<(), Refusal> {
        let mut queue = lock(&self.queue);
        if queue.closed {
            return Err(Refusal::Closed);
        }
        if queue.units.len() >= self.capacity {
            return Err(Refusal::Busy(queue.units.len()));
        }
        if queue.ids.contains_key(request.id()) {
            return Err(Refusal::Duplicate);
        }
        // Taken under the queue lock so tickets follow queue order: a
        // request never waits on a load queued behind it.
        let ticket = request.dataset().map_or(0, |name| {
            registry.ticket(name, matches!(request, Request::Load(_)))
        });
        let top = match &request {
            Request::Mine(r) => r.top.unwrap_or(usize::MAX),
            _ => usize::MAX,
        };
        let id = request.id().to_string();
        let rider = Rider {
            id: id.clone(),
            out: Arc::clone(out),
            top,
            role: "solo",
            waited_us: 0,
        };
        let flight = Arc::new(Flight {
            op: request.op(),
            token: CancelToken::new(),
            submitted: Instant::now(),
            ticket,
            state: Mutex::new(FlightState {
                riders: vec![rider],
                shared: None,
            }),
        });
        queue.ids.insert(id, Arc::clone(&flight));
        queue.units.push_back(Unit { flight, request });
        drop(queue);
        self.work_cv.notify_one();
        Ok(())
    }

    /// The next unit to run, or `None` once the scheduler has terminated.
    pub(crate) fn next(&self) -> Option<Unit> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(unit) = queue.units.pop_front() {
                queue.active += 1;
                return Some(unit);
            }
            if self.terminated.load(Ordering::Relaxed) {
                return None;
            }
            queue = self.work_cv.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A unit taken by [`Scheduler::next`] has finished and its flight has
    /// been answered.
    pub(crate) fn unit_done(&self) {
        let mut queue = lock(&self.queue);
        queue.active -= 1;
        if queue.active == 0 && queue.units.is_empty() {
            self.idle_cv.notify_all();
        }
    }

    /// Seat an unbudgeted `mine`: ride the identical run already in
    /// flight, or lead a new one that later identical mines can join.
    /// The cancel check sits under the queue lock, so a racing `cancel`
    /// lands either before it (seen here) or on the joined run (detach).
    pub(crate) fn coalesce(
        &self,
        flight: &Arc<Flight>,
        key: MineKey,
        dataset: &Arc<Dataset>,
    ) -> Seat {
        let mut queue = lock(&self.queue);
        if flight.token.is_cancelled() {
            return Seat::Cancelled;
        }
        if let Some(leader) = queue.mines.get(&key).cloned() {
            let mut riders = std::mem::take(&mut lock(&flight.state).riders);
            for rider in &mut riders {
                rider.role = "rider";
                queue.ids.insert(rider.id.clone(), Arc::clone(&leader));
            }
            lock(&leader.state).riders.append(&mut riders);
            self.riders.fetch_add(1, Ordering::Relaxed);
            return Seat::Ride;
        }
        let mut st = lock(&flight.state);
        for rider in &mut st.riders {
            rider.role = "lead";
        }
        st.shared = Some((key.clone(), Arc::clone(dataset)));
        drop(st);
        queue.mines.insert(key, Arc::clone(flight));
        self.leads.fetch_add(1, Ordering::Relaxed);
        Seat::Run
    }

    /// `flight`'s unit ended: return the riders still attached, and close
    /// a coalesced run to newcomers. Riders collected here are answered
    /// from this unit's ending; a later identical request leads afresh.
    pub(crate) fn settle(&self, flight: &Flight) -> Vec<Rider> {
        let mut queue = lock(&self.queue);
        let mut st = lock(&flight.state);
        if let Some((key, _)) = st.shared.take() {
            queue.mines.remove(&key);
        }
        std::mem::take(&mut st.riders)
    }

    /// `cancel target`: detach a rider of a coalesced run, or cancel the
    /// token of any other admitted request's flight.
    pub(crate) fn cancel(&self, target: &str) -> Cancelled {
        let mut queue = lock(&self.queue);
        let Some(flight) = queue.ids.get(target).cloned() else {
            return Cancelled::Unknown;
        };
        let mut st = lock(&flight.state);
        let Some((_, dataset)) = &st.shared else {
            flight.token.cancel();
            return Cancelled::Signalled;
        };
        let dataset = Arc::clone(dataset);
        let Some(pos) = st.riders.iter().position(|r| r.id == target) else {
            return Cancelled::Signalled;
        };
        let rider = st.riders.remove(pos);
        if st.riders.is_empty() {
            // Nobody is left waiting: truncate the run, and drop the key
            // so an identical newcomer leads a fresh run.
            flight.token.cancel();
            if let Some((key, _)) = st.shared.take() {
                queue.mines.remove(&key);
            }
        }
        Cancelled::Detached(rider, dataset)
    }

    /// Free answered riders' ids for reuse.
    pub(crate) fn release(&self, riders: &[Rider]) {
        let mut queue = lock(&self.queue);
        for rider in riders {
            queue.ids.remove(&rider.id);
        }
    }

    /// Close intake and wait until the queue is empty and no unit runs.
    /// Past the drain deadline every admitted flight's token is cancelled
    /// once — each request still answers structured (`truncated
    /// (cancelled)`), cooperative cancellation is just not instant — and
    /// the wait goes on. Then the workers are told to exit. Returns whether
    /// the deadline forced cancellation.
    pub(crate) fn drain(&self, drain_ms: u64) -> bool {
        let deadline = Instant::now() + Duration::from_millis(drain_ms);
        let mut forced = false;
        let mut queue = lock(&self.queue);
        queue.closed = true;
        while queue.active > 0 || !queue.units.is_empty() {
            if !forced && Instant::now() >= deadline {
                for flight in queue.ids.values() {
                    flight.token.cancel();
                }
                forced = true;
            }
            let wait = if forced {
                Duration::from_millis(50)
            } else {
                deadline
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(50))
                    .max(Duration::from_millis(1))
            };
            queue = self
                .idle_cv
                .wait_timeout(queue, wait)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        // Set under the queue lock, so no worker can miss the wakeup
        // between its check in `next` and its wait.
        self.terminated.store(true, Ordering::Relaxed);
        drop(queue);
        self.work_cv.notify_all();
        forced
    }

    pub(crate) fn is_terminated(&self) -> bool {
        self.terminated.load(Ordering::Relaxed)
    }

    /// `(units queued, units executing)`.
    pub(crate) fn depths(&self) -> (usize, usize) {
        let queue = lock(&self.queue);
        (queue.units.len(), queue.active)
    }
}
