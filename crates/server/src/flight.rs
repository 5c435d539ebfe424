//! The scheduling model: every admitted work request becomes a *flight* —
//! one or more work units, answered to one or more riders.
//!
//! * A solo request is a flight with one unit and one rider.
//! * An unbudgeted `mine` keys its flight by [`MineKey`] when it reaches a
//!   worker. Identical mines that reach a worker while it runs join it as
//!   riders and free their worker at once: the pipeline runs once and
//!   every rider's response is rendered from the one outcome —
//!   byte-identical to a solo run, because the output for a fixed config is
//!   deterministic and only the render cap (`top=`) differs per rider.
//! * A `sweep` adds one unit per threshold to the low-priority lane, which
//!   workers drain only when no fresh request waits: a long sweep can fill
//!   idle workers but never starves fresh work.
//!
//! When a flight's last unit finishes, [`Scheduler::settle`] hands its
//! riders and [`Ending`] to the server's single completion path, which
//! renders one response per rider. Cancelling a rider of a coalesced run
//! detaches it at once (it answers `truncated (cancelled)`); the run's
//! token falls only with its last rider, and the key is dropped at that
//! instant so a newcomer leads a fresh run instead of joining a doomed
//! one. Cancelling any other admitted request cancels its flight's token,
//! and the run answers truncated. A panicking unit fails every rider of
//! its flight with the same structured error.
//!
//! Explicitly budgeted mines (`timeout_ms`/`max_steps`) never coalesce: a
//! step budget is a per-request determinism contract (such runs bypass the
//! `PreparedCache` for the same reason), and a deadline anchors to its own
//! request's submission. Unbudgeted riders adopt the leader's effective
//! budget (the server's default ceilings).
//!
//! # Locks
//!
//! [`Scheduler`] has one mutex over both lanes, the request id → flight
//! map and the coalescing index; each flight has a mutex over its riders
//! and ending. A flight lock is taken alone or under the scheduler lock,
//! never two flight locks at once. Under the scheduler lock, admission
//! also takes the registry lock for the request's load-order ticket.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use graphsig_core::{
    render_subgraphs, Budget, CacheDisposition, CancelToken, Completion, GraphSigResult, Outcome,
    WindowKey,
};
use graphsig_fsg::{Fsg, FsgConfig};
use graphsig_graph::{GraphDb, LabelPairIndex, MatcherKind};
use graphsig_gspan::{GSpan, MinerConfig, Pattern};

use crate::protocol::{BackendKind, MineRequest, Request, Response};
use crate::registry::{Dataset, Registry};
use crate::server::SharedWriter;

/// Everything a coalesced `mine` run depends on. Two requests with equal
/// keys would run the exact same pipeline over the exact same data, so
/// they may share one execution. `top=` is absent (rendering-only, applied
/// per rider); budgets are absent because budgeted requests never coalesce.
/// The fault-injection keys are *included*: two identical injected
/// requests may share a (deterministically faulty) run, but an injected
/// request never shares with a clean one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MineKey {
    dataset: String,
    version: u64,
    /// The `PreparedCache` fingerprint — proves key-compatibility with the
    /// window-pass cache the run will consult.
    window: WindowKey,
    max_pvalue_bits: u64,
    min_freq_bits: u64,
    fsm_freq_bits: u64,
    radius: usize,
    backend: graphsig_core::FsmBackend,
    matcher: MatcherKind,
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
            window: WindowKey::of(cfg),
            max_pvalue_bits: cfg.max_pvalue.to_bits(),
            min_freq_bits: cfg.min_freq.to_bits(),
            fsm_freq_bits: cfg.fsm_freq.to_bits(),
            radius: cfg.radius,
            backend: cfg.fsm_backend,
            matcher: cfg.matcher,
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
    /// How it took part, for the request log: `solo`, `lead`, `rider` or
    /// `sweep`.
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
    /// Units queued or running; the flight ends when the last finishes.
    pending: usize,
    /// Set while the flight leads a coalesced run, which riders may join
    /// and detach from.
    shared: Option<(MineKey, Arc<Dataset>)>,
    ending: Option<Ending>,
    /// Execute time summed over the flight's units.
    exec_us: u64,
}

impl Flight {
    /// Record how long the flight's request waited for a worker.
    pub(crate) fn picked_up(&self, waited_us: u64) {
        for rider in &mut lock(&self.state).riders {
            rider.waited_us = waited_us;
        }
    }

    /// Store sweep threshold `i`'s outcome.
    pub(crate) fn record(&self, i: usize, outcome: Outcome<Vec<Pattern>>) {
        if let Some(Ending::Sweep(_, outcomes)) = &mut lock(&self.state).ending {
            outcomes[i] = Some(outcome);
        }
    }
}

/// What a worker runs: a flight's request, or one threshold of its sweep.
pub(crate) struct Unit {
    pub(crate) flight: Arc<Flight>,
    pub(crate) work: Work,
}

pub(crate) enum Work {
    Request(Request),
    Threshold(Arc<SweepPlan>, usize),
}

/// Everything a sweep's threshold units share.
pub(crate) struct SweepPlan {
    pub(crate) dataset: Arc<Dataset>,
    /// One index build shared by every threshold — the point of the op.
    pub(crate) index: Arc<LabelPairIndex>,
    pub(crate) params: FreqParams,
    /// One budget governs the whole sweep: the deadline spans every
    /// threshold, and step allowances stay per unit (each clones it, so
    /// an unbudgeted sweep matches individual `freq` calls).
    pub(crate) budget: Budget,
    pub(crate) supports: Vec<usize>,
}

impl SweepPlan {
    /// Mine threshold `i`.
    pub(crate) fn run(&self, i: usize) -> Outcome<Vec<Pattern>> {
        run_freq(
            &self.dataset.db,
            &self.index,
            self.supports[i],
            &self.params,
            self.budget.clone(),
        )
    }
}

/// How one governed pipeline run ended.
pub(crate) enum MineRun {
    /// The run's token fell before (injected sleep) or during the work.
    Cancelled,
    /// The pipeline produced an outcome (complete or truncated).
    Done(Outcome<GraphSigResult>, CacheDisposition),
}

/// How a flight ended, rendered into each rider's response.
pub(crate) enum Ending {
    /// A solo request's response.
    Response(Response),
    /// A pipeline run over a dataset version; rendering (`top=`) is the
    /// only per-rider step.
    Mine(Arc<Dataset>, MineRun),
    /// A sweep's outcomes, one per threshold, assembled in support order.
    Sweep(Arc<SweepPlan>, Vec<Option<Outcome<Vec<Pattern>>>>),
    /// A unit of the flight panicked.
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
            Ending::Mine(dataset, MineRun::Done(outcome, disposition)) => dataset
                .ok_response(&rider.id, "mine")
                .with_field("completion", outcome.completion)
                .with_field("cached", disposition)
                .with_field("subgraphs", outcome.result.subgraphs.len())
                .with_payload(render_subgraphs(&dataset.db, &outcome.result, rider.top)),
            Ending::Sweep(plan, outcomes) => {
                let mut payload = String::new();
                let mut completion = Completion::Complete;
                let mut total = 0usize;
                for (support, outcome) in plan.supports.iter().zip(outcomes) {
                    let Some(outcome) = outcome else { continue };
                    completion = completion.merge(outcome.completion);
                    total += outcome.result.len();
                    // Marker line, then the exact bytes an individual
                    // `freq` call at this threshold would have produced.
                    let _ = writeln!(
                        payload,
                        "# sweep support {support}: {} patterns ({})",
                        outcome.result.len(),
                        outcome.completion
                    );
                    payload.push_str(&render_patterns(&plan.dataset.db, &outcome.result));
                }
                plan.dataset
                    .ok_response(&rider.id, "sweep")
                    .with_field("completion", completion)
                    .with_field("supports", plan.supports.len())
                    .with_field("patterns", total)
                    .with_field("index_types", plan.index.len())
                    .with_payload(payload)
            }
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
    pub(crate) matcher: MatcherKind,
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
                .with_matcher(params.matcher)
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
    /// The fresh lane is full; carries its depth.
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
    /// the run's dataset and execute time so far.
    Detached(Rider, Arc<Dataset>, u64),
}

#[derive(Default)]
struct Lanes {
    /// Admitted requests, FIFO and bounded by `capacity`.
    fresh: VecDeque<Unit>,
    /// Sweep thresholds, drained only when `fresh` is empty. Bounded by
    /// the threshold counts of admitted sweeps, not by `capacity`: the
    /// capacity check already admitted each sweep as one request.
    low: VecDeque<Unit>,
    /// Units executing.
    active: usize,
    /// Intake stopped (shutdown).
    closed: bool,
    /// Every admitted request not yet answered, by id.
    ids: HashMap<String, Arc<Flight>>,
    /// Coalesced runs accepting riders.
    mines: HashMap<MineKey, Arc<Flight>>,
}

/// The lanes, the id map and the coalescing index behind one lock.
pub(crate) struct Scheduler {
    lanes: Mutex<Lanes>,
    /// Wakes workers when a unit is queued (or termination is flagged).
    work_cv: Condvar,
    /// Wakes the drain when both lanes are empty and no unit runs.
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
            lanes: Mutex::new(Lanes::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            capacity,
            terminated: AtomicBool::new(false),
            leads: AtomicU64::new(0),
            riders: AtomicU64::new(0),
        }
    }

    /// Admit `request` as a new flight at the back of the fresh lane. The
    /// id is registered only once admitted, so a `cancel` never finds a
    /// refused request.
    pub(crate) fn admit(
        &self,
        request: Request,
        out: &SharedWriter,
        registry: &Registry,
    ) -> Result<(), Refusal> {
        let mut lanes = lock(&self.lanes);
        if lanes.closed {
            return Err(Refusal::Closed);
        }
        if lanes.fresh.len() >= self.capacity {
            return Err(Refusal::Busy(lanes.fresh.len()));
        }
        if lanes.ids.contains_key(request.id()) {
            return Err(Refusal::Duplicate);
        }
        // Taken under the lanes lock so tickets follow queue order: a
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
                pending: 1,
                shared: None,
                ending: None,
                exec_us: 0,
            }),
        });
        lanes.ids.insert(id, Arc::clone(&flight));
        lanes.fresh.push_back(Unit {
            flight,
            work: Work::Request(request),
        });
        drop(lanes);
        self.work_cv.notify_one();
        Ok(())
    }

    /// The next unit to run — fresh requests before sweep thresholds — or
    /// `None` once the scheduler has terminated.
    pub(crate) fn next(&self) -> Option<Unit> {
        let mut lanes = lock(&self.lanes);
        loop {
            if let Some(unit) = lanes.fresh.pop_front().or_else(|| lanes.low.pop_front()) {
                lanes.active += 1;
                return Some(unit);
            }
            if self.terminated.load(Ordering::Relaxed) {
                return None;
            }
            lanes = self.work_cv.wait(lanes).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A unit taken by [`Scheduler::next`] has finished (and its flight,
    /// if it was the last unit, has been answered).
    pub(crate) fn unit_done(&self) {
        let mut lanes = lock(&self.lanes);
        lanes.active -= 1;
        if lanes.active == 0 && lanes.fresh.is_empty() && lanes.low.is_empty() {
            self.idle_cv.notify_all();
        }
    }

    /// Seat an unbudgeted `mine`: ride the identical run already in
    /// flight, or lead a new one that later identical mines can join.
    /// The cancel check sits under the lanes lock, so a racing `cancel`
    /// lands either before it (seen here) or on the joined run (detach).
    pub(crate) fn coalesce(
        &self,
        flight: &Arc<Flight>,
        key: MineKey,
        dataset: &Arc<Dataset>,
    ) -> Seat {
        let mut lanes = lock(&self.lanes);
        if flight.token.is_cancelled() {
            return Seat::Cancelled;
        }
        if let Some(leader) = lanes.mines.get(&key).cloned() {
            let mut riders = std::mem::take(&mut lock(&flight.state).riders);
            for rider in &mut riders {
                rider.role = "rider";
                lanes.ids.insert(rider.id.clone(), Arc::clone(&leader));
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
        lanes.mines.insert(key, Arc::clone(flight));
        self.leads.fetch_add(1, Ordering::Relaxed);
        Seat::Run
    }

    /// Queue one low-priority unit per threshold of `flight`'s sweep.
    pub(crate) fn fan_out(&self, flight: &Arc<Flight>, plan: SweepPlan) {
        let plan = Arc::new(plan);
        let n = plan.supports.len();
        {
            let mut st = lock(&flight.state);
            st.pending += n;
            for rider in &mut st.riders {
                rider.role = "sweep";
            }
            st.ending = Some(Ending::Sweep(
                Arc::clone(&plan),
                (0..n).map(|_| None).collect(),
            ));
        }
        let units = (0..n).map(|i| Unit {
            flight: Arc::clone(flight),
            work: Work::Threshold(Arc::clone(&plan), i),
        });
        lock(&self.lanes).low.extend(units);
        self.work_cv.notify_all();
    }

    /// One of `flight`'s units finished, with the ending it produced (none
    /// for a threshold, a fan-out or a request that joined another run).
    /// The first panic wins. When this was the last unit, returns the
    /// riders still attached, the ending and the flight's execute time —
    /// and closes a coalesced run to newcomers: riders collected here are
    /// answered from this outcome; a later identical request leads afresh.
    pub(crate) fn settle(
        &self,
        flight: &Flight,
        ending: Option<Ending>,
        exec_us: u64,
    ) -> Option<(Vec<Rider>, Ending, u64)> {
        let mut lanes = lock(&self.lanes);
        let mut st = lock(&flight.state);
        st.exec_us += exec_us;
        if !matches!(st.ending, Some(Ending::Panicked { .. })) {
            if let Some(ending) = ending {
                st.ending = Some(ending);
            }
        }
        st.pending -= 1;
        if st.pending > 0 {
            return None;
        }
        if let Some((key, _)) = st.shared.take() {
            lanes.mines.remove(&key);
        }
        let riders = std::mem::take(&mut st.riders);
        // Only a flight whose request joined another run ends without an
        // ending, and it has no riders left.
        let ending = st.ending.take()?;
        Some((riders, ending, st.exec_us))
    }

    /// `cancel target`: detach a rider of a coalesced run, or cancel the
    /// token of any other admitted request's flight.
    pub(crate) fn cancel(&self, target: &str) -> Cancelled {
        let mut lanes = lock(&self.lanes);
        let Some(flight) = lanes.ids.get(target).cloned() else {
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
                lanes.mines.remove(&key);
            }
        }
        Cancelled::Detached(rider, dataset, st.exec_us)
    }

    /// Free answered riders' ids for reuse.
    pub(crate) fn release(&self, riders: &[Rider]) {
        let mut lanes = lock(&self.lanes);
        for rider in riders {
            lanes.ids.remove(&rider.id);
        }
    }

    /// Close intake and wait until both lanes are empty and no unit runs.
    /// Past the drain deadline every admitted flight's token is cancelled
    /// once — each request still answers structured (`truncated
    /// (cancelled)`), cooperative cancellation is just not instant — and
    /// the wait goes on. Then the workers are told to exit. Returns whether
    /// the deadline forced cancellation.
    pub(crate) fn drain(&self, drain_ms: u64) -> bool {
        let deadline = Instant::now() + Duration::from_millis(drain_ms);
        let mut forced = false;
        let mut lanes = lock(&self.lanes);
        lanes.closed = true;
        while lanes.active > 0 || !lanes.fresh.is_empty() || !lanes.low.is_empty() {
            if !forced && Instant::now() >= deadline {
                for flight in lanes.ids.values() {
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
            lanes = self
                .idle_cv
                .wait_timeout(lanes, wait)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        // Set under the lanes lock, so no worker can miss the wakeup
        // between its check in `next` and its wait.
        self.terminated.store(true, Ordering::Relaxed);
        drop(lanes);
        self.work_cv.notify_all();
        forced
    }

    pub(crate) fn is_terminated(&self) -> bool {
        self.terminated.load(Ordering::Relaxed)
    }

    /// `(fresh units queued, units executing, threshold units queued)`.
    pub(crate) fn depths(&self) -> (usize, usize, usize) {
        let lanes = lock(&self.lanes);
        (lanes.fresh.len(), lanes.active, lanes.low.len())
    }
}
