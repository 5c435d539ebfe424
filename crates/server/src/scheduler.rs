//! The scheduling model: every admitted work request becomes one *job*. A
//! worker runs the job once, and the server's one completion function
//! writes its one response.
//!
//! A job carries its cancel token from admission on, so `cancel` reaches
//! it whether it is queued or running: a queued `mine` answers `truncated
//! (cancelled)` without running, and a running job stops at its next
//! budget check. Concurrent identical mines each run; they share their
//! dataset version's one prepared window pass, which the first of them
//! prepares while the others block on it (see the `registry` module).
//!
//! # Locks
//!
//! [`Scheduler`] has one mutex over the queue and the request id → cancel
//! token map. Under it, admission also takes the registry lock for the
//! request's load-order ticket; nothing takes the scheduler lock while
//! holding the registry lock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use graphsig_core::CancelToken;

use crate::protocol::Request;
use crate::registry::Registry;
use crate::server::SharedWriter;

/// One admitted request: what a worker runs and the completion function
/// answers.
pub(crate) struct Job {
    pub(crate) request: Request,
    /// Where the response goes.
    pub(crate) out: SharedWriter,
    /// Falls on `cancel` or on a forced drain.
    pub(crate) token: CancelToken,
    pub(crate) submitted: Instant,
    /// Load-order ticket for the dataset the request names (see
    /// [`Registry::ticket`]).
    pub(crate) ticket: u64,
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

#[derive(Default)]
struct Queue {
    /// Admitted jobs, FIFO and bounded by `capacity`.
    jobs: VecDeque<Job>,
    /// Jobs executing.
    active: usize,
    /// Intake stopped (shutdown).
    closed: bool,
    /// Every admitted request not yet answered, by id.
    ids: HashMap<String, CancelToken>,
}

/// The queue and the id map behind one lock.
pub(crate) struct Scheduler {
    queue: Mutex<Queue>,
    /// Wakes workers when a job is queued (or termination is flagged).
    work_cv: Condvar,
    /// Wakes the drain when the queue is empty and no job runs.
    idle_cv: Condvar,
    capacity: usize,
    /// Workers exit once set (after the drain).
    terminated: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking job is isolated by the worker; every update under this
    // lock leaves the data consistent, so recover rather than propagate.
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
        }
    }

    /// Admit `request` as a new job at the back of the queue. The id is
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
        if queue.jobs.len() >= self.capacity {
            return Err(Refusal::Busy(queue.jobs.len()));
        }
        if queue.ids.contains_key(request.id()) {
            return Err(Refusal::Duplicate);
        }
        // Taken under the queue lock so tickets follow queue order: a
        // request never waits on a load queued behind it.
        let ticket = request.dataset().map_or(0, |name| {
            registry.ticket(name, matches!(request, Request::Load(_)))
        });
        let token = CancelToken::new();
        queue.ids.insert(request.id().to_string(), token.clone());
        queue.jobs.push_back(Job {
            request,
            out: out.clone(),
            token,
            submitted: Instant::now(),
            ticket,
        });
        drop(queue);
        self.work_cv.notify_one();
        Ok(())
    }

    /// The next job to run, or `None` once the scheduler has terminated.
    pub(crate) fn next(&self) -> Option<Job> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                queue.active += 1;
                return Some(job);
            }
            if self.terminated.load(Ordering::Relaxed) {
                return None;
            }
            queue = self.work_cv.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A job taken by [`Scheduler::next`] has been answered.
    pub(crate) fn job_done(&self) {
        let mut queue = lock(&self.queue);
        queue.active -= 1;
        if queue.active == 0 && queue.jobs.is_empty() {
            self.idle_cv.notify_all();
        }
    }

    /// `cancel target`: cancel the token of the admitted request with that
    /// id. Returns whether there was one.
    pub(crate) fn cancel(&self, target: &str) -> bool {
        match lock(&self.queue).ids.get(target) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Free an answered request's id for reuse.
    pub(crate) fn release(&self, id: &str) {
        lock(&self.queue).ids.remove(id);
    }

    /// Close intake and wait until the queue is empty and no job runs.
    /// Past the drain deadline every admitted job's token is cancelled
    /// once — each request still answers structured (`truncated
    /// (cancelled)`), cooperative cancellation is just not instant — and
    /// the wait goes on. Then the workers are told to exit. Returns whether
    /// the deadline forced cancellation.
    pub(crate) fn drain(&self, drain_ms: u64) -> bool {
        let deadline = Instant::now() + Duration::from_millis(drain_ms);
        let mut forced = false;
        let mut queue = lock(&self.queue);
        queue.closed = true;
        while queue.active > 0 || !queue.jobs.is_empty() {
            if !forced && Instant::now() >= deadline {
                for token in queue.ids.values() {
                    token.cancel();
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

    /// `(jobs queued, jobs executing)`.
    pub(crate) fn depths(&self) -> (usize, usize) {
        let queue = lock(&self.queue);
        (queue.jobs.len(), queue.active)
    }
}
