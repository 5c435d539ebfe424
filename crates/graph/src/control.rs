//! Request-level resource governance: budgets, cancellation, outcomes.
//!
//! The ROADMAP's north star — a long-lived server batching mine requests —
//! needs every request bounded. This module is the governance layer the
//! whole workspace shares: a [`Budget`] carries an optional wall-clock
//! deadline, an optional cooperative *step* budget, and a [`CancelToken`];
//! search loops (subgraph-match steps, gSpan DFS extensions, FSG candidate
//! joins, FVMine branch expansions) tick a [`Meter`] and stop cooperatively
//! when the budget is exhausted. GraphSig's RWR window pass is a fixed
//! point, not a search: no step budget meters it, and it checks only the
//! deadline and the cancel token, before each graph. Results are reported
//! as an [`Outcome`] whose [`Completion`] says whether the search ran to
//! completion or was truncated, and why.
//!
//! # Deterministic vs. best-effort truncation
//!
//! The workspace's parallel executor guarantees byte-identical output at
//! every thread count, and budget truncation must not break that. The two
//! stop conditions have different guarantees by design:
//!
//! * **Step budget — deterministic.** `max_steps` is a *per-work-unit
//!   allowance*, not a globally shared pool: each independent unit of work
//!   (a gSpan seed subtree, an FSG parent or candidate, an FVMine label
//!   group, a region set, one subgraph match) gets a fresh [`Meter`]
//!   counting from zero. Whether a unit exhausts its
//!   allowance is a property of the unit alone — independent of thread
//!   count and scheduling — so truncated results are byte-identical across
//!   thread counts. (A shared atomic pool would race: which unit drains
//!   the last step would depend on scheduling.) The shared
//!   [`Budget::steps_spent`] counter only *meters* total work for
//!   diagnostics; it is never used for limit checks.
//! * **Deadline / cancellation — best-effort, nondeterministic.** Wall
//!   clock and external cancellation are inherently scheduling-dependent.
//!   They are checked every [`EXTERNAL_CHECK_PERIOD`] ticks and at the
//!   start of each work unit; a run truncated by deadline or cancellation
//!   is well-formed and labeled, but its exact contents are not
//!   reproducible.
//!
//! # Example
//!
//! ```
//! use graphsig_graph::control::{Budget, Completion, StopReason};
//!
//! let budget = Budget::unlimited().with_max_steps(2);
//! let mut meter = budget.meter();
//! assert!(meter.tick());
//! assert!(meter.tick());
//! assert!(!meter.tick()); // third step exceeds the per-unit allowance
//! assert_eq!(meter.completion(), Completion::Truncated(StopReason::StepBudget));
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in ticks) a [`Meter`] polls the wall clock and the cancel
/// flag. Step-budget checks are exact (every tick); external conditions
/// are best-effort and only need coarse latency.
pub const EXTERNAL_CHECK_PERIOD: u64 = 1024;

/// Why a search stopped before exhausting its search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StopReason {
    /// The per-work-unit step allowance ran out (deterministic).
    StepBudget,
    /// The wall-clock deadline passed (best-effort, nondeterministic).
    Deadline,
    /// The [`CancelToken`] was triggered (best-effort, nondeterministic).
    Cancelled,
    /// A result cap such as `max_patterns` was hit (deterministic).
    PatternCap,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::StepBudget => "step budget exhausted",
            StopReason::Deadline => "deadline exceeded",
            StopReason::Cancelled => "cancelled",
            StopReason::PatternCap => "pattern cap reached",
        })
    }
}

/// Whether a result covers the full search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// The search ran to the end; the result is exact.
    Complete,
    /// The search stopped early; the result is a well-formed prefix of the
    /// complete answer.
    Truncated(StopReason),
}

impl Completion {
    /// `true` iff the search was not truncated.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// Combine two completions: the first truncation (in merge order)
    /// wins, so merging in deterministic unit order yields a
    /// deterministic overall reason.
    pub fn merge(self, other: Completion) -> Completion {
        match self {
            Completion::Complete => other,
            truncated => truncated,
        }
    }
}

impl std::fmt::Display for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completion::Complete => f.write_str("complete"),
            Completion::Truncated(r) => write!(f, "truncated ({r})"),
        }
    }
}

/// A result plus whether it is complete. Truncated results are always
/// well-formed partial answers, never garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome<T> {
    /// The (possibly partial) result.
    pub result: T,
    /// Whether `result` covers the full search space.
    pub completion: Completion,
}

impl<T> Outcome<T> {
    /// An exact result.
    pub fn complete(result: T) -> Self {
        Self {
            result,
            completion: Completion::Complete,
        }
    }

    /// A partial result truncated for `reason`.
    pub fn truncated(result: T, reason: StopReason) -> Self {
        Self {
            result,
            completion: Completion::Truncated(reason),
        }
    }

    /// Pair a result with an explicit completion.
    pub fn new(result: T, completion: Completion) -> Self {
        Self { result, completion }
    }

    /// Transform the result, keeping the completion.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        Outcome {
            result: f(self.result),
            completion: self.completion,
        }
    }
}

/// Cooperative cancellation handle. Cloning shares the flag; any clone can
/// cancel, and all meters drawing on a [`Budget`] carrying the token
/// observe it (best-effort — see the module docs).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Resource limits for one mining request. Cheap to clone; clones share
/// the cancel flag and the spent-steps diagnostic counter.
///
/// The default ([`Budget::unlimited`]) imposes no limits, and every meter
/// drawn from it is a near-free no-op — governance off means zero
/// behavior change.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    cancel: CancelToken,
    spent: Arc<AtomicU64>,
    match_spent: Arc<AtomicU64>,
    canon_spent: Arc<AtomicU64>,
    cert_hit_spent: Arc<AtomicU64>,
}

impl Budget {
    /// A budget with no limits attached.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limit wall-clock time to `timeout` from now (best-effort).
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Limit wall-clock time to an absolute instant (best-effort).
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Limit each work unit to `max_steps` search steps (deterministic;
    /// see the module docs for what counts as a work unit).
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Attach an externally held cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The per-work-unit step allowance, if any.
    pub fn max_steps(&self) -> Option<u64> {
        self.max_steps
    }

    /// Total steps flushed back by finished meters, across all threads.
    /// Diagnostic only — never used for limit checks (a shared pool would
    /// make truncation scheduling-dependent).
    pub fn steps_spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// The portion of [`Budget::steps_spent`] that was isomorphism-matcher
    /// work ([`Meter::consume_match`]). Diagnostic only: completion reports
    /// use it to say whether a truncated run was dominated by match steps
    /// or by other search work.
    pub fn match_steps_spent(&self) -> u64 {
        self.match_spent.load(Ordering::Relaxed)
    }

    /// Number of full `min_dfs_code` canonicalizations flushed back by
    /// finished meters ([`Meter::note_canon`]). Diagnostic only: the
    /// certificate layer exists to drive this number down, and reports
    /// surface it next to matcher steps so the win is attributable.
    pub fn canon_calls(&self) -> u64 {
        self.canon_spent.load(Ordering::Relaxed)
    }

    /// Number of canonicalizations *avoided* because an
    /// isomorphism-invariant certificate resolved the question first
    /// ([`Meter::note_cert_hit`]). Diagnostic only.
    pub fn cert_hits(&self) -> u64 {
        self.cert_hit_spent.load(Ordering::Relaxed)
    }

    /// Check the best-effort external conditions (deadline, cancellation)
    /// before starting a work unit, so that once a deadline passes,
    /// remaining units are skipped instead of started.
    pub fn check_start(&self) -> Option<StopReason> {
        if self.cancel.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(StopReason::Deadline);
            }
        }
        None
    }

    /// Draw a fresh per-work-unit meter on this budget.
    pub fn meter(&self) -> Meter<'_> {
        Meter {
            budget: Some(self),
            local: 0,
            local_match: 0,
            local_canon: 0,
            local_cert_hit: 0,
            stop: None,
        }
    }
}

/// Convenience: the start-of-unit check for an optional budget.
pub fn check_start(budget: Option<&Budget>) -> Option<StopReason> {
    budget.and_then(|b| b.check_start())
}

/// A per-work-unit step counter drawing on a [`Budget`].
///
/// Search loops call [`Meter::tick`] once per elementary step and stop
/// (well-formed, partial) when it returns `false`. The step-limit check is
/// exact and purely local — deterministic across thread counts — while
/// deadline/cancellation are polled every [`EXTERNAL_CHECK_PERIOD`] ticks.
/// Once stopped, a meter stays stopped. On drop, the local count is
/// flushed into the budget's diagnostic [`Budget::steps_spent`] counter.
#[derive(Debug)]
pub struct Meter<'b> {
    budget: Option<&'b Budget>,
    local: u64,
    local_match: u64,
    local_canon: u64,
    local_cert_hit: u64,
    stop: Option<StopReason>,
}

impl Meter<'static> {
    /// A meter with no budget: every tick succeeds, nothing is recorded.
    /// Lets governed and ungoverned callers share one code path.
    pub fn unbudgeted() -> Self {
        Meter {
            budget: None,
            local: 0,
            local_match: 0,
            local_canon: 0,
            local_cert_hit: 0,
            stop: None,
        }
    }
}

impl<'b> Meter<'b> {
    /// A meter on an optional budget (`None` = unbudgeted).
    pub fn new(budget: Option<&'b Budget>) -> Meter<'b> {
        Meter {
            budget,
            local: 0,
            local_match: 0,
            local_canon: 0,
            local_cert_hit: 0,
            stop: None,
        }
    }

    /// Record one search step. Returns `false` when the work unit must
    /// stop; the decision is sticky.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.consume(1)
    }

    /// Record `n` search steps at once (e.g. a bounded subgraph match
    /// reports how many candidate trials it used). Returns `false` when the
    /// work unit must stop; the decision is sticky.
    #[inline]
    pub fn consume(&mut self, n: u64) -> bool {
        let Some(budget) = self.budget else {
            return true;
        };
        if self.stop.is_some() {
            return false;
        }
        let before = self.local;
        self.local = self.local.saturating_add(n);
        if let Some(limit) = budget.max_steps {
            if self.local > limit {
                self.stop = Some(StopReason::StepBudget);
                return false;
            }
        }
        // Poll best-effort external conditions at most once per
        // EXTERNAL_CHECK_PERIOD steps.
        if before / EXTERNAL_CHECK_PERIOD != self.local / EXTERNAL_CHECK_PERIOD {
            if let Some(reason) = budget.check_start() {
                self.stop = Some(reason);
                return false;
            }
        }
        true
    }

    /// Record `n` steps of *isomorphism-matcher* work — identical to
    /// [`Meter::consume`] for budgeting, but the count is additionally
    /// attributed to the budget's [`Budget::match_steps_spent`] diagnostic
    /// so truncation reports can name the dominant phase. Support-counting
    /// loops charge each `exists_in_counted` bill through this.
    #[inline]
    pub fn consume_match(&mut self, n: u64) -> bool {
        if self.budget.is_some() {
            self.local_match = self.local_match.saturating_add(n);
        }
        self.consume(n)
    }

    /// Note one full `min_dfs_code` canonicalization. Pure diagnostics
    /// (attributed to [`Budget::canon_calls`] on drop) — never consumes
    /// budget, so adding the counter changes no truncation point.
    #[inline]
    pub fn note_canon(&mut self) {
        if self.budget.is_some() {
            self.local_canon += 1;
        }
    }

    /// Note one canonicalization avoided by a certificate (cache hit or
    /// certificate-only decision). Pure diagnostics, attributed to
    /// [`Budget::cert_hits`] on drop.
    #[inline]
    pub fn note_cert_hit(&mut self) {
        if self.budget.is_some() {
            self.local_cert_hit += 1;
        }
    }

    /// Steps left in this unit's allowance (`u64::MAX` when unlimited).
    /// Used to hand a sub-search (one subgraph match) a hard cap.
    pub fn remaining_steps(&self) -> u64 {
        match self.budget.and_then(|b| b.max_steps) {
            Some(limit) if self.stop.is_none() => limit.saturating_sub(self.local),
            Some(_) => 0,
            None => u64::MAX,
        }
    }

    /// Why this unit stopped, if it did.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// Whether this unit was stopped early.
    pub fn truncated(&self) -> bool {
        self.stop.is_some()
    }

    /// This unit's completion status.
    pub fn completion(&self) -> Completion {
        match self.stop {
            None => Completion::Complete,
            Some(reason) => Completion::Truncated(reason),
        }
    }
}

impl Drop for Meter<'_> {
    fn drop(&mut self) {
        if let Some(budget) = self.budget {
            if self.local > 0 {
                budget.spent.fetch_add(self.local, Ordering::Relaxed);
            }
            if self.local_match > 0 {
                budget
                    .match_spent
                    .fetch_add(self.local_match, Ordering::Relaxed);
            }
            if self.local_canon > 0 {
                budget
                    .canon_spent
                    .fetch_add(self.local_canon, Ordering::Relaxed);
            }
            if self.local_cert_hit > 0 {
                budget
                    .cert_hit_spent
                    .fetch_add(self.local_cert_hit, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbudgeted_meter_never_stops() {
        let mut m = Meter::unbudgeted();
        for _ in 0..10_000 {
            assert!(m.tick());
        }
        assert_eq!(m.completion(), Completion::Complete);
        assert_eq!(m.remaining_steps(), u64::MAX);
    }

    #[test]
    fn unlimited_budget_meter_never_stops() {
        let b = Budget::unlimited();
        let mut m = b.meter();
        for _ in 0..10_000 {
            assert!(m.tick());
        }
        drop(m);
        assert_eq!(b.steps_spent(), 10_000);
    }

    #[test]
    fn step_budget_is_exact_and_sticky() {
        let b = Budget::unlimited().with_max_steps(3);
        let mut m = b.meter();
        assert!(m.tick());
        assert_eq!(m.remaining_steps(), 2);
        assert!(m.tick());
        assert!(m.tick());
        assert!(!m.tick());
        assert!(!m.tick()); // sticky
        assert_eq!(m.stop_reason(), Some(StopReason::StepBudget));
        assert_eq!(m.remaining_steps(), 0);
        // A fresh meter on the same budget starts a fresh allowance.
        let mut m2 = b.meter();
        assert!(m2.tick());
    }

    #[test]
    fn zero_step_budget_stops_immediately() {
        let b = Budget::unlimited().with_max_steps(0);
        let mut m = b.meter();
        assert!(!m.tick());
        assert_eq!(
            m.completion(),
            Completion::Truncated(StopReason::StepBudget)
        );
    }

    #[test]
    fn match_steps_are_attributed_separately() {
        let b = Budget::unlimited();
        let mut m = b.meter();
        assert!(m.consume(5));
        assert!(m.consume_match(7));
        drop(m);
        assert_eq!(b.steps_spent(), 12);
        assert_eq!(b.match_steps_spent(), 7);
        // consume_match obeys the same limit as consume.
        let b = Budget::unlimited().with_max_steps(3);
        let mut m = b.meter();
        assert!(!m.consume_match(4));
        assert_eq!(m.stop_reason(), Some(StopReason::StepBudget));
        // Unbudgeted meters record nothing, as with plain consume.
        let mut m = Meter::unbudgeted();
        assert!(m.consume_match(100));
    }

    #[test]
    fn canon_counters_are_attributed_and_budget_neutral() {
        let b = Budget::unlimited().with_max_steps(2);
        let mut m = b.meter();
        // Notes never consume budget: many notes, still two ticks left.
        for _ in 0..100 {
            m.note_canon();
            m.note_cert_hit();
        }
        assert!(m.tick());
        assert!(m.tick());
        assert!(!m.tick());
        drop(m);
        assert_eq!(b.canon_calls(), 100);
        assert_eq!(b.cert_hits(), 100);
        // Unbudgeted meters record nothing.
        let mut m = Meter::unbudgeted();
        m.note_canon();
        m.note_cert_hit();
        assert!(m.tick());
    }

    #[test]
    fn bulk_consume_matches_ticks() {
        let b = Budget::unlimited().with_max_steps(10);
        let mut m = b.meter();
        assert!(m.consume(10));
        assert!(!m.consume(1));
        let mut m2 = b.meter();
        assert!(!m2.consume(11));
    }

    #[test]
    fn expired_deadline_is_seen_at_unit_start_and_at_poll_period() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.check_start(), Some(StopReason::Deadline));
        let mut m = b.meter();
        let mut stopped_at = None;
        for i in 0..=EXTERNAL_CHECK_PERIOD {
            if !m.tick() {
                stopped_at = Some(i);
                break;
            }
        }
        // The poll fires within one EXTERNAL_CHECK_PERIOD of ticks.
        assert!(stopped_at.is_some());
        assert_eq!(m.stop_reason(), Some(StopReason::Deadline));
    }

    #[test]
    fn cancel_token_is_shared_and_observed() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        assert_eq!(b.check_start(), None);
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(b.check_start(), Some(StopReason::Cancelled));
        let mut m = b.meter();
        let mut stopped = false;
        for _ in 0..=EXTERNAL_CHECK_PERIOD {
            if !m.tick() {
                stopped = true;
                break;
            }
        }
        assert!(stopped);
        assert_eq!(m.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn completion_merge_keeps_first_truncation() {
        use Completion::*;
        use StopReason::*;
        assert_eq!(Complete.merge(Complete), Complete);
        assert_eq!(Complete.merge(Truncated(Deadline)), Truncated(Deadline));
        assert_eq!(
            Truncated(StepBudget).merge(Truncated(Deadline)),
            Truncated(StepBudget)
        );
        assert_eq!(Truncated(PatternCap).merge(Complete), Truncated(PatternCap));
    }

    #[test]
    fn outcome_constructors_and_map() {
        let o = Outcome::complete(3).map(|x| x * 2);
        assert_eq!(o.result, 6);
        assert!(o.completion.is_complete());
        let t = Outcome::truncated(vec![1], StopReason::StepBudget);
        assert_eq!(t.completion, Completion::Truncated(StopReason::StepBudget));
    }

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(Completion::Complete.to_string(), "complete");
        assert_eq!(
            Completion::Truncated(StopReason::Deadline).to_string(),
            "truncated (deadline exceeded)"
        );
        assert_eq!(
            Completion::Truncated(StopReason::StepBudget).to_string(),
            "truncated (step budget exhausted)"
        );
    }
}
