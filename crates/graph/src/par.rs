//! Deterministic dynamically-scheduled parallel execution.
//!
//! Every parallel phase of the workspace — the GraphSig pipeline (RWR
//! extraction, FVMine per label group, CutGraph + maximal FSM per region
//! set) and the baseline miners (gSpan per-seed DFS subtrees, FSG
//! per-parent candidate generation and per-candidate support counting) —
//! runs through this one executor. It lives in `graphsig-graph`, the
//! workspace's root crate, so both the pipeline (`graphsig-core`, which
//! re-exports it as `core::par`) and the miners it drives can share it
//! without a dependency cycle. The design is deliberately tiny —
//! `std::thread::scope` workers pulling item indices from a shared
//! `AtomicUsize` — and has two properties its users depend on:
//!
//! * **Dynamic scheduling.** Workers claim the next unprocessed index as
//!   they finish, so skewed item costs (a giant label group, one dense
//!   region set, one explosive gSpan seed subtree) do not leave threads
//!   idle the way static contiguous chunking does.
//! * **Determinism by index.** Each worker writes a result straight into
//!   the slot of its item index, so the output of [`par_map`] is
//!   *identical* to the sequential map for any thread count —
//!   byte-for-byte, not just set-equal — and holds each result once.
//!   Downstream dedup/sort passes therefore see the exact sequential
//!   order.
//!
//! The executor also provides **panic isolation**: every task runs under
//! `catch_unwind`, so one poisoned item surfaces as a structured
//! [`TaskPanicked`] error (carrying the *lowest* panicking index,
//! deterministically — see [`try_par_map_range`]) instead of tearing down
//! the process. The infallible [`par_map`]/[`par_map_range`] re-raise that
//! structured error as a panic on the caller's thread.
//!
//! No external dependencies (see DESIGN.md §6); scoped threads have been
//! stable since Rust 1.63.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A parallel task panicked. `index` is the lowest item index that
/// panicked — deterministic across thread counts — and `message` is its
/// panic payload (when it was a string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanicked {
    /// Lowest panicking item index.
    pub index: usize,
    /// The panic payload, if it was a `&str` or `String`.
    pub message: String,
}

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parallel task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanicked {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolve a `threads` configuration value: `0` means "auto", i.e.
/// [`std::thread::available_parallelism`] (falling back to 1 if the
/// parallelism cannot be determined).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Map `f` over `0..n` with `threads` workers (`0` = auto) and return the
/// results in index order. Equivalent to
/// `(0..n).map(f).collect()` for every thread count.
///
/// Workers self-schedule over a shared atomic index (dynamic scheduling)
/// and move each result into its index's slot — no per-worker buffers,
/// no nondeterminism in the output.
pub fn par_map_range<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    match try_par_map_range(threads, n, f) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`par_map_range`]: each task runs under
/// `catch_unwind`, and a panicking task yields `Err(TaskPanicked)` instead
/// of unwinding through the executor.
///
/// The reported index is **deterministic**: it is always the lowest item
/// index that panics. Indices are claimed from the shared atomic counter in
/// strictly increasing order and workers stop claiming new items once a
/// panic is observed, so every item below the first panicker has already
/// been claimed and runs to completion — any panic among them is recorded,
/// and skipped items all lie above the first panicker. On `Err`, results of
/// successfully completed items are discarded.
pub fn try_par_map_range<U, F>(threads: usize, n: usize, f: F) -> Result<Vec<U>, TaskPanicked>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n < 2 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => out.push(v),
                Err(p) => {
                    return Err(TaskPanicked {
                        index: i,
                        message: panic_message(p),
                    })
                }
            }
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    // One slot per index, written once by whichever worker ran it. One
    // lock guards them all and is held only to move a finished result in.
    // A lock or `OnceLock` per slot would widen every slot by a word, turn
    // the final conversion to `Vec<U>` into a reallocation (about 0.5 MiB
    // more peak RSS on a two-thread mine of 1000 molecules), and the
    // `OnceLock` would also require `U: Sync`.
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);
    let first_panic = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (next, poisoned, slots, f) = (&next, &poisoned, &slots, &f);
                s.spawn(move || {
                    while !poisoned.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(i))) {
                            Ok(v) => {
                                let mut slots =
                                    slots.lock().expect("storing a result never panics");
                                slots[i] = Some(v);
                            }
                            Err(p) => {
                                poisoned.store(true, Ordering::Relaxed);
                                return Some(TaskPanicked {
                                    index: i,
                                    message: panic_message(p),
                                });
                            }
                        }
                    }
                    None
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("parallel worker panicked"))
            .min_by_key(|p| p.index)
    });
    if let Some(p) = first_panic {
        return Err(p);
    }
    Ok(slots
        .into_inner()
        .expect("storing a result never panics")
        .into_iter()
        .map(|slot| slot.expect("all indices claimed exactly once"))
        .collect())
}

/// Map `f` over a slice with `threads` workers (`0` = auto), returning
/// results in item order. See [`par_map_range`] for the scheduling and
/// determinism guarantees.
pub fn par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_range(threads, items.len(), |i| f(&items[i]))
}

/// Fallible variant of [`par_map`]; see [`try_par_map_range`] for the
/// panic-isolation and determinism guarantees.
pub fn try_par_map<T, U, F>(threads: usize, items: &[T], f: F) -> Result<Vec<U>, TaskPanicked>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    try_par_map_range(threads, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let got = par_map(threads, &items, |&x| x * x);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn auto_threads_resolves_to_at_least_one() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn handles_empty_and_single_item() {
        assert_eq!(par_map_range(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_range(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn skewed_workloads_keep_order() {
        // Item cost varies by orders of magnitude; output order must not.
        let n = 40;
        let out = par_map_range(4, n, |i| {
            let spins = if i % 7 == 0 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (i, item) in out.iter().enumerate() {
            assert_eq!(item.0, i);
        }
        let seq = par_map_range(1, n, |i| {
            let spins = if i % 7 == 0 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        assert_eq!(out, seq);
    }

    #[test]
    fn more_threads_than_items_is_safe() {
        let got = par_map_range(16, 3, |i| i * 2);
        assert_eq!(got, vec![0, 2, 4]);
    }

    #[test]
    fn try_variants_match_infallible_on_success() {
        let items: Vec<usize> = (0..57).collect();
        for threads in [1, 2, 4, 8] {
            let got = try_par_map(threads, &items, |&x| x + 1).unwrap();
            assert_eq!(got, (1..58).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn panicking_task_yields_lowest_index_at_every_thread_count() {
        for threads in [1, 2, 4, 8] {
            let err = try_par_map_range(threads, 64, |i| {
                if i == 13 || i == 40 {
                    panic!("boom at {i}");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.index, 13, "threads={threads}");
            assert_eq!(err.message, "boom at 13", "threads={threads}");
        }
    }

    #[test]
    fn infallible_map_reraises_structured_panic() {
        let caught = std::panic::catch_unwind(|| {
            par_map_range(4, 8, |i| {
                if i == 3 {
                    panic!("poisoned item");
                }
                i
            })
        })
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "parallel task 3 panicked: poisoned item");
    }

    #[test]
    fn task_panicked_display_and_error() {
        let e = TaskPanicked {
            index: 5,
            message: "oops".into(),
        };
        assert_eq!(e.to_string(), "parallel task 5 panicked: oops");
        let _: &dyn std::error::Error = &e;
    }
}
