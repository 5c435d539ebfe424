//! Deterministic, seeded fault injection for store I/O — plus the retry
//! policy that makes transient failures invisible to callers.
//!
//! Every filesystem touch in this crate goes through an [`Io`] handle. A
//! plain `Io::real()` executes the operation directly (retrying genuine
//! transient errors); an `Io::with_plan(FaultPlan)` additionally consults a
//! seeded plan before each operation and may:
//!
//! - fail **transiently** (`ErrorKind::Interrupted`) — recovered by the
//!   bounded exponential-backoff retry loop below, counted in [`IoStats`];
//! - fail **permanently** (`ErrorKind::Other`) — surfaces immediately as a
//!   structured [`StoreError::Io`](crate::StoreError), no retry storm;
//! - return a **short read** — the caller sees truncated bytes and must
//!   resolve them to a structured decode error (totality is exercised, not
//!   the retry path);
//! - **stall** — sleep for the plan's stall duration, then proceed.
//!
//! Decisions are drawn from a splitmix64 stream seeded by the plan, so a
//! given `(seed, operation sequence)` replays the exact same faults. The
//! server's chaos soak test leans on this to diff faulted runs against an unfaulted
//! oracle.
//!
//! ## Retry taxonomy
//!
//! Transient = `ErrorKind::Interrupted` or `ErrorKind::WouldBlock`
//! (whether injected or genuine). Everything else is permanent. A
//! transient attempt sleeps `min(200µs · 2^attempt, 3.2ms)` plus seeded
//! jitter and retries, up to [`MAX_IO_ATTEMPTS`] total attempts; the final
//! failure is returned as-is. Permanent errors never retry.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Total attempts (first try + retries) for a transiently failing
/// operation before the error is surfaced.
pub const MAX_IO_ATTEMPTS: u32 = 5;

/// Next value of a splitmix64 stream; the generator behind every seeded
/// decision in this module.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which primitive a fault decision applies to. Mostly for diagnostics;
/// short reads only apply to `Read`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoOp {
    /// Whole-file read of a shard or manifest.
    Read,
    /// Creating a temp sibling for an atomic write.
    Create,
    /// Writing the temp sibling's bytes.
    Write,
    /// fsync of a freshly written file.
    Fsync,
    /// Atomic rename of temp into place.
    Rename,
    /// Directory listing (temp/orphan scan).
    List,
    /// Removing a stale shard or swept temp.
    Remove,
    /// `create_dir_all` for a fresh store.
    CreateDir,
    /// fsync of the directory after a rename.
    SyncDir,
}

impl IoOp {
    /// Stable lowercase name, used in injected error messages.
    pub fn name(self) -> &'static str {
        match self {
            IoOp::Read => "read",
            IoOp::Create => "create",
            IoOp::Write => "write",
            IoOp::Fsync => "fsync",
            IoOp::Rename => "rename",
            IoOp::List => "list",
            IoOp::Remove => "remove",
            IoOp::CreateDir => "create_dir",
            IoOp::SyncDir => "sync_dir",
        }
    }
}

/// A seeded schedule of injected faults. Probabilities are per-mille per
/// I/O event; `permanent_at`/`kill_after` pin faults to exact event
/// indices for targeted tests and mid-ingest kill simulation.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the decision stream.
    pub seed: u64,
    /// Chance (‰) an event fails with `ErrorKind::Interrupted`.
    pub transient_per_mille: u16,
    /// Chance (‰) a read returns fewer bytes than the file holds.
    pub short_read_per_mille: u16,
    /// Chance (‰) an event sleeps for `stall` before proceeding.
    pub stall_per_mille: u16,
    /// How long a stalled event sleeps.
    pub stall: Duration,
    /// Max *consecutive* injected transients before one is suppressed, so
    /// bounded retry always wins. Must be `< MAX_IO_ATTEMPTS`.
    pub max_transient_burst: u32,
    /// Inject exactly one permanent failure at this event index.
    pub permanent_at: Option<u64>,
    /// From this event index on, every operation fails permanently — the
    /// I/O shadow of a process killed mid-ingest.
    pub kill_after: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (until configured via the builders).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_per_mille: 0,
            short_read_per_mille: 0,
            stall_per_mille: 0,
            stall: Duration::from_micros(500),
            max_transient_burst: 2,
            permanent_at: None,
            kill_after: None,
        }
    }

    /// Set the transient-failure rate (per mille).
    pub fn transient(mut self, per_mille: u16) -> Self {
        self.transient_per_mille = per_mille;
        self
    }

    /// Set the short-read rate (per mille, reads only).
    pub fn short_reads(mut self, per_mille: u16) -> Self {
        self.short_read_per_mille = per_mille;
        self
    }

    /// Set the stall rate (per mille) and stall duration.
    pub fn stalls(mut self, per_mille: u16, stall: Duration) -> Self {
        self.stall_per_mille = per_mille;
        self.stall = stall;
        self
    }

    /// Cap consecutive injected transients (clamped below
    /// [`MAX_IO_ATTEMPTS`]).
    pub fn transient_burst(mut self, burst: u32) -> Self {
        self.max_transient_burst = burst.min(MAX_IO_ATTEMPTS - 1);
        self
    }

    /// Fail permanently at exactly this event index.
    pub fn permanent_at(mut self, event: u64) -> Self {
        self.permanent_at = Some(event);
        self
    }

    /// Fail every event at or past this index permanently (simulated
    /// kill).
    pub fn kill_after(mut self, event: u64) -> Self {
        self.kill_after = Some(event);
        self
    }
}

/// Snapshot of an [`Io`]'s counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoStats {
    /// I/O events that consulted the plan (or would have).
    pub events: u64,
    /// Transient attempts that were retried after backoff.
    pub retries: u64,
    /// Injected transient failures.
    pub injected_transient: u64,
    /// Injected permanent failures (including kill events).
    pub injected_permanent: u64,
    /// Injected short reads.
    pub injected_short_reads: u64,
    /// Injected stalls.
    pub injected_stalls: u64,
}

#[derive(Default)]
struct Counters {
    events: AtomicU64,
    retries: AtomicU64,
    injected_transient: AtomicU64,
    injected_permanent: AtomicU64,
    injected_short_reads: AtomicU64,
    injected_stalls: AtomicU64,
}

struct PlanState {
    plan: FaultPlan,
    rng: u64,
    burst: u32,
}

/// What the plan decided for one event.
enum Fault {
    None,
    Transient,
    Permanent(&'static str),
    /// Keep this many per-mille of the read's bytes.
    ShortRead(u64),
}

struct Inner {
    plan: Option<Mutex<PlanState>>,
    c: Counters,
    /// Jitter stream for backoff sleeps (separate from the plan stream so
    /// retries do not perturb fault decisions).
    jitter: AtomicU64,
}

/// An injectable I/O seam: every store filesystem touch runs through one
/// of these. Cloning is cheap and shares the plan and counters.
#[derive(Clone)]
pub struct Io {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Io {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Io")
            .field("faulted", &self.inner.plan.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for Io {
    fn default() -> Self {
        Io::real()
    }
}

/// True for error kinds worth retrying with backoff.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
    )
}

impl Io {
    /// An `Io` with no fault plan: operations run directly, genuine
    /// transient errors still retried.
    pub fn real() -> Self {
        Io {
            inner: Arc::new(Inner {
                plan: None,
                c: Counters::default(),
                jitter: AtomicU64::new(0x6a09_e667_f3bc_c909),
            }),
        }
    }

    /// An `Io` whose operations consult `plan` before executing.
    pub fn with_plan(plan: FaultPlan) -> Self {
        let rng = plan.seed ^ 0x5bf0_3635;
        Io {
            inner: Arc::new(Inner {
                plan: Some(Mutex::new(PlanState {
                    plan,
                    rng,
                    burst: 0,
                })),
                c: Counters::default(),
                jitter: AtomicU64::new(0x6a09_e667_f3bc_c909),
            }),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> IoStats {
        let c = &self.inner.c;
        IoStats {
            events: c.events.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            injected_transient: c.injected_transient.load(Ordering::Relaxed),
            injected_permanent: c.injected_permanent.load(Ordering::Relaxed),
            injected_short_reads: c.injected_short_reads.load(Ordering::Relaxed),
            injected_stalls: c.injected_stalls.load(Ordering::Relaxed),
        }
    }

    /// Total retries so far (convenience for delta accounting).
    pub fn retries(&self) -> u64 {
        self.inner.c.retries.load(Ordering::Relaxed)
    }

    /// Draw the plan's decision for one event.
    fn decide(&self, op: IoOp) -> Fault {
        self.inner.c.events.fetch_add(1, Ordering::Relaxed);
        let Some(plan) = &self.inner.plan else {
            return Fault::None;
        };
        let mut st = plan.lock().unwrap_or_else(|p| p.into_inner());
        // Event index: events counter was just incremented, so this event
        // is (events - 1). Read it back for the pinned-index checks.
        let idx = self.inner.c.events.load(Ordering::Relaxed) - 1;
        if st.plan.kill_after.is_some_and(|k| idx >= k) {
            self.inner
                .c
                .injected_permanent
                .fetch_add(1, Ordering::Relaxed);
            return Fault::Permanent("injected kill: store I/O aborted mid-ingest");
        }
        if st.plan.permanent_at == Some(idx) {
            self.inner
                .c
                .injected_permanent
                .fetch_add(1, Ordering::Relaxed);
            return Fault::Permanent("injected permanent fault");
        }
        // One combined draw, partitioned by cumulative per-mille bands.
        let r = (splitmix64(&mut st.rng) % 1000) as u16;
        let stall_band = st.plan.stall_per_mille;
        let transient_band = stall_band.saturating_add(st.plan.transient_per_mille);
        let short_band = transient_band.saturating_add(st.plan.short_read_per_mille);
        if r < stall_band {
            self.inner.c.injected_stalls.fetch_add(1, Ordering::Relaxed);
            let stall = st.plan.stall;
            drop(st);
            std::thread::sleep(stall);
            return Fault::None;
        }
        if r < transient_band {
            if st.burst < st.plan.max_transient_burst {
                st.burst += 1;
                self.inner
                    .c
                    .injected_transient
                    .fetch_add(1, Ordering::Relaxed);
                return Fault::Transient;
            }
            // Burst cap hit: let this one through so retry always wins.
            st.burst = 0;
            return Fault::None;
        }
        st.burst = 0;
        if op == IoOp::Read && r < short_band {
            self.inner
                .c
                .injected_short_reads
                .fetch_add(1, Ordering::Relaxed);
            // Keep 0..90% of the bytes, drawn from the same stream.
            let keep = splitmix64(&mut st.rng) % 900;
            return Fault::ShortRead(keep);
        }
        Fault::None
    }

    /// Sleep the bounded exponential backoff for retry `attempt` (0-based),
    /// with seeded jitter.
    fn backoff(&self, attempt: u32) {
        let base_us = (200u64 << attempt.min(4)).min(3200);
        let mut j = self.inner.jitter.load(Ordering::Relaxed);
        let jitter_us = splitmix64(&mut j) % 200;
        self.inner.jitter.store(j, Ordering::Relaxed);
        std::thread::sleep(Duration::from_micros(base_us + jitter_us));
    }

    /// Run `f` under the plan with bounded retry. `shorten` post-processes
    /// a successful result when the plan ordered a short read (identity
    /// for non-read operations).
    fn run<T>(
        &self,
        op: IoOp,
        mut f: impl FnMut() -> io::Result<T>,
        shorten: impl Fn(T, u64) -> T,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let injected = match self.decide(op) {
                Fault::None => None,
                Fault::Transient => Some(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected transient fault ({})", op.name()),
                )),
                Fault::Permanent(msg) => {
                    return Err(io::Error::other(format!("{msg} ({})", op.name())))
                }
                Fault::ShortRead(keep) => {
                    return f().map(|v| shorten(v, keep));
                }
            };
            let err = match injected {
                Some(e) => e,
                None => match f() {
                    Ok(v) => return Ok(v),
                    Err(e) => e,
                },
            };
            if !is_transient(&err) || attempt + 1 >= MAX_IO_ATTEMPTS {
                return Err(err);
            }
            self.backoff(attempt);
            self.inner.c.retries.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
        }
    }

    fn keep(v: Vec<u8>, per_mille: u64) -> Vec<u8> {
        let mut v = v;
        let keep = (v.len() as u64 * per_mille / 1000) as usize;
        v.truncate(keep);
        v
    }

    /// Whole-file read; short-read faults truncate the returned bytes.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.run(IoOp::Read, || fs::read(path), Self::keep)
    }

    /// Create (truncate) a file for writing.
    pub fn create(&self, path: &Path) -> io::Result<fs::File> {
        self.run(IoOp::Create, || fs::File::create(path), |f, _| f)
    }

    /// Write all bytes to an open file.
    pub fn write_all(&self, f: &mut fs::File, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.run(IoOp::Write, || f.write_all(bytes), |v, _| v)
    }

    /// fsync an open file.
    pub fn sync(&self, f: &fs::File) -> io::Result<()> {
        self.run(IoOp::Fsync, || f.sync_all(), |v, _| v)
    }

    /// Atomic rename.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.run(IoOp::Rename, || fs::rename(from, to), |v, _| v)
    }

    /// Open + fsync a directory (persisting a rename).
    pub fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.run(
            IoOp::SyncDir,
            || fs::File::open(dir).and_then(|d| d.sync_all()),
            |v, _| v,
        )
    }

    /// List a directory's file names (non-UTF-8 names skipped).
    pub fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.run(
            IoOp::List,
            || {
                let mut names = Vec::new();
                for entry in fs::read_dir(dir)? {
                    if let Ok(name) = entry?.file_name().into_string() {
                        names.push(name);
                    }
                }
                Ok(names)
            },
            |v, _| v,
        )
    }

    /// Remove a file.
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.run(IoOp::Remove, || fs::remove_file(path), |v, _| v)
    }

    /// Recursively create a directory.
    pub fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.run(IoOp::CreateDir, || fs::create_dir_all(dir), |v, _| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_io_roundtrips_and_counts_events() {
        let dir = std::env::temp_dir().join(format!("graphsig-faults-real-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let io = Io::real();
        io.create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        let mut f = io.create(&p).unwrap();
        io.write_all(&mut f, b"hello").unwrap();
        io.sync(&f).unwrap();
        drop(f);
        assert_eq!(io.read(&p).unwrap(), b"hello");
        let st = io.stats();
        assert!(st.events >= 5);
        assert_eq!(st.injected_transient, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saturated_transients_are_recovered_by_bounded_backoff() {
        let dir = std::env::temp_dir().join(format!("graphsig-faults-tr-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        fs::write(&p, b"payload").unwrap();
        // 100% transient rate with burst 2: every op eats 2 injected
        // failures, then succeeds on the third attempt.
        let io = Io::with_plan(FaultPlan::new(7).transient(1000).transient_burst(2));
        assert_eq!(io.read(&p).unwrap(), b"payload");
        let st = io.stats();
        assert_eq!(st.injected_transient, 2);
        assert_eq!(st.retries, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn permanent_fault_fails_fast_with_bounded_attempts() {
        let dir = std::env::temp_dir().join(format!("graphsig-faults-pm-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        fs::write(&p, b"payload").unwrap();
        let io = Io::with_plan(FaultPlan::new(7).permanent_at(0));
        let e = io.read(&p).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Other);
        let st = io.stats();
        assert_eq!(st.events, 1, "no retry storm on permanent faults");
        assert_eq!(st.retries, 0);
        // The plan only pinned event 0: the next read succeeds.
        assert_eq!(io.read(&p).unwrap(), b"payload");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_read_truncates_deterministically() {
        let dir = std::env::temp_dir().join(format!("graphsig-faults-sr-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        fs::write(&p, vec![0xabu8; 1000]).unwrap();
        let a = Io::with_plan(FaultPlan::new(42).short_reads(1000));
        let b = Io::with_plan(FaultPlan::new(42).short_reads(1000));
        let ra = a.read(&p).unwrap();
        let rb = b.read(&p).unwrap();
        assert!(ra.len() < 1000, "short read must truncate");
        assert_eq!(ra, rb, "same seed, same truncation");
        assert_eq!(a.stats().injected_short_reads, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_after_fails_everything_from_that_event_on() {
        let dir = std::env::temp_dir().join(format!("graphsig-faults-kill-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.bin");
        fs::write(&p, b"payload").unwrap();
        let io = Io::with_plan(FaultPlan::new(1).kill_after(2));
        assert!(io.read(&p).is_ok());
        assert!(io.read(&p).is_ok());
        assert!(io.read(&p).is_err());
        assert!(io.read(&p).is_err(), "killed Io stays dead");
        let _ = fs::remove_dir_all(&dir);
    }
}
