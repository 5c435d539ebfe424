//! Chaos soak harness (`bench_chaos`).
//!
//! Runs seeded randomized schedules that interleave every failure path
//! the serving stack defends against, and asserts the invariants that
//! make those defenses real:
//!
//! * **Store fault plane** — packs, verifies, and opens a real on-disk
//!   store through a seeded [`FaultPlan`] injecting transient errors,
//!   short reads, and stalls. Transient-only plans must always recover by
//!   backoff (the operation succeeds; `retries > 0`); permanent faults
//!   must surface as structured [`StoreError`](graphsig_store)s or shard
//!   quarantines, never panics.
//! * **Mid-ingest kills** — an `append` is killed after a seeded number
//!   of I/O events; the store must reopen cleanly afterwards at either
//!   the pre-append or the post-append `store_version` (the commit is
//!   atomic: no third state).
//! * **Server chaos** — an in-process [`Server`] with a faulted I/O seam
//!   and a memory ceiling serves a seeded interleaving of loads, mines,
//!   freqs, sweeps, cancels, and stats. Every accepted request must
//!   resolve to exactly one structured response, mine payloads must be
//!   byte-identical to the unfaulted one-shot pipeline oracle, and a
//!   load past `max_resident_bytes` must be rejected with
//!   `code=resource_exhausted` (after eviction) while the server
//!   keeps serving.
//! * **Connection lifecycle** — a TCP phase with dead clients (never
//!   send), idle clients (send once, go silent), and slow clients (stop
//!   reading mid-stream). Deadlined connections are reaped while active
//!   requests on other connections complete, and a dropped client's
//!   received byte prefix never contains a frame that parses as complete
//!   but carries truncated payload.
//!
//! # Schedule grammar
//!
//! A schedule is a splitmix64 stream seeded with `base_seed + index`.
//! Draws are consumed in a fixed order (fault plan knobs, kill point,
//! then one draw per interleaved op), so a schedule is fully determined
//! by its seed — rerunning a seed replays the identical fault pattern.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphsig_core::{render_subgraphs, GraphSig, GraphSigConfig};
use graphsig_store::{FaultPlan, Io};

use crate::protocol::{parse_response_stream, ResponseHeader, Status};
use crate::server::{Server, ServerConfig, SharedWriter};
use crate::transport::TransportConfig;

/// Knobs for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Base seed; schedule `i` uses `seed + i`.
    pub seed: u64,
    /// Number of independent schedules.
    pub schedules: usize,
    /// Random server ops interleaved per schedule (on top of the fixed
    /// load/oracle/spike scaffold).
    pub ops_per_schedule: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xC4405,
            schedules: 8,
            ops_per_schedule: 12,
        }
    }
}

/// What one schedule observed.
#[derive(Debug, Clone, Default)]
pub struct ScheduleReport {
    /// The schedule's seed.
    pub seed: u64,
    /// Requests submitted to the in-process server.
    pub requests: usize,
    /// Faults injected across every I/O seam the schedule touched.
    pub fault_events: u64,
    /// Transient retries spent recovering.
    pub retries: u64,
    /// The killed append left the store at a consistent version.
    pub kill_recovered: bool,
    /// The oversized load was rejected `resource_exhausted` with the
    /// server still serving.
    pub spike_rejected: bool,
    /// Server mine payload matched the unfaulted one-shot oracle.
    pub oracle_identical: bool,
}

/// Aggregate over all schedules plus the TCP lifecycle phase.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Per-schedule observations.
    pub schedules: Vec<ScheduleReport>,
    /// Sum of injected faults.
    pub total_fault_events: u64,
    /// Sum of submitted server requests.
    pub total_requests: usize,
    /// Sum of transient retries.
    pub total_retries: u64,
    /// The TCP phase reaped its dead/idle/slow clients as required.
    pub lifecycle_ok: bool,
    /// Wall time of the whole run.
    pub elapsed_ms: u64,
}

fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn injected(io: &Io) -> u64 {
    let s = io.stats();
    s.injected_transient + s.injected_permanent + s.injected_short_reads + s.injected_stalls
}

fn check(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("chaos check failed: {what}"))
    }
}

const WAIT: Duration = Duration::from_secs(120);

/// In-memory response sink shared with the server's workers.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Harness {
    server: Server,
    sink: Sink,
    out: SharedWriter,
    submitted: Vec<String>,
}

impl Harness {
    fn new(cfg: ServerConfig) -> Self {
        let sink = Sink::default();
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(sink.clone())));
        Harness {
            server: Server::new(cfg),
            sink,
            out,
            submitted: Vec::new(),
        }
    }

    fn send(&mut self, line: &str) {
        if let Ok(Some(req)) = crate::protocol::parse_request(line) {
            self.submitted.push(req.id().to_string());
        }
        self.server.dispatch_line(line, &self.out);
    }

    fn responses(&self) -> Result<Vec<(ResponseHeader, Vec<u8>)>, String> {
        let buf = self
            .sink
            .0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        parse_response_stream(&buf).map_err(|e| format!("bad response stream: {e}"))
    }

    fn wait_response(&self, id: &str) -> Result<(ResponseHeader, String), String> {
        let deadline = Instant::now() + WAIT;
        loop {
            for (h, body) in self.responses()? {
                if h.id == id {
                    let body = String::from_utf8(body)
                        .map_err(|_| format!("non-UTF-8 payload for {id}"))?;
                    return Ok((h, body));
                }
            }
            if Instant::now() >= deadline {
                let seen: Vec<String> = self
                    .responses()?
                    .iter()
                    .map(|(h, _)| h.id.clone())
                    .collect();
                let msg = format!(
                    "no response for request '{id}' within {WAIT:?}; responded so far: {seen:?}"
                );
                return Err(msg);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Flat-copy a packed store directory (manifest + shard files).
fn copy_dir(from: &PathBuf, to: &PathBuf) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("copy mkdir: {e}"))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("copy readdir: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("copy entry: {e}"))?;
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copy file: {e}"))?;
        }
    }
    Ok(())
}

fn scratch(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphsig_chaos_{}_{tag:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `cfg.schedules` independent schedules plus one TCP lifecycle
/// phase; `Err` describes the first violated invariant.
pub fn run(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    let started = Instant::now();
    let mut report = ChaosReport::default();
    for i in 0..cfg.schedules {
        let sched = run_schedule(cfg.seed.wrapping_add(i as u64), cfg.ops_per_schedule)?;
        report.total_fault_events += sched.fault_events;
        report.total_requests += sched.requests;
        report.total_retries += sched.retries;
        report.schedules.push(sched);
    }
    run_tcp_lifecycle()?;
    report.lifecycle_ok = true;
    report.elapsed_ms = started.elapsed().as_millis() as u64;
    Ok(report)
}

/// One schedule: store fault plane, mid-ingest kill, then server chaos.
fn run_schedule(seed: u64, ops: usize) -> Result<ScheduleReport, String> {
    let mut rng = seed;
    let mut sched = ScheduleReport {
        seed,
        ..ScheduleReport::default()
    };
    let dir = scratch(seed);

    // -- Store fault plane: transient-only plans always recover ----------
    let base = graphsig_datagen::aids_like(80, seed ^ 0x5eed).db;
    let io = Io::with_plan(
        FaultPlan::new(mix(&mut rng))
            .transient(320)
            .stalls(40, Duration::from_millis(1))
            .transient_burst(2),
    );
    let packed = graphsig_store::pack_with(&dir, &base, 32, &io)
        .map_err(|e| format!("faulted pack must recover by backoff, got: {e}"))?;
    check(packed.total_graphs == 80, "faulted pack wrote every graph")?;
    // Soak the seams until this schedule has injected a healthy number of
    // faults: every verify under a transient-only plan must succeed.
    let mut iters = 0;
    while injected(&io) < 70 && iters < 400 {
        let v = graphsig_store::verify_with(&dir, &io)
            .map_err(|e| format!("faulted verify must recover by backoff, got: {e}"))?;
        check(
            v.store_version == packed.store_version,
            "verify sees the committed version",
        )?;
        iters += 1;
    }
    check(
        injected(&io) >= 70,
        "schedule injected at least 70 store faults",
    )?;

    // -- Short reads: detected, never silently accepted ------------------
    // A short read hands the caller truncated bytes with no error — the
    // store's defense is detection (length/checksum), which either fails
    // the open with a structured truncation error or quarantines the torn
    // shard. Run it against a throwaway copy so quarantines cannot damage
    // the real store, and confirm the original is untouched afterwards.
    let copy = scratch(seed ^ 0xc0b1);
    copy_dir(&dir, &copy)?;
    let io_sr = Io::with_plan(FaultPlan::new(mix(&mut rng)).short_reads(400));
    let mut sr_injected = 0;
    for _ in 0..20 {
        match graphsig_store::open_lenient_with(&copy, &io_sr) {
            Ok(o) => check(
                o.db.len() == 80 || !o.report.quarantined.is_empty(),
                "short-read open is either complete or visibly degraded",
            )?,
            Err(e) => check(
                !e.to_string().is_empty(),
                "short-read open failure is structured",
            )?,
        }
        sr_injected = injected(&io_sr);
        if sr_injected >= 10 {
            break;
        }
        // Quarantine mutates the copy; refresh it between rounds.
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(&dir, &copy)?;
    }
    check(sr_injected >= 1, "short-read plan injected at least once")?;
    let _ = std::fs::remove_dir_all(&copy);
    let clean = graphsig_store::verify_with(&dir, &Io::real())
        .map_err(|e| format!("short reads must never damage the real store: {e}"))?;
    check(
        clean.store_version == packed.store_version,
        "real store unchanged by the short-read probes",
    )?;

    // -- Mid-ingest kill: consistent manifest either side of the commit --
    let mut extended = base.clone();
    extended.absorb(&graphsig_datagen::aids_like(20, seed ^ 0xadd).db);
    let kill_at = 2 + mix(&mut rng) % 8;
    let io_kill = Io::with_plan(FaultPlan::new(mix(&mut rng)).kill_after(kill_at));
    let killed = graphsig_store::append_with(&dir, &extended, 80, 32, &io_kill);
    check(killed.is_err(), "killed append reports the abort")?;
    let reopened = graphsig_store::open_lenient(&dir)
        .map_err(|e| format!("store must reopen after a mid-ingest kill, got: {e}"))?;
    let v = reopened.manifest.store_version;
    sched.kill_recovered = (v == packed.store_version && reopened.db.len() == 80)
        || (v == packed.store_version + 1 && reopened.db.len() == 100);
    check(
        sched.kill_recovered,
        "post-kill store is at exactly the pre- or post-append version",
    )?;

    // -- Server chaos over the (possibly appended) packed store ----------
    let server_io = Io::with_plan(
        FaultPlan::new(mix(&mut rng))
            .transient(250)
            .transient_burst(2),
    );
    let mut h = Harness::new(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        drain_ms: 10_000,
        allow_inject: true,
        max_resident_bytes: Some(8 * 1024 * 1024),
        io: server_io.clone(),
        ..ServerConfig::default()
    });
    let dir_str = crate::protocol::escape(&dir.display().to_string());
    h.send(&format!(
        "load id=lp dataset=packed path={dir_str} format=packed"
    ));
    let (resp, _) = h.wait_response("lp")?;
    check(
        resp.status == Status::Ok,
        "packed load through the faulted seam succeeds",
    )?;
    check(
        resp.field("retries").is_some(),
        "packed load reports its retry count",
    )?;
    let gen_seed = seed % 1000;
    h.send(&format!(
        "load id=lg dataset=gen gen=aids count=120 seed={gen_seed}"
    ));
    let (resp, _) = h.wait_response("lg")?;
    check(resp.status == Status::Ok, "generator load succeeds")?;

    // Oracle: the unfaulted one-shot pipeline over the same graphs.
    let mine = "dataset=gen min_freq=0.05 max_pvalue=0.05 radius=3";
    let oracle_db = graphsig_datagen::aids_like(120, gen_seed).db;
    let oracle = GraphSig::new(GraphSigConfig {
        min_freq: 0.05,
        max_pvalue: 0.05,
        radius: 3,
        ..GraphSigConfig::default()
    })
    .mine_outcome(&oracle_db);
    let expected = render_subgraphs(&oracle_db, &oracle.result, usize::MAX);
    h.send(&format!("mine id=oracle {mine}"));
    let (resp, body) = h.wait_response("oracle")?;
    check(resp.status == Status::Ok, "oracle mine succeeds")?;
    sched.oracle_identical = body == expected;
    check(
        sched.oracle_identical,
        "server mine payload is byte-identical to the unfaulted oracle",
    )?;

    // Seeded interleaving of ops; every one must resolve structured.
    for op in 0..ops {
        let id = format!("op{op}");
        match mix(&mut rng) % 8 {
            0 => h.send(&format!("mine id={id} {mine}")),
            1 => h.send(&format!(
                "mine id={id} dataset=packed min_freq=0.1 radius=2"
            )),
            2 => h.send(&format!(
                "freq id={id} dataset=gen min_support=40 max_edges=3"
            )),
            3 => h.send(&format!(
                "sweep id={id} dataset=gen supports=60,40 max_edges=3"
            )),
            4 => h.send(&format!("stats id={id}")),
            5 => h.send(&format!("mine id={id} dataset=nosuch")),
            6 => {
                h.send(&format!("mine id={id} sleep_ms=40 {mine}"));
                h.send(&format!("cancel id={id}c target={id}"));
            }
            _ => h.send(&format!("ping id={id}")),
        }
    }

    // Drain the op burst before the memory spike: with more ops than
    // queue slots some may resolve `busy` (legitimate shedding), and the
    // spike must reach the governor, not the full queue.
    for id in h.submitted.clone() {
        h.wait_response(&id)?;
    }

    // Memory-pressure spike: a load past the ceiling is rejected with a
    // structured resource_exhausted after evicting cold cache entries —
    // the server stays up and keeps its resident accounting.
    h.send("load id=spike dataset=huge gen=aids count=9000 seed=1");
    let (resp, _) = h.wait_response("spike")?;
    sched.spike_rejected =
        resp.status == Status::Error && resp.field("code") == Some("resource_exhausted");
    check(
        sched.spike_rejected,
        "oversized load rejected with code=resource_exhausted",
    )?;
    check(
        resp.field("max_resident_bytes").is_some() && resp.field("resident_bytes").is_some(),
        "rejection discloses the governor's accounting",
    )?;
    h.send("stats id=after_spike");
    let (resp, _) = h.wait_response("after_spike")?;
    check(
        resp.status == Status::Ok,
        "server keeps serving after the spike",
    )?;
    check(
        resp.field("evictions")
            .and_then(|v| v.parse::<u64>().ok())
            .is_some_and(|n| n >= 1),
        "governor evicted at least one cold cache entry under pressure",
    )?;
    check(
        resp.field("resident_bytes")
            .and_then(|v| v.parse::<u64>().ok())
            .is_some_and(|n| n > 0),
        "stats reports resident bytes",
    )?;
    h.send(&format!("mine id=after_mine {mine}"));
    let (resp, body) = h.wait_response("after_mine")?;
    check(
        resp.status == Status::Ok && body == expected,
        "mining is unaffected by the rejected spike",
    )?;

    // Every accepted request resolves — wait for each id before shutdown
    // so a silently dropped request names itself instead of wedging the
    // drain.
    for id in h.submitted.clone() {
        h.wait_response(&id)?;
    }
    h.send("shutdown id=bye drain_ms=5000");
    let (resp, _) = h.wait_response("bye")?;
    check(resp.status == Status::Ok, "shutdown confirms")?;

    // Exactly one response per submitted request, across every path the
    // schedule exercised (coalesced, cancelled, rejected, errored).
    let responses = h.responses()?;
    for id in &h.submitted {
        let n = responses.iter().filter(|(r, _)| &r.id == id).count();
        check(n == 1, &format!("request '{id}' got {n} responses, want 1"))?;
    }
    sched.requests = h.submitted.len();
    let Harness { server, .. } = h;
    server.join();

    // -- Permanent fault: bounded attempts, structured outcome -----------
    // Last because a quarantining open mutates the directory.
    let io_perm = Io::with_plan(FaultPlan::new(mix(&mut rng)).permanent_at(3));
    match graphsig_store::open_lenient_with(&dir, &io_perm) {
        Ok(o) => check(
            !o.report.quarantined.is_empty(),
            "permanent shard fault must quarantine",
        )?,
        Err(e) => check(
            !e.to_string().is_empty(),
            "permanent fault surfaces a structured error",
        )?,
    }

    sched.fault_events = injected(&io)
        + injected(&io_sr)
        + injected(&io_kill)
        + injected(&server_io)
        + injected(&io_perm);
    sched.retries = io.retries() + server_io.retries();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(sched)
}

/// Split a received byte prefix into complete frames plus a truncated
/// tail, returning `(complete_frames, truncated_tail_bytes)`. Any frame
/// that parses as complete must carry its full payload — the framing
/// invariant a client dropped mid-response relies on. Public so
/// transport-level integration tests can assert it on real TCP prefixes.
pub fn parse_prefix(buf: &[u8]) -> Result<(usize, usize), String> {
    let mut complete = 0;
    let mut rest = buf;
    loop {
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            return Ok((complete, rest.len()));
        };
        let Ok(line) = std::str::from_utf8(&rest[..nl]) else {
            return Err("response header is not UTF-8".into());
        };
        let header = crate::protocol::parse_response_header(line)
            .map_err(|e| format!("complete header line failed to parse: {e}"))?;
        let body_start = nl + 1;
        match body_start.checked_add(header.bytes) {
            Some(end) if end <= rest.len() => {
                complete += 1;
                rest = &rest[end..];
            }
            // Truncated payload: the frame is visibly incomplete (the
            // header promises more bytes than arrived) — it can never be
            // mistaken for a complete response.
            _ => return Ok((complete, rest.len())),
        }
    }
}

/// Read until EOF or deadline; returns received bytes and whether EOF hit.
fn drain_to_eof(stream: &mut TcpStream, deadline: Instant) -> (Vec<u8>, bool) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return (buf, true),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return (buf, false);
                }
            }
            Err(_) => return (buf, true),
        }
    }
}

/// Connection-lifecycle phase: dead, idle, and slow clients against a
/// deadline-enforcing transport, with an active client proceeding
/// throughout.
fn run_tcp_lifecycle() -> Result<(), String> {
    let server = Server::new(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        drain_ms: 5_000,
        ..ServerConfig::default()
    });
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let tcfg = TransportConfig {
        max_write_buf: 4 * 1024,
        poll_timeout_ms: 10,
        idle_timeout_ms: Some(300),
        handshake_timeout_ms: Some(300),
        write_stall_ticks: 5,
        ..TransportConfig::default()
    };
    let server = Arc::new(server);
    let transport = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || crate::transport::serve(listener, &server, tcfg))
    };

    let connect = || TcpStream::connect(addr).map_err(|e| format!("connect: {e}"));

    // Dead client: never sends a byte; the handshake deadline reaps it.
    let mut dead = connect()?;
    // Idle client: completes one request, then goes silent; the idle
    // deadline reaps it.
    let mut idle = connect()?;
    idle.write_all(b"ping id=i1\n")
        .map_err(|e| format!("idle write: {e}"))?;
    let (buf, _) = drain_to_eof(&mut idle, Instant::now() + Duration::from_millis(500));
    check(
        std::str::from_utf8(&buf)
            .unwrap_or("")
            .contains("id=i1 op=ping status=ok"),
        "idle client's one request answered before it went silent",
    )?;

    // Active client: keeps working past both deadlines — activity and
    // in-flight work defer the reaper.
    let mut active = connect()?;
    active
        .write_all(b"load id=a1 dataset=d gen=aids count=150 seed=3\n")
        .map_err(|e| format!("active write: {e}"))?;
    let deadline = Instant::now() + WAIT;
    let mut got = Vec::new();
    while !String::from_utf8_lossy(&got).contains("id=a1") {
        let (more, eof) = drain_to_eof(&mut active, Instant::now() + Duration::from_millis(200));
        got.extend_from_slice(&more);
        if eof {
            return Err("active client dropped while its request was in flight".into());
        }
        if Instant::now() >= deadline {
            return Err("no load response on the active connection".into());
        }
    }
    // Work spanning the idle window on one connection must not be
    // disturbed by reaps of the dead and idle connections happening now.
    active
        .write_all(b"mine id=a2 dataset=d min_freq=0.04 max_pvalue=0.05 radius=3\n")
        .map_err(|e| format!("active write: {e}"))?;
    let mut got = Vec::new();
    while !String::from_utf8_lossy(&got).contains("id=a2") {
        let (more, eof) = drain_to_eof(&mut active, Instant::now() + Duration::from_millis(200));
        got.extend_from_slice(&more);
        if eof {
            return Err("active client dropped while mining".into());
        }
        if Instant::now() >= deadline {
            return Err("no mine response on the active connection".into());
        }
    }

    // Both silent connections must observe EOF: reaped by their deadlines.
    let (_, eof) = drain_to_eof(&mut dead, Instant::now() + Duration::from_secs(20));
    check(eof, "dead client reaped by the handshake deadline")?;
    let (_, eof) = drain_to_eof(&mut idle, Instant::now() + Duration::from_secs(20));
    check(eof, "idle client reaped by the idle deadline")?;

    // Slow client: floods itself with coalesced mine responses and stops
    // reading; backpressure (write-buffer cap or stall detection) drops
    // the connection. Whatever byte prefix it did receive must split into
    // complete frames plus a visibly truncated tail — never a frame that
    // parses as complete with missing payload.
    let mut slow = connect()?;
    let mut req = String::new();
    for i in 0..160 {
        req.push_str(&format!(
            "mine id=s{i} dataset=d min_freq=0.04 max_pvalue=0.05 radius=3\n"
        ));
    }
    let _ = slow.write_all(req.as_bytes());
    // Do not read; wait for the server to shed the connection, then
    // collect whatever was delivered.
    let (buf, eof) = drain_to_eof_after_silence(&mut slow, Duration::from_secs(60));
    check(eof, "slow client eventually dropped by backpressure")?;
    parse_prefix(&buf)
        .map(|_| ())
        .map_err(|e| format!("slow client observed a malformed frame in its prefix: {e}"))?;

    server.shutdown_now();
    let _ = transport
        .join()
        .map_err(|_| "transport thread panicked".to_string())?;
    Ok(())
}

/// Let the server buffer responses for a while without reading, then
/// drain until EOF (the drop) or timeout.
fn drain_to_eof_after_silence(stream: &mut TcpStream, timeout: Duration) -> (Vec<u8>, bool) {
    std::thread::sleep(Duration::from_millis(400));
    drain_to_eof(stream, Instant::now() + timeout)
}

/// Render a [`ChaosReport`] as the `BENCH_chaos.json` document.
pub fn render_json(report: &ChaosReport, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"chaos\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"schedules\": {},", report.schedules.len());
    let _ = writeln!(
        out,
        "  \"total_fault_events\": {},",
        report.total_fault_events
    );
    let _ = writeln!(out, "  \"total_requests\": {},", report.total_requests);
    let _ = writeln!(out, "  \"total_retries\": {},", report.total_retries);
    let _ = writeln!(out, "  \"lifecycle_ok\": {},", report.lifecycle_ok);
    let _ = writeln!(out, "  \"elapsed_ms\": {},", report.elapsed_ms);
    let _ = writeln!(out, "  \"per_schedule\": [");
    for (i, s) in report.schedules.iter().enumerate() {
        let comma = if i + 1 < report.schedules.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"seed\": {}, \"requests\": {}, \"fault_events\": {}, \"retries\": {}, \
             \"kill_recovered\": {}, \"spike_rejected\": {}, \"oracle_identical\": {}}}{comma}",
            s.seed,
            s.requests,
            s.fault_events,
            s.retries,
            s.kill_recovered,
            s.spike_rejected,
            s.oracle_identical,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_parser_accepts_complete_and_flags_truncation() {
        let full = b"resp id=1 op=ping status=ok bytes=0\n";
        assert_eq!(parse_prefix(full), Ok((1, 0)));
        let payload = b"resp id=2 op=mine status=ok bytes=10\n12345";
        // Header promises 10 bytes, only 5 arrived: visibly truncated.
        let mut buf = full.to_vec();
        buf.extend_from_slice(payload);
        let (complete, tail) = parse_prefix(&buf).unwrap();
        assert_eq!(complete, 1);
        assert!(tail > 0);
        // A torn header line is just tail, not a frame.
        assert_eq!(parse_prefix(b"resp id=3 op=pi"), Ok((0, 15)));
    }

    #[test]
    fn schedules_are_deterministic_in_their_seed() {
        let mut a = 7u64;
        let mut b = 7u64;
        let da: Vec<u64> = (0..16).map(|_| mix(&mut a)).collect();
        let db: Vec<u64> = (0..16).map(|_| mix(&mut b)).collect();
        assert_eq!(da, db);
    }

    /// One miniature schedule end to end — the full soak runs in
    /// `bench_chaos`; this keeps the harness itself under test.
    #[test]
    fn single_schedule_holds_every_invariant() {
        let report = run(&ChaosConfig {
            seed: 11,
            schedules: 1,
            ops_per_schedule: 4,
        })
        .expect("chaos schedule");
        assert_eq!(report.schedules.len(), 1);
        assert!(report.total_fault_events >= 70);
        assert!(report.schedules[0].kill_recovered);
        assert!(report.schedules[0].oracle_identical);
        assert!(report.lifecycle_ok);
    }
}
