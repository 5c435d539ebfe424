//! Chaos soak: seeded randomized schedules that interleave every failure
//! path the serving stack defends against, and assert the invariants that
//! make those defenses real:
//!
//! * **Store fault plane** — packs, verifies, and opens a real on-disk
//!   store through a seeded [`FaultPlan`] injecting transient errors,
//!   short reads, and stalls. Transient-only plans must always recover by
//!   backoff (the operation succeeds; `retries > 0`); permanent faults
//!   must surface as structured store errors or shard quarantines, never
//!   panics.
//! * **Mid-ingest kills** — an `append` is killed after a seeded number
//!   of I/O events; the store must reopen cleanly afterwards at either
//!   the pre-append or the post-append `store_version` (the commit is
//!   atomic: no third state).
//! * **Server chaos** — an in-process [`Server`] with a faulted I/O seam
//!   and a memory ceiling serves a seeded interleaving of loads, mines,
//!   freqs, cancels, and stats. Every accepted request must
//!   resolve to exactly one structured response, mine payloads must be
//!   byte-identical to the unfaulted one-shot pipeline oracle, no request
//!   may panic, and a load past `max_resident_bytes` must be rejected
//!   with `code=resource_exhausted` (after eviction) while the server
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
//! A schedule is a splitmix64 stream seeded with `SEED + index`. Draws
//! are consumed in a fixed order (fault plan knobs, kill point, then one
//! draw per interleaved op), so a schedule is fully determined by its
//! seed — rerunning a seed replays the identical fault pattern.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphsig_core::{render_subgraphs, GraphSig, GraphSigConfig};
use graphsig_server::protocol::{parse_response_stream, Frame};
use graphsig_server::{
    escape, parse_request, shared_writer, ResponseHeader, Server, ServerConfig, SharedWriter,
    Status, TransportConfig,
};
use graphsig_store::{FaultPlan, Io};

/// Schedule `i` uses `SEED + i`.
const SEED: u64 = 0xC4405;
const SCHEDULES: u64 = 8;
/// Random server ops interleaved per schedule, on top of the fixed
/// load/oracle/spike scaffold.
const OPS_PER_SCHEDULE: usize = 12;
/// Faults the whole soak must inject across every seam it touches.
const MIN_FAULT_EVENTS: u64 = 500;

const WAIT: Duration = Duration::from_secs(120);

#[test]
fn seeded_fault_schedules_and_connection_lifecycle_hold_every_invariant() {
    let mut fault_events = 0;
    for i in 0..SCHEDULES {
        fault_events += run_schedule(SEED.wrapping_add(i));
    }
    assert!(
        fault_events >= MIN_FAULT_EVENTS,
        "only {fault_events} fault events injected over {SCHEDULES} schedules \
         (need >= {MIN_FAULT_EVENTS})"
    );
    run_tcp_lifecycle();
}

#[test]
fn schedules_are_deterministic_in_their_seed() {
    let mut a = 7u64;
    let mut b = 7u64;
    let da: Vec<u64> = (0..16).map(|_| mix(&mut a)).collect();
    let db: Vec<u64> = (0..16).map(|_| mix(&mut b)).collect();
    assert_eq!(da, db);
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
        Harness {
            server: Server::new(cfg),
            out: shared_writer(sink.clone()),
            sink,
            submitted: Vec::new(),
        }
    }

    fn send(&mut self, line: &str) {
        if let Ok(Some(req)) = parse_request(line) {
            self.submitted.push(req.id().to_string());
        }
        self.server.dispatch_line(line, &self.out);
    }

    fn responses(&self) -> Vec<Frame> {
        let buf = self
            .sink
            .0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        // The server writes each response whole, so a tail is never seen.
        let (frames, tail) =
            parse_response_stream(&buf).unwrap_or_else(|e| panic!("bad response stream: {e}"));
        assert_eq!(tail, 0, "a response was written in pieces");
        frames
    }

    fn wait_response(&self, id: &str) -> (ResponseHeader, String) {
        let deadline = Instant::now() + WAIT;
        loop {
            if let Some((h, body)) = self.responses().into_iter().find(|(h, _)| h.id == id) {
                let body = String::from_utf8(body)
                    .unwrap_or_else(|_| panic!("non-UTF-8 payload for {id}"));
                return (h, body);
            }
            if Instant::now() >= deadline {
                let seen: Vec<String> = self.responses().into_iter().map(|(h, _)| h.id).collect();
                panic!(
                    "no response for request '{id}' within {WAIT:?}; responded so far: {seen:?}"
                );
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Flat-copy a packed store directory (manifest + shard files).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("copy mkdir");
    for entry in std::fs::read_dir(from).expect("copy readdir") {
        let entry = entry.expect("copy entry");
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
        }
    }
}

fn scratch(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphsig_chaos_{}_{tag:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One schedule: store fault plane, mid-ingest kill, then server chaos.
/// Returns the number of faults it injected.
fn run_schedule(seed: u64) -> u64 {
    let mut rng = seed;
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
        .unwrap_or_else(|e| panic!("faulted pack must recover by backoff, got: {e}"));
    assert_eq!(packed.total_graphs, 80, "faulted pack wrote every graph");
    // Soak the seams until this schedule has injected a healthy number of
    // faults: every verify under a transient-only plan must succeed.
    let mut iters = 0;
    while injected(&io) < 70 && iters < 400 {
        let v = graphsig_store::verify_with(&dir, &io)
            .unwrap_or_else(|e| panic!("faulted verify must recover by backoff, got: {e}"));
        assert_eq!(
            v.store_version, packed.store_version,
            "verify sees the committed version"
        );
        iters += 1;
    }
    assert!(
        injected(&io) >= 70,
        "schedule injected at least 70 store faults"
    );

    // -- Short reads: detected, never silently accepted ------------------
    // A short read hands the caller truncated bytes with no error — the
    // store's defense is detection (length/checksum), which either fails
    // the open with a structured truncation error or quarantines the torn
    // shard. Run it against a throwaway copy so quarantines cannot damage
    // the real store, and confirm the original is untouched afterwards.
    let copy = scratch(seed ^ 0xc0b1);
    copy_dir(&dir, &copy);
    let io_sr = Io::with_plan(FaultPlan::new(mix(&mut rng)).short_reads(400));
    let mut sr_injected = 0;
    for _ in 0..20 {
        match graphsig_store::open_lenient_with(&copy, &io_sr) {
            Ok(o) => assert!(
                o.db.len() == 80 || !o.report.quarantined.is_empty(),
                "short-read open is either complete or visibly degraded"
            ),
            Err(e) => assert!(
                !e.to_string().is_empty(),
                "short-read open failure is structured"
            ),
        }
        sr_injected = injected(&io_sr);
        if sr_injected >= 10 {
            break;
        }
        // Quarantine mutates the copy; refresh it between rounds.
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(&dir, &copy);
    }
    assert!(sr_injected >= 1, "short-read plan injected at least once");
    let _ = std::fs::remove_dir_all(&copy);
    let clean = graphsig_store::verify_with(&dir, &Io::real())
        .unwrap_or_else(|e| panic!("short reads must never damage the real store: {e}"));
    assert_eq!(
        clean.store_version, packed.store_version,
        "real store unchanged by the short-read probes"
    );

    // -- Mid-ingest kill: consistent manifest either side of the commit --
    let mut extended = base.clone();
    extended.absorb(&graphsig_datagen::aids_like(20, seed ^ 0xadd).db);
    let kill_at = 2 + mix(&mut rng) % 8;
    let io_kill = Io::with_plan(FaultPlan::new(mix(&mut rng)).kill_after(kill_at));
    let killed = graphsig_store::append_with(&dir, &extended, 80, 32, &io_kill);
    assert!(killed.is_err(), "killed append reports the abort");
    let reopened = graphsig_store::open_lenient(&dir)
        .unwrap_or_else(|e| panic!("store must reopen after a mid-ingest kill, got: {e}"));
    let v = reopened.manifest.store_version;
    assert!(
        (v == packed.store_version && reopened.db.len() == 80)
            || (v == packed.store_version + 1 && reopened.db.len() == 100),
        "post-kill store is at exactly the pre- or post-append version"
    );

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
    let dir_str = escape(&dir.display().to_string());
    h.send(&format!(
        "load id=lp dataset=packed path={dir_str} format=packed"
    ));
    let (resp, _) = h.wait_response("lp");
    assert_eq!(
        resp.status,
        Status::Ok,
        "packed load through the faulted seam succeeds"
    );
    assert!(
        resp.field("retries").is_some(),
        "packed load reports its retry count"
    );
    let gen_seed = seed % 1000;
    h.send(&format!(
        "load id=lg dataset=gen gen=aids count=120 seed={gen_seed}"
    ));
    let (resp, _) = h.wait_response("lg");
    assert_eq!(resp.status, Status::Ok, "generator load succeeds");

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
    let (resp, body) = h.wait_response("oracle");
    assert_eq!(resp.status, Status::Ok, "oracle mine succeeds");
    assert!(
        body == expected,
        "server mine payload is byte-identical to the unfaulted oracle"
    );

    // Seeded interleaving of ops; every one must resolve structured.
    for op in 0..OPS_PER_SCHEDULE {
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
                "freq id={id} dataset=gen min_support=60 max_edges=3"
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
        h.wait_response(&id);
    }

    // Memory-pressure spike: a load past the ceiling is rejected with a
    // structured resource_exhausted after evicting cold cache entries —
    // the server stays up and keeps its resident accounting.
    h.send("load id=spike dataset=huge gen=aids count=9000 seed=1");
    let (resp, _) = h.wait_response("spike");
    assert!(
        resp.status == Status::Error && resp.field("code") == Some("resource_exhausted"),
        "oversized load rejected with code=resource_exhausted"
    );
    assert!(
        resp.field("max_resident_bytes").is_some() && resp.field("resident_bytes").is_some(),
        "rejection discloses the governor's accounting"
    );
    h.send("stats id=after_spike");
    let (resp, _) = h.wait_response("after_spike");
    assert_eq!(
        resp.status,
        Status::Ok,
        "server keeps serving after the spike"
    );
    assert!(
        resp.field("evictions")
            .and_then(|v| v.parse::<u64>().ok())
            .is_some_and(|n| n >= 1),
        "governor evicted at least one cold cache entry under pressure"
    );
    assert!(
        resp.field("resident_bytes")
            .and_then(|v| v.parse::<u64>().ok())
            .is_some_and(|n| n > 0),
        "stats reports resident bytes"
    );
    h.send(&format!("mine id=after_mine {mine}"));
    let (resp, body) = h.wait_response("after_mine");
    assert!(
        resp.status == Status::Ok && body == expected,
        "mining is unaffected by the rejected spike"
    );

    // Every accepted request resolves — wait for each id before shutdown
    // so a silently dropped request names itself instead of wedging the
    // drain.
    for id in h.submitted.clone() {
        h.wait_response(&id);
    }
    assert_eq!(h.server.snapshot().panics, 0, "no request panicked");
    h.send("shutdown id=bye drain_ms=5000");
    let (resp, _) = h.wait_response("bye");
    assert_eq!(resp.status, Status::Ok, "shutdown confirms");

    // Exactly one response per submitted request, across every path the
    // schedule exercised (completed, cancelled, rejected, errored).
    let responses = h.responses();
    for id in &h.submitted {
        let n = responses.iter().filter(|(r, _)| &r.id == id).count();
        assert_eq!(n, 1, "request '{id}' got {n} responses, want 1");
    }
    let Harness { server, .. } = h;
    server.join();

    // -- Permanent fault: bounded attempts, structured outcome -----------
    // Last because a quarantining open mutates the directory.
    let io_perm = Io::with_plan(FaultPlan::new(mix(&mut rng)).permanent_at(3));
    match graphsig_store::open_lenient_with(&dir, &io_perm) {
        Ok(o) => assert!(
            !o.report.quarantined.is_empty(),
            "permanent shard fault must quarantine"
        ),
        Err(e) => assert!(
            !e.to_string().is_empty(),
            "permanent fault surfaces a structured error"
        ),
    }

    let _ = std::fs::remove_dir_all(&dir);
    injected(&io)
        + injected(&io_sr)
        + injected(&io_kill)
        + injected(&server_io)
        + injected(&io_perm)
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

/// Read on the active connection until the response to `id` arrives.
fn await_on(active: &mut TcpStream, id: &str, deadline: Instant) {
    let mut got = Vec::new();
    while !String::from_utf8_lossy(&got).contains(&format!("id={id}")) {
        let (more, eof) = drain_to_eof(active, Instant::now() + Duration::from_millis(200));
        got.extend_from_slice(&more);
        assert!(!eof, "active client dropped while '{id}' was in flight");
        assert!(
            Instant::now() < deadline,
            "no response to '{id}' on the active connection"
        );
    }
}

/// Connection-lifecycle phase: dead, idle, and slow clients against a
/// deadline-enforcing transport, with an active client proceeding
/// throughout.
fn run_tcp_lifecycle() {
    let server = Arc::new(Server::new(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        drain_ms: 5_000,
        ..ServerConfig::default()
    }));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let tcfg = TransportConfig {
        max_write_buf: 4 * 1024,
        poll_timeout_ms: 10,
        idle_timeout_ms: Some(300),
        handshake_timeout_ms: Some(300),
        write_stall_ticks: 5,
        ..TransportConfig::default()
    };
    let transport = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || graphsig_server::transport::serve(listener, &server, tcfg))
    };
    let connect = || TcpStream::connect(addr).expect("connect");

    // Dead client: never sends a byte; the handshake deadline reaps it.
    let mut dead = connect();
    // Idle client: completes one request, then goes silent; the idle
    // deadline reaps it.
    let mut idle = connect();
    idle.write_all(b"ping id=i1\n").expect("idle write");
    let (buf, _) = drain_to_eof(&mut idle, Instant::now() + Duration::from_millis(500));
    assert!(
        String::from_utf8_lossy(&buf).contains("id=i1 op=ping status=ok"),
        "idle client's one request answered before it went silent"
    );

    // Active client: keeps working past both deadlines — activity and
    // in-flight work defer the reaper.
    let mut active = connect();
    let deadline = Instant::now() + WAIT;
    active
        .write_all(b"load id=a1 dataset=d gen=aids count=150 seed=3\n")
        .expect("active write");
    await_on(&mut active, "a1", deadline);
    // Work spanning the idle window on one connection must not be
    // disturbed by reaps of the dead and idle connections happening now.
    active
        .write_all(b"mine id=a2 dataset=d min_freq=0.04 max_pvalue=0.05 radius=3\n")
        .expect("active write");
    await_on(&mut active, "a2", deadline);

    // Both silent connections must observe EOF: reaped by their deadlines.
    let (_, eof) = drain_to_eof(&mut dead, Instant::now() + Duration::from_secs(20));
    assert!(eof, "dead client reaped by the handshake deadline");
    let (_, eof) = drain_to_eof(&mut idle, Instant::now() + Duration::from_secs(20));
    assert!(eof, "idle client reaped by the idle deadline");

    // Slow client: floods itself with mine responses and stops
    // reading; backpressure (write-buffer cap or stall detection) drops
    // the connection. Whatever byte prefix it did receive must split into
    // complete frames plus a visibly truncated tail — never a frame that
    // parses as complete with missing payload.
    let mut slow = connect();
    let mut req = String::new();
    for i in 0..160 {
        req.push_str(&format!(
            "mine id=s{i} dataset=d min_freq=0.04 max_pvalue=0.05 radius=3\n"
        ));
    }
    let _ = slow.write_all(req.as_bytes());
    // Do not read; let the server buffer responses and shed the
    // connection, then collect whatever was delivered.
    std::thread::sleep(Duration::from_millis(400));
    let (buf, eof) = drain_to_eof(&mut slow, Instant::now() + Duration::from_secs(60));
    assert!(eof, "slow client eventually dropped by backpressure");
    if let Err(e) = parse_response_stream(&buf) {
        panic!("slow client observed a malformed frame in its prefix: {e}");
    }

    server.shutdown_now();
    let _ = transport.join().expect("transport thread panicked");
}
