//! serve-query and serve-ingest: the TCP server in a child process of this
//! binary, driven over one connection by a single-threaded client.
//!
//! The child runs the same `Server` + `transport::serve` path as
//! `graphsig serve --tcp` with the default `ServerConfig`. The client sends
//! an open loop (seeded Poisson arrivals, latency timed from the instant a
//! request was due) and then a closed loop (a fixed number of requests
//! outstanding). serve-ingest additionally packs and appends a fresh batch
//! of molecules at a fixed cadence during its open loop.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use graphsig_core::GraphSig;
use graphsig_graph::{parse_transactions, GraphDb, LabelPairIndex};
use graphsig_server::{
    escape, parse_response_header, ResponseHeader, Server, ServerConfig, Status, TransportConfig,
};

use crate::data::{self, Query, Traffic, FREQ_SUPPORTS, MINE_GRID, SERVE_DATASETS};
use crate::oracle;
use crate::trace::{self, LayerReport, Traced, Tracer};
use crate::util::{self, mean, median, percentile, ratio, secs, Metric, RunResult, WorkDir};

/// Longest sleep between two reads of the connection: the resolution of
/// every client-side timestamp.
const POLL_STEP: Duration = Duration::from_millis(1);

/// Requests unanswered this long count as failed.
pub const LATENCY_LIMIT: Duration = Duration::from_secs(10);

/// Server set-ups per run; `setup_s` is their median, and serve-query's
/// `ingest_ms` the median over every base each of them loads.
const SETUPS: usize = 5;

/// Nominal open-loop rates (requests per second).
const QUERY_RATE: f64 = 4.0;
const INGEST_RATE: f64 = 6.0;

/// Requests the closed loop keeps outstanding.
const CLOSED_OUTSTANDING: usize = 4;

/// Queries per stratified block of the closed loop.
const CLOSED_BLOCK: usize = 50;

/// Share of `--seconds` spent in the open loop (the rest is closed loop).
const QUERY_OPEN_SHARE: f64 = 0.8;
const INGEST_OPEN_SHARE: f64 = 0.8;

/// Client threads and connections the serve workloads use.
pub const CLIENT_THREADS: usize = 1;
pub const CLIENT_CONNECTIONS: usize = 1;

/// Names and units of the server-side per-layer metrics.
const SERVER_METRICS: [(&str, &str); 21] = [
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("server.queue_wait_ms", "ms"),
    ("server.exec_ms", "ms"),
    ("server.busy_rejected", "count"),
    ("server.errors", "count"),
    ("server.rider_share", "ratio"),
    ("op.mine_p50_ms", "ms"),
    ("op.freq_p50_ms", "ms"),
    ("transport.overhead_ms", "ms"),
    ("store.pack_ms", "ms"),
    ("store.bytes_per_input_byte", "ratio"),
    ("store.open_ms", "ms"),
    ("store.retries", "count"),
    ("index.freq_first_ms", "ms"),
    ("index.freq_warm_ms", "ms"),
    ("server.resident_mb", "MiB"),
    ("server.evictions", "count"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
];

/// The server-side metrics of a workload that runs no server: every layer
/// reports that it did no work.
pub fn idle_server_metrics() -> Vec<Metric> {
    SERVER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: 0.0,
        })
        .collect()
}

/// Child side: `--child serve`. Prints `listening <addr>` once bound.
pub fn child() -> Result<(), String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "listening {addr}")
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    let server = Server::new(ServerConfig::default());
    graphsig_server::transport::serve(listener, &server, TransportConfig::default())
        .map_err(|e| format!("transport failed: {e}"))?;
    server.join();
    Ok(())
}

/// A running server child; killed and reaped on drop if still alive.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--child", "serve"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn the server: {e}"))?;
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped"))
            .read_line(&mut line)
            .map_err(|e| format!("server did not report its address: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("unexpected server banner '{}'", line.trim()))?
            .to_string();
        Ok(Self { child, addr })
    }

    /// Drain and stop the server, then reap it.
    fn stop(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.roundtrip("shutdown id=bye", "bye")?;
        let status = self.child.wait().map_err(|e| format!("server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One framed response and the instant its last byte was read.
struct Resp {
    header: ResponseHeader,
    payload: Vec<u8>,
    at: Instant,
}

impl Resp {
    fn field_f64(&self, key: &str) -> f64 {
        self.header
            .field(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // Non-blocking, polled at most [`POLL_STEP`] apart: socket read
        // timeouts round up to the kernel tick and would make the open-loop
        // generator up to a tick late.
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let data = format!("{line}\n").into_bytes();
        let mut off = 0;
        while off < data.len() {
            match self.stream.write(&data[off..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_STEP)
                }
                Err(e) => return Err(format!("send failed: {e}")),
            }
        }
        Ok(())
    }

    /// Wait up to `wait` for at least one complete response; returns every
    /// complete response received by then, stamped with the instant its
    /// bytes were read.
    fn poll(&mut self, wait: Duration) -> Result<Vec<Resp>, String> {
        let deadline = Instant::now() + wait;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let mut closed = false;
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(format!("receive failed: {e}")),
                }
            }
            let at = Instant::now();
            let mut out = Vec::new();
            while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[..nl]).into_owned();
                let header = parse_response_header(&line)
                    .map_err(|e| format!("bad response header '{line}': {e}"))?;
                let total = nl + 1 + header.bytes;
                if self.buf.len() < total {
                    break;
                }
                let payload = self.buf[nl + 1..total].to_vec();
                self.buf.drain(..total);
                out.push(Resp {
                    header,
                    payload,
                    at,
                });
            }
            if !out.is_empty() || at >= deadline {
                return Ok(out);
            }
            if closed {
                return Err("server closed the connection".into());
            }
            std::thread::sleep((deadline - at).min(POLL_STEP));
        }
    }

    /// Send `line` and wait for the response to `id` (no other request may
    /// be outstanding).
    fn roundtrip(&mut self, line: &str, id: &str) -> Result<Resp, String> {
        self.send(line)?;
        let deadline = Instant::now() + LATENCY_LIMIT;
        while Instant::now() < deadline {
            if let Some(r) = self
                .poll(Duration::from_millis(20))?
                .into_iter()
                .find(|r| r.header.id == id)
            {
                return Ok(r);
            }
        }
        Err(format!("no response to '{line}' within {LATENCY_LIMIT:?}"))
    }
}

/// Send `line` with `id` and require an `ok` response.
fn request_ok(conn: &mut Conn, line: &str, id: &str) -> Result<Resp, String> {
    let r = conn.roundtrip(&format!("{line} id={id}"), id)?;
    if r.header.status != Status::Ok {
        return Err(format!("'{line}' failed: {:?}", r.header.fields));
    }
    Ok(r)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    Closed,
    /// serve-ingest's appends, sent during the open loop.
    Ingest,
}

#[derive(Clone, Copy)]
enum Kind {
    Query(Query),
    /// A batch append, packed in this many seconds.
    Load(f64),
}

struct Sent {
    kind: Kind,
    due: Instant,
    sent: Instant,
    phase: Phase,
}

/// One answered (or failed) query.
struct Done {
    query: Query,
    phase: Phase,
    /// From the instant it was due (open loop) or sent (closed loop).
    from_due_ms: f64,
    from_sent_ms: f64,
    version: u64,
    ok: bool,
    cache_hit: Option<bool>,
    at: Instant,
}

/// One acknowledged append.
struct Ack {
    pack_ms: f64,
    ack_ms: f64,
    open_ms: f64,
    retries: f64,
}

/// The single-threaded client: sends, receives, times and checks.
struct Client {
    conn: Conn,
    next_id: u64,
    pending: HashMap<u64, Sent>,
    expired: HashSet<u64>,
    done: Vec<Done>,
    acks: Vec<Ack>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// First payload seen per (dataset version, query); later ones must
    /// repeat it byte for byte.
    payloads: HashMap<(u64, Query), Vec<u8>>,
    problems: Vec<String>,
    mismatches: u64,
}

impl Client {
    fn new(conn: Conn) -> Self {
        Self {
            conn,
            next_id: 0,
            pending: HashMap::new(),
            expired: HashSet::new(),
            done: Vec::new(),
            acks: Vec::new(),
            late_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            payloads: HashMap::new(),
            problems: Vec::new(),
            mismatches: 0,
        }
    }

    fn send(&mut self, kind: Kind, line: &str, due: Instant, phase: Phase) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        let sent = Instant::now();
        self.conn.send(&format!("{line} id=r{id}"))?;
        if phase == Phase::Open {
            self.late_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        self.attempted += 1;
        self.pending.insert(
            id,
            Sent {
                kind,
                due,
                sent,
                phase,
            },
        );
        Ok(())
    }

    fn send_query(&mut self, q: Query, due: Instant, phase: Phase) -> Result<(), String> {
        self.send(Kind::Query(q), &q.line(), due, phase)
    }

    /// Account one response; returns the phase of its request.
    fn handle(&mut self, r: Resp) -> Option<Phase> {
        let id = r
            .header
            .id
            .strip_prefix('r')
            .and_then(|v| v.parse::<u64>().ok());
        let Some(sent) = id.and_then(|id| self.pending.remove(&id)) else {
            if !id.is_some_and(|id| self.expired.contains(&id)) {
                self.mismatches += 1;
                self.problems
                    .push(format!("response to unknown request '{}'", r.header.id));
            }
            return None;
        };
        let ok = r.header.status == Status::Ok
            && r.header.field("completion").is_none_or(|c| c == "complete");
        if !ok {
            self.failed += 1;
            self.problems.push(format!(
                "request failed: {:?} {:?}",
                r.header.status, r.header.fields
            ));
        }
        let from_sent_ms = r.at.duration_since(sent.sent).as_secs_f64() * 1e3;
        match sent.kind {
            Kind::Query(query) => {
                let version = r.field_f64("version") as u64;
                if ok {
                    match self.payloads.get(&(version, query)) {
                        Some(first) if *first != r.payload => {
                            self.mismatches += 1;
                            self.problems.push(format!("{query:?} at version {version}: payload differs from an earlier answer"));
                        }
                        Some(_) => {}
                        None => {
                            self.payloads.insert((version, query), r.payload.clone());
                        }
                    }
                }
                self.done.push(Done {
                    query,
                    phase: sent.phase,
                    from_due_ms: r.at.duration_since(sent.due).as_secs_f64() * 1e3,
                    from_sent_ms,
                    version,
                    ok,
                    cache_hit: r.header.field("cached").map(|c| c == "hit"),
                    at: r.at,
                });
            }
            Kind::Load(pack_s) => self.acks.push(Ack {
                pack_ms: pack_s * 1e3,
                ack_ms: from_sent_ms,
                open_ms: r.field_f64("parse_ms"),
                retries: r.field_f64("retries"),
            }),
        }
        Some(sent.phase)
    }

    /// Fail every request outstanding longer than the latency limit.
    fn expire(&mut self) {
        let now = Instant::now();
        let late: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, s)| now.duration_since(s.sent) > LATENCY_LIMIT)
            .map(|(&id, _)| id)
            .collect();
        for id in late {
            let s = self.pending.remove(&id).expect("listed above");
            self.expired.insert(id);
            self.failed += 1;
            self.problems
                .push(format!("request r{id} unanswered after {LATENCY_LIMIT:?}"));
            if let Kind::Query(query) = s.kind {
                self.done.push(Done {
                    query,
                    phase: s.phase,
                    from_due_ms: LATENCY_LIMIT.as_secs_f64() * 1e3,
                    from_sent_ms: LATENCY_LIMIT.as_secs_f64() * 1e3,
                    version: 0,
                    ok: false,
                    cache_hit: None,
                    at: now,
                });
            }
        }
    }

    fn pump(&mut self, wait: Duration) -> Result<Vec<Phase>, String> {
        let phases = self
            .conn
            .poll(wait)?
            .into_iter()
            .filter_map(|r| self.handle(r))
            .collect();
        self.expire();
        Ok(phases)
    }

    /// Open loop for `dur` at `rate`: a stratified mix sent at Poisson
    /// arrival instants, plus the appends of `ingest` at their scheduled
    /// instants. Returns once every request of the phase is answered or
    /// expired.
    fn open_loop(
        &mut self,
        traffic: &mut Traffic,
        rate: f64,
        dur: Duration,
        mut ingest: Option<&mut Ingest>,
    ) -> Result<(), String> {
        let n = (rate * dur.as_secs_f64()).round() as usize;
        let queries = traffic.mix(n);
        let offsets = traffic.arrivals(n, dur.as_secs_f64());
        let start = Instant::now();
        let end = start + dur;
        if let Some(ing) = ingest.as_deref_mut() {
            ing.schedule(start, dur);
        }
        let mut next = 0;
        loop {
            let now = Instant::now();
            if let Some(ing) = ingest.as_deref_mut() {
                if let Some((line, pack_s, due)) = ing.pack_due(now)? {
                    self.send(Kind::Load(pack_s), &line, due, Phase::Ingest)?;
                    continue;
                }
            }
            let due = offsets
                .get(next)
                .map(|&o| start + Duration::from_secs_f64(o));
            if let Some(due) = due.filter(|&d| d <= now) {
                self.send_query(queries[next], due, Phase::Open)?;
                next += 1;
                continue;
            }
            let ingest_left = ingest.as_deref().is_some_and(|i| i.next < i.batches.len());
            if now >= end && due.is_none() && !ingest_left && self.pending.is_empty() {
                return Ok(());
            }
            let wait = due.map_or(Duration::from_millis(5), |d| {
                d.saturating_duration_since(now)
            });
            self.pump(wait.min(Duration::from_millis(20)))?;
        }
    }

    /// Closed loop for `dur` with `outstanding` requests in flight, drawing
    /// queries from stratified blocks; returns requests completed per
    /// second within the window.
    fn closed_loop(
        &mut self,
        traffic: &mut Traffic,
        outstanding: usize,
        dur: Duration,
    ) -> Result<f64, String> {
        let mut block: Vec<Query> = Vec::new();
        let mut next_query = || {
            if block.is_empty() {
                block = traffic.mix(CLOSED_BLOCK);
            }
            block.pop().expect("refilled above")
        };
        let start = Instant::now();
        let end = start + dur;
        for _ in 0..outstanding {
            self.send_query(next_query(), Instant::now(), Phase::Closed)?;
        }
        let before = self.done.len();
        while !(Instant::now() >= end && self.pending.is_empty()) {
            for phase in self.pump(Duration::from_millis(20))? {
                if phase == Phase::Closed && Instant::now() < end {
                    self.send_query(next_query(), Instant::now(), Phase::Closed)?;
                }
            }
        }
        let completed = self.done[before..]
            .iter()
            .filter(|d| d.ok && d.at <= end)
            .count();
        Ok(completed as f64 / dur.as_secs_f64())
    }
}

/// serve-ingest's appended batches: generated up front, packed at their
/// scheduled instants, appended to the datasets in turn.
struct Ingest {
    batches: Vec<GraphDb>,
    dirs: Vec<PathBuf>,
    due: Vec<Instant>,
    next: usize,
    pack_bytes: u64,
    pack_retries: u64,
}

impl Ingest {
    fn schedule(&mut self, start: Instant, dur: Duration) {
        let n = self.batches.len();
        self.due = (1..=n)
            .map(|k| start + dur.mul_f64(k as f64 / (n + 1) as f64))
            .collect();
    }

    /// If the next batch is due, pack it and return its load line.
    fn pack_due(&mut self, now: Instant) -> Result<Option<(String, f64, Instant)>, String> {
        if self.next >= self.batches.len() || now < self.due[self.next] {
            return Ok(None);
        }
        let i = self.next;
        self.next += 1;
        let t0 = Instant::now();
        let summary = graphsig_store::pack(
            &self.dirs[i],
            &self.batches[i],
            graphsig_store::DEFAULT_SHARD_SIZE,
        )
        .map_err(|e| format!("pack of batch {i} failed: {e}"))?;
        let pack_s = secs(t0);
        self.pack_bytes += summary.bytes_written;
        self.pack_retries += summary.retries;
        let line = format!(
            "load dataset={} path={} format=packed append=true",
            data::dataset_name(i % SERVE_DATASETS),
            escape(&self.dirs[i].to_string_lossy())
        );
        Ok(Some((line, pack_s, self.due[i])))
    }
}

/// One server set-up: pack every base, spawn, load each, warm each
/// dataset's window pass.
#[derive(Default)]
struct Setup {
    setup_s: f64,
    /// Per dataset: `load` acknowledgement (ms).
    ingest_ms: Vec<f64>,
    pack_ms: Vec<f64>,
    /// Per dataset: the `load` response's `parse_ms`.
    open_ms: Vec<f64>,
    disk_bytes: u64,
    retries: f64,
}

fn set_up(
    work: &WorkDir,
    bases: &[GraphDb],
    s: usize,
) -> Result<(ServerProc, Conn, Setup), String> {
    let mut packed = Vec::new();
    for (k, base) in bases.iter().enumerate() {
        let dir = work.join(&format!("base-{s}-{k}"));
        let t = Instant::now();
        let summary = graphsig_store::pack(&dir, base, graphsig_store::DEFAULT_SHARD_SIZE)
            .map_err(|e| format!("pack of base {k} failed: {e}"))?;
        packed.push((dir, secs(t), summary));
    }
    let t0 = Instant::now();
    let server = ServerProc::spawn()?;
    let mut conn = Conn::connect(&server.addr)?;
    let mut setup = Setup::default();
    for (k, (dir, pack_s, summary)) in packed.iter().enumerate() {
        let t = Instant::now();
        let load = request_ok(
            &mut conn,
            &format!(
                "load dataset={} path={} format=packed",
                data::dataset_name(k),
                escape(&dir.to_string_lossy())
            ),
            &format!("load{k}"),
        )?;
        setup.ingest_ms.push(secs(t) * 1e3);
        setup.pack_ms.push(pack_s * 1e3);
        setup.open_ms.push(load.field_f64("parse_ms"));
        setup.disk_bytes += summary.bytes_written;
        setup.retries += summary.retries as f64 + load.field_f64("retries");
    }
    // Warm every window pass at once; the workers run them side by side.
    for k in 0..bases.len() {
        let warm = Query::Mine { ds: k, cfg: 0 };
        conn.send(&format!("{} id=warm{k}", warm.line()))?;
    }
    let deadline = Instant::now() + LATENCY_LIMIT;
    let mut warmed = 0;
    while warmed < bases.len() {
        if Instant::now() > deadline {
            return Err(format!("warm-up mines unanswered after {LATENCY_LIMIT:?}"));
        }
        for r in conn.poll(Duration::from_millis(20))? {
            if r.header.status != Status::Ok {
                return Err(format!("warm-up mine failed: {:?}", r.header.fields));
            }
            warmed += 1;
        }
    }
    setup.setup_s = secs(t0);
    Ok((server, conn, setup))
}

/// `stats` (global) and `stats dataset=..` per dataset, as field maps.
struct Snapshot {
    global: BTreeMap<String, f64>,
    datasets: Vec<BTreeMap<String, f64>>,
}

fn stats(conn: &mut Conn, tag: &str) -> Result<Snapshot, String> {
    let to_map = |r: Resp| {
        r.header
            .fields
            .iter()
            .filter_map(|(k, v)| v.parse().ok().map(|v| (k.clone(), v)))
            .collect::<BTreeMap<String, f64>>()
    };
    let global = to_map(request_ok(conn, "stats", &format!("stats-{tag}"))?);
    let datasets = (0..SERVE_DATASETS)
        .map(|k| {
            let line = format!("stats dataset={}", data::dataset_name(k));
            request_ok(conn, &line, &format!("stats-{tag}-{k}")).map(to_map)
        })
        .collect::<Result<_, _>>()?;
    Ok(Snapshot { global, datasets })
}

/// Global counter `key` of `b` minus that of `a`.
fn delta(a: &Snapshot, b: &Snapshot, key: &str) -> f64 {
    b.global.get(key).copied().unwrap_or(0.0) - a.global.get(key).copied().unwrap_or(0.0)
}

/// Reference answers for every dataset's final version, plus timings.
struct Oracle {
    mines: HashMap<(usize, usize), String>,
    freqs: HashMap<(usize, usize), String>,
    /// Prepared mine + render per (dataset, grid setting), `nproc` threads.
    multi_s: Vec<f64>,
    single_s: Vec<f64>,
}

fn build_oracle(
    texts: &[String],
    problems: &mut Vec<String>,
    mismatches: &mut u64,
) -> Result<Oracle, String> {
    let nproc = util::nproc();
    let mut o = Oracle {
        mines: HashMap::new(),
        freqs: HashMap::new(),
        multi_s: Vec::new(),
        single_s: Vec::new(),
    };
    for (ds, text) in texts.iter().enumerate() {
        let db =
            parse_transactions(text).map_err(|e| format!("benchmark input does not parse: {e}"))?;
        // Every grid setting shares the window mechanism, so one window
        // pass serves them all, as the server's cache does.
        let prepared = GraphSig::new(MINE_GRID[0].graphsig(nproc)).prepare(&db);
        for (i, cfg) in MINE_GRID.iter().enumerate() {
            let multi = oracle::mine_prepared(&db, &prepared, &cfg.graphsig(nproc));
            let single = oracle::mine_prepared(&db, &prepared, &cfg.graphsig(1));
            if multi.bytes != single.bytes {
                *mismatches += 1;
                problems.push(format!(
                    "oracle for d{ds} {cfg:?}: {nproc} threads differ from 1 thread"
                ));
            }
            if !multi.completion.is_complete() {
                problems.push(format!(
                    "oracle for d{ds} {cfg:?} truncated: {}",
                    multi.completion
                ));
            }
            o.multi_s.push(multi.seconds);
            o.single_s.push(single.seconds);
            o.mines.insert((ds, i), multi.bytes);
        }
        let index = LabelPairIndex::build(&db);
        for (i, &support) in FREQ_SUPPORTS.iter().enumerate() {
            let (payload, completion) = oracle::freq_payload(&db, &index, support);
            if !completion.is_complete() {
                problems.push(format!(
                    "freq oracle for d{ds} at support {support} truncated: {completion}"
                ));
            }
            o.freqs.insert((ds, i), payload);
        }
    }
    Ok(o)
}

/// Run serve-query (`ingest == false`) or serve-ingest.
pub fn run(seed: u64, seconds: u64, ingest: bool, traced: bool) -> Result<RunResult, String> {
    let name = if ingest {
        "serve-ingest"
    } else {
        "serve-query"
    };
    let work = WorkDir::create(name)?;
    let parse = |t: &String| {
        parse_transactions(t).map_err(|e| format!("benchmark input does not parse: {e}"))
    };
    let base_texts: Vec<String> = (0..SERVE_DATASETS)
        .map(|k| {
            let s = util::sub_seed(seed, data::STREAM_BASE_DB * 1000 + k as u64);
            data::molecules_text(data::SERVE_BASE_MOLECULES, s)
        })
        .collect();
    let bases: Vec<GraphDb> = base_texts.iter().map(parse).collect::<Result<_, _>>()?;
    let batch_texts: Vec<String> = if ingest {
        data::batch_texts(
            data::INGEST_BATCH_MOLECULES,
            data::INGEST_BATCHES,
            util::sub_seed(seed, data::STREAM_BATCH),
        )
    } else {
        Vec::new()
    };

    // Set-ups; the last server stays up for the measured phases.
    let mut setups = Vec::new();
    let mut live = None;
    for s in 0..SETUPS {
        let (server, mut conn, setup) = set_up(&work, &bases, s)?;
        setups.push(setup);
        if s + 1 < SETUPS {
            server.stop(&mut conn)?;
        } else {
            live = Some((server, conn));
        }
    }
    let (server, conn) = live.expect("at least one set-up");
    let server_pid = server.child.id();
    let mut client = Client::new(conn);
    let mut traffic = Traffic::new(seed);
    let s0 = stats(&mut client.conn, "start")?;

    let total = Duration::from_secs(seconds);
    let mut ing = Ingest {
        dirs: (0..batch_texts.len())
            .map(|i| work.join(&format!("batch-{i}")))
            .collect(),
        batches: batch_texts.iter().map(parse).collect::<Result<_, _>>()?,
        due: Vec::new(),
        next: 0,
        pack_bytes: 0,
        pack_retries: 0,
    };
    let (rate, open_share) = if ingest {
        (INGEST_RATE, INGEST_OPEN_SHARE)
    } else {
        (QUERY_RATE, QUERY_OPEN_SHARE)
    };
    let open_dur = total.mul_f64(open_share);
    client.open_loop(&mut traffic, rate, open_dur, ingest.then_some(&mut ing))?;
    let s1 = stats(&mut client.conn, "open")?;
    let sat_rps = client.closed_loop(&mut traffic, CLOSED_OUTSTANDING, total - open_dur)?;
    let s2 = stats(&mut client.conn, "closed")?;
    let rss_mb = util::vm_hwm_mib(server_pid)?;
    server.stop(&mut client.conn)?;

    // Each dataset's final content: its base, then its batches in order.
    let mut final_texts = base_texts.clone();
    let mut final_graphs: Vec<usize> = bases.iter().map(GraphDb::len).collect();
    let mut final_versions = [1u64; SERVE_DATASETS];
    for (i, (text, batch)) in batch_texts.iter().zip(&ing.batches).enumerate() {
        final_texts[i % SERVE_DATASETS].push_str(text);
        final_graphs[i % SERVE_DATASETS] += batch.len();
        final_versions[i % SERVE_DATASETS] += 1;
    }
    let mut problems = std::mem::take(&mut client.problems);
    let mut mismatches = client.mismatches;
    for (k, d) in s2.datasets.iter().enumerate() {
        let (graphs, version) = (d.get("graphs").copied(), d.get("version").copied());
        if graphs != Some(final_graphs[k] as f64) || version != Some(final_versions[k] as f64) {
            mismatches += 1;
            problems.push(format!(
                "d{k}: {graphs:?} graphs at version {version:?}, expected {} at {}",
                final_graphs[k], final_versions[k]
            ));
        }
    }
    let oracle = build_oracle(&final_texts, &mut problems, &mut mismatches)?;
    let mut checked = 0;
    for ((version, query), payload) in &client.payloads {
        if *version != final_versions[query.dataset()] {
            continue;
        }
        let expected = match *query {
            Query::Mine { ds, cfg } => &oracle.mines[&(ds, cfg)],
            Query::Freq { ds, support } => &oracle.freqs[&(ds, support)],
        };
        checked += 1;
        if expected.as_bytes() != payload.as_slice() {
            mismatches += 1;
            problems.push(format!(
                "{query:?}: server payload differs from the in-process oracle"
            ));
        }
    }
    if checked == 0 {
        mismatches += 1;
        problems.push("no answer at a final dataset version was checked".into());
    }

    // End-to-end metrics.
    let open_ms: Vec<f64> = client
        .done
        .iter()
        .filter(|d| d.phase == Phase::Open)
        .map(|d| d.from_due_ms)
        .collect();
    // serve-query times only the server's `load` of each packed base: the
    // client-side pack is mostly `fsync`, whose stalls made pack + load
    // spread by about 60% between runs. The traced run reports the pack
    // as `store.pack_ms`.
    let ingest_ms: Vec<f64> = if ingest {
        client.acks.iter().map(|a| a.pack_ms + a.ack_ms).collect()
    } else {
        setups.iter().flat_map(|s| s.ingest_ms.clone()).collect()
    };
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setups.iter().map(|s| s.setup_s).collect::<Vec<_>>()),
            unit: "s",
        },
        // Means, not medians: the grid settings cost different amounts, so
        // the median jumps between them as the datasets vary.
        Metric {
            name: "mine_s",
            value: mean(&oracle.multi_s),
            unit: "s",
        },
        Metric {
            name: "mine_1t_s",
            value: mean(&oracle.single_s),
            unit: "s",
        },
        Metric {
            name: "p50_ms",
            value: percentile(&open_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "p90_ms",
            value: percentile(&open_ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "sat_rps",
            value: sat_rps,
            unit: "req/s",
        },
        Metric {
            name: "ingest_ms",
            value: median(&ingest_ms),
            unit: "ms",
        },
        Metric {
            name: "rss_mb",
            value: rss_mb,
            unit: "MiB",
        },
    ];

    // Traffic as measured.
    let mines: Vec<&Done> = client
        .done
        .iter()
        .filter(|d| matches!(d.query, Query::Mine { .. }))
        .collect();
    let mut seen = HashSet::new();
    let repeated = mines
        .iter()
        .filter(|d| !seen.insert((d.version, d.query)))
        .count();
    let hits = mines.iter().filter(|d| d.cache_hit == Some(true)).count() as f64;
    let misses = mines.iter().filter(|d| d.cache_hit == Some(false)).count() as f64;
    let store_input: usize = base_texts.iter().map(String::len).sum::<usize>()
        + batch_texts.iter().map(String::len).sum::<usize>();
    let mut report = vec![
        format!(
            "traffic: {} mine, {} freq, {} load over {SERVE_DATASETS} datasets; {:.1}% of mines \
             repeat an earlier (dataset, version, setting); rider share {:.3}; cache hit ratio \
             {:.3}; molecules per dataset {} -> {final_graphs:?}; {store_input} input bytes",
            mines.len(),
            client.done.len() - mines.len(),
            client.acks.len(),
            100.0 * ratio(repeated as f64, mines.len() as f64),
            ratio(delta(&s0, &s2, "coalesce_riders"), delta(&s0, &s2, "op_mine")),
            ratio(hits, hits + misses),
            data::SERVE_BASE_MOLECULES,
        ),
        format!(
            "open loop: {} requests at {rate} req/s for {:.2} s; closed loop: \
             {CLOSED_OUTSTANDING} outstanding for {:.2} s; server config: default (workers = nproc, queue 16)",
            open_ms.len(),
            open_dur.as_secs_f64(),
            (total - open_dur).as_secs_f64()
        ),
        format!(
            "gen.late_ms: p99 {:.3} max {:.3} over {} sends",
            percentile(&client.late_ms, 0.99),
            client.late_ms.iter().copied().fold(0.0, f64::max),
            client.late_ms.len()
        ),
        format!(
            "fail_frac = {} ratio ({} of {} failed); {checked} final-version answers checked \
             against the oracle",
            ratio(client.failed as f64, client.attempted as f64),
            client.failed,
            client.attempted
        ),
    ];
    report.extend(problems.iter().take(20).cloned());

    let mut correct = mismatches == 0;
    let metrics = if traced {
        let replay = Replay {
            seed,
            name,
            text: &final_texts[0],
            version: final_versions[0],
        };
        let store = StoreInputs {
            setups: &setups,
            ingest: &ing,
            input_bytes: store_input,
        };
        let (layer_metrics, ok) =
            traced_layers(&replay, &client, [&s0, &s1, &s2], &store, &mut report)?;
        correct &= ok;
        layer_metrics
    } else {
        metrics
    };
    Ok(RunResult {
        correct,
        attempted: client.attempted + (SETUPS * SERVE_DATASETS * 2) as u64,
        failed: client.failed,
        metrics,
        report,
    })
}

/// What the traced replay mines: dataset 0 at its final version.
struct Replay<'a> {
    seed: u64,
    name: &'a str,
    text: &'a str,
    version: u64,
}

/// Store-layer inputs of the traced metrics.
struct StoreInputs<'a> {
    setups: &'a [Setup],
    ingest: &'a Ingest,
    input_bytes: usize,
}

/// The traced run's per-layer metrics: `stats` deltas and client timings
/// for the server layers, and an in-process traced replay of every mine
/// setting answered on dataset 0 at its final version (weighted by how
/// often it was requested) for the pipeline layers.
fn traced_layers(
    replay: &Replay<'_>,
    c: &Client,
    [s0, s1, s2]: [&Snapshot; 3],
    store: &StoreInputs<'_>,
    report: &mut Vec<String>,
) -> Result<(Vec<Metric>, bool), String> {
    let nproc = util::nproc();
    let mut weights: BTreeMap<usize, f64> = BTreeMap::new();
    for d in &c.done {
        if let Query::Mine { ds: 0, cfg } = d.query {
            if d.version == replay.version {
                *weights.entry(cfg).or_default() += 1.0;
            }
        }
    }
    let tr = Tracer::new();
    let mut replays: Vec<(Traced, f64)> = Vec::new();
    let mut ok = true;
    let mut diffs = Vec::new();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for (req, (&i, &w)) in weights.iter().enumerate() {
        let cfg = MINE_GRID[i].graphsig(nproc);
        let reference = oracle::mine_oneshot(replay.text, &cfg, true)?;
        let traced = trace::traced_mine(&tr, req as u32, replay.text, &cfg)?;
        if traced.bytes != reference.bytes {
            ok = false;
            report.push(format!(
                "traced replay of {:?} differs from the library",
                MINE_GRID[i]
            ));
        }
        let s = reference.stats;
        let library = [
            ("features.vectors", s.vectors as u64),
            ("fvmine.sig_vectors", s.significant_vectors as u64),
            ("fsm.sets", s.region_sets as u64),
            ("iso.match_steps", s.match_steps),
            ("canon.calls", s.canon_calls),
            ("canon.cert_hits", s.cert_hits),
            ("render_bytes", reference.bytes.len() as u64),
        ];
        let ours: Vec<(&'static str, u64)> = traced
            .counts
            .ledger()
            .into_iter()
            .filter(|(k, _)| library.iter().any(|(l, _)| l == k))
            .collect();
        diffs.extend(trace::ledger_diff(&ours, &library));
        let spans = tr.spans();
        traced_s += (spans[traced.root].end - spans[traced.root].start) as f64 / 1e9;
        untraced_s += reference.seconds;
        replays.push((traced, w));
    }
    // Self-time accounting on one single-threaded replay of the most
    // requested setting.
    let top = weights
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(&i, _)| i);
    let single = trace::traced_mine(&tr, u32::MAX, replay.text, &MINE_GRID[top].graphsig(1))?;
    let self_sum = LayerReport::self_sum_ratio(&tr, &single);
    if (self_sum - 1.0).abs() > 0.05 {
        ok = false;
        report.push("trace: layer self times miss the end-to-end time by more than 5%".into());
    }
    let mut total = trace::Counts::default();
    for (r, _) in &replays {
        total.add(&r.counts);
    }
    diffs.extend(trace::ledger_check(
        replay.name,
        replay.seed,
        &total.ledger(),
    )?);
    for (k, v) in total.ledger() {
        report.push(format!(
            "ledger {k} = {v} (sum over {} replayed settings of d0)",
            replays.len()
        ));
    }
    for d in &diffs {
        report.push(format!("ledger differs: {d}"));
    }
    let overhead = ratio(traced_s, untraced_s) - 1.0;
    report.push(format!(
        "trace: replay untraced {untraced_s:.3} s, traced {traced_s:.3} s (overhead {:+.1}%); \
         layer self times at 1 thread sum to {:.1}% of end to end",
        overhead * 100.0,
        self_sum * 100.0
    ));
    trace::write_spans(
        &tr,
        &std::path::Path::new(".perfbench-work")
            .join("traces")
            .join(format!("{}-seed{}.txt", replay.name, replay.seed)),
    )?;
    let weighted: Vec<(&Traced, f64)> = replays.iter().map(|(r, w)| (r, *w)).collect();
    let mut metrics = LayerReport::new(&tr, &weighted).metrics(overhead, self_sum);

    // Server layers: queue and exec means over the open loop (s0 -> s1),
    // counters over the whole measured window (s0 -> s2).
    let open: Vec<&Done> = c
        .done
        .iter()
        .filter(|d| d.phase == Phase::Open && d.ok)
        .collect();
    let served = delta(s0, s1, "served");
    let queue_ms = ratio(delta(s0, s1, "queue_wait_us"), served) / 1e3;
    let exec_ms = ratio(delta(s0, s1, "exec_us"), served) / 1e3;
    let op_p50 = |mine: bool| {
        let ms: Vec<f64> = open
            .iter()
            .filter(|d| matches!(d.query, Query::Mine { .. }) == mine)
            .map(|d| d.from_sent_ms)
            .collect();
        median(&ms)
    };
    // Open loop only, so first and warm `freq`s meet the same load.
    let mut first_freq: HashSet<(usize, u64)> = HashSet::new();
    let (mut freq_first, mut freq_warm) = (Vec::new(), Vec::new());
    for d in open
        .iter()
        .filter(|d| matches!(d.query, Query::Freq { .. }))
    {
        if first_freq.insert((d.query.dataset(), d.version)) {
            freq_first.push(d.from_sent_ms);
        } else {
            freq_warm.push(d.from_sent_ms);
        }
    }
    let mines: Vec<&Done> = c
        .done
        .iter()
        .filter(|d| matches!(d.query, Query::Mine { .. }))
        .collect();
    let hits = mines.iter().filter(|d| d.cache_hit == Some(true)).count() as f64;
    let misses = mines.iter().filter(|d| d.cache_hit == Some(false)).count() as f64;
    let appended = !store.ingest.batches.is_empty();
    let pack_ms: Vec<f64> = if appended {
        c.acks.iter().map(|a| a.pack_ms).collect()
    } else {
        store
            .setups
            .iter()
            .flat_map(|s| s.pack_ms.clone())
            .collect()
    };
    let open_ms: Vec<f64> = if appended {
        c.acks.iter().map(|a| a.open_ms).collect()
    } else {
        store
            .setups
            .iter()
            .flat_map(|s| s.open_ms.clone())
            .collect()
    };
    let last = store.setups.last();
    let disk_bytes = last.map_or(0, |s| s.disk_bytes) + store.ingest.pack_bytes;
    let retries = last.map_or(0.0, |s| s.retries)
        + c.acks.iter().map(|a| a.retries).sum::<f64>()
        + store.ingest.pack_retries as f64
        + delta(s0, s2, "store_retries");
    let values: BTreeMap<&str, f64> = [
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        ("server.queue_wait_ms", queue_ms),
        ("server.exec_ms", exec_ms),
        ("server.busy_rejected", delta(s0, s2, "busy_rejected")),
        ("server.errors", delta(s0, s2, "errors")),
        (
            "server.rider_share",
            ratio(delta(s0, s2, "coalesce_riders"), delta(s0, s2, "op_mine")),
        ),
        ("op.mine_p50_ms", op_p50(true)),
        ("op.freq_p50_ms", op_p50(false)),
        (
            "transport.overhead_ms",
            mean(&open.iter().map(|d| d.from_sent_ms).collect::<Vec<_>>()) - queue_ms - exec_ms,
        ),
        ("store.pack_ms", median(&pack_ms)),
        (
            "store.bytes_per_input_byte",
            ratio(disk_bytes as f64, store.input_bytes as f64),
        ),
        ("store.open_ms", median(&open_ms)),
        ("store.retries", retries),
        ("index.freq_first_ms", mean(&freq_first)),
        ("index.freq_warm_ms", median(&freq_warm)),
        (
            "server.resident_mb",
            s2.global.get("resident_bytes").copied().unwrap_or(0.0) / (1024.0 * 1024.0),
        ),
        ("server.evictions", delta(s0, s2, "evictions")),
        ("gen.late_p99_ms", percentile(&c.late_ms, 0.99)),
        (
            "gen.late_max_ms",
            c.late_ms.iter().copied().fold(0.0, f64::max),
        ),
    ]
    .into_iter()
    .collect();
    metrics.extend(SERVER_METRICS.iter().map(|&(name, unit)| Metric {
        name,
        unit,
        value: values[name],
    }));
    Ok((metrics, ok))
}
