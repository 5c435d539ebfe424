//! Event-driven TCP transport: one readiness loop for every connection.
//!
//! The first TCP front end spawned a thread per connection, which caps
//! concurrent clients at the thread budget and spends a stack on every
//! idle connection. This module replaces it with the classic single-loop
//! design:
//!
//! * the listener and every connection socket are **non-blocking**;
//! * one loop `poll(2)`s the whole fd set (hand-declared FFI on Linux —
//!   no external crates; elsewhere a sleep-scan fallback polls the same
//!   non-blocking sockets on a timer);
//! * readable sockets are drained into a per-connection buffer and split
//!   into protocol lines, which are dispatched inline — control ops
//!   (`ping`, `cancel`, `shutdown`) answer immediately from this thread,
//!   exactly as they did from per-connection reader threads, so a busy
//!   server stays probeable;
//! * responses go through a per-connection [`ConnOut`]: workers write
//!   directly to the socket when it is writable and spill the remainder
//!   into the connection's own buffer otherwise, which the loop flushes
//!   on `POLLOUT`. Connections never share a write lock, so one slow
//!   client delays nobody else.
//!
//! # Backpressure policy
//!
//! A worker must never block on a client's socket (that would turn a slow
//! reader into a stalled mining pool), and the server must not buffer
//! unboundedly (that would turn a slow reader into an OOM). The policy:
//! writes beyond the socket buffer accumulate in the connection's write
//! buffer up to [`TransportConfig::max_write_buf`]; a connection that
//! exceeds it is marked failed and dropped. Slowness costs the slow
//! client its connection, never the server its memory or its workers.
//!
//! # Connection lifecycle
//!
//! ```text
//! accept -> reading <-> dispatch -> (responses buffered per conn)
//!    reading: EOF or oversized line  -> draining (no more reads)
//!    draining: write buffer empty AND no in-flight response pending -> closed
//!    any state: write failure / overflow -> closed (failed)
//! ```
//!
//! "No in-flight response pending" is tracked by `Arc` strong counts on
//! the connection's [`SharedWriter`]: every admitted request's job (see
//! `crate::scheduler`) holds a clone until its response is written, so a
//! count of one means every accepted request has answered and the
//! connection can close without dropping a response.
//!
//! Those clones also hold the connection's socket open. So when the loop
//! drops a failed connection it shuts the socket down: the client sees
//! EOF at once, not when its last admitted request ends.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::{Response, MAX_LINE_BYTES};
use crate::server::{Server, SharedWriter};

/// Tunables for the event loop.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Accepted connections beyond this wait in the listen backlog.
    pub max_connections: usize,
    /// Per-connection write buffer cap (bytes); a connection that falls
    /// further behind than this is dropped (see the backpressure policy).
    pub max_write_buf: usize,
    /// Poll timeout (ms): the latency floor for noticing server
    /// termination; also the scan period of the non-Linux fallback.
    pub poll_timeout_ms: u64,
    /// Reap a connection that has been silent this long (ms) with no
    /// request in flight and nothing left to deliver. `None` lets idle
    /// connections sit forever (the pre-deadline behavior).
    pub idle_timeout_ms: Option<u64>,
    /// Reap a connection that has not completed a single request line this
    /// long (ms) after accept — bounds pre-first-request loitering (and,
    /// under `--auth-token`, unauthenticated camping).
    pub handshake_timeout_ms: Option<u64>,
    /// Drop a connection whose buffered response bytes make no progress to
    /// the socket for this many consecutive poll ticks (a live-but-stalled
    /// reader; distinct from the `max_write_buf` overflow case). At the
    /// default 20 ms poll that is ~10 s of zero progress.
    pub write_stall_ticks: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            max_connections: 1024,
            max_write_buf: 8 * 1024 * 1024,
            poll_timeout_ms: 20,
            idle_timeout_ms: None,
            handshake_timeout_ms: None,
            write_stall_ticks: 500,
        }
    }
}

/// The write half of one connection, shared between the event loop and
/// every worker holding the connection's [`SharedWriter`]. Never blocks.
struct ConnOut {
    stream: TcpStream,
    buf: Mutex<Vec<u8>>,
    failed: AtomicBool,
    max_buf: usize,
    /// Total bytes delivered to the socket — the write-stall detector
    /// watches this for progress while the buffer is non-empty.
    flushed: AtomicU64,
}

impl ConnOut {
    /// Queue `data` for this connection: straight to the socket while it
    /// accepts bytes, the remainder into the buffer. Marks the connection
    /// failed (to be dropped by the loop) on write errors or overflow.
    fn enqueue(&self, data: &[u8]) {
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        let mut buf = lock(&self.buf);
        let mut off = 0;
        if buf.is_empty() {
            // Fast path: the socket usually has room for a whole response.
            off = match write_some(&self.stream, data) {
                Some(n) => n,
                None => {
                    self.failed.store(true, Ordering::Relaxed);
                    return;
                }
            };
            self.flushed.fetch_add(off as u64, Ordering::Relaxed);
        }
        if off < data.len() {
            buf.extend_from_slice(&data[off..]);
            if buf.len() > self.max_buf {
                // Slow consumer: shed the connection, not server memory.
                self.failed.store(true, Ordering::Relaxed);
                buf.clear();
            }
        }
    }

    /// Push buffered bytes to the socket (called on writability).
    fn try_flush(&self) {
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        let mut buf = lock(&self.buf);
        if buf.is_empty() {
            return;
        }
        match write_some(&self.stream, &buf) {
            Some(n) => {
                self.flushed.fetch_add(n as u64, Ordering::Relaxed);
                buf.drain(..n);
            }
            None => {
                self.failed.store(true, Ordering::Relaxed);
                buf.clear();
            }
        }
    }

    fn pending(&self) -> bool {
        !lock(&self.buf).is_empty()
    }
}

/// Write as much of `data` as the non-blocking socket takes right now.
/// `Some(n)` = first n bytes written; `None` = the connection is dead.
fn write_some(mut stream: &TcpStream, data: &[u8]) -> Option<usize> {
    let mut off = 0;
    while off < data.len() {
        match stream.write(&data[off..]) {
            Ok(0) => return None,
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    Some(off)
}

/// The [`SharedWriter`] face of a [`ConnOut`]: workers "write" responses,
/// the transport delivers them. Infallible by design — delivery problems
/// surface as the connection failing, never as worker errors.
struct ConnWriter(Arc<ConnOut>);

impl Write for ConnWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.enqueue(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.try_flush();
        Ok(())
    }
}

struct Conn {
    stream: TcpStream,
    out: Arc<ConnOut>,
    writer: SharedWriter,
    /// Partial-line reassembly buffer.
    rd: Vec<u8>,
    /// No more reads (client EOF or protocol violation); the connection
    /// drains its remaining responses and closes.
    eof: bool,
    /// Accept time (handshake deadline anchor).
    created: Instant,
    /// Last moment bytes arrived from the client (idle deadline anchor).
    last_activity: Instant,
    /// At least one complete request line was dispatched — the handshake
    /// deadline no longer applies.
    seen_request: bool,
    /// Past the auth gate (vacuously true without `--auth-token`).
    authed: bool,
    /// Consecutive poll ticks with buffered output and zero socket
    /// progress (write-stall detector state).
    stall_ticks: u32,
    /// `out.flushed` as of the last stall check.
    last_flushed: u64,
}

impl Conn {
    fn new(stream: TcpStream, max_write_buf: usize, authed: bool) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        let out = Arc::new(ConnOut {
            stream: stream.try_clone()?,
            buf: Mutex::new(Vec::new()),
            failed: AtomicBool::new(false),
            max_buf: max_write_buf,
            flushed: AtomicU64::new(0),
        });
        let writer: SharedWriter = Arc::new(Mutex::new(Box::new(ConnWriter(Arc::clone(&out)))));
        let now = Instant::now();
        Ok(Conn {
            stream,
            out,
            writer,
            rd: Vec::new(),
            eof: false,
            created: now,
            last_activity: now,
            seen_request: false,
            authed,
            stall_ticks: 0,
            last_flushed: 0,
        })
    }

    /// Drain readable bytes; returns `false` when the connection hit EOF
    /// or a fatal read error (reads stop; writes may still drain).
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    self.rd.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Pop the next complete line out of the reassembly buffer.
    fn next_line(&mut self) -> Option<String> {
        let nl = self.rd.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.rd.drain(..=nl).collect();
        line.pop(); // the \n
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Whether every response this connection is owed has been written
    /// and delivered. The loop-owned handle plus the `ConnOut`'s own ref
    /// account for... nothing: `writer` clones are held only by in-flight
    /// work, so strong_count == 1 means no response is outstanding.
    fn drained(&self) -> bool {
        Arc::strong_count(&self.writer) == 1 && !self.out.pending()
    }
}

/// Run the event loop until the server terminates (a `shutdown` request on
/// any connection, or [`Server::shutdown_now`] from another thread).
/// Call from a dedicated thread; the loop itself is single-threaded.
pub fn serve(listener: TcpListener, server: &Server, cfg: TransportConfig) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        if server.is_terminated() {
            final_flush(&mut conns);
            return Ok(());
        }
        let accept_slot = conns.len() < cfg.max_connections;
        let ready = wait_ready(&listener, &conns, accept_slot, cfg.poll_timeout_ms);
        if ready.accept {
            accept_burst(&listener, &mut conns, server, &cfg);
        }
        let mut shutdown = false;
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.eof || !ready.read.contains(&i) {
                continue;
            }
            if !conn.fill() {
                conn.eof = true;
            }
            while let Some(line) = conn.next_line() {
                conn.seen_request = true;
                if server.dispatch_line_gated(&line, &mut conn.authed, &conn.writer) {
                    shutdown = true;
                    conn.eof = true;
                    break;
                }
            }
            if !conn.eof && conn.rd.len() > MAX_LINE_BYTES {
                // A line longer than the protocol allows, still without a
                // newline: answer structured and stop reading this client
                // rather than buffering without bound.
                let resp = Response::error(
                    "-",
                    "?",
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                conn.out.enqueue(resp.render().as_bytes());
                conn.rd.clear();
                conn.eof = true;
            }
        }
        for conn in &conns {
            if conn.out.pending() {
                conn.out.try_flush();
            }
        }
        reap_deadlined(&mut conns, &cfg);
        conns.retain(|c| {
            if c.out.failed.load(Ordering::Relaxed) {
                // Queued and running requests still hold a clone of this
                // socket (see the module docs): close it for them too.
                let _ = c.stream.shutdown(std::net::Shutdown::Both);
                return false;
            }
            !(c.eof && c.drained())
        });
        if shutdown {
            final_flush(&mut conns);
            return Ok(());
        }
    }
}

fn accept_burst(
    listener: &TcpListener,
    conns: &mut Vec<Conn>,
    server: &Server,
    cfg: &TransportConfig,
) {
    while conns.len() < cfg.max_connections {
        match listener.accept() {
            Ok((stream, _addr)) => {
                if let Ok(conn) = Conn::new(stream, cfg.max_write_buf, !server.requires_auth()) {
                    conns.push(conn);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Enforce the connection lifecycle deadlines once per poll tick: the
/// handshake deadline on connections that never completed a request, the
/// idle deadline on quiescent connections (only when no response is owed
/// — a connection waiting on a long mine is busy, not idle), and the
/// write-stall detector on connections whose buffered bytes make no
/// progress. Deadlined connections are marked failed and dropped by the
/// retain that follows; everyone else is untouched, so active requests on
/// other connections proceed.
fn reap_deadlined(conns: &mut [Conn], cfg: &TransportConfig) {
    for conn in conns.iter_mut() {
        if conn.out.failed.load(Ordering::Relaxed) || conn.eof {
            continue;
        }
        if let Some(ms) = cfg.handshake_timeout_ms {
            if !conn.seen_request && conn.created.elapsed() >= Duration::from_millis(ms) {
                conn.out.failed.store(true, Ordering::Relaxed);
                continue;
            }
        }
        // Delivering response bytes counts as activity: without this, a
        // request whose execution outlives the idle window would expire
        // the idle clock the instant its response drains (the anchor
        // would still be the request line that started it).
        let flushed = conn.out.flushed.load(Ordering::Relaxed);
        let progressed = flushed != conn.last_flushed;
        if progressed {
            conn.last_flushed = flushed;
            conn.stall_ticks = 0;
            conn.last_activity = Instant::now();
        }
        if let Some(ms) = cfg.idle_timeout_ms {
            let quiescent = Arc::strong_count(&conn.writer) == 1 && !conn.out.pending();
            if quiescent && conn.last_activity.elapsed() >= Duration::from_millis(ms) {
                conn.out.failed.store(true, Ordering::Relaxed);
                continue;
            }
        }
        if !conn.out.pending() {
            conn.stall_ticks = 0;
        } else if !progressed {
            conn.stall_ticks += 1;
            if conn.stall_ticks >= cfg.write_stall_ticks {
                conn.out.failed.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Deliver whatever responses are still buffered before closing (bounded:
/// a client that stopped reading cannot wedge shutdown).
fn final_flush(conns: &mut [Conn]) {
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let mut pending = false;
        for conn in conns.iter() {
            if conn.out.failed.load(Ordering::Relaxed) {
                continue;
            }
            conn.out.try_flush();
            pending |= conn.out.pending();
        }
        if !pending || Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Which fds came back ready.
struct Ready {
    accept: bool,
    /// Indices into the connection list with readable data (or EOF/error,
    /// which a read will surface).
    read: std::collections::HashSet<usize>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(target_os = "linux")]
mod sys {
    //! Minimal hand-declared `poll(2)` binding — the repo's no-new-deps
    //! rule rules out libc/mio, and the three types involved are ABI-firm.

    #[repr(C)]
    pub struct Pollfd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        pub fn poll(fds: *mut Pollfd, nfds: u64, timeout: i32) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn wait_ready(listener: &TcpListener, conns: &[Conn], accept_slot: bool, timeout_ms: u64) -> Ready {
    use std::os::fd::AsRawFd;

    let mut fds = Vec::with_capacity(conns.len() + 1);
    // Slot 0 is the listener when we have room for another connection.
    if accept_slot {
        fds.push(sys::Pollfd {
            fd: listener.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
    }
    let base = fds.len();
    for conn in conns {
        let mut events = 0i16;
        if !conn.eof {
            events |= sys::POLLIN;
        }
        if conn.out.pending() {
            events |= sys::POLLOUT;
        }
        fds.push(sys::Pollfd {
            fd: conn.stream.as_raw_fd(),
            events,
            revents: 0,
        });
    }
    let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms as i32) };
    let mut ready = Ready {
        accept: false,
        read: std::collections::HashSet::new(),
    };
    if rc <= 0 {
        // Timeout, or EINTR/transient error — either way, just poll again.
        return ready;
    }
    if accept_slot && fds[0].revents & (sys::POLLIN | sys::POLLERR) != 0 {
        ready.accept = true;
    }
    for (i, pfd) in fds[base..].iter().enumerate() {
        // ERR/HUP count as readable: the read path surfaces the close.
        if pfd.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
            ready.read.insert(i);
        }
        // POLLOUT needs no flag: the loop flushes every pending conn.
    }
    ready
}

#[cfg(not(target_os = "linux"))]
fn wait_ready(
    _listener: &TcpListener,
    conns: &[Conn],
    accept_slot: bool,
    timeout_ms: u64,
) -> Ready {
    // Portable fallback: no readiness signal, so pace with a sleep and
    // optimistically try every socket — all are non-blocking, so a
    // not-ready socket costs one WouldBlock.
    std::thread::sleep(Duration::from_millis(timeout_ms.max(1)));
    Ready {
        accept: accept_slot,
        read: (0..conns.len()).collect(),
    }
}
