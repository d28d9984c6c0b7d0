//! The service's I/O core: N readiness-driven event loops multiplexing
//! many connections over a shared handler pool.
//!
//! ```text
//! scrapes ──►┌ loop 0 (owns the listeners) ── poll ── conns…, scrapes…
//! clients ──►│ loop 1 ── poll ── conns…              │ parsed envelopes
//!            └ loop … ── inline answers here         ▼ (everything else)
//!                 ▲ completions (self-wake pipe)   shared job queue
//!                 └─────────────────────────── M handler workers
//! ```
//!
//! Each loop owns its connections outright: it reads newline-delimited
//! requests as readiness allows — many per wakeup, so clients may
//! pipeline — and parses each line once. A line is answered on the loop
//! itself when nothing else is in flight on its connection and either
//! - the connection is the loop's only client connection, the server is
//!   no cluster member, and no further complete line is buffered behind
//!   it: any request, through [`handler::serve_envelope`]. A closed-loop
//!   client waits for that answer anyway, no forward can block the loop
//!   on a peer, and a pump runs at most one such request; or
//! - the line is a top-level `enumerate` whose answer is already cached
//!   ([`handler::serve_hit`]).
//!
//! Every other request — misses, batches, verdicts, witnesses,
//! refutations, certificates, metrics, shutdown and cluster forwards,
//! on a loop with several connections, on any cluster member, or in a
//! pipelined burst — goes to the worker pool as a parsed envelope, so a
//! slow one never blocks a loop that serves other clients and a burst's
//! requests still run on all the workers. Both paths write the response
//! line straight into a byte buffer ([`crate::answer`]): the loop into
//! the connection's write buffer, a worker into the bytes its completion
//! carries back. Finished responses are flushed back, possibly out of
//! request order (clients match responses to requests by the echoed
//! `id`); the in-flight rule keeps an inline answer from overtaking a
//! queued one. Backpressure is per connection: once `max_pipeline`
//! requests are in flight, or more than `WRITE_HIGH_WATER` (1 MiB) of
//! answers wait unsent, the loop takes no further lines and stops
//! reading that socket until answers drain, letting TCP push back on
//! the client. The accept path lives on loop 0 and hands new
//! connections round-robin to the loops over their wake pipes; past
//! `max_connections` a connection is answered with the structured
//! `overloaded` error and closed.
//!
//! Loop 0 also owns the `--prom-addr` listener. A scrape connection is
//! an ordinary connection marked as a scrape: its request head is read
//! like any input and answered on loop 0 with the Prometheus exposition,
//! then the connection closes once the answer is flushed. At most
//! `MAX_SCRAPES` are open at once, each closed `SCRAPE_TIMEOUT` after it
//! was accepted; they count neither toward `max_connections`, so an
//! overloaded server can still be scraped, nor in the loop's connection
//! gauge.
//!
//! Shutdown (a wire `shutdown` request or [`ServerHandle::shutdown`])
//! stops accepting and reading, lets in-flight work finish within
//! `drain_deadline`, flushes every pending response, then persists the
//! cache.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use samm_core::cache::EnumCache;
use samm_core::telemetry::trace::SpanSink;
use samm_core::telemetry::JsonlLog;

use crate::cluster::{Cluster, ClusterConfig};
use crate::handler::{self, ServerState};
use crate::protocol::{parse_envelope_bytes, Envelope, ErrorKind, Request, ServiceError};
use crate::sys::{Event, Interest, Poller};
use crate::telemetry::{LoopGauges, Telemetry};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS choose.
    pub addr: String,
    /// Handler threads executing parsed requests.
    pub workers: usize,
    /// Event-loop threads. Loop 0 also owns the listener.
    pub event_loops: usize,
    /// Open connections across all loops before new ones are rejected
    /// with the structured `overloaded` error. Defaults to the soft
    /// open-files limit less a reserve of 32 descriptors, or 10,000
    /// where the limit cannot be read.
    pub max_connections: usize,
    /// In-flight requests per connection before the loop stops reading
    /// that socket (pipelining backpressure).
    pub max_pipeline: usize,
    /// Idle-connection timeout; a connection with nothing in flight is
    /// closed when it elapses.
    pub read_timeout: Duration,
    /// How long a graceful drain waits for in-flight work and pending
    /// writes before forcing connections closed.
    pub drain_deadline: Duration,
    /// Cluster topology, when serving as a ring member.
    pub cluster: Option<ClusterConfig>,
    /// Default per-request fork budget (requests may override).
    pub budget: Option<u64>,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Cache capacity per shard.
    pub cache_capacity: usize,
    /// When set, the cache is loaded from this file on start and saved
    /// back on drain.
    pub persist_path: Option<PathBuf>,
    /// When set, bind a plain-HTTP listener on this address serving the
    /// Prometheus exposition (`GET /metrics`).
    pub prom_addr: Option<String>,
    /// Only spans at or over this duration are written to the trace log
    /// (`--slow-ms`); zero writes every span. Written request spans
    /// count as slow queries.
    pub slow_threshold: Duration,
    /// When set, append one JSONL span record per finished trace span
    /// to this file (distributed tracing export and slow-request log;
    /// see docs/OBSERVABILITY.md).
    pub trace_log: Option<PathBuf>,
    /// Rotate the trace log after roughly this many bytes.
    pub trace_log_max_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            event_loops: 1,
            max_connections: default_max_connections(),
            max_pipeline: 64,
            read_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            cluster: None,
            budget: None,
            cache_shards: 16,
            cache_capacity: 256,
            persist_path: None,
            prom_addr: None,
            slow_threshold: Duration::ZERO,
            trace_log: None,
            trace_log_max_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Descriptors kept back from the soft `RLIMIT_NOFILE` when the default
/// connection cap is derived from it: standard streams, the listeners,
/// wake pipes, the scrape connections (at most `MAX_SCRAPES`), the trace
/// log, the persist file and peer pools, and the descriptor an
/// over-capacity connection holds while it is told `overloaded`.
const FD_RESERVE: usize = 32;
/// The default connection cap where the descriptor limit is unknown.
const FALLBACK_MAX_CONNECTIONS: usize = 10_000;

/// The default connection cap: the soft open-files limit less
/// `FD_RESERVE`, so a connection past the cap still finds a descriptor
/// to be accepted with and is answered `overloaded` instead of waiting
/// unanswered in the kernel's backlog. The limit is read from
/// `/proc/self/limits`; where that file is absent or the limit is
/// unlimited the cap is 10,000.
fn default_max_connections() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| soft_open_files(&limits))
        .map_or(FALLBACK_MAX_CONNECTIONS, |soft| {
            soft.saturating_sub(FD_RESERVE).max(1)
        })
}

/// The soft limit on the `Max open files` row of a `/proc/<pid>/limits`
/// table, or `None` when the row is missing or says `unlimited`.
fn soft_open_files(limits: &str) -> Option<usize> {
    limits
        .lines()
        .find_map(|line| line.strip_prefix("Max open files"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Poller token of the per-loop wake pipe.
const WAKE_TOKEN: u64 = 0;
/// Poller token of the service listener (loop 0 only).
const LISTEN_TOKEN: u64 = 1;
/// Poller token of the Prometheus scrape listener (loop 0 only).
const PROM_TOKEN: u64 = 2;
/// First connection token.
const FIRST_CONN_TOKEN: u64 = 3;
/// Poll tick: idle scans and drain checks run at least this often.
const TICK: Duration = Duration::from_millis(500);
/// Hard cap on one request line (batch envelopes included); a longer
/// unterminated line closes the connection as a framing violation.
const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;
/// Pending output per connection past which the loop takes no further
/// lines and stops reading the socket until a flush brings it back
/// down: a client that pipelines without reading its answers is pushed
/// back by TCP instead of growing the server's buffers.
const WRITE_HIGH_WATER: usize = 1024 * 1024;

/// One parsed request line travelling to the worker pool: its envelope,
/// or the error that answers it.
struct Job {
    loop_id: usize,
    conn_token: u64,
    parsed: Result<Envelope, ServiceError>,
}

/// One finished response travelling back to its loop.
struct Completion {
    conn_token: u64,
    /// The response line, newline included.
    response: Vec<u8>,
    /// The request was `shutdown`: flush this response, then drain.
    begin_drain: bool,
}

/// The cross-thread face of one event loop.
struct LoopShared {
    completions: Mutex<Vec<Completion>>,
    /// New connections handed over by the accept path.
    inbox: Mutex<Vec<TcpStream>>,
    /// Write end of the loop's self-wake pipe.
    wake: Mutex<UnixStream>,
    gauges: Arc<LoopGauges>,
}

impl LoopShared {
    /// Nudges the loop out of its poller wait. A full pipe is fine —
    /// the loop is already due to wake.
    fn wake(&self) {
        let mut wake = self.wake.lock().expect("wake pipe poisoned");
        let _ = wake.write(&[1u8]);
    }
}

/// State shared by every loop, worker, and the handle.
struct EventShared {
    state: ServerState,
    loops: Vec<LoopShared>,
    jobs: Mutex<VecDeque<Job>>,
    jobs_available: Condvar,
    draining: AtomicBool,
    loops_alive: AtomicUsize,
    conn_count: AtomicUsize,
    max_connections: usize,
    max_pipeline: usize,
    read_timeout: Duration,
    drain_deadline: Duration,
    retry_after_ms: u64,
}

impl EventShared {
    /// Raises the drain flag and wakes every loop and worker.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for loop_shared in &self.loops {
            loop_shared.wake();
        }
        // The lock round-trip orders the flag store against workers
        // about to sleep on the condvar.
        drop(self.jobs.lock().expect("jobs poisoned"));
        self.jobs_available.notify_all();
    }
}

/// A running server; dropping the handle does NOT stop it — call
/// [`ServerHandle::shutdown`], or send a wire `shutdown` request and
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    prom_addr: Option<SocketAddr>,
    shared: Arc<EventShared>,
    loops: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    persist_path: Option<PathBuf>,
    persisted: Option<(usize, usize)>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("loops", &self.loops.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ServerHandle {
    /// The bound serving address (with the OS-chosen port when the
    /// config asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus HTTP address, when `prom_addr` was
    /// configured.
    pub fn prom_addr(&self) -> Option<SocketAddr> {
        self.prom_addr
    }

    /// Lines of the persisted cache file loaded and refused at start,
    /// when a persistence file existed.
    pub fn persisted_lines(&self) -> Option<(usize, usize)> {
        self.persisted
    }

    /// Initiates a graceful drain and waits for every thread to exit,
    /// persisting the cache when configured.
    ///
    /// # Errors
    ///
    /// Propagates cache persistence failures; thread panics surface as
    /// [`std::io::ErrorKind::Other`].
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.shared.begin_drain();
        self.join_inner()
    }

    /// Waits for the server to drain after a wire `shutdown` request,
    /// then persists the cache when configured.
    ///
    /// # Errors
    ///
    /// As for [`ServerHandle::shutdown`].
    pub fn join(mut self) -> std::io::Result<()> {
        self.join_inner()
    }

    fn join_inner(&mut self) -> std::io::Result<()> {
        for handle in self.loops.drain(..) {
            handle
                .join()
                .map_err(|_| std::io::Error::other("event loop panicked"))?;
        }
        for handle in self.workers.drain(..) {
            handle
                .join()
                .map_err(|_| std::io::Error::other("worker thread panicked"))?;
        }
        if let Some(path) = &self.persist_path {
            self.shared.state.cache.save_to(path)?;
        }
        Ok(())
    }
}

/// Binds the listeners (the Prometheus one when configured) and spawns
/// the event loops and the worker pool.
///
/// # Errors
///
/// Propagates bind and wake-pipe failures. A configured
/// persistence file that does not exist yet is not an error (first
/// run).
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let cache = EnumCache::with_shards(config.cache_shards.max(1), config.cache_capacity.max(1));
    let persisted = match &config.persist_path {
        Some(path) if path.exists() => Some(cache.load_from(path)?),
        _ => None,
    };
    let log = config
        .trace_log
        .as_ref()
        .map(|path| JsonlLog::open(path, config.trace_log_max_bytes))
        .transpose()?;
    let spans = log.map(|log| Arc::new(log) as Arc<dyn SpanSink>);
    let telemetry = Telemetry::new(spans, config.slow_threshold);
    let mut state = ServerState::with_telemetry(cache, config.budget, telemetry);
    if let Some((loaded, refused)) = persisted {
        for (counter, lines) in state.telemetry.persist_lines.iter().zip([loaded, refused]) {
            counter.store(lines as u64, Ordering::Relaxed);
        }
    }
    if let Some(cluster_config) = config.cluster.clone() {
        state.set_cluster(Arc::new(Cluster::new(cluster_config)));
    }

    let mut listeners = vec![(LISTEN_TOKEN, listener)];
    let mut prom_addr = None;
    if let Some(addr) = &config.prom_addr {
        let prom_listener = TcpListener::bind(addr)?;
        prom_listener.set_nonblocking(true)?;
        prom_addr = Some(prom_listener.local_addr()?);
        listeners.push((PROM_TOKEN, prom_listener));
    }

    // Build each loop's poller and wake pipe up front so a failure
    // aborts before any thread spawns.
    let loop_count = config.event_loops.max(1);
    let mut pollers = Vec::with_capacity(loop_count);
    let mut wake_readers = Vec::with_capacity(loop_count);
    let mut loop_shareds = Vec::with_capacity(loop_count);
    for _ in 0..loop_count {
        let mut poller = Poller::new();
        let (wake_write, wake_read) = UnixStream::pair()?;
        wake_read.set_nonblocking(true)?;
        wake_write.set_nonblocking(true)?;
        poller.register(wake_read.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;
        loop_shareds.push(LoopShared {
            completions: Mutex::new(Vec::new()),
            inbox: Mutex::new(Vec::new()),
            wake: Mutex::new(wake_write),
            gauges: state.telemetry.register_loop(),
        });
        pollers.push(poller);
        wake_readers.push(wake_read);
    }

    let shared = Arc::new(EventShared {
        state,
        loops: loop_shareds,
        jobs: Mutex::new(VecDeque::new()),
        jobs_available: Condvar::new(),
        draining: AtomicBool::new(false),
        loops_alive: AtomicUsize::new(loop_count),
        conn_count: AtomicUsize::new(0),
        max_connections: config.max_connections.max(1),
        max_pipeline: config.max_pipeline.max(1),
        read_timeout: config.read_timeout,
        drain_deadline: config.drain_deadline,
        retry_after_ms: 50,
    });

    let workers = (0..config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("samm-serve-handler-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    let loops = pollers
        .into_iter()
        .zip(wake_readers)
        .enumerate()
        .map(|(loop_id, (poller, wake_read))| {
            let shared = Arc::clone(&shared);
            // Loop 0, the first, takes the listeners.
            let listeners = std::mem::take(&mut listeners);
            std::thread::Builder::new()
                .name(format!("samm-serve-loop-{loop_id}"))
                .spawn(move || EventLoop::new(loop_id, shared, poller, wake_read, listeners).run())
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    Ok(ServerHandle {
        addr,
        prom_addr,
        shared,
        loops,
        workers,
        persist_path: config.persist_path,
        persisted,
    })
}

/// Whether an `accept` failure concerns only the connection it tried to
/// take, so the next `accept` may succeed at once.
fn transient_accept_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        IoErrorKind::Interrupted | IoErrorKind::ConnectionAborted
    )
}

/// Scrape connections served at once; one accepted past the cap is
/// closed unanswered.
const MAX_SCRAPES: usize = 8;
/// Time a scrape connection has to send its request head and take its
/// answer before it is closed.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);
/// Longest request head read; a longer one is answered as it stands.
const MAX_SCRAPE_HEAD: usize = 8 * 1024;

/// Whether an HTTP request head has reached its blank line.
fn head_complete(head: &[u8]) -> bool {
    head.windows(2).any(|w| w == b"\n\n") || head.windows(3).any(|w| w == b"\n\r\n")
}

/// The HTTP/1.0 response to a request head: the exposition for
/// `GET /metrics` and `GET /`, 404 for anything else.
fn prom_response(state: &ServerState, head: &[u8]) -> Vec<u8> {
    let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method == "GET" && (path == "/metrics" || path == "/") {
        ("200 OK", state.render_prom())
    } else {
        ("404 Not Found", "not found\n".to_owned())
    };
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Answers an over-capacity connection with a structured `overloaded`
/// error (including the retry hint) and closes it.
fn reject_overloaded(mut stream: TcpStream, retry_after_ms: u64) {
    let mut err = ServiceError::new(
        ErrorKind::Overloaded,
        "connection limit reached; retry after the hinted delay",
    );
    err.retry_after_ms = Some(retry_after_ms);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = writeln!(stream, "{}", err.to_response());
}

/// One open connection owned by a loop.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Lines dispatched to the worker pool and not yet answered.
    inflight: usize,
    last_activity: Instant,
    /// Read side finished (EOF, fatal read or a scrape answered): flush,
    /// then close.
    closing: bool,
    interest: Interest,
    /// Set on a Prometheus scrape connection: when it is closed,
    /// answered or not.
    scrape_deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, scrape_deadline: Option<Instant>) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: 0,
            last_activity: Instant::now(),
            closing: false,
            interest: Interest::READ,
            scrape_deadline,
        }
    }

    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn has_pending_write(&self) -> bool {
        self.pending_write() > 0
    }

    /// Whether pending output is under the high-water mark, so the
    /// connection may take more lines.
    fn below_high_water(&self) -> bool {
        self.pending_write() <= WRITE_HIGH_WATER
    }

    fn is_quiescent(&self) -> bool {
        self.inflight == 0 && !self.has_pending_write()
    }

    /// Reads until `WouldBlock` or EOF. Returns `true` when the
    /// connection is dead (reset, or an oversized unterminated line).
    fn fill_read_buf(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF: no more requests; flush what remains.
                    self.closing = true;
                    return false;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    if self.read_buf.len() > MAX_LINE_BYTES && !self.read_buf.contains(&b'\n') {
                        return true;
                    }
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }

    /// Answers a scrape connection once its request head is complete:
    /// at its blank line, at `MAX_SCRAPE_HEAD` bytes or at the client's
    /// EOF. The answer marks the connection closing, so it reads no
    /// more and closes once the answer is flushed.
    fn answer_scrape(&mut self, state: &ServerState) -> std::io::Result<()> {
        let complete =
            self.closing || self.read_buf.len() >= MAX_SCRAPE_HEAD || head_complete(&self.read_buf);
        if !complete {
            return Ok(());
        }
        self.write_buf = prom_response(state, &self.read_buf);
        self.read_buf.clear();
        self.closing = true;
        self.flush_writes()
    }

    fn flush_writes(&mut self) -> std::io::Result<()> {
        while self.has_pending_write() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(std::io::Error::from(IoErrorKind::WriteZero)),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                Err(e) if e.kind() == IoErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if !self.has_pending_write() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        Ok(())
    }
}

struct EventLoop {
    id: usize,
    shared: Arc<EventShared>,
    poller: Poller,
    wake_read: UnixStream,
    /// Loop 0's listeners under their poller tokens: the service
    /// listener and, when configured, the scrape listener.
    listeners: Vec<(u64, TcpListener)>,
    conns: HashMap<u64, Conn>,
    /// Open scrape connections.
    scrapes: usize,
    next_token: u64,
    next_loop: usize,
    drain_started: Option<Instant>,
    last_idle_scan: Instant,
    /// The listeners' read interest is off after a persistent accept
    /// error; the idle scan turns it back on.
    accept_paused: bool,
}

impl EventLoop {
    fn new(
        id: usize,
        shared: Arc<EventShared>,
        poller: Poller,
        wake_read: UnixStream,
        listeners: Vec<(u64, TcpListener)>,
    ) -> EventLoop {
        EventLoop {
            id,
            shared,
            poller,
            wake_read,
            listeners,
            conns: HashMap::new(),
            scrapes: 0,
            next_token: FIRST_CONN_TOKEN,
            next_loop: 0,
            drain_started: None,
            last_idle_scan: Instant::now(),
            accept_paused: false,
        }
    }

    fn gauges(&self) -> &Arc<LoopGauges> {
        &self.shared.loops[self.id].gauges
    }

    fn run(mut self) {
        for (token, listener) in &self.listeners {
            if self
                .poller
                .register(listener.as_raw_fd(), *token, Interest::READ)
                .is_err()
            {
                // Without an accept path the server is useless; drain.
                self.shared.begin_drain();
            }
        }
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.poller.wait(&mut events, Some(TICK)).is_err() {
                // Poller failure is unrecoverable for this loop.
                self.shared.begin_drain();
            }
            for &event in &events {
                match event.token {
                    WAKE_TOKEN => self.drain_wake_pipe(),
                    LISTEN_TOKEN | PROM_TOKEN => self.accept_ready(event.token),
                    token => self.conn_ready(token, event),
                }
            }
            self.apply_completions();
            self.adopt_inbox();
            self.scan_idle();
            if self.shared.draining.load(Ordering::SeqCst) && self.drain() {
                break;
            }
        }
        // The last loop out wakes the workers so they can observe an
        // empty queue with no remaining producers and exit. The lock
        // round-trip orders the count against a worker between its
        // check and its wait; without it the wake-up can be lost and
        // the worker, and the join, block forever.
        if self.shared.loops_alive.fetch_sub(1, Ordering::SeqCst) == 1 {
            drop(self.shared.jobs.lock().expect("jobs poisoned"));
            self.shared.jobs_available.notify_all();
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.wake_read.read(&mut buf), Ok(n) if n > 0) {}
    }

    /// The accept path of the listener under `token`: loop 0 pulls
    /// connections until `WouldBlock`. Service connections are spread
    /// round-robin so every loop's share stays balanced; scrape
    /// connections stay on loop 0. A persistent error (out of
    /// descriptors: `EMFILE`, `ENFILE`) pauses accepting until the next
    /// idle scan, so the pending connection does not wake the loop
    /// again at once.
    fn accept_ready(&mut self, token: u64) {
        loop {
            let Some((_, listener)) = self.listeners.iter().find(|(t, _)| *t == token) else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == IoErrorKind::WouldBlock => return,
                Err(e) if transient_accept_error(&e) => continue,
                Err(_) => {
                    self.set_accepting(false);
                    return;
                }
            };
            if self.shared.draining.load(Ordering::SeqCst) {
                // A late connection during drain: drop it.
                continue;
            }
            if token == PROM_TOKEN {
                // Past the scrape cap the connection is dropped
                // unanswered.
                if self.scrapes < MAX_SCRAPES {
                    self.adopt(stream, Some(Instant::now() + SCRAPE_TIMEOUT));
                }
                continue;
            }
            if self.shared.conn_count.load(Ordering::SeqCst) >= self.shared.max_connections {
                self.shared
                    .state
                    .telemetry
                    .overloaded
                    .fetch_add(1, Ordering::Relaxed);
                reject_overloaded(stream, self.shared.retry_after_ms);
                continue;
            }
            self.shared.conn_count.fetch_add(1, Ordering::SeqCst);
            let target = self.next_loop % self.shared.loops.len();
            self.next_loop = self.next_loop.wrapping_add(1);
            if target == self.id {
                self.adopt(stream, None);
            } else {
                self.shared.loops[target]
                    .inbox
                    .lock()
                    .expect("inbox poisoned")
                    .push(stream);
                self.shared.loops[target].wake();
            }
        }
    }

    /// Turns the listeners' read interest on or off.
    fn set_accepting(&mut self, on: bool) {
        let interest = if on { Interest::READ } else { Interest::NONE };
        for (token, listener) in &self.listeners {
            if self
                .poller
                .modify(listener.as_raw_fd(), *token, interest)
                .is_err()
            {
                // Without an accept path the server is useless; drain.
                self.shared.begin_drain();
            }
        }
        self.accept_paused = !on;
    }

    /// Takes ownership of connections the accept path handed over.
    fn adopt_inbox(&mut self) {
        let pending: Vec<TcpStream> = {
            let mut inbox = self.shared.loops[self.id]
                .inbox
                .lock()
                .expect("inbox poisoned");
            inbox.drain(..).collect()
        };
        for stream in pending {
            self.adopt(stream, None);
        }
    }

    /// Registers an accepted connection: a service connection (already
    /// counted in `conn_count` by the accept path) or, with a deadline,
    /// a scrape connection.
    fn adopt(&mut self, stream: TcpStream, scrape_deadline: Option<Instant>) {
        let token = self.next_token;
        // One-line responses must leave immediately; Nagle + delayed
        // ACK otherwise adds ~40 ms per round trip on loopback.
        let usable = stream.set_nonblocking(true).is_ok()
            && stream.set_nodelay(true).is_ok()
            && self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_ok();
        if !usable {
            if scrape_deadline.is_none() {
                self.shared.conn_count.fetch_sub(1, Ordering::SeqCst);
            }
            return;
        }
        self.next_token += 1;
        if scrape_deadline.is_some() {
            self.scrapes += 1;
        } else {
            self.gauges().connections.fetch_add(1, Ordering::Relaxed);
        }
        self.conns.insert(token, Conn::new(stream, scrape_deadline));
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(conn.stream.as_raw_fd());
            if conn.scrape_deadline.is_some() {
                self.scrapes -= 1;
            } else {
                self.shared.conn_count.fetch_sub(1, Ordering::SeqCst);
                self.gauges().connections.fetch_sub(1, Ordering::Relaxed);
            }
            // Jobs still in flight for this connection complete anyway;
            // their completions are dropped in finish_completion.
        }
    }

    fn conn_ready(&mut self, token: u64, event: Event) {
        let dead = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.last_activity = Instant::now();
            let mut dead = false;
            if event.readable && !conn.closing {
                dead = conn.fill_read_buf();
                if !dead && conn.scrape_deadline.is_some() {
                    dead = conn.answer_scrape(&self.shared.state).is_err();
                }
            }
            if event.writable {
                dead = dead || conn.flush_writes().is_err();
            }
            // A pure hangup (no data left) means the peer is gone.
            dead || (event.hangup && !event.readable)
        };
        if dead {
            self.close_conn(token);
            return;
        }
        self.pump_conn(token);
    }

    /// Extracts complete lines as pipeline capacity allows, parses each
    /// once, answers inline what the loop may answer and dispatches the
    /// rest to the worker pool, then refreshes poller interest. Also the
    /// point where a flushed-out, EOF'd connection is finally closed.
    fn pump_conn(&mut self, token: u64) {
        let shared = &*self.shared;
        let draining = shared.draining.load(Ordering::SeqCst);
        // Outside a cluster no forward can block the loop on a peer, and
        // on the loop's only client connection an inline run delays no
        // other client's lines.
        let sole = shared.state.cluster.is_none()
            && self.gauges().connections.load(Ordering::Relaxed) == 1;
        let mut jobs = Vec::new();
        let mut answered = 0u64;
        let mut shutdown = false;
        let (closed, dead) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut consumed = 0;
            let mut dead = false;
            // A scrape's request head is no request line.
            while !draining && conn.scrape_deadline.is_none() && conn.inflight < shared.max_pipeline
            {
                if !conn.below_high_water() {
                    dead = conn.flush_writes().is_err();
                    if dead || !conn.below_high_water() {
                        break;
                    }
                }
                let Some(newline) = conn.read_buf[consumed..].iter().position(|&b| b == b'\n')
                else {
                    break;
                };
                let line = conn.read_buf[consumed..consumed + newline].trim_ascii();
                consumed += newline + 1;
                if line.is_empty() {
                    continue;
                }
                let parsed = parse_envelope_bytes(line);
                // With nothing in flight, every earlier answer is already
                // in the write buffer, so an inline answer keeps request
                // order.
                if conn.inflight == 0 {
                    // A closed-loop client's line is the last one read and
                    // waits for its answer anyway; a pipelined burst keeps
                    // the workers, so a pump runs at most one such line.
                    if sole && !conn.read_buf[consumed..].contains(&b'\n') {
                        answered += 1;
                        // Drain once a shutdown's answer is buffered.
                        shutdown = execute(&shared.state, &parsed, &mut conn.write_buf);
                        break;
                    }
                    if let Ok(envelope) = &parsed {
                        if handler::serve_hit(&shared.state, envelope, &mut conn.write_buf) {
                            answered += 1;
                            continue;
                        }
                    }
                }
                conn.inflight += 1;
                jobs.push(Job {
                    loop_id: self.id,
                    conn_token: token,
                    parsed,
                });
            }
            conn.read_buf.drain(..consumed);
            let dead = dead || (answered > 0 && conn.flush_writes().is_err());
            (conn.closing && conn.is_quiescent(), dead)
        };
        if answered > 0 {
            self.gauges()
                .answered
                .fetch_add(answered, Ordering::Relaxed);
        }
        if shutdown {
            shared.begin_drain();
        }
        if !jobs.is_empty() {
            self.gauges()
                .inflight
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            let mut queue = shared.jobs.lock().expect("jobs poisoned");
            queue.extend(jobs);
            let depth = queue.len() as u64;
            drop(queue);
            shared
                .state
                .telemetry
                .queue_depth
                .store(depth, Ordering::Relaxed);
            shared.jobs_available.notify_all();
        }
        if dead || closed {
            self.close_conn(token);
            return;
        }
        self.refresh_interest(token);
    }

    fn refresh_interest(&mut self, token: u64) {
        let max_pipeline = self.shared.max_pipeline;
        let draining = self.shared.draining.load(Ordering::SeqCst);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let wanted = Interest {
            read: !conn.closing
                && !draining
                && conn.inflight < max_pipeline
                && conn.below_high_water(),
            write: conn.has_pending_write(),
        };
        if wanted != conn.interest {
            conn.interest = wanted;
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, token, wanted).is_err() {
                self.close_conn(token);
            }
        }
    }

    /// Applies finished responses: append to the write buffer, flush
    /// opportunistically, update interest, honour shutdown.
    fn apply_completions(&mut self) {
        let completions: Vec<Completion> = {
            let mut pending = self.shared.loops[self.id]
                .completions
                .lock()
                .expect("completions poisoned");
            pending.drain(..).collect()
        };
        for completion in completions {
            self.gauges().inflight.fetch_sub(1, Ordering::Relaxed);
            self.finish_completion(&completion);
            if completion.begin_drain {
                // The shutdown response is buffered (drain flushes it);
                // now stop the world.
                self.shared.begin_drain();
            }
        }
    }

    fn finish_completion(&mut self, completion: &Completion) {
        let token = completion.conn_token;
        let flush_failed = {
            let Some(conn) = self.conns.get_mut(&token) else {
                // The connection died while the request was in flight.
                return;
            };
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.write_buf.extend_from_slice(&completion.response);
            conn.flush_writes().is_err()
        };
        if flush_failed {
            self.close_conn(token);
            return;
        }
        // A freed pipeline slot may unblock buffered lines; EOF'd
        // connections close here once quiescent.
        self.pump_conn(token);
    }

    /// Closes connections idle past the read timeout (with nothing in
    /// flight) and scrape connections past their deadline, and resumes a
    /// paused accept path, at most once per tick.
    fn scan_idle(&mut self) {
        if self.last_idle_scan.elapsed() < TICK {
            return;
        }
        self.last_idle_scan = Instant::now();
        if self.accept_paused {
            self.set_accepting(true);
        }
        let timeout = self.shared.read_timeout;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| match conn.scrape_deadline {
                Some(deadline) => Instant::now() >= deadline,
                None => conn.inflight == 0 && conn.last_activity.elapsed() >= timeout,
            })
            .map(|(&token, _)| token)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    /// One drain step. Returns `true` when this loop may exit: every
    /// connection quiescent and flushed, or the deadline passed.
    fn drain(&mut self) -> bool {
        for (_, listener) in self.listeners.drain(..) {
            self.poller.deregister(listener.as_raw_fd());
        }
        let started = *self.drain_started.get_or_insert_with(Instant::now);
        // Stop reading everywhere; keep write interest for flushes.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.refresh_interest(token);
        }
        let expired = started.elapsed() >= self.shared.drain_deadline;
        if expired || self.conns.values().all(Conn::is_quiescent) {
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.close_conn(token);
            }
            return true;
        }
        false
    }
}

/// A worker: pops lines, executes them against the shared state, and
/// pushes completions back to the owning loop.
fn worker_loop(shared: &Arc<EventShared>) {
    loop {
        let job = {
            let mut queue = shared.jobs.lock().expect("jobs poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    shared
                        .state
                        .telemetry
                        .queue_depth
                        .store(queue.len() as u64, Ordering::Relaxed);
                    break Some(job);
                }
                // The loops are the producers: exit only when none
                // remain (drain finished) and the queue is empty.
                if shared.loops_alive.load(Ordering::SeqCst) == 0 {
                    break None;
                }
                queue = shared.jobs_available.wait(queue).expect("jobs poisoned");
            }
        };
        let Some(job) = job else { return };
        let mut response = Vec::new();
        let begin_drain = execute(&shared.state, &job.parsed, &mut response);
        shared.loops[job.loop_id]
            .completions
            .lock()
            .expect("completions poisoned")
            .push(Completion {
                conn_token: job.conn_token,
                response,
                begin_drain,
            });
        shared.loops[job.loop_id].wake();
    }
}

/// Executes one parsed request line, appending its response line,
/// newline included, to `out`; returns whether the server should drain
/// (the line was a `shutdown` request).
fn execute(
    state: &ServerState,
    parsed: &Result<Envelope, ServiceError>,
    out: &mut Vec<u8>,
) -> bool {
    match parsed {
        Ok(envelope) => {
            handler::serve_envelope(state, envelope, out);
            envelope.request == Request::Shutdown
        }
        Err(err) => {
            // Count the attempt too: `requests` tracks lines seen.
            state.telemetry.requests.fetch_add(1, Ordering::Relaxed);
            handler::error_response(state, err).write_bytes(out);
            out.push(b'\n');
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_soft_open_files_limit_is_read_from_the_limits_table() {
        let limits = "Limit                     Soft Limit           Hard Limit           Units     \n\
                      Max processes             63704                63704                processes \n\
                      Max open files            1024                 524288               files     \n";
        assert_eq!(soft_open_files(limits), Some(1024));
        let unlimited =
            "Max open files            unlimited            unlimited            files\n";
        assert_eq!(soft_open_files(unlimited), None);
        assert_eq!(soft_open_files("Max processes 5 5 processes\n"), None);
    }

    #[test]
    fn a_request_head_ends_at_its_blank_line() {
        assert!(head_complete(b"GET /metrics HTTP/1.0\r\n\r\n"));
        assert!(head_complete(b"GET / HTTP/1.0\nHost: x\n\n"));
        assert!(!head_complete(b"GET /metrics HTTP/1.0\r\nHost: x\r\n"));
    }
}
