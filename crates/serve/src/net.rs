//! The TCP front-end: `lts-served`.
//!
//! Promotes the counting service from a single-client stdin REPL to a
//! multi-client network server speaking the **same** line-in/JSON-out
//! protocol ([`crate::protocol`]) — the REPL golden transcripts remain
//! the single source of truth for what goes over the wire.
//!
//! # Architecture (std-only, thread-per-connection over one dispatcher)
//!
//! ```text
//!        accept loop (blocking; shutdown wakes it by self-connect)
//!                  │ ≤ max_connections, else refusal line + close
//!                  ▼
//!   per-conn reader thread ──lines──► bounded admission channel
//!     (max_line_bytes cap,              (admission_capacity; a full
//!      UTF-8 validation)                 channel blocks the sender —
//!                  ▲                     per-client backpressure)
//!                  │                              │ FIFO
//!   per-conn writer thread ◄─bounded──  dispatcher thread (owns the
//!     (flush, then FIN)     write queue  Service; executes one line
//!                           per conn     at a time; heavy work still
//!                                        fans out over rayon)
//! ```
//!
//! * **Admission** is a bounded channel: readers block (never the
//!   dispatcher) when the service is saturated, so a flooding client
//!   stalls itself, not the fleet.
//! * **Per-client backpressure**: each connection's responses go
//!   through a bounded write queue drained by that connection's writer
//!   thread. A slow reader fills only its own queue; the dispatcher
//!   never blocks on a socket. When a queue overflows
//!   ([`NetConfig::write_queue_capacity`]), the policy is **drop the
//!   connection**: the socket is shut down and the queue closed — the
//!   slow client is disconnected, everyone else is unaffected.
//! * **Determinism under concurrency**: the dispatcher executes
//!   protocol lines sequentially, and every response is a pure
//!   function of (service seed, dataset version, canonical query,
//!   budget, request id) — see [`crate::service`]. Client
//!   interleaving can change *bookkeeping* fields of cache-eligible
//!   requests (`served`, `evals` — whoever arrives first pays the cold
//!   start), but never the estimate, interval, or model digest; and
//!   `fresh` requests with explicit ids are bit-identical to the
//!   single-client transcript regardless of interleaving.
//! * **Graceful shutdown** (`shutdown` command, [`NetServer::shutdown`],
//!   or SIGTERM in the `lts-served` binary): in-flight requests
//!   complete and their responses are flushed; admitted-but-unexecuted
//!   requests receive a `shutting_down` error; new submissions are
//!   refused with the same error; the listener closes; writer threads
//!   flush and FIN. Nothing polls: the accept loops block in `accept`
//!   and the dispatcher in `recv`, and the one call that flips the
//!   shutdown flag wakes each — a connection to every listener of its
//!   own, a message down the admission channel.
//! * **A refused thread** (the OS out of threads or memory) refuses
//!   that one connection with an error line; the accept loop keeps
//!   accepting.
//!
//! Malformed input (oversized line, invalid UTF-8, half-written final
//! frame) yields a structured JSON error — or a clean close at EOF —
//! never a panic or a wedged worker.

use crate::protocol::{handle_line, json_err, shutting_down_line, LineOutcome, SessionState};
use crate::repl::ReplOptions;
use crate::service::{Service, ServiceConfig};
use lts_obs::Observability;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of the TCP front-end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The wrapped service's configuration.
    pub service: ServiceConfig,
    /// Protocol options (deterministic wall-time masking).
    pub repl: ReplOptions,
    /// Connections beyond this many are refused with an error line.
    pub max_connections: usize,
    /// Request lines longer than this yield a structured error (the
    /// overlong line is consumed and discarded; the connection lives).
    pub max_line_bytes: usize,
    /// Bound of each connection's response queue. A connection whose
    /// reader is too slow to keep its queue under this bound is
    /// dropped (socket shutdown) — the slow-reader policy.
    pub write_queue_capacity: usize,
    /// Bound of the shared admission channel; submitting readers block
    /// (per-client backpressure) while it is full.
    pub admission_capacity: usize,
    /// Durable warm state: when set, the dispatcher restores a
    /// [`crate::state`] snapshot from this directory at startup (a
    /// restored server is warm from its first request) and writes one
    /// atomically at graceful shutdown. A missing snapshot is a normal
    /// cold start; a corrupt one is logged and ignored (cold start) —
    /// never a panic.
    pub state_dir: Option<std::path::PathBuf>,
    /// When set, bind a plain-HTTP Prometheus scrape endpoint on this
    /// address (`GET` anything → the text exposition). The listener
    /// reads the shared registry directly and never touches the
    /// dispatcher, so a stalled or mid-scrape-disconnected scraper
    /// cannot wedge request serving.
    pub metrics_addr: Option<String>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            service: ServiceConfig::default(),
            repl: ReplOptions::default(),
            max_connections: 64,
            max_line_bytes: 64 * 1024,
            write_queue_capacity: 128,
            admission_capacity: 64,
            state_dir: None,
            metrics_addr: None,
        }
    }
}

/// Stack of the dispatcher thread: a main thread's 8 MiB, which is what
/// the REPL runs the same parse-and-evaluate code on. A condition at
/// `lts_table::parser::MAX_CONDITION_DEPTH` needs about 0.5 MiB of it
/// in an optimized build and up to 3 MiB in an unoptimized one — more
/// than a spawned thread's default 2 MiB.
const DISPATCH_STACK_BYTES: usize = 8 << 20;

// ------------------------------------------------------------ write queue

/// Outcome of a non-blocking push into a connection's write queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Push {
    /// Queued for the writer thread.
    Enqueued,
    /// The queue was at capacity: the line is dropped and the queue is
    /// now closed — per policy the connection must be dropped.
    Overflowed,
    /// The queue was already closed; the line is discarded.
    Closed,
}

struct QueueState {
    lines: VecDeque<String>,
    closed: bool,
}

/// A bounded, non-blocking response queue between the dispatcher and
/// one connection's writer thread. The dispatcher never blocks here:
/// a full queue means the client reads too slowly, and per policy the
/// push reports [`Push::Overflowed`] after closing the queue.
struct WriteQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

impl WriteQueue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                lines: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            // A zero-capacity queue could never deliver a response.
            capacity: capacity.max(1),
        }
    }

    fn push(&self, line: String) -> Push {
        let mut st = self.state.lock().expect("write queue poisoned");
        if st.closed {
            return Push::Closed;
        }
        if st.lines.len() >= self.capacity {
            st.closed = true;
            self.ready.notify_all();
            return Push::Overflowed;
        }
        st.lines.push_back(line);
        self.ready.notify_all();
        Push::Enqueued
    }

    /// Close the queue: no further pushes are accepted, but lines
    /// already queued stay drainable so the writer can flush them.
    fn close(&self) {
        let mut st = self.state.lock().expect("write queue poisoned");
        st.closed = true;
        self.ready.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.state.lock().expect("write queue poisoned").closed
    }

    /// Block until lines are available (returning all of them, FIFO)
    /// or the queue is closed and empty (returning `None`).
    fn pop_wait(&self) -> Option<Vec<String>> {
        let mut st = self.state.lock().expect("write queue poisoned");
        loop {
            if !st.lines.is_empty() {
                return Some(st.lines.drain(..).collect());
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("write queue poisoned");
        }
    }
}

// ------------------------------------------------------------ connections

struct ConnShared {
    id: u64,
    /// Handle used for out-of-band shutdown (reader and writer own
    /// their own clones).
    stream: TcpStream,
    queue: WriteQueue,
    session: Mutex<SessionState>,
    /// Lines submitted to the dispatcher and not yet settled.
    pending: AtomicUsize,
    /// The reader saw EOF (no further submissions will come).
    eof: AtomicBool,
}

impl ConnShared {
    /// Drop the connection now: unblock any in-progress socket write
    /// and stop accepting responses. Queued lines are abandoned to the
    /// failing socket — per the slow-reader policy.
    fn hangup(&self) {
        self.queue.close();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Close the queue once the reader is done *and* every submitted
    /// line has settled — the writer then flushes what remains and
    /// sends FIN. Keeps responses to a half-closed client (send
    /// requests, shut down the send side, read replies) intact.
    fn finish_if_drained(&self) {
        if self.eof.load(Ordering::SeqCst) && self.pending.load(Ordering::SeqCst) == 0 {
            self.queue.close();
        }
    }
}

enum JobKind {
    /// A protocol line to execute against the service.
    Line(String),
    /// A pre-rendered reply (reader-side framing errors) routed
    /// through the dispatcher so per-connection FIFO order holds.
    Immediate(String),
}

struct Job {
    conn: Arc<ConnShared>,
    kind: JobKind,
}

struct Shared {
    config: NetConfig,
    shutting_down: AtomicBool,
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
    next_conn_id: AtomicU64,
    /// The admission channel's sending end, for the one wake-up
    /// (`None`) that shutdown sends the dispatcher.
    wake: SyncSender<Option<Job>>,
    /// Every bound listener (requests, scrapes): shutdown connects to
    /// each once to wake its blocked `accept`.
    listeners: Vec<SocketAddr>,
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Flip the shutdown flag (the first call only) and wake every
    /// thread blocked waiting for work, so that it sees the flag.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // A full channel needs no wake-up: the dispatcher's next job
        // comes after the flag.
        let _ = self.wake.try_send(None);
        for &addr in &self.listeners {
            let _ = TcpStream::connect_timeout(&reachable(addr), Duration::from_millis(100));
        }
    }

    fn remove_conn(&self, id: u64) {
        self.conns
            .lock()
            .expect("conn registry poisoned")
            .remove(&id);
    }

    /// Close every connection's queue (writers flush, then FIN, which
    /// also unblocks readers waiting in `read`).
    fn close_all_conns(&self) {
        let conns: Vec<Arc<ConnShared>> = self
            .conns
            .lock()
            .expect("conn registry poisoned")
            .drain()
            .map(|(_, c)| c)
            .collect();
        for conn in conns {
            conn.queue.close();
        }
    }
}

/// The address a listener bound at `addr` is reached at: an unspecified
/// IP (every interface) maps to loopback.
fn reachable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

// ------------------------------------------------------------ the server

/// A running TCP counting server. Dropping the handle triggers
/// shutdown but does not wait; call [`NetServer::join`] to block until
/// the listener and dispatcher have fully stopped.
pub struct NetServer {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    obs: Observability,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatch: Option<JoinHandle<()>>,
    metrics: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind a listener and start serving. Use port 0 to let the OS
    /// pick (read it back with [`NetServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Returns I/O errors from binding the listener.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // NetConfig is no longer Copy (it may carry a state path);
        // capture what the channels and the dispatcher need before the
        // config moves into the shared registry.
        let service_config = config.service;
        let admission = config.admission_capacity.max(1);
        let state_dir = config.state_dir.clone();
        let deterministic = config.repl.deterministic;
        // One observability bundle shared by the dispatcher's service
        // and the scrape listener — the scrape path reads the registry
        // without ever entering the dispatch queue.
        let obs = Observability::default();
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr.as_str())?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let (tx, rx) = std::sync::mpsc::sync_channel::<Option<Job>>(admission);
        let shared = Arc::new(Shared {
            config,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            wake: tx.clone(),
            listeners: std::iter::once(addr).chain(metrics_addr).collect(),
        });
        // Dropped by an early return below, the server shuts down the
        // threads it has started.
        let mut server = Self {
            addr,
            metrics_addr,
            obs: obs.clone(),
            shared: Arc::clone(&shared),
            accept: None,
            dispatch: None,
            metrics: None,
        };
        server.dispatch = Some({
            let shared = Arc::clone(&shared);
            let obs = obs.clone();
            std::thread::Builder::new()
                .name("lts-dispatch".into())
                .stack_size(DISPATCH_STACK_BYTES)
                .spawn(move || dispatch_loop(service_config, state_dir, obs, &rx, &shared))?
        });
        server.accept = Some({
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().spawn(move || accept_loop(listener, &shared, &tx))?
        });
        if let Some(l) = metrics_listener {
            server.metrics = Some(
                std::thread::Builder::new()
                    .spawn(move || metrics_loop(l, &obs, deterministic, &shared))?,
            );
        }
        Ok(server)
    }

    /// The bound listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics (Prometheus scrape) address, when
    /// [`NetConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The observability bundle shared with the dispatcher's service.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Trigger graceful shutdown (idempotent; returns immediately).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has been triggered (by a client's `shutdown`
    /// command, [`NetServer::shutdown`], or a signal handler).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// A `Send + 'static` closure that triggers shutdown — hand it to
    /// a signal watcher that outlives the borrow of `self`.
    pub fn shutdown_handle(&self) -> impl Fn() + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.begin_shutdown()
    }

    /// Block until the listener and dispatcher threads have exited.
    /// Only returns after shutdown has been triggered by some path.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatch.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>, tx: &SyncSender<Option<Job>>) {
    for stream in listener.incoming() {
        // Checked after every accept: shutdown's self-connect lands here.
        if shared.is_shutting_down() {
            break;
        }
        match stream {
            Ok(stream) => spawn_connection(stream, shared, tx),
            // EMFILE and the like: back off rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Dropping the listener here closes the socket: no new connections
    // are accepted once shutdown begins.
}

/// Refuse a connection: one error line saying why, then close.
fn refuse(mut stream: &TcpStream, why: &str) {
    let _ = writeln!(
        stream,
        "{}",
        json_err(&format!("connection refused: {why}"))
    );
    let _ = stream.shutdown(Shutdown::Both);
}

fn spawn_connection(stream: TcpStream, shared: &Arc<Shared>, tx: &SyncSender<Option<Job>>) {
    let _ = stream.set_nodelay(true);
    let at_capacity = {
        let conns = shared.conns.lock().expect("conn registry poisoned");
        conns.len() >= shared.config.max_connections
    };
    if at_capacity {
        let why = format!("at capacity ({})", shared.config.max_connections);
        refuse(&stream, &why);
        return;
    }
    let id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
    let conn = Arc::new(ConnShared {
        id,
        stream,
        queue: WriteQueue::new(shared.config.write_queue_capacity),
        session: Mutex::new(SessionState::default()),
        pending: AtomicUsize::new(0),
        eof: AtomicBool::new(false),
    });
    shared
        .conns
        .lock()
        .expect("conn registry poisoned")
        .insert(id, Arc::clone(&conn));
    let writer = {
        let conn = Arc::clone(&conn);
        std::thread::Builder::new().spawn(move || writer_loop(&conn))
    };
    let reader = writer.and_then(|_| {
        let conn = Arc::clone(&conn);
        let shared = Arc::clone(shared);
        let tx = tx.clone();
        std::thread::Builder::new().spawn(move || reader_loop(&conn, &shared, &tx))
    });
    if let Err(e) = reader {
        // The OS refused a thread: this connection goes, the listener
        // stays. Closing the queue ends a writer already started.
        shared.remove_conn(id);
        refuse(&conn.stream, &format!("no thread to serve it ({e})"));
        conn.queue.close();
    }
}

fn writer_loop(conn: &Arc<ConnShared>) {
    let Ok(stream) = conn.stream.try_clone() else {
        conn.queue.close();
        return;
    };
    let mut w = BufWriter::new(stream);
    'drain: while let Some(lines) = conn.queue.pop_wait() {
        for line in lines {
            if writeln!(w, "{line}").is_err() {
                conn.queue.close();
                break 'drain;
            }
        }
        if w.flush().is_err() {
            conn.queue.close();
            break;
        }
    }
    let _ = w.flush();
    // Flushed everything we will ever send: FIN both ways. This also
    // unblocks a reader still parked in `read` on an idle connection.
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// Outcome of reading one length-capped line.
enum ReadLine {
    /// End of stream with no pending bytes.
    Eof,
    /// A complete line (final unterminated frames count too).
    Line,
    /// The line exceeded the cap; its bytes were consumed + discarded.
    Oversized,
}

/// Read one `\n`-terminated line into `buf`, capping memory at `max`
/// bytes. Oversized lines are consumed to their newline (or EOF) so
/// the stream stays framed, but their content is discarded.
fn read_line_limited<R: BufRead>(
    r: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<ReadLine> {
    buf.clear();
    let mut over = false;
    loop {
        let (consumed, done) = {
            let chunk = match r.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                return Ok(if over {
                    ReadLine::Oversized
                } else if buf.is_empty() {
                    ReadLine::Eof
                } else {
                    ReadLine::Line
                });
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !over {
                        buf.extend_from_slice(&chunk[..pos]);
                    }
                    (pos + 1, true)
                }
                None => {
                    if !over {
                        buf.extend_from_slice(chunk);
                    }
                    (chunk.len(), false)
                }
            }
        };
        r.consume(consumed);
        if buf.len() > max {
            over = true;
            buf.clear();
        }
        if done {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(if over {
                ReadLine::Oversized
            } else {
                ReadLine::Line
            });
        }
    }
}

/// Submit a job for this connection, keeping the pending count
/// accurate. Returns `false` when the dispatcher is gone (shutdown).
fn submit(conn: &Arc<ConnShared>, tx: &SyncSender<Option<Job>>, kind: JobKind) -> bool {
    conn.pending.fetch_add(1, Ordering::SeqCst);
    let job = Job {
        conn: Arc::clone(conn),
        kind,
    };
    // Blocking send: a full admission channel stalls this reader (and
    // therefore this client) only — per-client backpressure.
    if tx.send(Some(job)).is_ok() {
        return true;
    }
    conn.pending.fetch_sub(1, Ordering::SeqCst);
    false
}

fn reader_loop(conn: &Arc<ConnShared>, shared: &Arc<Shared>, tx: &SyncSender<Option<Job>>) {
    let reader = match conn.stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            conn.hangup();
            shared.remove_conn(conn.id);
            return;
        }
    };
    let mut r = BufReader::new(reader);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if conn.queue.is_closed() {
            // Dropped (slow-reader policy) or quit: stop consuming.
            break;
        }
        let kind = match read_line_limited(&mut r, &mut buf, shared.config.max_line_bytes) {
            Err(_) | Ok(ReadLine::Eof) => break,
            Ok(ReadLine::Oversized) => JobKind::Immediate(json_err(&format!(
                "request line exceeds {} bytes",
                shared.config.max_line_bytes
            ))),
            Ok(ReadLine::Line) => match std::str::from_utf8(&buf) {
                Err(_) => JobKind::Immediate(json_err("request line is not valid UTF-8")),
                Ok(text) => {
                    let line = text.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    if shared.is_shutting_down() {
                        JobKind::Immediate(shutting_down_line())
                    } else {
                        JobKind::Line(line.to_string())
                    }
                }
            },
        };
        if !submit(conn, tx, kind) {
            // Dispatcher is gone: the server is draining. Best-effort
            // direct reply (the queue may already be closed).
            let _ = conn.queue.push(shutting_down_line());
            break;
        }
    }
    conn.eof.store(true, Ordering::SeqCst);
    conn.finish_if_drained();
    shared.remove_conn(conn.id);
}

/// Deliver a reply (if any) and settle one pending job.
fn settle(conn: &Arc<ConnShared>, reply: Option<String>, shared: &Shared) {
    if let Some(line) = reply {
        if conn.queue.push(line) == Push::Overflowed {
            // Slow-reader policy: the queue closed itself; cut the
            // socket so a writer blocked mid-write fails out too.
            conn.hangup();
            shared.remove_conn(conn.id);
        }
    }
    conn.pending.fetch_sub(1, Ordering::SeqCst);
    conn.finish_if_drained();
}

fn dispatch_loop(
    service_config: ServiceConfig,
    state_dir: Option<std::path::PathBuf>,
    obs: Observability,
    rx: &Receiver<Option<Job>>,
    shared: &Arc<Shared>,
) {
    let mut service = Service::with_observability(service_config, obs.clone());
    // Durable warm state: restore before the first request so a
    // restarted server answers warm immediately. Any failure —
    // mismatched version, torn write, corruption — falls back to a
    // clean cold start on a FRESH service (the failed restore may have
    // left partial state behind).
    if let Some(dir) = &state_dir {
        match crate::state::load(&mut service, dir) {
            Ok(Some(s)) => eprintln!(
                "lts-served: restored {} dataset(s), {} warm state(s), {} cached result(s)",
                s.datasets, s.models, s.cached
            ),
            Ok(None) => {}
            Err(e) => {
                eprintln!("lts-served: state restore failed ({e}); starting cold");
                service = Service::with_observability(service_config, obs.clone());
            }
        }
    }
    // Blocks until a job or shutdown's wake-up (`None`) arrives.
    while let Ok(Some(job)) = rx.recv() {
        if shared.is_shutting_down() {
            // Admitted into the queue, never executed: refuse it, and
            // the rest in the drain below.
            settle(&job.conn, Some(shutting_down_line()), shared);
            break;
        }
        match job.kind {
            JobKind::Immediate(reply) => settle(&job.conn, Some(reply), shared),
            JobKind::Line(line) => {
                let outcome = {
                    let mut session = job.conn.session.lock().expect("session poisoned");
                    handle_line(&mut service, &mut session, shared.config.repl, &line)
                };
                match outcome {
                    LineOutcome::Silent => settle(&job.conn, None, shared),
                    LineOutcome::Reply(reply) => settle(&job.conn, Some(reply), shared),
                    LineOutcome::Quit => {
                        settle(&job.conn, None, shared);
                        // Flush queued responses, then FIN.
                        job.conn.queue.close();
                        shared.remove_conn(job.conn.id);
                    }
                    LineOutcome::Shutdown(ack) => {
                        settle(&job.conn, Some(ack), shared);
                        shared.begin_shutdown();
                    }
                }
            }
        }
    }
    // Shutdown drain: everything still queued was admitted but never
    // executed — give each a structured refusal, in FIFO order.
    while let Ok(job) = rx.try_recv() {
        if let Some(job) = job {
            settle(&job.conn, Some(shutting_down_line()), shared);
        }
    }
    // Snapshot after the drain, while the service is quiescent. The
    // write is atomic (temp + rename): a failure here leaves the
    // previous snapshot intact and is reported, never fatal.
    if let Some(dir) = &state_dir {
        if let Err(e) = crate::state::save(&service, dir) {
            eprintln!("lts-served: state save failed: {e}");
        }
    }
    shared.close_all_conns();
}

// ------------------------------------------------------------ metrics scrape

/// Accept loop of the Prometheus scrape endpoint. Each scrape is
/// served on its own short-lived thread straight from the shared
/// registry — this path never enters the admission channel or the
/// dispatcher, so a stalled scraper cannot wedge request serving.
fn metrics_loop(listener: TcpListener, obs: &Observability, deterministic: bool, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.is_shutting_down() {
            break;
        }
        match stream {
            Ok(stream) => {
                let obs = obs.clone();
                // A refused thread drops (closes) this one scrape.
                let _ = std::thread::Builder::new()
                    .spawn(move || serve_scrape(stream, &obs, deterministic));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Answer one scrape: read whatever request bytes arrive (the content
/// is ignored — any request gets the exposition), write an HTTP/1.0
/// response, close. Short socket timeouts bound the damage from a
/// scraper that connects and then stalls or disconnects mid-transfer;
/// every I/O error is swallowed — the scrape thread just exits.
fn serve_scrape(mut stream: TcpStream, obs: &Observability, deterministic: bool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let _ = std::io::Read::read(&mut stream, &mut buf);
    let body = obs.registry.snapshot().to_prometheus(deterministic);
    let resp = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- the slow-reader policy, unit-tested at its limits ----

    #[test]
    fn write_queue_overflow_closes_at_capacity() {
        let q = WriteQueue::new(2);
        assert_eq!(q.push("a".into()), Push::Enqueued);
        assert_eq!(q.push("b".into()), Push::Enqueued);
        // At capacity: the overflowing line is dropped and the queue
        // closes — the drop signal of the slow-reader policy.
        assert_eq!(q.push("c".into()), Push::Overflowed);
        assert!(q.is_closed());
        // Further pushes after the drop are discarded quietly.
        assert_eq!(q.push("d".into()), Push::Closed);
        // Already-queued lines stay drainable (writer flushes them or
        // fails against the dead socket), then the queue reports done.
        assert_eq!(q.pop_wait(), Some(vec!["a".to_string(), "b".to_string()]));
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn write_queue_capacity_floor_is_one() {
        // A zero bound could never deliver a response; it clamps to 1.
        let q = WriteQueue::new(0);
        assert_eq!(q.push("a".into()), Push::Enqueued);
        assert_eq!(q.push("b".into()), Push::Overflowed);
    }

    #[test]
    fn write_queue_close_flushes_then_ends() {
        let q = WriteQueue::new(8);
        assert_eq!(q.push("a".into()), Push::Enqueued);
        q.close();
        assert_eq!(q.push("b".into()), Push::Closed);
        assert_eq!(q.pop_wait(), Some(vec!["a".to_string()]));
        assert_eq!(q.pop_wait(), None);
        // close is idempotent.
        q.close();
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn write_queue_pop_blocks_until_push() {
        let q = Arc::new(WriteQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_wait());
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.push("x".into()), Push::Enqueued);
        assert_eq!(h.join().unwrap(), Some(vec!["x".to_string()]));
    }

    // ---- framing ----

    fn read_all(input: &[u8], max: usize) -> Vec<(String, bool)> {
        let mut r = BufReader::new(input);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            match read_line_limited(&mut r, &mut buf, max).unwrap() {
                ReadLine::Eof => return out,
                ReadLine::Line => out.push((String::from_utf8_lossy(&buf).into_owned(), false)),
                ReadLine::Oversized => out.push((String::new(), true)),
            }
        }
    }

    #[test]
    fn line_reader_frames_and_caps() {
        let lines = read_all(b"one\ntwo\r\nthree", 16);
        assert_eq!(
            lines,
            vec![
                ("one".to_string(), false),
                ("two".to_string(), false),
                // Half-written final frame (no newline, then EOF) still
                // comes out as a line; the caller parses or errors it.
                ("three".to_string(), false),
            ]
        );
    }

    #[test]
    fn line_reader_discards_oversized_but_keeps_framing() {
        let big = vec![b'x'; 64];
        let mut input = b"ok\n".to_vec();
        input.extend_from_slice(&big);
        input.extend_from_slice(b"\nafter\n");
        let lines = read_all(&input, 16);
        assert_eq!(
            lines,
            vec![
                ("ok".to_string(), false),
                (String::new(), true),
                ("after".to_string(), false),
            ]
        );
        // Oversized *final* frame without a newline: reported, no hang.
        let lines = read_all(&[b'y'; 64], 16);
        assert_eq!(lines, vec![(String::new(), true)]);
    }
}
