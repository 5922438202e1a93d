//! The threaded TCP server: accept loop, per-connection I/O threads,
//! and a worker pool with same-session request coalescing.
//!
//! Thread anatomy, for a server with `W` workers and `C` connections:
//!
//! - **1 accept thread** — blocks on [`TcpListener::accept`], spawns
//!   the per-connection pair, exits on shutdown (unblocked by a
//!   self-connect).
//! - **C reader threads** — length-capped line reads; each frame is
//!   parsed and either answered inline (`ping`, `stats`, protocol
//!   errors — malformed or oversized frames get a JSON error response
//!   on the same connection, never a dropped socket) or enqueued as a
//!   job for the pool.
//! - **C writer threads** — drain an `mpsc` channel of response lines;
//!   all writes to a socket funnel through its writer, so worker
//!   responses never interleave mid-frame.
//! - **W worker threads** — pop a job, then *coalesce*: drain every
//!   queued job bound for the same warm session (up to
//!   [`ServeOptions::batch_max`]) and execute them as one
//!   `MtdSession::run_batch` call, so the per-batch session lookup
//!   and scoped thread budget are paid once and the batch layer
//!   parallelizes across the coalesced requests.
//!
//! Responses are bit-identical to direct `MtdSession` calls: both
//! sides of the comparison render through the deterministic
//! [`Json`] writer, and `run_batch` is pinned (by the core crate's
//! own tests) to match per-request calls for any worker count.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
// Operational timing only (idle reaping, request deadlines) — never on
// a result path: responses stay a pure function of request content.
// This file is on the lint's wallclock allow-list for that reason.
use std::time::{Duration, Instant};

use gridmtd_core::session::batch::Request;
use gridmtd_scenario::json::Json;

use crate::lru::{LruStats, SessionLru};
use crate::session_key::SessionSpec;
use crate::wire::{self, Call, WireError, FRAME_TOO_LARGE};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Warm-session LRU capacity.
    pub capacity: usize,
    /// Worker-pool size.
    pub workers: usize,
    /// Most requests coalesced into one `run_batch` call.
    pub batch_max: usize,
    /// Request frames longer than this (bytes, excluding the newline)
    /// are rejected with [`FRAME_TOO_LARGE`].
    pub max_frame_bytes: usize,
    /// A connection that sends no bytes for this long is reaped: its
    /// socket is closed and its reader/writer threads are reclaimed
    /// (`None` disables reaping). Without it, every dead-but-unclosed
    /// client leaks two parked threads forever.
    pub idle_timeout: Option<Duration>,
    /// Server-side default deadline for queued pipeline requests,
    /// measured from enqueue. A request whose deadline passes before a
    /// worker picks it up is answered with
    /// [`wire::DEADLINE_EXCEEDED`]
    /// instead of running late work nobody is waiting for. A frame's
    /// own `deadline_ms` tightens (never loosens) this.
    pub request_deadline: Option<Duration>,
    /// Most pipeline jobs allowed to wait in the worker queue. Beyond
    /// it, new requests are shed immediately with
    /// [`wire::OVERLOADED`] — bounded latency
    /// under overload instead of an unbounded queue.
    pub queue_max: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            capacity: 8,
            workers: 2,
            batch_max: 16,
            max_frame_bytes: 4 << 20,
            idle_timeout: Some(Duration::from_secs(60)),
            request_deadline: None,
            queue_max: 1024,
        }
    }
}

/// A point-in-time statistics snapshot (the `stats` wire method
/// returns the same numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Warm-session cache counters.
    pub lru: LruStats,
    /// Warm sessions currently resident (≤ the LRU capacity).
    pub resident: usize,
    /// Pipeline requests executed (excludes `ping` / `stats`).
    pub requests: u64,
    /// `run_batch` calls issued.
    pub batches: u64,
    /// Requests that rode along in another request's batch
    /// (`requests - batches` for a single-session workload).
    pub coalesced: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Idle connections reaped by [`ServeOptions::idle_timeout`].
    pub reaped: u64,
    /// Requests shed with `OVERLOADED` by [`ServeOptions::queue_max`].
    pub shed: u64,
    /// Requests answered `DEADLINE_EXCEEDED` without being run.
    pub expired: u64,
}

/// One queued pipeline request.
struct Job {
    id: Json,
    key: String,
    spec: SessionSpec,
    request: Request,
    out: mpsc::Sender<String>,
    /// When this job stops being worth starting (see
    /// [`ServeOptions::request_deadline`]); `None` = no deadline.
    deadline: Option<Instant>,
}

struct Shared {
    lru: SessionLru,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    batch_max: usize,
    max_frame_bytes: usize,
    idle_timeout: Option<Duration>,
    request_deadline: Option<Duration>,
    queue_max: usize,
    requests: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    connections: AtomicU64,
    reaped: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    /// A clone of every open connection's socket, keyed by accept
    /// order, so shutdown can unblock idle readers. Each connection
    /// removes its own entry when it ends; a clone left behind would
    /// hold the socket open and leave the peer waiting for an EOF.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            lru: self.lru.stats(),
            resident: self.lru.len(),
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            reaped: self.reaped.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
        }
    }
}

/// A running server. Dropping the handle shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the bind fails or a server thread cannot
    /// be spawned; a partial start is unwound before returning.
    pub fn start(opts: &ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            lru: SessionLru::new(opts.capacity),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            batch_max: opts.batch_max.max(1),
            max_frame_bytes: opts.max_frame_bytes.max(1),
            idle_timeout: opts.idle_timeout.filter(|t| !t.is_zero()),
            request_deadline: opts.request_deadline,
            queue_max: opts.queue_max.max(1),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            conns: Mutex::new(BTreeMap::new()),
        });
        let mut workers = Vec::with_capacity(opts.workers.max(1));
        for i in 0..opts.workers.max(1) {
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("gridmtd-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared));
            match handle {
                Ok(handle) => workers.push(handle),
                Err(err) => {
                    abort_start(&shared, workers);
                    return Err(err);
                }
            }
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gridmtd-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
        };
        let accept = match accept {
            Ok(accept) => accept,
            Err(err) => {
                abort_start(&shared, workers);
                return Err(err);
            }
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current statistics.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Stops accepting, finishes queued work, and joins the pool.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop; a failed connect means the listener
        // is already gone.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Readers blocked on idle sockets exit once their read half is
        // gone. Shutting down only the *read* side keeps the drain
        // guarantee: the workers joined above have already queued every
        // in-flight response onto the writer channels, and the intact
        // write halves let the writer threads flush those lines to the
        // clients before exiting (the reader's EOF drops the channel
        // sender, so each writer drains and terminates).
        let conns = std::mem::take(&mut *lock(&self.shared.conns));
        for conn in conns.into_values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Unwinds a partially started pool when a later thread spawn fails:
/// already-running workers are told to shut down and joined, so the
/// failed start leaves no orphan threads behind.
fn abort_start(shared: &Shared, workers: Vec<JoinHandle<()>>) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.available.notify_all();
    for worker in workers {
        let _ = worker.join();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn_id = shared.connections.fetch_add(1, Ordering::Relaxed);
        // A blocking read wakes at least every idle_timeout, so a dead
        // client's threads are reclaimed instead of parked forever.
        if shared.idle_timeout.is_some() {
            let _ = stream.set_read_timeout(shared.idle_timeout);
        }
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).insert(conn_id, clone);
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("gridmtd-conn".to_string())
            .spawn(move || {
                connection_loop(stream, &conn_shared);
                // Drop the shutdown clone so the socket closes with the
                // connection's own handles.
                lock(&conn_shared.conns).remove(&conn_id);
            });
        if spawned.is_err() {
            lock(&shared.conns).remove(&conn_id);
        }
    }
}

/// Outcome of one capped line read.
enum FrameRead {
    Line(String),
    TooLarge,
    Eof,
}

fn read_frame(
    reader: &mut BufReader<TcpStream>,
    max_frame_bytes: usize,
) -> std::io::Result<FrameRead> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if line.is_empty() {
                FrameRead::Eof
            } else {
                FrameRead::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let over = line.len() + pos > max_frame_bytes;
            if !over {
                line.extend_from_slice(&buf[..pos]);
            }
            reader.consume(pos + 1);
            return Ok(if over {
                FrameRead::TooLarge
            } else {
                FrameRead::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
        let chunk = buf.len();
        if line.len() + chunk > max_frame_bytes {
            // Discard until the newline, then report the overrun.
            reader.consume(chunk);
            loop {
                let buf = reader.fill_buf()?;
                if buf.is_empty() {
                    return Ok(FrameRead::Eof);
                }
                if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    reader.consume(pos + 1);
                    return Ok(FrameRead::TooLarge);
                }
                let n = buf.len();
                reader.consume(n);
            }
        }
        line.extend_from_slice(buf);
        reader.consume(chunk);
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<String>();
    let writer = std::thread::Builder::new()
        .name("gridmtd-conn-writer".to_string())
        .spawn(move || writer_loop(write_half, &rx));
    let mut reader = BufReader::new(stream);

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Injection point: a failed socket read closes this connection
        // (like any I/O error) and must leave the server serving.
        if gridmtd_faults::point!("serve.conn.read") {
            break;
        }
        let frame = match read_frame(&mut reader, shared.max_frame_bytes) {
            Ok(FrameRead::Line(line)) => line,
            Ok(FrameRead::TooLarge) => {
                let err = WireError::new(
                    FRAME_TOO_LARGE,
                    format!("frame exceeds {} bytes", shared.max_frame_bytes),
                );
                if tx.send(wire::error_frame(&Json::Null, &err)).is_err() {
                    break;
                }
                continue;
            }
            Ok(FrameRead::Eof) => break,
            // The read timeout elapsed with no bytes: the peer is idle
            // (or gone without a FIN). Reap the connection — both its
            // threads exit and the socket closes.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                shared.reaped.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(_) => break,
        };
        if frame.trim().is_empty() {
            continue;
        }
        // Injection point: parser blow-ups must degrade to a typed
        // parse-error response, never a dropped connection or panic.
        let parsed = if gridmtd_faults::point!("serve.frame.parse") {
            Err(WireError::new(
                wire::PARSE_ERROR,
                "fault-injection: forced frame parse failure",
            ))
        } else {
            wire::parse_frame(&frame)
        };
        let parsed = match parsed {
            Ok(parsed) => parsed,
            Err(err) => {
                // Salvage the id for correlation when the frame was
                // valid JSON but an invalid request.
                let id = Json::parse(&frame)
                    .ok()
                    .and_then(|doc| doc.get("id").cloned())
                    .unwrap_or(Json::Null);
                if tx.send(wire::error_frame(&id, &err)).is_err() {
                    break;
                }
                continue;
            }
        };
        let response = match parsed.call {
            Call::Ping => Some(wire::ok_frame(
                &parsed.id,
                Json::obj(vec![("ok", Json::Bool(true))]),
            )),
            Call::Stats => Some(wire::ok_frame(&parsed.id, stats_json(&shared.stats()))),
            Call::Run(request) => match parsed.session {
                Some(spec) => {
                    // The effective deadline is the tighter of the
                    // frame's own budget and the server default.
                    let budget_ms = match (parsed.deadline_ms, shared.request_deadline) {
                        (Some(ms), Some(default)) => {
                            Some(ms.min(u64::try_from(default.as_millis()).unwrap_or(u64::MAX)))
                        }
                        (Some(ms), None) => Some(ms),
                        (None, Some(default)) => {
                            Some(u64::try_from(default.as_millis()).unwrap_or(u64::MAX))
                        }
                        (None, None) => None,
                    };
                    let job = Job {
                        id: parsed.id,
                        key: spec.key(),
                        spec,
                        request,
                        out: tx.clone(),
                        deadline: budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
                    };
                    let mut queue = lock(&shared.queue);
                    if queue.len() >= shared.queue_max {
                        // Shed at the door: answering OVERLOADED now
                        // bounds queue growth and tells the client to
                        // back off, instead of absorbing unbounded
                        // latency the caller will time out on anyway.
                        drop(queue);
                        shared.shed.fetch_add(1, Ordering::Relaxed);
                        Some(wire::error_frame(
                            &job.id,
                            &WireError::new(
                                wire::OVERLOADED,
                                format!("worker queue full ({} queued)", shared.queue_max),
                            ),
                        ))
                    } else {
                        queue.push_back(job);
                        drop(queue);
                        shared.available.notify_one();
                        None
                    }
                }
                // parse_frame attaches a session to every pipeline
                // call; answer a typed error rather than trusting that
                // invariant with a reader-thread panic.
                None => Some(wire::error_frame(
                    &parsed.id,
                    &WireError::new(wire::INVALID_REQUEST, "missing session"),
                )),
            },
        };
        if let Some(response) = response {
            if tx.send(response).is_err() {
                break;
            }
        }
    }
    // Dropping our sender lets the writer exit once in-flight jobs
    // (which hold clones) have answered.
    drop(tx);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
}

fn writer_loop(stream: TcpStream, rx: &mpsc::Receiver<String>) {
    let mut out = std::io::BufWriter::new(stream);
    while let Ok(line) = rx.recv() {
        // Injection point: a failed response write ends this
        // connection like any socket error; the server must keep
        // serving other connections.
        let failed = gridmtd_faults::point!("serve.conn.write")
            || out.write_all(line.as_bytes()).is_err()
            || out.write_all(b"\n").is_err()
            || out.flush().is_err();
        if failed {
            // A connection that cannot answer is dead: close the socket
            // so its reader stops and the peer sees EOF instead of
            // waiting for a response that will never come.
            let _ = out.get_ref().shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Pops one job and drains every queued job bound for the same warm
/// session, preserving arrival order, up to `batch_max` total.
fn take_batch(queue: &mut VecDeque<Job>, batch_max: usize) -> Option<Vec<Job>> {
    let first = queue.pop_front()?;
    let key = first.key.clone();
    let mut batch = vec![first];
    let mut i = 0;
    while i < queue.len() && batch.len() < batch_max {
        if queue[i].key == key {
            match queue.remove(i) {
                Some(job) => batch.push(job),
                // Unreachable while the loop bound holds; stop
                // coalescing rather than panic a worker thread.
                None => break,
            }
        } else {
            i += 1;
        }
    }
    Some(batch)
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let batch = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(batch) = take_batch(&mut queue, shared.batch_max) {
                    break batch;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        run_jobs(shared, batch);
    }
}

fn run_jobs(shared: &Arc<Shared>, batch: Vec<Job>) {
    // Enforce deadlines at dispatch: a blocking batch cannot be
    // preempted once started, so "picked up in time" is the promise —
    // work whose waiter has already given up is dropped here with a
    // typed error rather than burning a worker on it.
    let now = Instant::now();
    let (expired, batch): (Vec<Job>, Vec<Job>) = batch
        .into_iter()
        .partition(|job| job.deadline.is_some_and(|d| d <= now));
    for job in &expired {
        shared.expired.fetch_add(1, Ordering::Relaxed);
        let err = WireError::new(
            wire::DEADLINE_EXCEEDED,
            "deadline elapsed before a worker could start the request",
        );
        let _ = job.out.send(wire::error_frame(&job.id, &err));
    }
    if batch.is_empty() {
        return;
    }
    shared
        .requests
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    shared.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .coalesced
        .fetch_add(batch.len() as u64 - 1, Ordering::Relaxed);

    // Injection point: a worker that cannot dispatch its batch must
    // answer every job with a typed error, not drop or panic.
    if gridmtd_faults::point!("serve.worker.dispatch") {
        let err = WireError::new(
            wire::PIPELINE_ERROR,
            "fault-injection: worker dispatch failed",
        );
        for job in &batch {
            let _ = job.out.send(wire::error_frame(&job.id, &err));
        }
        return;
    }

    let session = match shared.lru.get_or_build(&batch[0].spec) {
        Ok(session) => session,
        Err(err) => {
            for job in &batch {
                let _ = job.out.send(wire::error_frame(&job.id, &err));
            }
            return;
        }
    };
    let requests: Vec<Request> = batch.iter().map(|job| job.request.clone()).collect();
    let results = session.run_batch(&requests);
    for (job, result) in batch.iter().zip(results) {
        let line = match result {
            Ok(response) => wire::ok_frame(&job.id, wire::encode_response(&response)),
            Err(err) => wire::error_frame(&job.id, &wire::pipeline_error(&err)),
        };
        let _ = job.out.send(line);
    }
}

/// Encodes a stats snapshot as the `stats` method's result document.
pub fn stats_json(stats: &ServerStats) -> Json {
    #[allow(clippy::cast_possible_wrap)]
    fn int(v: u64) -> Json {
        Json::Int(v as i64)
    }
    #[allow(clippy::cast_possible_wrap)]
    fn resident_int(v: usize) -> i64 {
        v as i64
    }
    Json::obj(vec![
        (
            "lru",
            Json::obj(vec![
                ("hits", int(stats.lru.hits)),
                ("misses", int(stats.lru.misses)),
                ("evictions", int(stats.lru.evictions)),
                ("resident", Json::Int(resident_int(stats.resident))),
            ]),
        ),
        ("requests", int(stats.requests)),
        ("batches", int(stats.batches)),
        ("coalesced", int(stats.coalesced)),
        ("connections", int(stats.connections)),
        ("reaped", int(stats.reaped)),
        ("shed", int(stats.shed)),
        ("expired", int(stats.expired)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(key: &str) -> Job {
        let (tx, _rx) = mpsc::channel();
        Job {
            id: Json::Null,
            key: key.to_string(),
            spec: SessionSpec::from_json(&Json::parse(r#"{"case":"case4"}"#).unwrap()).unwrap(),
            request: Request::Baseline,
            out: tx,
            deadline: None,
        }
    }

    #[test]
    fn take_batch_coalesces_same_key_in_order() {
        let mut queue: VecDeque<Job> = ["a", "b", "a", "c", "a"].iter().map(|k| job(k)).collect();
        let batch = take_batch(&mut queue, 16).unwrap();
        assert_eq!(
            batch.iter().map(|j| j.key.as_str()).collect::<Vec<_>>(),
            ["a", "a", "a"]
        );
        assert_eq!(
            queue.iter().map(|j| j.key.as_str()).collect::<Vec<_>>(),
            ["b", "c"]
        );
    }

    #[test]
    fn take_batch_respects_batch_max() {
        let mut queue: VecDeque<Job> = (0..5).map(|_| job("a")).collect();
        let batch = take_batch(&mut queue, 2).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(queue.len(), 3);
        assert!(take_batch(&mut VecDeque::new(), 4).is_none());
    }
}
