//! The daemon: thread-per-connection serving over a [`SharedEngine`].
//!
//! Concurrency shape:
//!
//! * an **accept thread** admits TCP connections against a counting
//!   semaphore ([`ServerConfig::max_connections`]); at capacity it
//!   writes the connection an `Error` frame and closes it, spawning no
//!   thread — admission control, not an unbounded queue;
//! * each admitted connection gets a **handler thread**, which reads
//!   request frames through a buffer, serves them from the shared
//!   engine (counting the connection's own queries for the `Stats`
//!   frame) and **writes its own replies**.
//!   Every frame of one response is encoded into a per-connection
//!   buffer that goes to the socket when the response ends, or whenever
//!   it passes [`FLUSH_BYTES`]: a small reply is one `write`, a large
//!   result streams in bounded memory, and a slow client blocks only
//!   its own handler (backpressure), never the engine or other
//!   connections;
//! * pushed `ViewDelta`s never block the publishing writer: a
//!   subscription's sink encodes the delta and offers it to the
//!   connection's bounded push queue ([`ServerConfig::write_queue`]
//!   frames), and a full queue refuses it, so the registry drops the
//!   subscription rather than let it silently miss updates. A **push
//!   thread** drains the queue. It is spawned at the connection's first
//!   `Subscribe`, so a connection that never subscribes runs one thread;
//! * query results stream as `RowBatch` frames of
//!   [`ServerConfig::batch_rows`] rows, bounding peak frame size.
//!
//! Write order: the handler and the push thread each write under one
//! per-connection socket lock, so whole frames never interleave, and the
//! handler drains the push queue under that lock before it writes. A
//! delta queued to a connection before that connection's own response is
//! therefore written ahead of the response. A write maintains every
//! subscribed view before it is acknowledged, so a writer's `Ack` still
//! implies every delta it caused is queued.
//!
//! Error policy: SQL errors answer with an `Error` frame and keep the
//! connection; *protocol* errors (bad opcode, oversized frame) answer
//! with an `Error` frame and close it — once framing is broken the
//! stream cannot be trusted.

use crate::wire::{self, Frame, WireError, DEFAULT_BATCH_ROWS};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use uniq_catalog::Row;
use uniq_engine::{SharedEngine, ViewDelta};

/// Reply bytes a handler buffers before it writes them out in the
/// middle of a response. A response that ends below it costs one
/// `write`; a longer one is written in pieces of about this size.
pub const FLUSH_BYTES: usize = 64 * 1024;

/// Daemon tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Connections served concurrently; further clients are refused
    /// with an `Error` frame.
    pub max_connections: usize,
    /// Pushed `ViewDelta` frames queued per subscribing connection
    /// before its sinks refuse more (and the registry drops the
    /// subscription). It bounds pushes only: replies are written by the
    /// connection's handler itself.
    pub write_queue: usize,
    /// Rows per `RowBatch` response frame.
    pub batch_rows: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 32,
            write_queue: 8,
            batch_rows: DEFAULT_BATCH_ROWS,
        }
    }
}

struct ServerState {
    engine: Arc<SharedEngine>,
    config: ServerConfig,
    /// Connections currently inside the admission semaphore.
    active: AtomicUsize,
    /// Connections admitted over the server's lifetime.
    served: AtomicU64,
    /// Connections refused at capacity.
    refused: AtomicU64,
}

impl ServerState {
    /// Try to enter the admission semaphore.
    fn admit(&self) -> bool {
        let mut current = self.active.load(Ordering::Relaxed);
        loop {
            if current >= self.config.max_connections {
                self.refused.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.active.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.served.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => current = seen,
            }
        }
    }

    fn leave(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running daemon. Dropping it shuts the accept loop down; handler
/// threads finish serving their current connection and exit on client
/// EOF.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (port 0 picks an ephemeral port) and start the
    /// accept loop over `engine`.
    pub fn start(
        engine: Arc<SharedEngine>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            engine,
            config,
            active: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if !state.admit() {
                        refuse(stream);
                        continue;
                    }
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || handle_connection(state, stream));
                }
            })
        };
        Ok(Server {
            state,
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server serves.
    pub fn engine(&self) -> &Arc<SharedEngine> {
        &self.state.engine
    }

    /// Stop accepting connections and join the accept thread. In-flight
    /// connections drain on their own threads.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answer a connection over capacity with an `Error` frame and close
/// it. The frame goes into a fresh socket's empty send buffer, so the
/// accept thread never waits on the client.
fn refuse(mut stream: TcpStream) {
    let refusal = Frame::Error {
        message: "server at capacity, connection refused".into(),
    };
    let _ = refusal.write_to(&mut stream);
}

/// A connection's bounded queue of encoded `ViewDelta` frames. Sinks
/// offer to it without blocking; the push thread drains it, and so does
/// the handler ahead of each of its own writes.
struct PushQueue {
    state: Mutex<PushState>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Default)]
struct PushState {
    frames: VecDeque<Vec<u8>>,
    /// The connection is closing or its socket failed: refuse further
    /// pushes and let the push thread exit.
    closed: bool,
}

impl PushQueue {
    fn lock(&self) -> MutexGuard<'_, PushState> {
        self.state.lock().expect("push queue lock poisoned")
    }

    /// Queue `frame` unless the queue is full or closed. Never blocks
    /// on the socket.
    fn offer(&self, frame: Vec<u8>) -> bool {
        let mut state = self.lock();
        if state.closed || state.frames.len() >= self.capacity {
            return false;
        }
        state.frames.push_back(frame);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Every queued frame, oldest first.
    fn take(&self) -> VecDeque<Vec<u8>> {
        std::mem::take(&mut self.lock().frames)
    }

    /// Wait until a frame is queued; `false` once the queue is closed.
    fn wait(&self) -> bool {
        let mut state = self.lock();
        while state.frames.is_empty() && !state.closed {
            state = self.ready.wait(state).expect("push queue lock poisoned");
        }
        !state.closed
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// The write side of one connection, shared by its handler and its push
/// thread.
struct Outbound {
    /// The socket's write half; whoever holds the lock writes whole
    /// frames.
    socket: Mutex<TcpStream>,
    pushes: PushQueue,
}

impl Outbound {
    /// Write every queued push, then `bytes`, under the socket lock.
    fn write(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut socket = self.socket.lock().expect("socket lock poisoned");
        for frame in self.pushes.take() {
            socket.write_all(&frame)?;
        }
        socket.write_all(bytes)
    }

    /// The push thread's loop: write deltas as they are queued, until
    /// the connection closes or the socket fails.
    fn push_loop(&self) {
        while self.pushes.wait() {
            if self.write(&[]).is_err() {
                break;
            }
        }
        self.pushes.close();
    }
}

/// One admitted connection, served on its handler thread.
struct Connection {
    state: Arc<ServerState>,
    /// `Query` requests this connection has sent (`EXPLAIN` excluded),
    /// reported as `queries.connection`.
    queries: u64,
    out: Arc<Outbound>,
    /// The response being assembled; written out when it ends or passes
    /// [`FLUSH_BYTES`].
    reply: Vec<u8>,
    /// Registry ids this connection subscribed, torn down when it
    /// closes.
    subs: Vec<u64>,
    /// The push thread, spawned at the first successful `Subscribe`.
    pusher: Option<JoinHandle<()>>,
}

fn handle_connection(state: Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        state.leave();
        return;
    };
    let out = Arc::new(Outbound {
        socket: Mutex::new(write_half),
        pushes: PushQueue {
            state: Mutex::new(PushState::default()),
            ready: Condvar::new(),
            capacity: state.config.write_queue.max(1),
        },
    });
    let mut conn = Connection {
        state,
        queries: 0,
        out,
        reply: Vec::new(),
        subs: Vec::new(),
        pusher: None,
    };
    let mut requests = BufReader::new(&stream);
    loop {
        let keep = match Frame::read_from(&mut requests) {
            Ok(frame) => conn.serve(frame),
            // Client EOF or transport failure: nothing to answer.
            Err(WireError::Io(_)) => break,
            // Broken framing: report, then close — the stream position
            // is no longer trustworthy.
            Err(WireError::Protocol(message)) => {
                Frame::Error { message }.encode_into(&mut conn.reply);
                false
            }
        };
        if !conn.flush() || !keep {
            break;
        }
    }
    conn.close(&stream);
}

impl Connection {
    /// Write the assembled reply, after any queued pushes; `false` when
    /// the socket failed.
    fn flush(&mut self) -> bool {
        let written = self.out.write(&self.reply).is_ok();
        self.reply.clear();
        // A frame of very wide rows can grow the buffer far past the
        // flush bound; do not keep that memory for the connection's life.
        self.reply.shrink_to(2 * FLUSH_BYTES);
        written
    }

    /// Append an `Error` frame answering a failed request; the
    /// connection stays open.
    fn error(&mut self, e: impl std::fmt::Display) -> bool {
        Frame::Error {
            message: e.to_string(),
        }
        .encode_into(&mut self.reply);
        true
    }

    /// Append an `Ack` frame.
    fn ack(&mut self, message: String) -> bool {
        Frame::Ack { message }.encode_into(&mut self.reply);
        true
    }

    /// Serve one request frame, appending its response to the reply
    /// buffer; `false` ends the connection.
    fn serve(&mut self, frame: Frame) -> bool {
        match frame {
            Frame::Query { sql } => {
                self.queries += 1;
                match self.state.engine.query(&sql) {
                    Ok(out) => {
                        wire::encode_row_header(&mut self.reply, &out.columns[..], out.cache_hit);
                        self.stream_rows(&out.rows)
                    }
                    Err(e) => self.error(e),
                }
            }
            Frame::Explain { sql } => match self.state.engine.explain(&sql) {
                Ok(text) => {
                    Frame::Explained { text }.encode_into(&mut self.reply);
                    true
                }
                Err(e) => self.error(e),
            },
            Frame::Exec { sql } => match self.state.engine.execute(&sql) {
                Ok(n) => self.ack(format!("ok: {n} statement(s) applied")),
                Err(e) => self.error(e),
            },
            Frame::Analyze => {
                self.state.engine.analyze();
                self.ack("ok: statistics collected".into())
            }
            Frame::Subscribe { sql } => self.subscribe(&sql),
            Frame::Unsubscribe { id } => {
                self.subs.retain(|&sid| sid != id);
                if self.state.engine.unsubscribe(id) {
                    self.ack(format!("ok: subscription {id} dropped"))
                } else {
                    self.error(format!("unknown subscription id {id}"))
                }
            }
            Frame::Stats => {
                Frame::StatsReply {
                    entries: self.stats(),
                }
                .encode_into(&mut self.reply);
                true
            }
            // A client must never send response opcodes.
            Frame::RowHeader { .. }
            | Frame::RowBatch { .. }
            | Frame::Explained { .. }
            | Frame::Ack { .. }
            | Frame::StatsReply { .. }
            | Frame::Subscribed { .. }
            | Frame::ViewDelta { .. }
            | Frame::Error { .. } => {
                self.error("response frame sent by client");
                false
            }
        }
    }

    fn subscribe(&mut self, sql: &str) -> bool {
        // The sink runs on the publishing writer's thread and must never
        // block it: it encodes the delta and offers it to this
        // connection's bounded push queue. A full queue (slow or wedged
        // subscriber) refuses the delta, and the registry drops the
        // subscription rather than let it silently miss updates.
        let out = Arc::clone(&self.out);
        let sink = Box::new(move |id: u64, delta: &ViewDelta| {
            let mut frame = Vec::new();
            wire::encode_view_delta(&mut frame, id, &delta.inserted, &delta.deleted);
            out.pushes.offer(frame)
        });
        match self.state.engine.subscribe(sql, sink) {
            Ok(sub) => {
                self.subs.push(sub.id);
                if self.pusher.is_none() {
                    let out = Arc::clone(&self.out);
                    self.pusher = Some(std::thread::spawn(move || out.push_loop()));
                }
                Frame::Subscribed {
                    id: sub.id,
                    columns: sub.columns.iter().map(|c| c.to_string()).collect(),
                    mode: sub.mode.tag().to_string(),
                    proof: sub.license.marker().to_string(),
                }
                .encode_into(&mut self.reply);
                self.stream_rows(&sub.rows)
            }
            Err(e) => self.error(e),
        }
    }

    /// Append `rows` as `RowBatch` frames — always at least one, the
    /// final one flagged `last` — writing the reply out whenever it
    /// passes [`FLUSH_BYTES`]. `false` when a write failed.
    fn stream_rows(&mut self, rows: &[Row]) -> bool {
        let batch = self.state.config.batch_rows.max(1);
        let batches = rows.len().div_ceil(batch).max(1);
        for b in 0..batches {
            let chunk = &rows[b * batch..rows.len().min((b + 1) * batch)];
            wire::encode_row_batch(&mut self.reply, chunk, b + 1 == batches);
            if self.reply.len() >= FLUSH_BYTES && !self.flush() {
                return false;
            }
        }
        true
    }

    fn stats(&self) -> Vec<(String, i64)> {
        let engine = self.state.engine.stats();
        let state = &self.state;
        let counters = [
            ("cache.hits", engine.cache.hits),
            ("cache.misses", engine.cache.misses),
            ("cache.insertions", engine.cache.insertions),
            ("cache.evictions", engine.cache.evictions),
            ("cache.invalidations", engine.cache.invalidations),
            (
                "cache.hit_rate_bp",
                (engine.cache.hit_rate() * 10_000.0) as u64,
            ),
            ("snapshot.depth", engine.snapshot_depth),
            ("stats.epoch", engine.stats_epoch),
            ("queries.total", engine.queries_total),
            ("queries.connection", self.queries),
            (
                "connections.active",
                state.active.load(Ordering::Relaxed) as u64,
            ),
            ("connections.served", state.served.load(Ordering::Relaxed)),
            ("connections.refused", state.refused.load(Ordering::Relaxed)),
            ("subs.active", engine.subs.active),
            ("subs.deltas_pushed", engine.subs.deltas_pushed),
            ("subs.delta_rows", engine.subs.delta_rows),
            ("subs.view_updates", engine.subs.view_updates),
            ("subs.rows_saved", engine.subs.rows_saved),
            ("subs.dropped", engine.subs.dropped),
        ];
        counters
            .into_iter()
            .map(|(name, value)| (name.to_string(), value as i64))
            .collect()
    }

    /// Tear the connection down: drop its subscriptions (a closed
    /// connection can receive no more pushes; ids already dropped
    /// server-side are ignored), stop its push thread and leave the
    /// admission semaphore.
    fn close(mut self, stream: &TcpStream) {
        for &id in &self.subs {
            self.state.engine.unsubscribe(id);
        }
        self.out.pushes.close();
        if let Some(pusher) = self.pusher.take() {
            // A push thread blocked writing to a client that stopped
            // reading would never see the close; shutting the socket
            // down fails that write. A push thread that panicked left
            // nothing to clean up, and the admission slot must still be
            // released, so its join result is not propagated.
            let _ = stream.shutdown(Shutdown::Both);
            let _ = pusher.join();
        }
        self.state.leave();
    }
}
