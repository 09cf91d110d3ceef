//! A blocking client for the `uniqd` wire protocol.
//!
//! One [`Client`] is one connection (and therefore one server-side
//! session sharing the process-wide plan cache with every other
//! connection). Requests are request/response; `Query` responses
//! stream in and are reassembled into a [`QueryReply`].
//!
//! The one asynchronous wrinkle is subscriptions: after
//! [`Client::subscribe`], the server pushes `ViewDelta` frames
//! whenever *any* connection's write changes the subscribed view —
//! including in the middle of this connection's own request/response
//! exchanges. Every read therefore tolerates an interleaved
//! `ViewDelta`, parking it in a pending queue that
//! [`Client::recv_delta`] drains.
//!
//! Replies are read through a buffer, so a small response costs one
//! `read`, and several frames that arrive together — a reply and the
//! deltas queued ahead of it, or two deltas — are decoded from it one
//! at a time.

use crate::wire::{Frame, WireError};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use uniq_types::Value;

/// A failed client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or protocol failure.
    Wire(WireError),
    /// The server answered with an `Error` frame (SQL error, admission
    /// refusal, …).
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Wire(WireError::Io(e))
    }
}

fn unexpected(frame: &Frame) -> ClientError {
    ClientError::Wire(WireError::Protocol(format!(
        "unexpected response frame {frame:?}"
    )))
}

/// A reassembled `Query` response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Output column names.
    pub columns: Vec<String>,
    /// All result rows (row batches concatenated).
    pub rows: Vec<Vec<Value>>,
    /// Whether the server served the plan from its shared cache.
    pub cache_hit: bool,
}

/// A reassembled `Subscribe` response: the registry id, the view's
/// header and initial contents, and the maintenance tier + proof
/// marker the server granted.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeReply {
    /// Registry id; quote it to [`Client::unsubscribe`] and match it
    /// against [`DeltaEvent::id`].
    pub id: u64,
    /// Output column names.
    pub columns: Vec<String>,
    /// The view's initial contents.
    pub rows: Vec<Vec<Value>>,
    /// Maintenance tier: `set`, `counting` or `recompute`.
    pub mode: String,
    /// Proof marker that licensed (or refused) the refcount-free tier.
    pub proof: String,
}

/// One pushed maintenance round for a subscribed view.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEvent {
    /// Which subscription this delta belongs to.
    pub id: u64,
    /// Rows that entered the view.
    pub inserted: Vec<Vec<Value>>,
    /// Rows that left the view.
    pub deleted: Vec<Vec<Value>>,
}

/// One connection to a running `uniqd`.
pub struct Client {
    /// The connection: replies are read through the buffer, requests
    /// are written to the socket underneath it.
    stream: BufReader<TcpStream>,
    /// `ViewDelta` pushes that arrived while awaiting a solicited
    /// response, in arrival order.
    pending: VecDeque<DeltaEvent>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:4141`).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream: BufReader::new(stream),
            pending: VecDeque::new(),
        })
    }

    fn call(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        request.write_to(self.stream.get_mut())?;
        self.read()
    }

    /// Read the next *solicited* frame, parking any interleaved
    /// `ViewDelta` pushes in the pending queue.
    fn read(&mut self) -> Result<Frame, ClientError> {
        loop {
            let frame = Frame::read_from(&mut self.stream)?;
            match frame {
                Frame::Error { message } => return Err(ClientError::Server(message)),
                Frame::ViewDelta {
                    id,
                    inserted,
                    deleted,
                } => self.pending.push_back(DeltaEvent {
                    id,
                    inserted,
                    deleted,
                }),
                other => return Ok(other),
            }
        }
    }

    /// Run a `SELECT`, collecting the streamed row batches.
    pub fn query(&mut self, sql: &str) -> Result<QueryReply, ClientError> {
        let frame = self.call(&Frame::Query { sql: sql.into() })?;
        let Frame::RowHeader { columns, cache_hit } = frame else {
            return Err(unexpected(&frame));
        };
        let mut rows = Vec::new();
        loop {
            let frame = self.read()?;
            let Frame::RowBatch { rows: batch, last } = frame else {
                return Err(unexpected(&frame));
            };
            rows.extend(batch);
            if last {
                break;
            }
        }
        Ok(QueryReply {
            columns,
            rows,
            cache_hit,
        })
    }

    /// `EXPLAIN` a query, returning the rendered plan + proof trace.
    pub fn explain(&mut self, sql: &str) -> Result<String, ClientError> {
        match self.call(&Frame::Explain { sql: sql.into() })? {
            Frame::Explained { text } => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Run a DDL/DML script; the server publishes one MVCC snapshot.
    pub fn exec(&mut self, sql: &str) -> Result<String, ClientError> {
        match self.call(&Frame::Exec { sql: sql.into() })? {
            Frame::Ack { message } => Ok(message),
            other => Err(unexpected(&other)),
        }
    }

    /// Collect statistics server-side (enables cost-based planning).
    pub fn analyze(&mut self) -> Result<String, ClientError> {
        match self.call(&Frame::Analyze)? {
            Frame::Ack { message } => Ok(message),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the server's named counters.
    pub fn stats(&mut self) -> Result<Vec<(String, i64)>, ClientError> {
        match self.call(&Frame::Stats)? {
            Frame::StatsReply { entries } => Ok(entries),
            other => Err(unexpected(&other)),
        }
    }

    /// Register an incrementally maintained view over `sql`. The reply
    /// carries the initial contents; subsequent changes arrive as
    /// pushed deltas, received via [`Client::recv_delta`].
    pub fn subscribe(&mut self, sql: &str) -> Result<SubscribeReply, ClientError> {
        let frame = self.call(&Frame::Subscribe { sql: sql.into() })?;
        let Frame::Subscribed {
            id,
            columns,
            mode,
            proof,
        } = frame
        else {
            return Err(unexpected(&frame));
        };
        let mut rows = Vec::new();
        loop {
            let frame = self.read()?;
            let Frame::RowBatch { rows: batch, last } = frame else {
                return Err(unexpected(&frame));
            };
            rows.extend(batch);
            if last {
                break;
            }
        }
        Ok(SubscribeReply {
            id,
            columns,
            rows,
            mode,
            proof,
        })
    }

    /// Drop a subscription by id.
    pub fn unsubscribe(&mut self, id: u64) -> Result<String, ClientError> {
        match self.call(&Frame::Unsubscribe { id })? {
            Frame::Ack { message } => Ok(message),
            other => Err(unexpected(&other)),
        }
    }

    /// Wait up to `timeout` for the next pushed delta. Returns
    /// `Ok(None)` when none arrives in time — an expected outcome
    /// while the subscribed view is quiet, not an error. (A timeout
    /// that fires mid-frame leaves the stream desynchronized; treat
    /// that `Io` error as fatal to the connection, as with any
    /// transport failure.)
    pub fn recv_delta(&mut self, timeout: Duration) -> Result<Option<DeltaEvent>, ClientError> {
        if let Some(event) = self.pending.pop_front() {
            return Ok(Some(event));
        }
        // A zero Duration means "no timeout" to the socket API; clamp
        // to the smallest real deadline instead. A frame already in the
        // read buffer decodes without reading the socket.
        self.stream
            .get_ref()
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let result = Frame::read_from(&mut self.stream);
        self.stream.get_ref().set_read_timeout(None)?;
        match result {
            Ok(Frame::ViewDelta {
                id,
                inserted,
                deleted,
            }) => Ok(Some(DeltaEvent {
                id,
                inserted,
                deleted,
            })),
            Ok(Frame::Error { message }) => Err(ClientError::Server(message)),
            Ok(other) => Err(unexpected(&other)),
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }
}
