//! The wire protocol: small length-prefixed binary frames.
//!
//! Every frame is `[u32 LE body length][opcode u8][payload]`. The
//! length covers opcode + payload, and is capped at [`MAX_FRAME`]; a
//! peer declaring more is rejected *before* any allocation, so a
//! hostile or corrupt length prefix can neither OOM nor hang the
//! server. Payload primitives:
//!
//! | type   | encoding                                             |
//! |--------|------------------------------------------------------|
//! | `u8`   | one byte                                             |
//! | `u32`  | 4 bytes LE                                           |
//! | `u64`  | 8 bytes LE                                           |
//! | `i64`  | 8 bytes LE                                           |
//! | string | `u32` byte length + UTF-8 bytes                      |
//! | value  | tag `0`=NULL, `1`=INT + i64, `2`=STR + string, `3`=BOOL + u8 |
//! | row    | `u32` arity + values                                 |
//!
//! The server encodes the frames it sends most — `RowHeader`,
//! `RowBatch` and `ViewDelta` — straight from borrowed rows with
//! [`encode_row_header`], [`encode_row_batch`] and [`encode_view_delta`],
//! byte-identical to [`Frame::encode`] of the owned frame.
//!
//! Decoding is total: truncated input, oversized lengths, unknown
//! opcodes or tags, non-UTF-8 strings and trailing garbage all come
//! back as [`WireError`], never a panic (the codec proptests assert
//! this over random and mutated byte strings).

use std::io::{Read, Write};
use uniq_types::Value;

/// Hard cap on a frame body (opcode + payload): 16 MiB.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Rows per [`Frame::RowBatch`] the server emits (bounds peak frame
/// size and lets clients stream large results).
pub const DEFAULT_BATCH_ROWS: usize = 256;

// Opcodes of the frames the server also encodes from borrowed data
// (`encode_row_header`, `encode_row_batch`, `encode_view_delta`).
const OP_ROW_HEADER: u8 = 0x81;
const OP_ROW_BATCH: u8 = 0x82;
const OP_VIEW_DELTA: u8 = 0x87;

/// A protocol or transport failure.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// The bytes violate the protocol: bad opcode, bad tag, oversized
    /// or short length, invalid UTF-8, trailing garbage.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

fn protocol(msg: impl Into<String>) -> WireError {
    WireError::Protocol(msg.into())
}

/// Everything that travels between `uniq-cli` and `uniqd`. Requests
/// carry opcodes `0x01..=0x07`; responses `0x81..=0x87` and `0xFF`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Run a `SELECT`, stream back `RowHeader` + `RowBatch`es.
    Query { sql: String },
    /// `EXPLAIN` a query; answered with `Explained`.
    Explain { sql: String },
    /// Run a DDL/DML script (publishes one MVCC snapshot); `Ack`ed.
    Exec { sql: String },
    /// Collect statistics and the column store server-side (enables
    /// cost-based planning, with covered blocks on the columnar kernels).
    Analyze,
    /// Ask for server counters; answered with `StatsReply`.
    Stats,
    /// Register an incrementally maintained view; answered with
    /// `Subscribed` + a `RowBatch` stream of the initial contents,
    /// then asynchronous `ViewDelta` pushes as writers publish.
    Subscribe { sql: String },
    /// Drop a subscription by registry id; `Ack`ed.
    Unsubscribe { id: u64 },
    /// First response to `Query`: output columns + plan-cache verdict.
    RowHeader {
        columns: Vec<String>,
        cache_hit: bool,
    },
    /// A chunk of result rows; `last` marks the final chunk.
    RowBatch { rows: Vec<Vec<Value>>, last: bool },
    /// The rendered `EXPLAIN` text.
    Explained { text: String },
    /// Success acknowledgement for `Exec` / `Analyze`.
    Ack { message: String },
    /// Named counters (cache hits, snapshot depth, …).
    StatsReply { entries: Vec<(String, i64)> },
    /// First response to `Subscribe`: the registry id, the view's
    /// output columns, its maintenance tier (`set` / `counting` /
    /// `recompute`) and the proof marker that licensed (or refused)
    /// the refcount-free tier. Initial rows follow as `RowBatch`es.
    Subscribed {
        id: u64,
        columns: Vec<String>,
        mode: String,
        proof: String,
    },
    /// Asynchronous push: one maintenance round's net change to a
    /// subscribed view. May arrive between any request/response pair —
    /// clients must buffer it while awaiting a solicited response.
    ViewDelta {
        id: u64,
        inserted: Vec<Vec<Value>>,
        deleted: Vec<Vec<Value>>,
    },
    /// Any failure: SQL errors, protocol violations, admission refusal.
    Error { message: String },
}

impl Frame {
    fn opcode(&self) -> u8 {
        match self {
            Frame::Query { .. } => 0x01,
            Frame::Explain { .. } => 0x02,
            Frame::Exec { .. } => 0x03,
            Frame::Analyze => 0x04,
            Frame::Stats => 0x05,
            Frame::Subscribe { .. } => 0x06,
            Frame::Unsubscribe { .. } => 0x07,
            Frame::RowHeader { .. } => OP_ROW_HEADER,
            Frame::RowBatch { .. } => OP_ROW_BATCH,
            Frame::Explained { .. } => 0x83,
            Frame::Ack { .. } => 0x84,
            Frame::StatsReply { .. } => 0x85,
            Frame::Subscribed { .. } => 0x86,
            Frame::ViewDelta { .. } => OP_VIEW_DELTA,
            Frame::Error { .. } => 0xFF,
        }
    }

    /// Encode into a self-delimiting byte string (length prefix
    /// included). Infallible: frames are built from valid Rust values.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append this frame's encoding (length prefix included) to `out`,
    /// so many frames can share one buffer and one socket write.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = open_frame(out, self.opcode());
        match self {
            Frame::Query { sql }
            | Frame::Explain { sql }
            | Frame::Exec { sql }
            | Frame::Subscribe { sql } => {
                put_str(out, sql);
            }
            Frame::Analyze | Frame::Stats => {}
            Frame::Unsubscribe { id } => put_u64(out, *id),
            Frame::Subscribed {
                id,
                columns,
                mode,
                proof,
            } => {
                put_u64(out, *id);
                put_u32(out, columns.len() as u32);
                for c in columns {
                    put_str(out, c);
                }
                put_str(out, mode);
                put_str(out, proof);
            }
            Frame::ViewDelta {
                id,
                inserted,
                deleted,
            } => put_view_delta(out, *id, inserted, deleted),
            Frame::RowHeader { columns, cache_hit } => put_row_header(out, columns, *cache_hit),
            Frame::RowBatch { rows, last } => put_row_batch(out, rows, *last),
            Frame::Explained { text } | Frame::Ack { message: text } => put_str(out, text),
            Frame::StatsReply { entries } => {
                put_u32(out, entries.len() as u32);
                for (name, value) in entries {
                    put_str(out, name);
                    out.extend_from_slice(&value.to_le_bytes());
                }
            }
            Frame::Error { message } => put_str(out, message),
        }
        close_frame(out, start);
    }

    /// Decode one frame body (opcode + payload, length prefix already
    /// stripped). Rejects trailing bytes: a frame is exactly its
    /// declared length.
    pub fn decode(body: &[u8]) -> Result<Frame, WireError> {
        let mut cur = Cursor { buf: body, pos: 0 };
        let op = cur.u8()?;
        let frame = match op {
            0x01 => Frame::Query { sql: cur.string()? },
            0x02 => Frame::Explain { sql: cur.string()? },
            0x03 => Frame::Exec { sql: cur.string()? },
            0x04 => Frame::Analyze,
            0x05 => Frame::Stats,
            0x06 => Frame::Subscribe { sql: cur.string()? },
            0x07 => Frame::Unsubscribe { id: cur.u64()? },
            OP_ROW_HEADER => {
                let n = cur.u32()? as usize;
                let mut columns = Vec::new();
                for _ in 0..n {
                    columns.push(cur.string()?);
                }
                let cache_hit = cur.boolean()?;
                Frame::RowHeader { columns, cache_hit }
            }
            OP_ROW_BATCH => {
                let rows = cur.rows()?;
                let last = cur.boolean()?;
                Frame::RowBatch { rows, last }
            }
            0x83 => Frame::Explained {
                text: cur.string()?,
            },
            0x84 => Frame::Ack {
                message: cur.string()?,
            },
            0x85 => {
                let n = cur.u32()? as usize;
                let mut entries = Vec::new();
                for _ in 0..n {
                    let name = cur.string()?;
                    let value = cur.i64()?;
                    entries.push((name, value));
                }
                Frame::StatsReply { entries }
            }
            0x86 => {
                let id = cur.u64()?;
                let n = cur.u32()? as usize;
                let mut columns = Vec::new();
                for _ in 0..n {
                    columns.push(cur.string()?);
                }
                let mode = cur.string()?;
                let proof = cur.string()?;
                Frame::Subscribed {
                    id,
                    columns,
                    mode,
                    proof,
                }
            }
            OP_VIEW_DELTA => {
                let id = cur.u64()?;
                let inserted = cur.rows()?;
                let deleted = cur.rows()?;
                Frame::ViewDelta {
                    id,
                    inserted,
                    deleted,
                }
            }
            0xFF => Frame::Error {
                message: cur.string()?,
            },
            other => return Err(protocol(format!("unknown opcode 0x{other:02x}"))),
        };
        if cur.pos != body.len() {
            return Err(protocol(format!(
                "{} trailing byte(s) after frame",
                body.len() - cur.pos
            )));
        }
        Ok(frame)
    }

    /// Write one frame to `w` (single `write_all`, so a frame is never
    /// interleaved with another writer's bytes).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        w.write_all(&self.encode())?;
        Ok(())
    }

    /// Read one frame from `r`. An oversized declared length is
    /// rejected before any payload allocation.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, WireError> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len);
        if len == 0 {
            return Err(protocol("empty frame"));
        }
        if len > MAX_FRAME {
            return Err(protocol(format!(
                "declared frame length {len} exceeds cap {MAX_FRAME}"
            )));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?;
        Frame::decode(&body)
    }
}

/// Append a `RowHeader` frame straight from borrowed column names —
/// byte-identical to encoding the owned [`Frame::RowHeader`].
pub fn encode_row_header(out: &mut Vec<u8>, columns: &[impl AsRef<str>], cache_hit: bool) {
    let start = open_frame(out, OP_ROW_HEADER);
    put_row_header(out, columns, cache_hit);
    close_frame(out, start);
}

/// Append a `RowBatch` frame straight from borrowed rows —
/// byte-identical to encoding the owned [`Frame::RowBatch`], without
/// copying a row.
pub fn encode_row_batch(out: &mut Vec<u8>, rows: &[Vec<Value>], last: bool) {
    let start = open_frame(out, OP_ROW_BATCH);
    put_row_batch(out, rows, last);
    close_frame(out, start);
}

/// Append a `ViewDelta` frame straight from borrowed rows —
/// byte-identical to encoding the owned [`Frame::ViewDelta`].
pub fn encode_view_delta(
    out: &mut Vec<u8>,
    id: u64,
    inserted: &[Vec<Value>],
    deleted: &[Vec<Value>],
) {
    let start = open_frame(out, OP_VIEW_DELTA);
    put_view_delta(out, id, inserted, deleted);
    close_frame(out, start);
}

/// Start a frame at the end of `out`: a length placeholder and the
/// opcode. Returns where the frame starts, for [`close_frame`].
fn open_frame(out: &mut Vec<u8>, opcode: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(opcode);
    start
}

/// Fill in the length prefix of the frame opened at `start`.
fn close_frame(out: &mut [u8], start: usize) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

fn put_row_header(out: &mut Vec<u8>, columns: &[impl AsRef<str>], cache_hit: bool) {
    put_u32(out, columns.len() as u32);
    for c in columns {
        put_str(out, c.as_ref());
    }
    out.push(u8::from(cache_hit));
}

fn put_row_batch(out: &mut Vec<u8>, rows: &[Vec<Value>], last: bool) {
    put_rows(out, rows);
    out.push(u8::from(last));
}

fn put_view_delta(out: &mut Vec<u8>, id: u64, inserted: &[Vec<Value>], deleted: &[Vec<Value>]) {
    put_u64(out, id);
    put_rows(out, inserted);
    put_rows(out, deleted);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_rows(out: &mut Vec<u8>, rows: &[Vec<Value>]) {
    put_u32(out, rows.len() as u32);
    for row in rows {
        put_u32(out, row.len() as u32);
        for v in row {
            put_value(out, v);
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(2);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(u8::from(*b));
        }
    }
}

/// A bounds-checked reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| protocol("frame body truncated"))?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(protocol(format!("invalid boolean byte {other}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn rows(&mut self) -> Result<Vec<Vec<Value>>, WireError> {
        let n = self.u32()? as usize;
        let mut rows = Vec::new();
        for _ in 0..n {
            let arity = self.u32()? as usize;
            let mut row = Vec::new();
            for _ in 0..arity {
                row.push(self.value()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| protocol("string is not UTF-8"))
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Str(self.string()?)),
            3 => Ok(Value::Bool(self.boolean()?)),
            other => Err(protocol(format!("unknown value tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        let mut r = &bytes[..];
        let back = Frame::read_from(&mut r).unwrap();
        assert_eq!(back, frame);
        assert!(r.is_empty(), "whole encoding consumed");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Frame::Query {
            sql: "SELECT S.SNO FROM SUPPLIER S".into(),
        });
        roundtrip(Frame::Explain { sql: "".into() });
        roundtrip(Frame::Exec {
            sql: "INSERT INTO T VALUES (1);".into(),
        });
        roundtrip(Frame::Analyze);
        roundtrip(Frame::Stats);
        roundtrip(Frame::RowHeader {
            columns: vec!["SNO".into(), "SNAME".into()],
            cache_hit: true,
        });
        roundtrip(Frame::RowBatch {
            rows: vec![
                vec![Value::Int(1), Value::Str("Acme".into())],
                vec![Value::Null, Value::Bool(false)],
            ],
            last: true,
        });
        roundtrip(Frame::RowBatch {
            rows: vec![],
            last: false,
        });
        roundtrip(Frame::Explained {
            text: "Plan: compiled\n…".into(),
        });
        roundtrip(Frame::Ack {
            message: "ok".into(),
        });
        roundtrip(Frame::StatsReply {
            entries: vec![("cache.hits".into(), 17), ("depth".into(), -1)],
        });
        roundtrip(Frame::Error {
            message: "unknown table Q".into(),
        });
        roundtrip(Frame::Subscribe {
            sql: "SELECT DISTINCT S.SNO FROM SUPPLIER S".into(),
        });
        roundtrip(Frame::Unsubscribe { id: u64::MAX });
        roundtrip(Frame::Subscribed {
            id: 3,
            columns: vec!["SNO".into(), "PNO".into()],
            mode: "set".into(),
            proof: "✓".into(),
        });
        roundtrip(Frame::ViewDelta {
            id: 3,
            inserted: vec![vec![Value::Int(7), Value::Str("x".into())]],
            deleted: vec![],
        });
        roundtrip(Frame::ViewDelta {
            id: 0,
            inserted: vec![],
            deleted: vec![vec![Value::Null], vec![Value::Bool(true)]],
        });
    }

    #[test]
    fn view_delta_trailing_bytes_are_rejected() {
        let mut body = Frame::ViewDelta {
            id: 1,
            inserted: vec![],
            deleted: vec![],
        }
        .encode()[4..]
            .to_vec();
        body.push(0x00);
        match Frame::decode(&body) {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_length_prefix_is_io_error() {
        let mut r: &[u8] = &[0x05, 0x00];
        match Frame::read_from(&mut r) {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut bytes = (MAX_FRAME + 1).to_le_bytes().to_vec();
        bytes.push(0x01);
        let mut r = &bytes[..];
        match Frame::read_from(&mut r) {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("exceeds cap"), "{msg}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_opcode_is_a_protocol_error() {
        let body = [0x42u8];
        match Frame::decode(&body) {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("unknown opcode"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inner_length_cannot_escape_the_body() {
        // Query frame whose string claims 1000 bytes but carries 2.
        let mut body = vec![0x01];
        body.extend_from_slice(&1000u32.to_le_bytes());
        body.extend_from_slice(b"ab");
        match Frame::decode(&body) {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Frame::Analyze.encode();
        // Splice an extra byte into the body and fix the length.
        bytes.push(0x00);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let mut r = &bytes[..];
        match Frame::read_from(&mut r) {
            Err(WireError::Protocol(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_frame_is_rejected() {
        let bytes = 0u32.to_le_bytes();
        let mut r = &bytes[..];
        assert!(matches!(
            Frame::read_from(&mut r),
            Err(WireError::Protocol(_))
        ));
    }
}
