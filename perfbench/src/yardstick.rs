//! The host's speed, gauged by work the benchmark owns.
//!
//! On a shared VM the host's effective speed drifts by up to 2× over
//! minutes while steal stays low, and every time the program takes
//! drifts with it. A yardstick unit is a fixed request and reply over
//! loopback TCP to an echo thread of this process, shaped like a small
//! query (a request, a header, a batch of rows), followed by decoding and
//! hashing the fixed rows: the kind of work a client does per op, with
//! none of the program's code or data in it.
//!
//! Units run between ops, while the host is as busy as the ops keep it.
//! A unit runs that work untimed until `uniqd` is idle — no thread
//! running — and then once more, timed in the client thread's CPU time.
//! The untimed passes refill the caches the preceding op evicted and wait
//! out what the server still does after its reply, such as releasing a
//! 20,000-row answer, which would otherwise slow the timed pass by an
//! amount the program sets. CPU time leaves out the wait for the echo
//! thread. The median timed pass over [`REFERENCE_US`] is how much slower
//! than the reference host the host ran.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::median;

/// Bytes of the request.
const REQUEST: usize = 128;

/// Bytes of the reply's header.
const HEADER: usize = 64;

/// Rows in the reply's batch: an integer key, an integer and two short
/// strings each.
const ROWS: usize = 32;

/// Bytes of a row in the batch.
const ROW: usize = 8 + 8 + 16 + 16;

/// How often a timed phase runs a unit: between two ops, once this long
/// has passed since the last unit.
pub const EVERY: Duration = Duration::from_millis(4);

/// Untimed passes a unit runs at most while it waits for the server to
/// go idle (about 5 ms).
const WAIT_PASSES: usize = 100;

/// The timed pass's median CPU time on the reference host (a shared
/// 2-vCPU VM), in µs. Scaled times read as they would on that host.
pub const REFERENCE_US: f64 = 30.0;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// The calling thread's CPU time up to this instant, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A decoded cell of the unit's reply.
#[derive(Hash)]
enum Cell {
    Int(i64),
    Text(String),
}

/// The echo peer and the fixed reply.
pub struct Yardstick {
    conn: TcpStream,
    echo: Option<JoinHandle<()>>,
    request: Vec<u8>,
    header: Vec<u8>,
    batch: Vec<u8>,
    last: Instant,
    /// The timed pass's CPU time of every unit since the last
    /// [`Yardstick::take_slowness`], µs.
    cpu_us: Vec<f64>,
}

fn io(what: &str, e: std::io::Error) -> String {
    format!("yardstick {what}: {e}")
}

/// The fixed batch: `ROWS` rows of two integers and two 16-byte strings.
fn batch() -> Vec<u8> {
    let mut out = Vec::with_capacity(ROWS * ROW);
    for i in 0..ROWS as u64 {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&(i * 7_919).to_le_bytes());
        out.extend_from_slice(format!("city-{i:011}").as_bytes());
        out.extend_from_slice(format!("part-{:011}", i * 31).as_bytes());
    }
    out
}

impl Yardstick {
    /// Start the echo thread and connect to it.
    pub fn start() -> Result<Yardstick, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
        let addr = listener.local_addr().map_err(|e| io("bind", e))?;
        let echo = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let header = vec![0x48; HEADER];
            let batch = batch();
            let mut request = vec![0u8; REQUEST];
            while peer.read_exact(&mut request).is_ok()
                && peer.write_all(&header).is_ok()
                && peer.write_all(&batch).is_ok()
            {}
        });
        let conn = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
        conn.set_nodelay(true).map_err(|e| io("connect", e))?;
        Ok(Yardstick {
            conn,
            echo: Some(echo),
            request: vec![0x51; REQUEST],
            header: vec![0; HEADER],
            batch: vec![0; ROWS * ROW],
            last: Instant::now(),
            cpu_us: Vec::new(),
        })
    }

    /// Run one unit and record its timed pass: untimed passes until
    /// `idle` holds (or [`WAIT_PASSES`] ran), then the timed one. Returns
    /// the unit's wall time.
    pub fn unit(&mut self, idle: &dyn Fn() -> Result<bool, String>) -> Result<Duration, String> {
        let started = Instant::now();
        self.pass()?;
        for _ in 0..WAIT_PASSES {
            if idle()? {
                break;
            }
            self.pass()?;
        }
        // Once more untimed: the check reads `/proc`, which evicts.
        self.pass()?;
        let cpu = thread_cpu_ns();
        self.pass()?;
        let cpu = thread_cpu_ns().saturating_sub(cpu);
        self.cpu_us.push(cpu as f64 / 1_000.0);
        self.last = Instant::now();
        Ok(started.elapsed())
    }

    /// One request, reply, decode and hash.
    fn pass(&mut self) -> Result<(), String> {
        self.conn
            .write_all(&self.request)
            .map_err(|e| io("send", e))?;
        self.conn
            .read_exact(&mut self.header)
            .map_err(|e| io("receive", e))?;
        self.conn
            .read_exact(&mut self.batch)
            .map_err(|e| io("receive", e))?;
        let int = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("8 bytes"));
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        let rows: Vec<Vec<Cell>> = self
            .batch
            .chunks_exact(ROW)
            .map(|r| {
                vec![
                    Cell::Int(int(&r[..8])),
                    Cell::Int(int(&r[8..16])),
                    Cell::Text(text(&r[16..32])),
                    Cell::Text(text(&r[32..])),
                ]
            })
            .collect();
        let mut hasher = DefaultHasher::new();
        rows.hash(&mut hasher);
        black_box(hasher.finish());
        Ok(())
    }

    /// Run a unit if [`EVERY`] has passed since the last one; returns the
    /// wall time it took (zero if none ran).
    pub fn tick(&mut self, idle: &dyn Fn() -> Result<bool, String>) -> Result<Duration, String> {
        if self.last.elapsed() >= EVERY {
            self.unit(idle)
        } else {
            Ok(Duration::ZERO)
        }
    }

    /// How much slower than the reference host the units since the last
    /// call ran: their median timed pass over [`REFERENCE_US`]. Starts
    /// the next count afresh.
    pub fn take_slowness(&mut self) -> f64 {
        median(&std::mem::take(&mut self.cpu_us)) / REFERENCE_US
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        let _ = self.conn.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_run_and_the_echo_thread_ends() {
        let mut stick = Yardstick::start().unwrap();
        let idle = || Ok(true);
        for _ in 0..5 {
            assert!(stick.unit(&idle).unwrap() > Duration::ZERO);
        }
        assert_eq!(stick.tick(&idle).unwrap(), Duration::ZERO);
        assert!(stick.take_slowness() > 0.0);
        assert!(stick.cpu_us.is_empty());
        // Dropping the yardstick ends and joins the echo thread.
    }
}
