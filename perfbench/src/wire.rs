//! The end-to-end pass: the real `uniqd` in its own process, loaded over
//! the wire and driven by one closed-loop client thread — one request in
//! flight, one connection for requests and, in `write_subscribe`, a
//! second that holds the subscriptions.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use uniq_server::{Client, ClientError};
use uniq_types::Value;

use crate::check::{Answer, DeltaPredictor, Logged, Multiset, Tally};
use crate::ops::{Op, Plan, Workload, VIEWS};
use crate::procfs::{self, host_steal_ticks, ProcSample};
use crate::yardstick::Yardstick;

/// How long a predicted `ViewDelta` may take before it counts as
/// missing.
const DELTA_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the end of a run waits for deltas nobody predicted.
const STRAY_DELTA_WAIT: Duration = Duration::from_millis(200);

/// A running `uniqd --empty --port 0`, killed and reaped on drop.
pub struct Uniqd {
    child: Child,
    addr: String,
}

impl Uniqd {
    /// Start `path` and wait for its `uniqd listening on ADDR` line.
    pub fn spawn(path: &Path) -> Result<Uniqd, String> {
        let mut child = Command::new(path)
            .args(["--empty", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start {}: {e}", path.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("uniqd listening on ")
            .map(str::to_string);
        let mut server = Uniqd {
            child,
            addr: String::new(),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("uniqd did not report its address: {line:?}")),
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Uniqd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn wire(what: &str, e: ClientError) -> String {
    format!("{what}: {e}")
}

/// One subscribed view as the client has assembled it.
struct View {
    id: u64,
    rows: Multiset,
}

/// A loaded server and its connections.
pub struct Live {
    /// The server process.
    pub server: Uniqd,
    main: Client,
    subs: Option<(Client, Vec<View>)>,
    /// Seconds from the first connection to the end of warm-up.
    pub setup_s: f64,
    /// How much slower than the reference host the set-up ran, by the
    /// yardstick units run between its steps.
    pub setup_slowness: f64,
}

/// Yardstick units run back to back after connecting and after
/// `ANALYZE`, around the load: the one step too long to tick through.
const SETUP_UNITS: usize = 5;

/// Start a server and set it up: load the script (rows and indexes),
/// `ANALYZE`, subscribe (`write_subscribe`) and run the plan's warm-up,
/// with yardstick units between the steps. Returns the warm-up answers
/// for checking; checking them, like the units, is not part of the
/// set-up time.
pub fn setup(
    path: &Path,
    plan: &Plan,
    script: &str,
    stick: &mut Yardstick,
) -> Result<(Live, Vec<Logged>), String> {
    let server = Uniqd::spawn(path)?;
    let pid = server.pid();
    let idle = move || procfs::idle(pid);
    let mut measuring = Duration::ZERO;
    let started = Instant::now();
    let mut main = Client::connect(server.addr.as_str()).map_err(|e| wire("connect", e))?;
    for _ in 0..SETUP_UNITS {
        measuring += stick.unit(&idle)?;
    }
    main.exec(script).map_err(|e| wire("load", e))?;
    main.analyze().map_err(|e| wire("analyze", e))?;
    for _ in 0..SETUP_UNITS {
        measuring += stick.unit(&idle)?;
    }
    let mut subs = None;
    let mut initial = Vec::new();
    if plan.workload == Workload::WriteSubscribe {
        let mut client = Client::connect(server.addr.as_str()).map_err(|e| wire("connect", e))?;
        for (tier, sql) in VIEWS {
            let reply = client.subscribe(sql).map_err(|e| wire("subscribe", e))?;
            if reply.mode != tier {
                return Err(format!(
                    "{sql}: subscribed on tier {}, want {tier}",
                    reply.mode
                ));
            }
            initial.push((reply.id, reply.rows));
        }
        subs = Some(client);
    }
    let warm_up = plan.warm_up();
    let mut warm = Vec::with_capacity(warm_up.len());
    for op in &warm_up {
        measuring += stick.tick(&idle)?;
        let sql = op.sql(plan);
        warm.push(main.query(sql).map_err(|e| wire(sql, e))?.rows);
    }
    let setup_s = (started.elapsed() - measuring).as_secs_f64();
    let setup_slowness = stick.take_slowness();

    let views = initial
        .iter()
        .map(|(id, rows)| View {
            id: *id,
            rows: Multiset::of(rows),
        })
        .collect();
    let answers = warm_up
        .iter()
        .zip(&warm)
        .map(|(op, rows)| Logged::of(op, Answer::for_sql(op.sql(plan), rows)))
        .collect();
    Ok((
        Live {
            server,
            main,
            subs: subs.map(|client| (client, views)),
            setup_s,
            setup_slowness,
        },
        answers,
    ))
}

/// When a pass stops: after a wall-clock budget or a number of ops,
/// either way only at a block boundary.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Run this long.
    Seconds(f64),
    /// Run at least this many ops.
    Ops(usize),
}

impl Budget {
    /// Whether a pass that began at `started` and has run `ops` ops is
    /// done.
    fn spent(&self, started: Instant, ops: usize) -> bool {
        match *self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Ops(n) => ops >= n,
        }
    }
}

/// What an end-to-end pass measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Ops run.
    pub ops: u64,
    /// Wall clock of the timed phase.
    pub elapsed_s: f64,
    /// Latency of reads of repeated texts, µs.
    pub read_us: Vec<f64>,
    /// Latency of never-seen reads, µs.
    pub adhoc_us: Vec<f64>,
    /// `INSERT` sent to `Ack`, µs.
    pub write_us: Vec<f64>,
    /// `INSERT` sent to its last predicted `ViewDelta`, µs.
    pub notify_us: Vec<f64>,
    /// Latency of each read by op index (`None` for writes), µs.
    pub by_op: Vec<Option<f64>>,
    /// `uniqd`'s CPU and context switches over the timed phase.
    pub proc: ProcSample,
    /// Host steal ticks over the timed phase.
    pub steal_ticks: u64,
    /// Wall clock the timed phase spent in yardstick units, seconds.
    pub yardstick_s: f64,
    /// How much slower than the reference host the timed phase ran, by
    /// the yardstick.
    pub slowness: f64,
    /// The answers, for the checks after the timed phase.
    pub log: Vec<Logged>,
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1_000.0
}

/// Run `plan`'s op stream against a set-up server until `budget` is
/// spent, with a yardstick unit between two ops every
/// [`crate::yardstick::EVERY`]. Error frames and missing or unexpected
/// deltas count as failed ops; a broken connection ends the run with an
/// error.
pub fn run(
    live: &mut Live,
    plan: &Plan,
    predictor: &mut DeltaPredictor,
    budget: Budget,
    stick: &mut Yardstick,
    tally: &mut Tally,
) -> Result<E2e, String> {
    let mut out = E2e::default();
    let mut stream = plan.stream();
    let pid = live.server.pid();
    let idle = move || procfs::idle(pid);
    let before = ProcSample::read(pid)?;
    let steal_before = host_steal_ticks();
    let mut measuring = Duration::ZERO;
    let started = Instant::now();
    while !(stream.at_block_start() && budget.spent(started, out.by_op.len())) {
        measuring += stick.tick(&idle)?;
        let op = stream.next_op();
        tally.attempted += 1;
        match &op {
            Op::Read(_) | Op::Adhoc { .. } => {
                let sql = op.sql(plan);
                let sent = Instant::now();
                let reply = live.main.query(sql);
                let us = micros(sent);
                out.by_op.push(Some(us));
                match reply {
                    Ok(reply) => {
                        match &op {
                            Op::Read(_) => out.read_us.push(us),
                            _ => out.adhoc_us.push(us),
                        }
                        out.log
                            .push(Logged::of(&op, Answer::for_sql(sql, &reply.rows)));
                    }
                    Err(ClientError::Server(msg)) => tally.fail(format!("{sql}: {msg}")),
                    Err(e) => return Err(wire(sql, e)),
                }
            }
            Op::Write(write) => {
                out.by_op.push(None);
                let sent = Instant::now();
                match live.main.exec(write.sql()) {
                    Ok(_) => out.write_us.push(micros(sent)),
                    Err(ClientError::Server(msg)) => {
                        tally.fail(format!("{}: {msg}", write.sql()));
                        continue;
                    }
                    Err(e) => return Err(wire(write.sql(), e)),
                }
                out.log.push(Logged::of(&op, Answer::of(&[], false)));
                if let Some((client, views)) = &mut live.subs {
                    let changed = predictor.changed(&op, &views[1].rows);
                    if drain(client, views, &changed, tally)? {
                        out.notify_us.push(micros(sent));
                    }
                }
            }
        }
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    out.ops = out.by_op.len() as u64;
    out.proc = ProcSample::read(pid)?.since(&before);
    out.steal_ticks = host_steal_ticks().saturating_sub(steal_before);
    out.yardstick_s = measuring.as_secs_f64();
    out.slowness = stick.take_slowness();
    Ok(out)
}

/// Receive the deltas of the views in `changed` (slots of `VIEWS`) and
/// fold them into the client's copies. Returns whether all of them
/// arrived (and at least one was due); each missing or unexpected delta
/// fails.
fn drain(
    client: &mut Client,
    views: &mut [View],
    changed: &[usize],
    tally: &mut Tally,
) -> Result<bool, String> {
    let mut due: Vec<u64> = changed.iter().map(|&slot| views[slot].id).collect();
    let mut complete = !due.is_empty();
    while !due.is_empty() {
        match client.recv_delta(DELTA_TIMEOUT) {
            Ok(Some(delta)) => {
                match due.iter().position(|&id| id == delta.id) {
                    Some(at) => {
                        due.swap_remove(at);
                    }
                    None => {
                        complete = false;
                        tally.fail(format!("unexpected delta for subscription {}", delta.id));
                    }
                }
                apply(views, delta.id, &delta.inserted, &delta.deleted, tally);
            }
            Ok(None) => {
                for id in due.drain(..) {
                    tally.fail(format!("missing delta for subscription {id}"));
                }
                return Ok(false);
            }
            Err(e) => return Err(wire("deltas", e)),
        }
    }
    Ok(complete)
}

fn apply(
    views: &mut [View],
    id: u64,
    inserted: &[Vec<Value>],
    deleted: &[Vec<Value>],
    tally: &mut Tally,
) {
    match views.iter_mut().find(|v| v.id == id) {
        Some(view) => {
            if !view.rows.remove(deleted) {
                tally.fail(format!("delta for subscription {id} deletes an absent row"));
            }
            view.rows.add(inserted);
        }
        None => tally.fail(format!("delta for unknown subscription {id}")),
    }
}

/// End-of-run view checks (`write_subscribe`): take any delta nobody
/// predicted, then reconcile each view — initial rows plus deltas —
/// with a fresh query, and require `subs.dropped` = 0. Returns each
/// view's fresh answer for the oracle comparison.
pub fn reconcile_views(live: &mut Live, tally: &mut Tally) -> Result<Vec<Answer>, String> {
    let Some((client, views)) = &mut live.subs else {
        return Ok(Vec::new());
    };
    while let Some(delta) = client
        .recv_delta(STRAY_DELTA_WAIT)
        .map_err(|e| wire("deltas", e))?
    {
        tally.fail(format!("unexpected delta for subscription {}", delta.id));
        apply(views, delta.id, &delta.inserted, &delta.deleted, tally);
    }
    let mut fresh = Vec::new();
    for ((_, sql), view) in VIEWS.iter().zip(views.iter()) {
        tally.attempted += 1;
        let rows = live.main.query(sql).map_err(|e| wire(sql, e))?.rows;
        if Multiset::of(&rows) != view.rows {
            tally.fail(format!(
                "subscribed view diverged from a fresh query: {sql}"
            ));
        }
        fresh.push(Answer::for_sql(sql, &rows));
    }
    let stats = live.main.stats().map_err(|e| wire("stats", e))?;
    let dropped = stats
        .iter()
        .find(|(name, _)| name == "subs.dropped")
        .map_or(0, |(_, n)| *n);
    for _ in 0..dropped {
        tally.fail("subscription dropped by the server");
    }
    Ok(fresh)
}
