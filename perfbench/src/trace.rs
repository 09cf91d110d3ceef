//! The in-process passes of the traced run: the same op sequence,
//! driven from a spawned thread against a `SharedEngine` loaded with the
//! same script. The traced pass records a span around each `query`,
//! `execute` and `subscribe` call — children laid end to end from the
//! returned `StageTimings` — plus a codec span for the frames the server
//! would encode and the client decode, and sink-callback timestamps for
//! writes. An untraced pass makes the same calls and codec work and
//! records nothing; the traced pass's wall clock against the mean of
//! untraced passes run before and after it is the tracing overhead.

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use uniq_catalog::Database;
use uniq_engine::{EngineStats, ExecStats, QueryOutput, SharedEngine, SubscriptionSink};
use uniq_server::{Frame, DEFAULT_BATCH_ROWS};

use crate::check::{Answer, Logged, Tally};
use crate::ops::{Op, Plan, Workload, VIEWS};
use crate::report::percentile;

/// One timed interval. Spans of one op share `op`; `parent` is the id
/// of the enclosing span (0 for a root).
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u32,
    /// Enclosing span, 0 for a root.
    pub parent: u32,
    /// Op index in the sequence; [`SETUP_OP`] for set-up calls.
    pub op: u32,
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the pass began.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Exact counters of a pass, summed over its timed ops. They repeat
/// exactly for one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Ops in the pass.
    pub ops: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Plan-cache hits, misses and evictions over the timed ops.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// See `cache_hits`.
    pub cache_evictions: u64,
    /// Executor work of the reads.
    pub exec: ExecStats,
    /// Reads that compiled, warm-up included; the compile counters below
    /// cover the same reads.
    pub compiles: u64,
    /// Rule attempts and fires (`RuleStats`).
    pub rule_attempts: u64,
    /// See `rule_attempts`.
    pub rule_fires: u64,
    /// Rewrite steps taken, and those the checker proved.
    pub steps: u64,
    /// See `steps`.
    pub proved: u64,
    /// Uniqueness tests computed (not memoized).
    pub uniqueness_tests: u64,
    /// Maintenance work per view (E22's work sum), in `VIEWS` order.
    pub view_work: [u64; 3],
    /// Base rows a per-write recompute would have read, minus those
    /// maintenance touched (`subs.rows_saved`).
    pub rows_saved: u64,
    /// Rows maintenance touched: scanned, delta and probe steps.
    pub rows_touched: u64,
    /// A digest of the op texts.
    pub sequence: u64,
}

/// What one in-process pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall clock of the op loop.
    pub wall_s: f64,
    /// Spans (traced pass only).
    pub spans: Vec<Span>,
    /// Exact counters.
    pub counts: Counts,
    /// Answers, for the checks.
    pub log: Vec<Logged>,
}

impl Counts {
    /// Count the compile work of `out` if it compiled.
    fn compiled(&mut self, out: &QueryOutput) {
        if out.cache_hit {
            return;
        }
        self.compiles += 1;
        for rule in &out.trace.rule_stats {
            self.rule_attempts += rule.attempts;
            self.rule_fires += rule.fires;
        }
        self.steps += out.trace.steps.len() as u64;
        self.proved += out
            .trace
            .steps
            .iter()
            .filter(|s| s.proof.is_proved())
            .count() as u64;
        self.uniqueness_tests += out.trace.uniqueness_tests_computed;
    }
}

/// The `op` of spans recorded during set-up (subscriptions, warm-up).
pub const SETUP_OP: u32 = u32::MAX;

/// E22's maintenance work sum.
fn work(stats: &ExecStats) -> u64 {
    stats.rows_scanned
        + stats.delta_rows
        + stats.probe_steps
        + stats.hash_probes
        + stats.sort_comparisons
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span; returns its id (0 when not recording).
    fn span(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            dur_ns,
        });
        id
    }

    /// Children of a `query` span, end to end from its `StageTimings`;
    /// `shared` is the remainder of the span (snapshot pin, cache probe,
    /// trace and column copies).
    fn query_children(
        &mut self,
        parent: u32,
        op: u32,
        start_ns: u64,
        dur_ns: u64,
        out: &QueryOutput,
    ) {
        if !self.on {
            return;
        }
        let t = out.timings;
        let rules: u64 = out.trace.rule_stats.iter().map(|r| r.nanos).sum();
        let proofs: u64 = out.trace.rule_stats.iter().map(|r| r.proof_nanos).sum();
        let mut parts: Vec<(&'static str, u64)> = vec![("parse", t.parse_ns)];
        if !out.cache_hit {
            parts.push(("bind", t.bind_ns));
            parts.push(("rewrite", rules));
            parts.push(("proof", proofs));
            parts.push(("plan", t.optimize_ns.saturating_sub(rules + proofs)));
        }
        parts.push(("execute", t.execute_ns));
        parts.push(("shared", dur_ns.saturating_sub(t.total_ns())));
        let mut at = start_ns;
        for (name, ns) in parts {
            // A compile that fired nothing runs no checker: no proof span.
            if name != "proof" || ns > 0 {
                self.span(parent, op, name, at, ns);
            }
            at += ns;
        }
    }
}

/// Encode and decode what the server and client would for one read: the
/// `Query` request, a `RowHeader`, then `RowBatch`es of
/// `DEFAULT_BATCH_ROWS` rows.
fn codec(sql: &str, out: &QueryOutput) {
    let request = Frame::Query { sql: sql.into() }.encode();
    black_box(Frame::decode(&request[4..]).expect("request decodes"));
    let header = Frame::RowHeader {
        columns: out.columns.iter().map(|c| c.to_string()).collect(),
        cache_hit: out.cache_hit,
    }
    .encode();
    black_box(Frame::decode(&header[4..]).expect("header decodes"));
    let batches = out.rows.len().div_ceil(DEFAULT_BATCH_ROWS).max(1);
    for b in 0..batches {
        let lo = b * DEFAULT_BATCH_ROWS;
        let hi = (lo + DEFAULT_BATCH_ROWS).min(out.rows.len());
        let bytes = Frame::RowBatch {
            rows: out.rows[lo..hi].to_vec(),
            last: b + 1 == batches,
        }
        .encode();
        black_box(Frame::decode(&bytes[4..]).expect("batch decodes"));
    }
}

type SinkLog = Arc<Mutex<Vec<(u64, Instant)>>>;

/// Run `ops` ops of `plan` in-process on a fresh engine loaded with
/// `script`, from a spawned thread.
pub fn pass(plan: &Plan, script: &str, ops: usize, traced: bool) -> Result<Pass, String> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| drive(plan, script, ops, traced))
            .join()
            .expect("in-process pass panicked")
    })
}

fn drive(plan: &Plan, script: &str, ops: usize, traced: bool) -> Result<Pass, String> {
    let engine = SharedEngine::new(Database::new());
    engine.execute(script).map_err(|e| format!("load: {e}"))?;
    engine.analyze();
    let mut rec = Recorder {
        on: traced,
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let sink_log: SinkLog = Arc::new(Mutex::new(Vec::new()));
    let mut ids = Vec::new();
    if plan.workload == Workload::WriteSubscribe {
        for (tier, sql) in VIEWS {
            let sink: SinkLog = Arc::clone(&sink_log);
            let sink: SubscriptionSink = if traced {
                Box::new(move |id, _| {
                    sink.lock()
                        .expect("sink log lock")
                        .push((id, Instant::now()));
                    true
                })
            } else {
                Box::new(|_, _| true)
            };
            let started = Instant::now();
            let sub = engine
                .subscribe(sql, sink)
                .map_err(|e| format!("{sql}: {e}"))?;
            let at = rec.ns(started);
            rec.span(0, SETUP_OP, "subscribe", at, rec.ns(Instant::now()) - at);
            if sub.mode.tag() != tier {
                return Err(format!(
                    "{sql}: subscribed on tier {}, want {tier}",
                    sub.mode.tag()
                ));
            }
            ids.push(sub.id);
        }
    }
    let mut counts = Counts::default();
    for op in plan.warm_up() {
        let text = op.sql(plan);
        let t0 = Instant::now();
        let out = engine
            .query(text)
            .map_err(|e| format!("warm-up: {text}: {e}"))?;
        let (start, dur) = (rec.ns(t0), t0.elapsed().as_nanos() as u64);
        let id = rec.span(0, SETUP_OP, "query", start, dur);
        rec.query_children(id, SETUP_OP, start, dur, &out);
        counts.compiled(&out);
    }

    let before = engine.stats();
    let work_before: Vec<ExecStats> = ids
        .iter()
        .map(|&id| engine.subscription_work(id).unwrap_or_default())
        .collect();
    let mut log = Vec::new();
    let mut stream = plan.stream();
    let started = Instant::now();
    for i in 0..ops {
        let op = stream.next_op();
        let sql = op.sql(plan);
        let op_id = i as u32;
        match &op {
            Op::Read(_) | Op::Adhoc { .. } => {
                let t0 = Instant::now();
                let out = engine.query(sql).map_err(|e| format!("{sql}: {e}"))?;
                let t1 = Instant::now();
                codec(sql, &out);
                if traced {
                    let t2 = Instant::now();
                    let (start, dur) = (rec.ns(t0), (t1 - t0).as_nanos() as u64);
                    let id = rec.span(0, op_id, "query", start, dur);
                    rec.query_children(id, op_id, start, dur, &out);
                    rec.span(0, op_id, "codec", rec.ns(t1), (t2 - t1).as_nanos() as u64);
                }
                counts.reads += 1;
                counts.exec.merge(&out.stats);
                counts.compiled(&out);
                log.push(Logged::of(&op, Answer::for_sql(sql, &out.rows)));
            }
            Op::Write(write) => {
                if traced {
                    sink_log.lock().expect("sink log lock").clear();
                }
                let t0 = Instant::now();
                engine
                    .execute(write.sql())
                    .map_err(|e| format!("{sql}: {e}"))?;
                let t1 = Instant::now();
                if traced {
                    let (start, dur) = (rec.ns(t0), (t1 - t0).as_nanos() as u64);
                    let id = rec.span(0, op_id, "execute_sql", start, dur);
                    // The first sink call of the first-registered, O(Δ)
                    // set-tier view marks the publish.
                    let published = sink_log
                        .lock()
                        .expect("sink log lock")
                        .iter()
                        .find(|(sub, _)| Some(sub) == ids.first())
                        .map(|&(_, at)| at);
                    if let Some(at) = published {
                        let publish = (at - t0).as_nanos() as u64;
                        rec.span(id, op_id, "publish", start, publish);
                        rec.span(id, op_id, "maintain", start + publish, dur - publish);
                    }
                }
                counts.writes += 1;
                log.push(Logged::of(&op, Answer::of(&[], false)));
            }
        }
        counts.ops += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();

    let after: EngineStats = engine.stats();
    counts.cache_hits = after.cache.hits - before.cache.hits;
    counts.cache_misses = after.cache.misses - before.cache.misses;
    counts.cache_evictions = after.cache.evictions - before.cache.evictions;
    counts.rows_saved = after.subs.rows_saved - before.subs.rows_saved;
    for (slot, (&id, was)) in ids.iter().zip(&work_before).enumerate() {
        let now = engine
            .subscription_work(id)
            .ok_or_else(|| format!("subscription {id} was dropped"))?;
        counts.view_work[slot] = work(&now) - work(was);
        counts.rows_touched += (now.rows_scanned + now.delta_rows + now.probe_steps)
            - (was.rows_scanned + was.delta_rows + was.probe_steps);
    }
    if after.subs.dropped > 0 {
        return Err(format!("{} subscription(s) dropped", after.subs.dropped));
    }
    counts.sequence = crate::ops::sequence_digest(plan, ops);
    Ok(Pass {
        wall_s,
        spans: rec.spans,
        counts,
        log,
    })
}

/// p50 of the spans called `name`, in µs; `setup` includes the spans of
/// set-up calls.
pub fn span_p50_us(spans: &[Span], name: &str, setup: bool) -> f64 {
    let values: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && (setup || s.op != SETUP_OP))
        .map(|s| s.dur_ns as f64 / 1_000.0)
        .collect();
    percentile(&values, 0.5)
}

/// Per-op durations of spans called `name`, by op index.
pub fn span_by_op(spans: &[Span], name: &str) -> Vec<(u32, u64)> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.op, s.dur_ns))
        .collect()
}

/// The spans as tab-separated lines: id, parent, op, name, start, duration.
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\top\tname\tstart_ns\tdur_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.dur_ns
        );
    }
    out
}

/// Check a pass's answers against those of the wire pass over the same
/// op sequence, which were checked against the oracle.
pub fn check(pass: &Pass, wire_log: &[Logged], tally: &mut Tally) {
    tally.attempted += pass.counts.ops;
    if pass.log.len() != wire_log.len() {
        tally.fail(format!(
            "in-process pass logged {} ops, the wire pass {}",
            pass.log.len(),
            wire_log.len()
        ));
    }
    for (i, (got, want)) in pass.log.iter().zip(wire_log).enumerate() {
        if got != want {
            tally.fail(format!("op {i}: in-process answer differs from the wire's"));
        }
    }
}
