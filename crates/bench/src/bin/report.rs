//! Regenerate every experiment table of `EXPERIMENTS.md`.
//!
//! Usage:
//! ```text
//! cargo run -p uniq-bench --bin report --release            # all experiments
//! cargo run -p uniq-bench --bin report --release -- e2 e7   # a subset
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uniq_bench::baseline::optimize_root_restart;
use uniq_bench::{
    e15_exists_chain, e15_union_chain, e16_contenders, e16_corpus, e17_corpus, e18_corpus,
    e18_work, e19_contenders, e19_corpus, e19_point_lookups, e19_work, e20_corpus, fmt_duration,
    median_time, row_path, scaled_session, total_work, Runner, E18_CONTENDERS, E18_JOIN_DISTINCT,
    E18_UNIQUE_PROBE, E19_INDEX_JOIN, E20_PUSHDOWN_BLOCKED, E20_PUSHDOWN_OK, E20_UNION_BOUND,
    E2_QUERY, E4_QUERY, E5_QUERY,
};
use uniqueness::catalog::SnapshotStore;
use uniqueness::core::algorithm1::{algorithm1, Algorithm1Options};
use uniqueness::core::analysis::unique_projection;
use uniqueness::core::pipeline::{Optimizer, OptimizerOptions};
use uniqueness::engine::{
    DistinctMethod, ExecStats, MaintenanceMode, Session, SharedEngine, StageTimings,
};
use uniqueness::ims;
use uniqueness::oodb;
use uniqueness::plan::{bind_query, HostVars};
use uniqueness::server::{Client, Server, ServerConfig};
use uniqueness::sql::parse_query;
use uniqueness::types::{TableName, Value};
use uniqueness::workload::{
    generate_corpus, run_batch, run_client_batch, scaled_database, BatchOptions, CorpusStats,
    ScaleConfig, INDEX_DDL,
};

/// Machine-readable metric rows collected while the experiments print
/// their tables: `(experiment, metric, value, asserted)`. `asserted`
/// marks values a hard in-binary assertion guards (a regression aborts
/// the report), as opposed to informational measurements.
#[derive(Default)]
struct Metrics {
    rows: Vec<(String, String, f64, bool)>,
}

impl Metrics {
    fn push(&mut self, experiment: &str, metric: &str, value: f64, asserted: bool) {
        self.rows
            .push((experiment.into(), metric.into(), value, asserted));
    }

    /// Serialize the rows as a JSON array. Hand-rolled: the only string
    /// fields are identifiers this binary controls, so escaping is
    /// limited to the characters JSON forbids raw.
    fn to_json(&self) -> String {
        let esc = |s: &str| {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c => vec![c],
                })
                .collect::<String>()
        };
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(e, m, v, a)| {
                format!(
                    "  {{\"experiment\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"asserted\": {}}}",
                    esc(e),
                    esc(m),
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        format!("{}", *v as i64)
                    } else {
                        format!("{v:.4}")
                    },
                    a
                )
            })
            .collect();
        format!("[\n{}\n]\n", body.join(",\n"))
    }
}

/// Repetitions of the timed E2–E15 measurements.
const RUNS: usize = 5;

/// Runs of each E21 contender.
const E21_RUNS: usize = 5;

/// One experiment: it prints its table and pushes its metric rows.
type Experiment = fn(&mut Metrics);

/// Every experiment, by the name `report` takes, in run order.
const EXPERIMENTS: [(&str, Experiment); 23] = [
    ("e1", |_| e1_paper_examples()),
    ("e2", |_| e2_distinct_removal(RUNS)),
    ("e3", |_| e3_corpus()),
    ("e4", |_| e4_subquery_to_join(RUNS)),
    ("e5", |_| e5_corollary_1(RUNS)),
    ("e6", |_| e6_intersect(RUNS)),
    ("e7", |_| e7_ims_key()),
    ("e8", |_| e8_ims_nonkey()),
    ("e9", |_| e9_oodb()),
    ("e10", |_| e10_analysis_cost()),
    ("e11", |_| e11_setop_semantics()),
    ("e12", |_| e12_distinct_methods(RUNS)),
    ("e13", |_| e13_join_elimination(RUNS)),
    ("e14", e14_plan_cache),
    ("e15", |m| e15_optimizer_driver(RUNS, m)),
    ("e16", e16_cost_based_planning),
    ("e18", e18_columnar_execution),
    ("e19", e19_index_access),
    ("e20", e20_proof_checker),
    ("e21", e21_server),
    ("e22", e22_subscriptions),
    ("e23", e23_agg_topk),
    ("e24", e24_priced_access),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let known = |a: &String| EXPERIMENTS.iter().any(|(name, _)| name == a);
    // A mistyped or retired name must not pass for a run that found
    // nothing wrong: reject it before any experiment runs.
    let unknown: Vec<&String> = args.iter().filter(|a| !known(a)).collect();
    if !unknown.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment(s): {unknown:?}; known: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    let mut metrics = Metrics::default();
    for (name, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == name) {
            run(&mut metrics);
        }
    }

    if metrics.rows.is_empty() {
        return;
    }
    let path = "BENCH_E23.json";
    if !args.is_empty() {
        // The metric file holds every experiment's rows, so a subset run
        // would drop the others: it prints its rows instead.
        print!("\n{}", metrics.to_json());
        println!("subset run: {path} left unchanged");
        return;
    }
    std::fs::write(path, metrics.to_json()).expect("write metric rows");
    println!("\nwrote {} metric row(s) to {path}", metrics.rows.len());
}

/// E23 — uniqueness-elided aggregation & Top-K: the three proof-gated
/// fast paths against the un-elided oracle (the same session with
/// `with_agg_elision(false)`, which also disables the early-stopping
/// index walk) over a 2,000-supplier instance:
///
/// 1. **key-covered `GROUP BY`** — grouping by the `SUPPLIER` key makes
///    every row its own group, so the elided one-pass books *zero* hash
///    operations where hash grouping pays one probe per row;
/// 2. **`COUNT(DISTINCT key)`** — the checker proves the argument
///    duplicate-free, degrading to plain `COUNT`: no distinct-set
///    insert per row;
/// 3. **`ORDER BY key-prefix LIMIT k`** — an ordered index on the
///    `ORDER BY` columns licenses a walk that stops after k rows,
///    against a full scan-sort-cut.
///
/// Asserts each elision does >= 5x fewer work units, that the two
/// rewrites carry their proof step in the trace, that EXPLAIN renders
/// the early-stop marker, and that every answer is multiset-identical
/// to the oracle's.
fn e23_agg_topk(m: &mut Metrics) {
    header("E23", "uniqueness-elided aggregation & Top-K");
    let cfg = ScaleConfig {
        suppliers: 2_000,
        parts_per_supplier: 2,
        agents_per_supplier: 1,
        ..Default::default()
    };
    let db = scaled_database(&cfg).expect("scaled database");
    let index = "CREATE INDEX IDX_S_BUDGET_SNO ON SUPPLIER (BUDGET, SNO);";
    let mut fast = Session::new(db.clone());
    fast.run_script(index).expect("index");
    let mut naive = Session::new(db).with_agg_elision(false);
    naive.run_script(index).expect("index");

    let sorted = |s: &Session, sql: &str| {
        let out = s.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let mut rows = out.rows;
        rows.sort_by(|a, b| uniqueness::types::value::tuple_null_cmp(a, b).unwrap());
        (rows, out.stats, out.trace)
    };
    let row = |label: &str, naive_work: u64, fast_work: u64| -> f64 {
        let ratio = naive_work as f64 / fast_work.max(1) as f64;
        println!("{label:<30} {naive_work:>11} {fast_work:>12} {ratio:>7.1}x");
        ratio
    };
    println!(
        "instance: 2,000 suppliers; oracle = with_agg_elision(false), \
         same answers, every elision off\n"
    );
    println!(
        "{:<30} {:>11} {:>12} {:>8}",
        "elision", "naive work", "elided work", "ratio"
    );

    // 1. Key-covered GROUP BY -> no-op grouping. Work unit: hash ops.
    let group_sql =
        "SELECT S.SNO, COUNT(*) AS N, SUM(S.BUDGET) AS B FROM SUPPLIER S GROUP BY S.SNO";
    let (want, ns, _) = sorted(&naive, group_sql);
    let (got, fs, trace) = sorted(&fast, group_sql);
    assert_eq!(got, want, "group-elided multiset differs");
    assert_eq!(got.len(), 2_000, "one group per supplier key");
    assert!(
        trace.steps.iter().any(|s| s.rule == "group-by-key-elision"),
        "group elision must carry its proof step in the trace"
    );
    assert_eq!(fs.hash_probes, 0, "elided grouping books zero hash ops");
    let group_ratio = row("GROUP BY key (hash ops)", ns.hash_probes, fs.hash_probes);
    m.push("E23", "group_naive_hash_ops", ns.hash_probes as f64, false);
    m.push("E23", "group_elided_hash_ops", fs.hash_probes as f64, true);
    m.push("E23", "group_work_ratio", group_ratio, true);
    assert!(
        ns.hash_probes >= 5 * fs.hash_probes.max(1),
        "group elision under 5x: {} vs {}",
        ns.hash_probes,
        fs.hash_probes
    );

    // 2. COUNT(DISTINCT key) -> COUNT. Work unit: hash ops (the naive
    // plan's only hash work here is the per-row distinct-set insert).
    let cd_sql = "SELECT COUNT(DISTINCT S.SNO) AS N FROM SUPPLIER S";
    let (want, ns, _) = sorted(&naive, cd_sql);
    let (got, fs, trace) = sorted(&fast, cd_sql);
    assert_eq!(got, want, "count-distinct multiset differs");
    assert_eq!(got, vec![vec![Value::Int(2_000)]]);
    assert!(
        trace
            .steps
            .iter()
            .any(|s| s.rule == "count-distinct-elision"),
        "count-distinct elision must carry its proof step in the trace"
    );
    let cd_ratio = row(
        "COUNT(DISTINCT key) (hash ops)",
        ns.hash_probes,
        fs.hash_probes,
    );
    m.push(
        "E23",
        "count_distinct_naive_hash_ops",
        ns.hash_probes as f64,
        false,
    );
    m.push(
        "E23",
        "count_distinct_elided_hash_ops",
        fs.hash_probes as f64,
        true,
    );
    m.push("E23", "count_distinct_work_ratio", cd_ratio, true);
    assert!(
        ns.hash_probes >= 5 * fs.hash_probes.max(1),
        "count-distinct elision under 5x: {} vs {}",
        ns.hash_probes,
        fs.hash_probes
    );

    // 3. ORDER BY key-prefix LIMIT k -> early-stopping index walk.
    // Work unit: rows examined. The ORDER BY covers (BUDGET, SNO) — a
    // total order — so even the row *sequence* must agree exactly.
    let topk_sql = "SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET, S.SNO LIMIT 10";
    let base = naive.query(topk_sql).expect("naive top-k");
    let out = fast.query(topk_sql).expect("elided top-k");
    assert_eq!(out.rows, base.rows, "top-k rows differ");
    assert_eq!(out.rows.len(), 10);
    assert_eq!(out.stats.early_stops, 1, "{:?}", out.stats);
    assert_eq!(out.stats.sorts, 0, "the index serves the order");
    assert_eq!(out.stats.topk_rows_examined, 10, "stopped after k rows");
    assert!(base.stats.rows_scanned >= 2_000, "oracle scans everything");
    assert!(base.stats.sorts >= 1, "oracle sorts everything");
    let topk_ratio = row(
        "ORDER BY+LIMIT (rows examined)",
        base.stats.rows_scanned,
        out.stats.topk_rows_examined,
    );
    m.push(
        "E23",
        "topk_naive_rows_examined",
        base.stats.rows_scanned as f64,
        false,
    );
    m.push(
        "E23",
        "topk_rows_examined",
        out.stats.topk_rows_examined as f64,
        true,
    );
    m.push("E23", "topk_work_ratio", topk_ratio, true);
    assert!(
        base.stats.rows_scanned >= 5 * out.stats.topk_rows_examined.max(1),
        "early stop under 5x: {} vs {}",
        base.stats.rows_scanned,
        out.stats.topk_rows_examined
    );

    let explain = fast.explain(topk_sql).expect("explain");
    let limit_line = explain
        .lines()
        .find(|l| l.contains("Limit"))
        .expect("limit line");
    assert!(
        limit_line.contains("early-stop(IDX_S_BUDGET_SNO)"),
        "{explain}"
    );
    println!("\nEXPLAIN top-k:\n  {}", limit_line.trim());
    m.push("E23", "corpus_multiset_identical", 3.0, true);
    println!(
        "\nall three elisions >= 5x fewer work units (bars asserted \
         in-binary), answers multiset-identical to the oracle"
    );
}

/// E21 — the multi-client daemon end to end: sustained QPS at
/// N ∈ {1, 2, 4, 8} concurrent TCP clients against an in-process
/// `uniqd` vs the serial in-process batch driver, the process-wide
/// shared plan cache observed over the wire, and the MVCC snapshots
/// (a pinned reader never observes a concurrent `INSERT` or
/// `CREATE INDEX` that a fresh snapshot does). Each QPS row is the
/// median of [`E21_RUNS`] alternating runs, with its quartiles. Asserts
/// (1) the median N=4 multi-client QPS ≥ the serial driver's on a
/// ≥4-core host, (2) a second connection hits on a plan the first
/// compiled, and (3) the pinned snapshot's row count and catalog
/// version are untouched by concurrent writes while untouched tables
/// share storage.
fn e21_server(m: &mut Metrics) {
    header(
        "E21",
        "uniq-server: multi-client QPS, shared cache, snapshots",
    );
    let cfg = ScaleConfig {
        suppliers: 240,
        parts_per_supplier: 5,
        ..Default::default()
    };
    let db = scaled_database(&cfg).expect("scaled database");
    // Join-heavy shapes, repeated: per-statement execution dominates
    // the loopback round trip (so concurrency measures the engine, not
    // the wire), and the repeats give both contenders' plan caches the
    // same thing to amortize.
    let shapes = e17_corpus();
    let reps = 40;
    let corpus: Vec<String> = (0..reps).flat_map(|_| shapes.iter().cloned()).collect();
    println!(
        "workload: {} statements ({} shapes × {reps}), {} suppliers × {} parts\n",
        corpus.len(),
        shapes.len(),
        cfg.suppliers,
        cfg.parts_per_supplier
    );

    let engine = Arc::new(SharedEngine::new(db.clone()));
    let server =
        Server::start(engine, ("127.0.0.1", 0), ServerConfig::default()).expect("start server");
    let addr = server.local_addr().to_string();

    // Each contender runs `E21_RUNS` times, the order reversed every
    // other round: the serial baseline (the in-process driver over one
    // session, one thread, no TCP) and each client count against the
    // one server. Back-to-back runs spread widely on a small host, so
    // the rows are medians with their quartiles. `None` is the serial
    // baseline, `Some(n)` n clients.
    let session = Session::new(db);
    let contenders = [None, Some(1), Some(2), Some(4), Some(8)];
    let mut qps: [Vec<f64>; 5] = Default::default();
    let mut hit_rates = [0.0; 5];
    for round in 0..E21_RUNS {
        let mut order: Vec<usize> = (0..contenders.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for c in order {
            let (throughput, hit_rate) = match contenders[c] {
                None => {
                    let serial = run_batch(&session, &corpus, BatchOptions { threads: 1 });
                    assert_eq!(serial.errors, 0, "serial driver: {:?}", serial.first_error);
                    (serial.throughput(), serial.hit_rate())
                }
                Some(clients) => {
                    let report = run_client_batch(&addr, &corpus, clients);
                    assert_eq!(
                        report.errors, 0,
                        "{clients} client(s): {:?}",
                        report.first_error
                    );
                    assert!(
                        report.hit_rate() > 0.0,
                        "shared cache never hit at {clients} client(s)"
                    );
                    (report.throughput(), report.hit_rate())
                }
            };
            qps[c].push(throughput);
            hit_rates[c] = hit_rate;
        }
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "{:<22} {:>9} {:>15} {:>10}",
        "driver", "stmts/s", "quartiles", "hit rate"
    );
    let mut medians = [0.0; 5];
    for (c, clients) in contenders.into_iter().enumerate() {
        let q = quartiles(std::mem::take(&mut qps[c]));
        medians[c] = q[1];
        let (name, metric) = match clients {
            None => ("serial in-process".to_string(), "qps_serial".to_string()),
            Some(n) => (
                format!("{n} client(s) over TCP"),
                format!("qps_clients_{n}"),
            ),
        };
        println!(
            "{name:<22} {:>9.0} {:>7.0}-{:<7.0} {:>9.1}%",
            q[1],
            q[0],
            q[2],
            100.0 * hit_rates[c]
        );
        push_quartiles(m, "E21", &metric, q, clients == Some(4) && cores >= 4);
    }
    let (serial_qps, qps4) = (medians[0], medians[3]);
    let ratio = qps4 / serial_qps;
    println!(
        "\nmedians of {E21_RUNS} runs each; 4-client QPS / serial QPS: {ratio:.2}× on {cores} core(s)"
    );
    if cores >= 4 {
        assert!(
            qps4 >= serial_qps,
            "4 clients ({qps4:.0}/s) fell below the serial driver ({serial_qps:.0}/s)"
        );
    } else {
        println!("(host exposes {cores} core(s); the ≥-serial assertion needs 4 and was skipped)");
    }
    m.push("E21", "qps4_vs_serial", ratio, cores >= 4);

    // The shared plan cache across *distinct* connections, observed
    // end to end: a statement no driver connection has sent compiles
    // once on the first connection and hits on the second.
    let fresh_sql = "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.BUDGET > 0";
    let mut first = Client::connect(addr.as_str()).expect("connect");
    let mut second = Client::connect(addr.as_str()).expect("connect");
    assert!(!first.query(fresh_sql).expect("query").cache_hit);
    assert!(
        second.query(fresh_sql).expect("query").cache_hit,
        "second connection must hit the plan the first compiled"
    );
    let stats = second.stats().expect("stats");
    let stat = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    println!(
        "shared cache: {} hits / {} misses ({:.1}% hit rate) across {} served connections",
        stat("cache.hits"),
        stat("cache.misses"),
        stat("cache.hit_rate_bp") as f64 / 100.0,
        stat("connections.served")
    );
    assert!(stat("cache.hits") > 0 && stat("cache.hit_rate_bp") > 0);
    m.push(
        "E21",
        "shared_cache_hit_rate_bp",
        stat("cache.hit_rate_bp") as f64,
        true,
    );

    // Snapshot isolation: pin a snapshot, then land an INSERT and a
    // CREATE INDEX through a writer connection. The pinned snapshot's
    // row count and catalog version are untouched; a fresh snapshot
    // sees both; the untouched PARTS table shares storage across the
    // snapshots instead of being copied.
    let engine = server.engine();
    let supplier = TableName::new("SUPPLIER");
    let parts = TableName::new("PARTS");
    let pinned = engine.snapshot();
    let rows_before = pinned.row_count(&supplier).expect("row count");
    let version_before = pinned.version();
    first
        .exec("INSERT INTO SUPPLIER VALUES (9001, 'Latecomer', 'Toronto', 10, 'Active');")
        .expect("writer INSERT");
    first
        .exec("CREATE INDEX IDX_E21_SCITY ON SUPPLIER (SCITY);")
        .expect("writer CREATE INDEX");
    let fresh = engine.snapshot();
    assert_eq!(
        pinned.row_count(&supplier).expect("row count"),
        rows_before,
        "pinned snapshot must not observe the concurrent INSERT"
    );
    assert_eq!(
        pinned.version(),
        version_before,
        "pinned snapshot must not observe the concurrent CREATE INDEX"
    );
    assert_eq!(
        fresh.row_count(&supplier).expect("row count"),
        rows_before + 1,
        "fresh snapshot sees the INSERT"
    );
    assert!(
        fresh.version() > version_before,
        "fresh snapshot sees the CREATE INDEX"
    );
    assert!(
        pinned.shares_storage(&fresh, &parts),
        "untouched PARTS storage must be shared across snapshots, not copied"
    );
    let depth = engine.stats().snapshot_depth;
    println!(
        "snapshot isolation: pinned snapshot holds {rows_before} rows @ catalog v{version_before}; \
         fresh sees {} rows @ v{} ({depth} snapshots published); PARTS storage shared",
        rows_before + 1,
        fresh.version()
    );
    assert!(depth >= 2, "two writes published two snapshots");
    m.push("E21", "snapshot_isolation", 1.0, true);
    m.push("E21", "snapshot_chain_depth", depth as f64, false);
}

/// The E22 set-tier view: `DISTINCT` over a key-covering join, so
/// Algorithm 1 proves the block duplicate-free and the proof checker
/// certifies the `DISTINCT` elision — licensing refcount-free
/// (`HashSet`) maintenance.
const E22_SET_VIEW: &str =
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";

/// The E22 counting-tier view: neither projected column covers a key,
/// so view rows fold many base rows and maintenance must keep signed
/// multiplicities.
const E22_COUNTING_VIEW: &str =
    "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S WHERE P.SNO = S.SNO";

/// The E22 recompute-tier view: the `NOT EXISTS` subquery makes delta
/// evaluation non-monotone (an insert can *delete* view rows), so the
/// registry falls back to recompute-and-diff.
const E22_RECOMPUTE_VIEW: &str = "SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS \
     (SELECT P.PNO FROM PARTS P WHERE P.SNO = S.SNO)";

/// The recompute-tier view of a timed write with views: an aggregate
/// over the join the set and counting views read, as the benchmark's
/// `write_subscribe` workload subscribes it with those two.
const E22_AGGREGATE_VIEW: &str = "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO GROUP BY S.SCITY";

/// The E22 work metric: every counter either side of the comparison is
/// charged in — base rows scanned, delta rows consumed, probe steps,
/// hash probes and sort comparisons. Incremental maintenance and full
/// recompute pay in the same currencies, so neither can hide work.
fn e22_work(stats: &ExecStats) -> u64 {
    stats.rows_scanned
        + stats.delta_rows
        + stats.probe_steps
        + stats.hash_probes
        + stats.sort_comparisons
}

/// E22 — O(Δ) subscription maintenance vs full recompute. Three views
/// are subscribed, one per maintenance tier, and a battery of
/// single-statement INSERTs is driven through the engine at two table
/// sizes. Asserts (1) the set tier is licensed by a *checked* proof
/// (license-not-promise), (2) after **every** insert each view's
/// incremental contents equal a full recompute over the head snapshot
/// — unconditionally, on all tiers, (3) per-insert maintenance work is
/// ≥10× under per-insert full-recompute work at the 2,000-row scale,
/// and (4) doubling the base tables leaves per-insert maintenance work
/// flat (it scales with |Δ|) while recompute work grows with table
/// size.
fn e22_subscriptions(m: &mut Metrics) {
    header("E22", "O(Δ) subscriptions: delta maintenance vs recompute");
    let cfg = ScaleConfig {
        suppliers: 500,
        parts_per_supplier: 4,
        ..Default::default()
    };
    let engine = Arc::new(SharedEngine::new(
        scaled_database(&cfg).expect("scaled database"),
    ));
    let parts_rows = engine
        .snapshot()
        .row_count(&TableName::from("PARTS"))
        .expect("row count");
    assert!(
        parts_rows >= 2_000,
        "the work claim is stated at ≥2,000 rows"
    );

    let views = [
        ("set", E22_SET_VIEW),
        ("counting", E22_COUNTING_VIEW),
        ("recompute", E22_RECOMPUTE_VIEW),
    ];
    let mut subs: Vec<(u64, &str, &str)> = Vec::new();
    for (tier, sql) in views {
        let sub = engine
            .subscribe(sql, Box::new(|_, _| true))
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(sub.mode.tag(), tier, "{sql} landed on the wrong tier");
        // License-not-promise: the refcount-free tier is only ever
        // granted with an Algorithm 1 + proof-checker certificate
        // attached, re-checked against the live catalog.
        if sub.mode == MaintenanceMode::Set {
            assert!(sub.license.is_proved(), "unproved set tier for {sql}");
        }
        println!(
            "subscribed [{}] proof {}  {}",
            sub.mode.tag(),
            sub.license.marker(),
            sql
        );
        subs.push((sub.id, tier, sql));
    }
    m.push("E22", "set_tier_license_proved", 1.0, true);

    // The unconditional oracle: incremental state == full recompute,
    // after every statement, on every tier. Also accumulates each
    // view's recompute cost, the baseline maintenance competes with.
    let mut oracle_rounds = 0u64;
    let check_all = |rec_work: &mut [u64], oracle_rounds: &mut u64, label: &str| {
        for (i, (id, _, sql)) in subs.iter().enumerate() {
            let view = engine.subscription_rows(*id).expect("subscription lives");
            let out = engine.query(sql).expect("recompute");
            rec_work[i] += e22_work(&out.stats);
            let mut want = out.rows;
            want.sort();
            assert_eq!(
                view, want,
                "{label}: view diverged from recompute for {sql}"
            );
            *oracle_rounds += 1;
        }
    };
    let per_view_work = |subs: &[(u64, &str, &str)]| -> Vec<u64> {
        subs.iter()
            .map(|(id, _, _)| e22_work(&engine.subscription_work(*id).expect("live")))
            .collect()
    };

    // Phase 1 — interleaving battery: fresh suppliers, some with parts,
    // exercising every tier's update path (the `NOT EXISTS` view both
    // gains and loses rows under insert-only bases). Oracle-checked
    // after every single statement.
    let mut next_sno = 1_000_000i64;
    let mut next_oem = 5_000_000i64;
    let mut mixed_rec = vec![0u64; subs.len()];
    for round in 0..12usize {
        next_sno += 1;
        engine
            .execute(&format!(
                "INSERT INTO SUPPLIER VALUES ({next_sno}, 'Late', 'Toronto', 7, 'Active')"
            ))
            .expect("insert supplier");
        check_all(&mut mixed_rec, &mut oracle_rounds, "mixed");
        if round % 2 == 0 {
            for p in 1..=2 {
                next_oem += 1;
                engine
                    .execute(&format!(
                        "INSERT INTO PARTS VALUES ({next_sno}, {p}, 'part{p}', {next_oem}, 'RED')"
                    ))
                    .expect("insert part");
                check_all(&mut mixed_rec, &mut oracle_rounds, "mixed");
            }
        }
    }

    // Phase 2 — the O(Δ) work measurement: single-row PARTS inserts
    // against an existing supplier. The set-tier delta join probes
    // SUPPLIER through its candidate key, so licensed maintenance work
    // per insert is independent of table size; full recompute re-scans
    // both base tables every time.
    let rounds = 16usize;
    let mut next_pno = 10_000i64;
    let run_battery = |label: &str,
                       next_pno: &mut i64,
                       next_oem: &mut i64,
                       oracle_rounds: &mut u64|
     -> (Vec<u64>, Vec<u64>) {
        let baseline = per_view_work(&subs);
        let mut rec = vec![0u64; subs.len()];
        for _ in 0..rounds {
            *next_pno += 1;
            *next_oem += 1;
            engine
                .execute(&format!(
                    "INSERT INTO PARTS VALUES (1, {next_pno}, 'delta', {next_oem}, 'RED')"
                ))
                .expect("insert part");
            check_all(&mut rec, oracle_rounds, label);
        }
        let incr = per_view_work(&subs)
            .iter()
            .zip(&baseline)
            .map(|(after, before)| after - before)
            .collect();
        (incr, rec)
    };

    let (incr_base, rec_base) =
        run_battery("base", &mut next_pno, &mut next_oem, &mut oracle_rounds);
    // Double the base tables, then re-run the same battery: |Δ| per
    // insert is unchanged, the table size is not.
    let mut grow = String::new();
    for _ in 0..cfg.suppliers {
        next_sno += 1;
        grow.push_str(&format!(
            "INSERT INTO SUPPLIER VALUES ({next_sno}, 'Bulk', 'Chicago', 3, 'Active');"
        ));
        for p in 1..=cfg.parts_per_supplier as i64 {
            next_oem += 1;
            grow.push_str(&format!(
                "INSERT INTO PARTS VALUES ({next_sno}, {p}, 'part{p}', {next_oem}, 'GREEN');"
            ));
        }
    }
    engine.execute(&grow).expect("bulk growth");
    let (incr_grown, rec_grown) =
        run_battery("grown", &mut next_pno, &mut next_oem, &mut oracle_rounds);

    let per = |w: u64| w as f64 / rounds as f64;
    println!(
        "\n{:>10}  {:>10}  {:>15}  {:>15}  {:>9}",
        "tier", "base rows", "maint work/ins", "recompute/ins", "ratio"
    );
    for (i, (_, tier, _)) in subs.iter().enumerate() {
        for (label, size, incr, rec) in [
            ("", parts_rows, &incr_base, &rec_base),
            ("(2x)", 2 * parts_rows, &incr_grown, &rec_grown),
        ] {
            println!(
                "{:>10}  {:>10}  {:>15.1}  {:>15.1}  {:>8.1}x",
                format!("{tier}{label}"),
                size,
                per(incr[i]),
                per(rec[i]),
                rec[i] as f64 / incr[i].max(1) as f64
            );
        }
    }

    // (3) The headline claim: at ≥2,000 rows, per-insert maintenance of
    // the proof-licensed set-tier view is ≥10× cheaper than per-insert
    // full recompute, in shared work units.
    assert!(
        rec_base[0] >= 10 * incr_base[0],
        "set-tier maintenance work {} not 10x under recompute work {}",
        incr_base[0],
        rec_base[0]
    );
    // (4) Licensed maintenance scales with |Δ|, not table size:
    // doubling the base leaves per-insert maintenance work flat
    // (deterministic counters; 2x headroom), while recompute work
    // clearly grows.
    assert!(
        incr_grown[0] <= 2 * incr_base[0],
        "per-insert maintenance work grew with table size: {} -> {}",
        incr_base[0],
        incr_grown[0]
    );
    assert!(
        2 * rec_grown[0] >= 3 * rec_base[0],
        "recompute work should track table size: {} -> {}",
        rec_base[0],
        rec_grown[0]
    );

    let stats = engine.stats().subs;
    println!(
        "\nregistry: {} active, {} deltas pushed, {} delta rows, {} view updates, {} base rows saved",
        stats.active, stats.deltas_pushed, stats.delta_rows, stats.view_updates, stats.rows_saved
    );
    assert_eq!(stats.active, 3);
    assert!(stats.deltas_pushed > 0 && stats.rows_saved > 0);
    // 24 mixed statements + two 16-insert batteries, 3 views each.
    assert_eq!(oracle_rounds, ((24 + 2 * rounds) * subs.len()) as u64);

    m.push("E22", "oracle_rounds", oracle_rounds as f64, true);
    m.push("E22", "maint_work_per_insert", per(incr_base[0]), false);
    m.push("E22", "recompute_work_per_insert", per(rec_base[0]), false);
    m.push(
        "E22",
        "work_ratio_at_2000_rows",
        rec_base[0] as f64 / incr_base[0].max(1) as f64,
        true,
    );
    m.push(
        "E22",
        "maint_work_growth_on_2x_base",
        incr_grown[0] as f64 / incr_base[0].max(1) as f64,
        true,
    );
    m.push(
        "E22",
        "recompute_work_growth_on_2x_base",
        rec_grown[0] as f64 / rec_base[0].max(1) as f64,
        true,
    );
    m.push("E22", "rows_saved", stats.rows_saved as f64, false);
    m.push("E22", "deltas_pushed", stats.deltas_pushed as f64, false);
    e22_publish_time(m);
}

/// E22's time rows: the wall clock of a one-row `PARTS` INSERT
/// published through `SnapshotStore::run_script`, on perfbench-sized
/// data (2,000 suppliers × 10 parts with `INDEX_DDL` and `IDX_P_SNO`:
/// 20,000 `PARTS` rows) and on its double. A write copies the touched
/// table's open tail chunk and index overlays, not the table, so
/// doubling the table must leave the median publish within 1.5×. Then
/// the same write through `SharedEngine::execute` on the 20,000-row
/// data, `ANALYZE`d, with the set, counting and aggregate views
/// subscribed: publish plus one maintenance round per view.
fn e22_publish_time(m: &mut Metrics) {
    let load = |suppliers| indexed_data(suppliers, "CREATE INDEX IDX_P_SNO ON PARTS (SNO);");
    let stores = [2_000, 4_000].map(|suppliers| SnapshotStore::new(load(suppliers)));
    // Each insert is a fresh part of supplier 1 with a fresh OEM-PNO.
    let part = |k: i64| {
        format!(
            "INSERT INTO PARTS VALUES (1, {}, 'timed', {}, 'RED');",
            1_000 + k,
            9_000_000 + k
        )
    };
    // 21 pairs, alternating which size runs first.
    let mut samples = [Vec::new(), Vec::new()];
    for k in 0..21i64 {
        let order = if k % 2 == 0 { [0, 1] } else { [1, 0] };
        for i in order {
            let t = Instant::now();
            stores[i].run_script(&part(k)).expect("insert part");
            samples[i].push(micros(t.elapsed()));
        }
    }
    let p50 = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let [p20, p40] = samples.map(p50);
    let growth = p40 / p20;
    println!(
        "\npublish of a one-row PARTS INSERT (SnapshotStore::run_script, 21 pairs): \
         p50 {p20:.1} µs at 20,000 rows, {p40:.1} µs at 40,000 rows ({growth:.2}x)"
    );
    assert!(
        growth <= 1.5,
        "publish time grew {growth:.2}x when the table doubled: a write copies the table"
    );
    m.push("E22", "publish_p50_us_20k", p20, false);
    m.push("E22", "publish_p50_us_40k", p40, false);
    m.push("E22", "publish_growth_on_2x_table", growth, true);

    let engine = SharedEngine::new(load(2_000));
    engine.analyze();
    for sql in [E22_SET_VIEW, E22_COUNTING_VIEW, E22_AGGREGATE_VIEW] {
        (engine.subscribe(sql, Box::new(|_, _| true))).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    let writes = (0..21i64)
        .map(|k| {
            let t = Instant::now();
            engine.execute(&part(k)).expect("insert part");
            micros(t.elapsed())
        })
        .collect();
    let write_p50 = p50(writes);
    println!(
        "the same INSERT through SharedEngine::execute, ANALYZEd, set + counting + \
         aggregate views subscribed (21 writes): p50 {write_p50:.1} µs"
    );
    m.push("E22", "write_p50_us_three_views", write_p50, false);
}

/// The join-column indexes perfbench adds to `INDEX_DDL`.
const JOIN_INDEX_DDL: &str =
    "CREATE INDEX IDX_P_SNO ON PARTS (SNO); CREATE INDEX IDX_A_SNO ON AGENTS (SNO);";

/// `suppliers` × 10 parts × 2 agents, perfbench's shape, without
/// secondary indexes.
fn perfbench_data(suppliers: usize) -> uniqueness::catalog::Database {
    let cfg = ScaleConfig {
        suppliers,
        parts_per_supplier: 10,
        agents_per_supplier: 2,
        ..Default::default()
    };
    scaled_database(&cfg).expect("scaled database")
}

/// [`perfbench_data`] with `INDEX_DDL` and then `ddl`'s join-column
/// indexes.
fn indexed_data(suppliers: usize, ddl: &str) -> uniqueness::catalog::Database {
    let mut db = perfbench_data(suppliers);
    db.run_script(INDEX_DDL)
        .and_then(|()| db.run_script(ddl))
        .expect("index set");
    db
}

/// E20 — the U-semiring proof checker over the standard rewrite corpus:
/// per-rule proved/unknown counts and checker time under both optimizer
/// profiles. Asserts (1) at least 80% of fired steps carry a symbolic
/// proof, (2) the proof-gated DISTINCT pushdown fires exactly when its
/// FD precondition holds, and (3) the Chen–Schneider UNION bound caps a
/// distinct UNION plan strictly below the additive operand estimate.
fn e20_proof_checker(m: &mut Metrics) {
    header(
        "E20",
        "proof-carrying rewrites: checker coverage + UNION bounds",
    );
    let db = uniqueness::catalog::sample::supplier_database().expect("sample database");
    let corpus = e20_corpus();
    println!(
        "corpus: {} statements, both optimizer profiles\n",
        corpus.len()
    );

    // Per-rule accumulation across every optimize() call.
    let mut per_rule: HashMap<String, (u64, u64, u64)> = HashMap::new();
    for options in [
        OptimizerOptions::relational(),
        OptimizerOptions::navigational(),
    ] {
        let optimizer = Optimizer::new(options);
        for sql in &corpus {
            let bound = bind_query(db.catalog(), &parse_query(sql).expect("parse")).expect("bind");
            let outcome = optimizer.optimize(&bound);
            for rs in &outcome.trace.rule_stats {
                let slot = per_rule.entry(rs.rule.clone()).or_default();
                slot.0 += rs.fires;
                slot.1 += rs.proved;
                slot.2 += rs.proof_nanos;
            }
        }
    }

    println!(
        "{:<22} {:>7} {:>7} {:>8} {:>12}",
        "rule", "fired", "proved", "unknown", "checker time"
    );
    let (mut fired, mut proved, mut checker_ns) = (0u64, 0u64, 0u64);
    let mut rules: Vec<_> = per_rule.iter().filter(|(_, v)| v.0 > 0).collect();
    rules.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    for (rule, (f, p, ns)) in rules {
        println!(
            "{:<22} {:>7} {:>7} {:>8} {:>12}",
            rule,
            f,
            p,
            f - p,
            fmt_duration(Duration::from_nanos(*ns))
        );
        m.push("E20", &format!("fired_{rule}"), *f as f64, false);
        m.push("E20", &format!("proved_{rule}"), *p as f64, false);
        fired += f;
        proved += p;
        checker_ns += ns;
    }
    let pct = 100.0 * proved as f64 / fired as f64;
    println!(
        "\ntotal: {proved}/{fired} fired steps proved ({pct:.1}%), checker time {}",
        fmt_duration(Duration::from_nanos(checker_ns))
    );
    assert!(
        proved * 5 >= fired * 4,
        "proved fraction below the 80% bar: {proved}/{fired}"
    );
    m.push("E20", "steps_fired", fired as f64, false);
    m.push("E20", "steps_proved", proved as f64, true);
    m.push("E20", "proved_pct", pct, true);
    m.push("E20", "checker_ns", checker_ns as f64, false);

    // Proof-gated DISTINCT pushdown: fires exactly under the FD
    // precondition, and only with a Proved justification.
    let optimizer = Optimizer::new(OptimizerOptions::navigational());
    let fires = |sql: &str| {
        let bound = bind_query(db.catalog(), &parse_query(sql).expect("parse")).expect("bind");
        let outcome = optimizer.optimize(&bound);
        outcome
            .trace
            .steps
            .iter()
            .find(|s| s.rule == "distinct-pushdown")
            .map(|s| s.proof.is_proved())
    };
    assert_eq!(
        fires(E20_PUSHDOWN_OK),
        Some(true),
        "pushdown must fire (proved) when the projection covers the kept key"
    );
    assert_eq!(
        fires(E20_PUSHDOWN_BLOCKED),
        None,
        "pushdown must refuse a non-key projection"
    );
    println!("DISTINCT pushdown: fires proved on the key-covered shape, refused otherwise");
    m.push("E20", "pushdown_gated", 1.0, true);

    // UNION-aware hard bound: the distinct UNION estimate is capped by
    // the merged domains, strictly below the additive operand sum.
    let stats = uniqueness::cost::Statistics::collect(&db);
    let bound =
        bind_query(db.catalog(), &parse_query(E20_UNION_BOUND).expect("parse")).expect("bind");
    let plan = uniqueness::cost::plan_query(
        &bound,
        Some(&stats),
        uniqueness::cost::PlannerOptions::default(),
    );
    let uniqueness::cost::PhysNode::SetOp {
        id, left, right, ..
    } = &plan.root
    else {
        panic!("expected a set-operation root");
    };
    let node_est = |n: &uniqueness::cost::PhysNode| match n {
        uniqueness::cost::PhysNode::Block(b) => plan.ops[b.project].est,
        uniqueness::cost::PhysNode::SetOp { id, .. } => plan.ops[*id].est,
    };
    let additive = node_est(left) + node_est(right);
    let capped = plan.ops[*id].est;
    println!(
        "UNION bound: operands sum to {additive}, distinct UNION capped at {capped} \
         (merged city domains)"
    );
    assert!(
        capped < additive,
        "UNION cap {capped} not strictly tighter than additive {additive}"
    );
    m.push("E20", "union_additive_est", additive as f64, false);
    m.push("E20", "union_capped_est", capped as f64, true);
}

/// E19 — persistent secondary indexes: the same cost-based row executor
/// (plans run with no column store attached) over the same
/// 2,400-supplier data, with and without the benchmark index set. Asserts multiset identity on every query, a ≥10× summed
/// work-unit saving for the indexed plans, and that every unique-index
/// point lookup records exactly one probe step (the guaranteed one-row
/// lookup a declared-unique index licenses).
fn e19_index_access(m: &mut Metrics) {
    header("E19", "secondary indexes: sargable scans + unique probes");
    let contenders = e19_contenders();
    let full = &contenders[0].1;
    let ix = &contenders[1].1;

    let sorted = |session: &Session, sql: &str| {
        let out = row_path(session, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let mut rows = out.rows;
        rows.sort_by(|a, b| uniqueness::types::value::tuple_null_cmp(a, b).unwrap());
        (rows, out.stats)
    };

    let corpus = e19_corpus();
    println!(
        "corpus: {} point lookups + 1 index join over a 2,400-supplier \
         database; indexed multisets identical to the full-scan plans on \
         every one",
        corpus.len() - 1
    );
    println!(
        "\n{:<44} {:>10} {:>10} {:>7}",
        "query", "full work", "ix work", "ratio"
    );
    let (mut full_work, mut ix_work) = (0u64, 0u64);
    for sql in &corpus {
        let (want, f) = sorted(full, sql);
        let (got, i) = sorted(ix, sql);
        assert_eq!(got, want, "indexed multiset differs for {sql}");
        let (fw, iw) = (e19_work(&f), e19_work(&i));
        full_work += fw;
        ix_work += iw;
        let head: String = sql.chars().take(44).collect();
        println!(
            "{:<44} {:>10} {:>10} {:>6.1}x",
            head,
            fw,
            iw,
            fw as f64 / iw.max(1) as f64
        );
    }
    m.push(
        "E19",
        "corpus_multiset_identical",
        corpus.len() as f64,
        true,
    );
    let ratio = full_work as f64 / ix_work.max(1) as f64;
    m.push("E19", "full_scan_work", full_work as f64, false);
    m.push("E19", "indexed_work", ix_work as f64, false);
    m.push("E19", "work_ratio", ratio, true);
    assert!(
        10 * ix_work <= full_work,
        "indexed work {ix_work} not 10x under full-scan work {full_work}"
    );
    println!("\nindexed plans do {ratio:.1}x fewer work units (bar: >= 10x)");

    // Unique probes: one probe_steps unit each, by construction.
    let lookups = e19_point_lookups();
    for sql in &lookups {
        let (_, stats) = sorted(ix, sql);
        assert_eq!(
            stats.probe_steps, 1,
            "{sql}: unique probe must cost exactly one step, got {stats:?}"
        );
        assert_eq!(stats.ix_probes, 1, "{sql}: {stats:?}");
    }
    m.push("E19", "unique_probe_steps_each", 1.0, true);
    println!(
        "every one of the {} unique-index point lookups cost exactly one \
         probe step (guaranteed one-row lookup)",
        lookups.len()
    );

    // Time beside the work ratio: one pass over the corpus by each
    // contender on the row path and served, 21 rounds with the four
    // passes in a rotating order; p50 with quartiles, not asserted.
    let passes: [(&str, &Session, Runner); 4] = [
        ("full_row_pass", full, row_path),
        ("indexed_row_pass", ix, row_path),
        ("full_served_pass", full, Session::query),
        ("indexed_served_pass", ix, Session::query),
    ];
    let mut samples = vec![Vec::new(); passes.len()];
    for round in 0..21 {
        for k in 0..passes.len() {
            let i = (round + k) % passes.len();
            let (_, session, run) = passes[i];
            let t = Instant::now();
            for sql in &corpus {
                run(session, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            }
            samples[i].push(micros(t.elapsed()));
        }
    }
    println!("\none corpus pass, p50 [quartiles] of 21 rounds (not asserted):");
    for ((name, _, _), samples) in passes.iter().zip(samples) {
        let q = quartiles(samples);
        println!("  {name:<20} {:>9.1} µs [{:.1}, {:.1}]", q[1], q[0], q[2]);
        push_quartiles(m, "E19", &format!("{name}_p50_us"), q, false);
    }

    let explain = ix.explain(E19_INDEX_JOIN).expect("explain");
    let scan = explain
        .lines()
        .find(|l| l.contains("ixscan("))
        .expect("ixscan line");
    let join = explain
        .lines()
        .find(|l| l.contains("ixjoin("))
        .expect("ixjoin line");
    println!(
        "\nEXPLAIN access paths:\n  {}\n  {}",
        scan.trim(),
        join.trim()
    );
    assert!(join.contains("unique=yes"), "{explain}");
}

/// E18 — columnar storage + vectorized, uniqueness-aware kernels: work
/// units and p50 wall clock of one analyzed session's plans on the row
/// executor (no column store attached) vs as served (covered blocks on
/// the kernels), on a dictionary-friendly join+DISTINCT workload and
/// over the whole corpus; the zero-hash direct-index probe; and
/// multiset identity with the row baseline over the corpus.
fn e18_columnar_execution(m: &mut Metrics) {
    header(
        "E18",
        "columnar storage + vectorized uniqueness-aware kernels",
    );
    let cfg = uniqueness::workload::ScaleConfig {
        suppliers: 2_000,
        parts_per_supplier: 4,
        ..Default::default()
    };
    let db = uniqueness::workload::scaled_database(&cfg).expect("scaled database");
    let session = Session::new(db).with_cost_based();
    let [(_, row), (_, col)] = E18_CONTENDERS;

    let sorted = |run: Runner, sql: &str| {
        let out = run(&session, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let mut rows = out.rows;
        rows.sort_by(|a, b| uniqueness::types::value::tuple_null_cmp(a, b).unwrap());
        (rows, out.stats)
    };
    // Wall clock of one pass of `run` over `sqls`.
    let time = |run: Runner, sqls: &[&str]| {
        let t = Instant::now();
        for sql in sqls {
            run(&session, sql).expect("query");
        }
        t.elapsed()
    };
    // 21 pairs of the row baseline and the served plan, alternating
    // which side runs first: each side's median time and the per-pair
    // `row / served` ratio's first quartile, median and third quartile.
    let paired = |sqls: &[&str]| {
        let pairs: Vec<(Duration, Duration)> = (0..21)
            .map(|k| {
                if k % 2 == 0 {
                    let r = time(row, sqls);
                    (r, time(col, sqls))
                } else {
                    let c = time(col, sqls);
                    (time(row, sqls), c)
                }
            })
            .collect();
        let median = |mut v: Vec<Duration>| {
            v.sort();
            v[v.len() / 2]
        };
        let ratios = (pairs.iter())
            .map(|(r, c)| r.as_secs_f64() / c.as_secs_f64().max(1e-9))
            .collect();
        (
            median(pairs.iter().map(|p| p.0).collect()),
            median(pairs.iter().map(|p| p.1).collect()),
            quartiles(ratios),
        )
    };

    let corpus = e18_corpus();
    for sql in &corpus {
        let (want, _) = sorted(row, sql);
        let (got, _) = sorted(col, sql);
        assert_eq!(got, want, "columnar multiset differs for {sql}");
    }
    println!(
        "corpus: {} statements over a {}-supplier database; columnar \
         multisets identical to the row baseline (the same plans, no \
         column store attached) on every one",
        corpus.len(),
        cfg.suppliers
    );
    m.push(
        "E18",
        "corpus_multiset_identical",
        corpus.len() as f64,
        true,
    );

    println!(
        "\nwork units and p50 wall clock on the join+DISTINCT workload:\n  {E18_JOIN_DISTINCT}"
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "session", "scans", "probes", "steps", "sortcmp", "vecops", "mat", "work", "p50"
    );
    let mut works = Vec::new();
    let (row_time, col_time, ratio_q) = paired(&[E18_JOIN_DISTINCT]);
    for ((name, run), time) in E18_CONTENDERS.into_iter().zip([row_time, col_time]) {
        let (_, stats) = sorted(run, E18_JOIN_DISTINCT);
        let work = e18_work(&stats);
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
            name,
            stats.rows_scanned,
            stats.hash_probes,
            stats.probe_steps,
            stats.sort_comparisons,
            stats.vector_ops,
            stats.materialized_rows,
            work,
            fmt_duration(time)
        );
        works.push(work);
    }
    let (row_work, col_work) = (works[0], works[1]);
    let ratio = row_work as f64 / col_work.max(1) as f64;
    m.push("E18", "row_work", row_work as f64, false);
    m.push("E18", "columnar_work", col_work as f64, false);
    m.push("E18", "work_ratio", ratio, true);
    assert!(
        2 * col_work <= row_work,
        "columnar work {col_work} not 2x under row work {row_work}"
    );
    m.push("E18", "row_p50_us", micros(row_time), false);
    m.push("E18", "columnar_p50_us", micros(col_time), false);
    push_quartiles(m, "E18", "time_ratio", ratio_q, false);
    println!(
        "columnar does {ratio:.1}x fewer work units (bar: >= 2x) and runs \
         {:.1}x faster, median of 21 paired runs (quartiles {:.1}-{:.1}x; not asserted)",
        ratio_q[1], ratio_q[0], ratio_q[2]
    );

    let sqls: Vec<&str> = corpus.iter().map(String::as_str).collect();
    let (row_time, col_time, corpus_q) = paired(&sqls);
    m.push("E18", "corpus_row_p50_us", micros(row_time), false);
    m.push("E18", "corpus_columnar_p50_us", micros(col_time), false);
    push_quartiles(m, "E18", "corpus_time_ratio", corpus_q, false);
    println!(
        "whole corpus, p50 of one pass: row {} vs columnar {} ({:.1}x, quartiles {:.1}-{:.1}x)",
        fmt_duration(row_time),
        fmt_duration(col_time),
        corpus_q[1],
        corpus_q[0],
        corpus_q[2]
    );

    let (_, probe) = sorted(col, E18_UNIQUE_PROBE);
    let hash_ops = probe.hash_probes + probe.hash_joins;
    println!(
        "\ndirect-index unique probe:\n  {E18_UNIQUE_PROBE}\n\
         hash ops {hash_ops} (probe steps {}, one array load each)",
        probe.probe_steps
    );
    m.push("E18", "unique_probe_hash_ops", hash_ops as f64, true);
    assert_eq!(hash_ops, 0, "direct-index probe must not hash");

    let explain = session.explain(E18_JOIN_DISTINCT).expect("explain");
    let marker = explain
        .lines()
        .find(|l| l.contains("exec=columnar"))
        .expect("columnar scan line");
    println!("\nEXPLAIN scan line: {}", marker.trim());
    assert!(marker.contains("enc=dict"), "{explain}");

    e18_analytic_block(m);
}

/// perfbench's `analytic` statements, restated so the report does not
/// depend on the benchmark: joins under `DISTINCT` and `GROUP BY`, set
/// operations, a semi-join, a `COUNT(DISTINCT)` Top-K and a 20,000-row
/// join.
const ANALYTIC: [&str; 8] = [
    "SELECT DISTINCT S.SCITY, P.COLOR FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
    "SELECT DISTINCT S.SCITY, P.COLOR, A.ACITY FROM SUPPLIER S, PARTS P, AGENTS A \
     WHERE S.SNO = P.SNO AND S.SNO = A.SNO",
    "SELECT S.SCITY, P.COLOR, COUNT(*) AS N FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO GROUP BY S.SCITY, P.COLOR",
    "SELECT ALL P.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED' \
     INTERSECT ALL SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
    "SELECT ALL P.SNO FROM PARTS P WHERE P.COLOR = 'RED' \
     EXCEPT ALL SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Hull'",
    "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
    "SELECT S.SNO, COUNT(DISTINCT P.COLOR) AS C FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO GROUP BY S.SNO ORDER BY C DESC, S.SNO LIMIT 10",
    "SELECT S.SNAME, P.PNO, P.COLOR FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
];

/// E18's time rows for analytic traffic: the p50 wall clock of one
/// block of [`ANALYTIC`] with its 20,000-row join run twice, as
/// perfbench's block runs it, served in-process by an analyzed session
/// over perfbench's data and index set; and, from the same 21 runs,
/// each statement's p50 (statement 7 over both of its runs per block).
fn e18_analytic_block(m: &mut Metrics) {
    let db = indexed_data(2_000, JOIN_INDEX_DDL);
    let session = Session::new(db).with_cost_based();
    let block = || ANALYTIC.iter().enumerate().chain([(7, &ANALYTIC[7])]);
    // Each statement's times go to `statements[i]`.
    let block_time = |statements: &mut [Vec<f64>]| {
        let t = Instant::now();
        for (i, sql) in block() {
            let s = Instant::now();
            session.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            statements[i].push(micros(s.elapsed()));
        }
        micros(t.elapsed())
    };
    // A first pass compiles every plan; the timed ones are cache hits.
    let mut statements = vec![Vec::new(); ANALYTIC.len()];
    block_time(&mut statements);
    statements.iter_mut().for_each(Vec::clear);
    let [_, p50, _] = quartiles((0..21).map(|_| block_time(&mut statements)).collect());
    println!(
        "\nanalytic block ({} statements, perfbench's data and indexes, ANALYZEd): \
         p50 {p50:.0} µs over 21 runs",
        block().count()
    );
    m.push("E18", "analytic_block_p50_us", p50, false);
    for (i, samples) in statements.into_iter().enumerate() {
        let [_, p50, _] = quartiles(samples);
        println!("  statement {i}: p50 {p50:.0} µs");
        m.push("E18", &format!("analytic_stmt{i}_p50_us"), p50, false);
    }
}

/// perfbench's seven `oltp` shapes, restated; `{k}` is a supplier key.
const OLTP_SHAPES: [&str; 7] = [
    "SELECT S.SNO, S.SNAME, S.SCITY FROM SUPPLIER S WHERE S.SNO = {k}",
    "SELECT S.SNAME, P.PNO, P.COLOR FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO AND S.SNO = {k}",
    "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO AND S.SNO = {k}",
    "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = {k} AND EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = 2)",
    "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = {k} AND EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = 1) AND EXISTS \
     (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO AND A.ANO = 2)",
    "SELECT S.SNO, P.PNO, COUNT(*) AS N FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO AND S.SNO = {k} GROUP BY S.SNO, P.PNO",
    "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO <= {k} ORDER BY S.SNO LIMIT 10",
];

/// perfbench's `write_subscribe` views (set, counting and recompute
/// tiers), restated.
const VIEWS: [&str; 3] = [
    "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
    "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S WHERE P.SNO = S.SNO",
    "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO GROUP BY S.SCITY",
];

/// The `analytic` statements whose index plans the priced choice moves
/// to the encoded access: the `INTERSECT ALL` and `EXCEPT ALL` over the
/// `COLOR` index scan, and the `EXISTS` that Corollary 1 makes a join
/// probing `IDX_P_SNO`.
const E24_MOVED: [usize; 3] = [3, 4, 5];

/// E24 — the one access choice priced in nanoseconds, on perfbench's
/// data (2,000 suppliers × 10 parts × 2 agents, ANALYZEd), with and
/// without its secondary indexes:
///
/// 1. each per-unit price of `uniq-cost`'s `price` module beside its
///    measurement on this host, one probe statement per unit;
/// 2. the plan facts, asserted: [`E24_MOVED`] run encoded with their
///    index licenses kept, the other `analytic` statements plan as they
///    do without the indexes, every `oltp` shape keeps its index plan
///    on the rows access, and the views stay encoded and unpriced; the 8
///    statements answer alike served, on the row path and unoptimized;
/// 3. each `analytic` statement's p50 served and under each forced
///    alternative (the index plan, the encoded plan, row hash), printed.
fn e24_priced_access(m: &mut Metrics) {
    header(
        "E24",
        "index operators against the encoded access, priced in ns",
    );
    let plain = Session::new(perfbench_data(2_000)).with_cost_based();
    let indexed = Session::new(indexed_data(2_000, JOIN_INDEX_DDL)).with_cost_based();
    e24_prices(m, &plain, &indexed);
    e24_plan_facts(m, &plain, &indexed);
    e24_times(m, &plain, &indexed);
}

/// Measure each price with one probe statement whose time its unit
/// dominates: the probe's p50, less its other units priced at their
/// checked-in constants, over the unit's count, taken from the probe's
/// counters (a hash or keyed step's build rows from the data: 20,000
/// parts, 2,000 suppliers). The probes run interleaved, 21 rounds of all
/// of them in a rotating order, so a drifting host slows each alike.
fn e24_prices(m: &mut Metrics, plain: &Session, indexed: &Session) {
    use uniqueness::cost::price::PRICES;
    // No supplier has a negative budget: PARTS is built, never probed.
    let build_only =
        "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND S.BUDGET < 0";
    // One part per supplier probes SUPPLIER's key; projecting a SUPPLIER
    // column keeps the join from being eliminated.
    let probed =
        "SELECT P.PNO, S.BUDGET FROM PARTS P, SUPPLIER S WHERE S.SNO = P.SNO AND P.PNO = 1";
    // A probe's units, in `PRICES` order: row read, index probe, probe
    // step, hash build, hash probe, projected row, vector op, encoded
    // build, encoded probe, materialized row.
    type Counts = [u64; 10];
    let rows_access = |s: &ExecStats, build: u64| -> Counts {
        let out = s.rows_output;
        let (read, ix, steps, probes) = (s.rows_scanned, s.ix_probes, s.probe_steps, s.hash_probes);
        // A hash step's probe steps are its postings, priced with its probes.
        let steps = if build > 0 { 0 } else { steps };
        [read, ix, steps, build, probes, out, 0, 0, 0, 0]
    };
    let encoded = |s: &ExecStats, build: u64| -> Counts {
        // A keyed step's probes: one probe step each on SUPPLIER's key.
        let probes = if build > 0 { s.probe_steps } else { 0 };
        [
            0,
            0,
            0,
            0,
            0,
            0,
            s.vector_ops,
            build,
            probes,
            s.materialized_rows,
        ]
    };
    let parts_scan = "SELECT P.SNO FROM PARTS P WHERE P.PNO >= 0";
    // (session, access, statement, build rows, the unit it measures)
    let probes: [(&Session, bool, &str, u64, usize); 10] = [
        (
            plain,
            false,
            "SELECT P.PNO FROM PARTS P WHERE P.PNO < 0",
            0,
            0,
        ),
        (plain, false, parts_scan, 0, 5),
        (
            indexed,
            false,
            "SELECT P.PNO FROM PARTS P WHERE P.COLOR = 'RED'",
            0,
            2,
        ),
        (
            indexed,
            false,
            "SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE P.SNO = S.SNO AND P.PNO < 0",
            0,
            1,
        ),
        (plain, false, build_only, 20_000, 3),
        (plain, false, probed, 2_000, 4),
        (
            plain,
            true,
            "SELECT P.PNO FROM PARTS P WHERE P.PNO >= 0 AND P.SNO >= 0 AND P.PNO < 0",
            0,
            6,
        ),
        (plain, true, parts_scan, 0, 9),
        (plain, true, build_only, 20_000, 7),
        (plain, true, probed, 2_000, 8),
    ];
    let run = |&(session, served, sql, _, _): &(&Session, bool, &str, u64, usize)| {
        let out = if served {
            session.query(sql)
        } else {
            row_path(session, sql)
        };
        out.unwrap_or_else(|e| panic!("{sql}: {e}"))
    };
    let counts: Vec<Counts> = (probes.iter())
        .map(|p| {
            let stats = run(p).stats;
            if p.1 {
                encoded(&stats, p.3)
            } else {
                rows_access(&stats, p.3)
            }
        })
        .collect();
    let mut samples = vec![Vec::new(); probes.len()];
    for round in 0..21 {
        for k in 0..probes.len() {
            let i = (round + k) % probes.len();
            let t = Instant::now();
            std::hint::black_box(run(&probes[i]));
            samples[i].push(t.elapsed().as_nanos() as f64);
        }
    }
    let mut measured = [0.0; 10];
    for ((samples, counts), probe) in samples.into_iter().zip(&counts).zip(&probes) {
        let unit = probe.4;
        let others: f64 = (PRICES.iter().zip(counts).enumerate())
            .filter(|(v, _)| *v != unit)
            .map(|(_, ((_, price), &count))| price * count as f64)
            .sum();
        measured[unit] = (quartiles(samples)[1] - others) / counts[unit] as f64;
    }
    println!(
        "prices (ns per unit): checked-in constant beside its measurement here, \
         each from one probe statement's p50 over 21 interleaved rounds, its other \
         units at their constants (not asserted)"
    );
    println!("  {:<12} {:>9} {:>9}", "unit", "constant", "measured");
    for ((name, constant), measured) in PRICES.iter().zip(measured) {
        println!("  {name:<12} {constant:>9.1} {measured:>9.1}");
        m.push("E24", &format!("price_{name}_ns"), *constant, false);
        m.push("E24", &format!("measured_{name}_ns"), measured, false);
    }
}

/// The cost-based plan section of `sql`'s EXPLAIN.
fn e24_plan(session: &Session, sql: &str) -> String {
    let explain = session
        .explain(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let (_, plan) = explain
        .split_once("Cost-based plan (est/act rows):")
        .unwrap_or_else(|| panic!("{sql}: no cost-based plan\n{explain}"));
    plan.to_string()
}

/// The deterministic facts of the priced choice, asserted.
fn e24_plan_facts(m: &mut Metrics, plain: &Session, indexed: &Session) {
    println!("\nplans on perfbench's index set:");
    for (i, sql) in ANALYTIC.iter().enumerate() {
        let plan = e24_plan(indexed, sql);
        if E24_MOVED.contains(&i) {
            let out = indexed.query(sql).expect("query");
            assert!(
                out.stats.vector_ops > 0,
                "statement {i} not encoded: {plan}"
            );
            assert!(
                plan.contains("exec=columnar") && plan.contains(" price("),
                "statement {i}: {plan}"
            );
            assert!(
                plan.contains("ixscan(") || plan.contains("ixjoin("),
                "statement {i} lost its index license: {plan}"
            );
            let line = plan.lines().find(|l| l.contains(" price(")).unwrap_or("");
            println!("  statement {i}: encoded, {}", line.trim());
        } else {
            assert_eq!(
                plan,
                e24_plan(plain, sql),
                "statement {i} plans differently with the index set"
            );
            assert!(!plan.contains(" price("), "statement {i}: {plan}");
            println!("  statement {i}: the plan it has without the indexes");
        }
        let hv = HostVars::new();
        let sorted = |rows: Vec<Vec<Value>>| {
            let mut rows = rows;
            rows.sort_by(|a, b| uniqueness::types::value::tuple_null_cmp(a, b).unwrap());
            rows
        };
        let served = sorted(indexed.query(sql).expect("served").rows);
        let on_rows = sorted(indexed.query_row_path(sql, &hv).expect("row path").rows);
        let oracle = sorted(indexed.query_unoptimized(sql, &hv).expect("oracle").rows);
        assert_eq!(served, on_rows, "statement {i}: served and row path differ");
        assert_eq!(
            served, oracle,
            "statement {i}: served and unoptimized differ"
        );
    }
    m.push(
        "E24",
        "moved_statements_encoded",
        E24_MOVED.len() as f64,
        true,
    );
    m.push("E24", "statements_agreeing", ANALYTIC.len() as f64, true);

    for shape in OLTP_SHAPES {
        for k in [17, 3_999] {
            let sql = shape.replace("{k}", &k.to_string());
            let plan = e24_plan(indexed, &sql);
            assert!(
                plan.contains("ixscan(") && !plan.contains("exec=columnar"),
                "{sql} left its index plan: {plan}"
            );
        }
    }
    println!(
        "  oltp: all {} shapes keep their index plans on the rows access",
        OLTP_SHAPES.len()
    );
    m.push("E24", "oltp_shapes_indexed", OLTP_SHAPES.len() as f64, true);
    for sql in VIEWS {
        let plan = e24_plan(indexed, sql);
        assert!(
            plan.contains("exec=columnar") && !plan.contains(" price("),
            "{sql}: {plan}"
        );
        assert!(
            !plan.contains("ixscan(") && !plan.contains("ixjoin("),
            "{sql}: {plan}"
        );
    }
    println!(
        "  views: all {} encoded, no index operator to price",
        VIEWS.len()
    );
    m.push("E24", "views_encoded", VIEWS.len() as f64, true);
}

/// Each `analytic` statement served and under each forced alternative:
/// the index plan (`query_row_path` on the indexed data), the encoded
/// plan (served without the secondary indexes) and row hash
/// (`query_row_path` without them). 21 rounds, the four in a rotating
/// order; p50 with quartiles, and the served plan's p50 over the fastest
/// alternative's, with and without the index set. Printed, not asserted.
fn e24_times(m: &mut Metrics, plain: &Session, indexed: &Session) {
    let contenders: [(&str, &Session, Runner); 4] = [
        ("served", indexed, Session::query),
        ("index", indexed, row_path),
        ("encoded", plain, Session::query),
        ("rowhash", plain, row_path),
    ];
    println!(
        "\np50 µs [quartiles] of 21 rounds; served/fastest with the index set \
         and without it (where the encoded plan is the served one):"
    );
    println!(
        "  {:<4} {:>22} {:>22} {:>22} {:>22} {:>7} {:>7}",
        "stmt", "served", "index", "encoded", "row hash", "ix", "no ix"
    );
    for (i, sql) in ANALYTIC.iter().enumerate() {
        for (_, session, run) in contenders {
            run(session, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        let mut samples = vec![Vec::new(); contenders.len()];
        for round in 0..21 {
            for k in 0..contenders.len() {
                let c = (round + k) % contenders.len();
                let (_, session, run) = contenders[c];
                let t = Instant::now();
                std::hint::black_box(run(session, sql).expect("query"));
                samples[c].push(micros(t.elapsed()));
            }
        }
        let q: Vec<[f64; 3]> = samples.into_iter().map(quartiles).collect();
        let fastest = q[1..].iter().map(|q| q[1]).fold(f64::INFINITY, f64::min);
        let (ix_ratio, plain_ratio) = (q[0][1] / fastest, q[2][1] / fastest);
        let cell = |q: &[f64; 3]| format!("{:.0} [{:.0}, {:.0}]", q[1], q[0], q[2]);
        println!(
            "  {i:<4} {:>22} {:>22} {:>22} {:>22} {ix_ratio:>6.2}x {plain_ratio:>6.2}x",
            cell(&q[0]),
            cell(&q[1]),
            cell(&q[2]),
            cell(&q[3])
        );
        for ((name, _, _), q) in contenders.iter().zip(&q) {
            m.push("E24", &format!("stmt{i}_{name}_p50_us"), q[1], false);
        }
        m.push(
            "E24",
            &format!("stmt{i}_served_ix_over_fastest"),
            ix_ratio,
            false,
        );
        m.push(
            "E24",
            &format!("stmt{i}_served_plain_over_fastest"),
            plain_ratio,
            false,
        );
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The first quartile, median and third quartile of `samples`.
fn quartiles(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    [samples[n / 4], samples[n / 2], samples[3 * n / 4]]
}

/// Push a measurement's median as `name` (marked `asserted` when a hard
/// assertion guards it) and its quartiles beside it as `name_q1` and
/// `name_q3`.
fn push_quartiles(
    m: &mut Metrics,
    experiment: &str,
    name: &str,
    [q1, median, q3]: [f64; 3],
    asserted: bool,
) {
    m.push(experiment, name, median, asserted);
    m.push(experiment, &format!("{name}_q1"), q1, false);
    m.push(experiment, &format!("{name}_q3"), q3, false);
}

/// E16 — cost-based per-node physical planning vs every fixed plan's
/// join/distinct method combination, over the workload corpus.
fn e16_cost_based_planning(m: &mut Metrics) {
    header("E16", "cost-based physical planning vs fixed plans");
    let cfg = uniqueness::workload::ScaleConfig {
        suppliers: 60,
        parts_per_supplier: 5,
        ..Default::default()
    };
    let db = uniqueness::workload::scaled_database(&cfg).expect("scaled database");
    let corpus = e16_corpus(17, 48);
    println!(
        "corpus: {} statements over a {}-supplier database\n",
        corpus.len(),
        cfg.suppliers
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "session", "scans", "sort cmp", "probes", "work", "vecops", "all work", "mean q", "max q"
    );
    // `work` is total_work, the currencies of the row executor; `all
    // work` adds the vector ops, probe steps and materialized rows the
    // columnar kernels book (e18_work), so the cost-based contender,
    // which runs its covered blocks columnar, is compared in it.
    let mut works: Vec<(&str, u64, u64)> = Vec::new();
    for (name, session) in e16_contenders(db) {
        let report = run_batch(&session, &corpus, BatchOptions::default());
        assert_eq!(report.errors, 0, "{name}: {:?}", report.first_error);
        let work = total_work(&report.exec);
        let all_work = e18_work(&report.exec);
        let (mean_q, max_q) = if report.qerror.ops == 0 {
            ("-".to_string(), "-".to_string())
        } else {
            (
                format!("{:.2}", report.qerror.mean()),
                format!("{:.2}", report.qerror.max),
            )
        };
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
            name,
            report.exec.rows_scanned,
            report.exec.sort_comparisons,
            report.exec.hash_probes,
            work,
            report.exec.vector_ops,
            all_work,
            mean_q,
            max_q
        );
        works.push((name, work, all_work));
    }
    let (_, cost_work, cost) = *works
        .iter()
        .find(|(n, _, _)| *n == "cost-based")
        .expect("cost-based contender present");
    for (name, _, all_work) in &works {
        assert!(
            cost <= *all_work,
            "cost-based work {cost} exceeds {name} work {all_work}"
        );
    }
    m.push("E16", "cost_based_work", cost_work as f64, false);
    m.push("E16", "cost_based_all_work", cost as f64, true);
    let fixed = works.iter().filter(|(n, _, _)| *n != "cost-based");
    let best_static = fixed.clone().map(|w| w.1).min().unwrap_or(0);
    let best_static_all = fixed.map(|w| w.2).min().unwrap_or(0);
    m.push("E16", "best_static_work", best_static as f64, false);
    m.push("E16", "best_static_all_work", best_static_all as f64, false);
    println!("\ncost-based work (all currencies) is within every static configuration");

    // One worked EXPLAIN showing est vs act per operator.
    let session =
        Session::new(uniqueness::catalog::sample::supplier_database().expect("sample database"))
            .with_cost_based();
    let sql = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
               WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
    let explain = session.explain(sql).expect("explain");
    let section = explain
        .split("Cost-based plan (est/act rows):")
        .nth(1)
        .expect("cost section present");
    println!("\nEXPLAIN (Figure 1 database): {sql}");
    println!("Cost-based plan (est/act rows):{section}");
}

fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// E1 — the paper's worked examples through both analyses.
fn e1_paper_examples() {
    header(
        "E1",
        "paper examples 1/2/4-6 through Algorithm 1 and the FD test",
    );
    let db = uniqueness::catalog::sample::supplier_schema().unwrap();
    let cases: &[(&str, &str, bool)] = &[
        (
            "Ex.1",
            "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            true,
        ),
        (
            "Ex.2",
            "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            false,
        ),
        (
            "Ex.4/5",
            "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P \
             WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO",
            true,
        ),
        (
            "Ex.6",
            "SELECT DISTINCT S.SNO, PNO, PNAME, P.COLOR FROM SUPPLIER S, PARTS P \
             WHERE S.SNAME = :SUPPLIER-NAME AND S.SNO = P.SNO",
            true,
        ),
    ];
    println!(
        "{:<8} {:>6} {:>8} {:>8} {:>8}",
        "example", "paper", "Alg.1", "FD", "agree"
    );
    for (name, sql, paper_unique) in cases {
        let bound = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let spec = bound.as_spec().unwrap();
        let a1 = algorithm1(spec, &Algorithm1Options::default()).unique;
        let fd = unique_projection(spec).unique;
        println!(
            "{:<8} {:>6} {:>8} {:>8} {:>8}",
            name,
            if *paper_unique { "YES" } else { "NO" },
            if a1 { "YES" } else { "NO" },
            if fd { "YES" } else { "NO" },
            if fd == *paper_unique { "✓" } else { "✗" }
        );
    }
    println!("(paper column = the verdict the paper derives for the example)");
}

/// E2 — cost of a redundant DISTINCT across result sizes.
fn e2_distinct_removal(runs: usize) {
    header(
        "E2",
        "redundant DISTINCT removal: skip the result sort (Theorem 1)",
    );
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>9} {:>14}",
        "suppliers", "result", "with sort", "rewritten", "speedup", "comparisons"
    );
    for suppliers in [1_000usize, 5_000, 20_000, 60_000] {
        let session = scaled_session(suppliers, 5);
        let hv = HostVars::new();
        let base = session.query_unoptimized(E2_QUERY, &hv).unwrap();
        let t_base = median_time(runs, || session.query_unoptimized(E2_QUERY, &hv).unwrap());
        let t_opt = median_time(runs, || session.query(E2_QUERY).unwrap());
        println!(
            "{:>10} {:>10} {:>12} {:>12} {:>8.2}x {:>14}",
            suppliers,
            base.rows.len(),
            fmt_duration(t_base),
            fmt_duration(t_opt),
            t_base.as_secs_f64() / t_opt.as_secs_f64(),
            base.stats.sort_comparisons
        );
    }
}

/// E3 — corpus audit: how many CASE-tool DISTINCTs are provably redundant.
fn e3_corpus() {
    header("E3", "corpus audit: redundant DISTINCT detection (§5.1)");
    let corpus = generate_corpus(2024, 500, 6).unwrap();
    let stats = CorpusStats::of(&corpus);
    println!("queries                         : {}", stats.total);
    println!("provably unique (FD closure)    : {}", stats.fd_yes);
    println!("provably unique (Algorithm 1)   : {}", stats.alg1_yes);
    println!(
        "observed duplicating            : {}",
        stats.with_duplicates
    );
    println!("soundness violations            : {}", stats.unsound);
    // Detection cost.
    let db = uniqueness::catalog::sample::supplier_schema().unwrap();
    let bound: Vec<_> = corpus
        .iter()
        .map(|q| bind_query(db.catalog(), &parse_query(&q.sql).unwrap()).unwrap())
        .collect();
    let t_alg1 = median_time(3, || {
        bound
            .iter()
            .filter(|b| algorithm1(b.as_spec().unwrap(), &Algorithm1Options::default()).unique)
            .count()
    });
    let t_fd = median_time(3, || {
        bound
            .iter()
            .filter(|b| unique_projection(b.as_spec().unwrap()).unique)
            .count()
    });
    println!(
        "analysis cost for all {} queries: Algorithm 1 {}, FD test {}",
        stats.total,
        fmt_duration(t_alg1),
        fmt_duration(t_fd)
    );
}

/// E4 — Theorem 2: EXISTS → join beats the nested-loop subquery.
fn e4_subquery_to_join(runs: usize) {
    header(
        "E4",
        "subquery → join (Theorem 2): nested-loop EXISTS vs hash join",
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>9}",
        "suppliers", "parts/sup", "nested", "rewritten", "speedup"
    );
    for (suppliers, parts) in [(500usize, 4usize), (2_000, 4), (2_000, 16), (8_000, 8)] {
        let session = scaled_session(suppliers, parts);
        let hv = HostVars::new();
        let base = session.query_unoptimized(E4_QUERY, &hv).unwrap();
        let opt = session.query(E4_QUERY).unwrap();
        assert_eq!(base.rows.len(), opt.rows.len());
        let t_base = median_time(runs, || session.query_unoptimized(E4_QUERY, &hv).unwrap());
        let t_opt = median_time(runs, || session.query(E4_QUERY).unwrap());
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>8.2}x",
            suppliers,
            parts,
            fmt_duration(t_base),
            fmt_duration(t_opt),
            t_base.as_secs_f64() / t_opt.as_secs_f64()
        );
    }
}

/// E5 — Corollary 1: ALL → DISTINCT-join rewrite, red-selectivity sweep.
fn e5_corollary_1(runs: usize) {
    header(
        "E5",
        "subquery → DISTINCT join (Corollary 1), red-fraction sweep",
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>9}",
        "red %", "result", "nested", "rewritten", "speedup"
    );
    for red in [0.05f64, 0.3, 0.8] {
        let cfg = uniqueness::workload::ScaleConfig {
            suppliers: 4_000,
            parts_per_supplier: 8,
            red_fraction: red,
            ..Default::default()
        };
        let db = uniqueness::workload::scaled_database(&cfg).unwrap();
        let session = Session::new(db);
        let hv = HostVars::new();
        let base = session.query_unoptimized(E5_QUERY, &hv).unwrap();
        let opt = session.query(E5_QUERY).unwrap();
        assert_eq!(base.rows.len(), opt.rows.len());
        let t_base = median_time(runs, || session.query_unoptimized(E5_QUERY, &hv).unwrap());
        let t_opt = median_time(runs, || session.query(E5_QUERY).unwrap());
        println!(
            "{:>8.0} {:>10} {:>12} {:>12} {:>8.2}x",
            red * 100.0,
            base.rows.len(),
            fmt_duration(t_base),
            fmt_duration(t_opt),
            t_base.as_secs_f64() / t_opt.as_secs_f64()
        );
    }
}

/// E6 — Theorem 3: INTERSECT → EXISTS avoids sorting both operands; plus
/// the null-semantics counter-example for the naive (Starburst Rule 8)
/// rewrite.
fn e6_intersect(runs: usize) {
    header("E6", "INTERSECT → EXISTS (Theorem 3 / Corollary 2)");
    println!(
        "{:>10} {:>12} {:>12} {:>9} {:>14} {:>14}",
        "suppliers", "sort-merge", "rewritten", "speedup", "sorted (base)", "sorted (rw)"
    );
    for suppliers in [1_000usize, 10_000, 40_000] {
        let session = scaled_session(suppliers, 2);
        let hv = HostVars::new();
        let base = session
            .query_unoptimized(uniq_bench::E6_QUERY, &hv)
            .unwrap();
        let opt = session.query(uniq_bench::E6_QUERY).unwrap();
        assert_eq!(base.rows.len(), opt.rows.len());
        let t_base = median_time(runs, || {
            session
                .query_unoptimized(uniq_bench::E6_QUERY, &hv)
                .unwrap()
        });
        let t_opt = median_time(runs, || session.query(uniq_bench::E6_QUERY).unwrap());
        println!(
            "{:>10} {:>12} {:>12} {:>8.2}x {:>14} {:>14}",
            suppliers,
            fmt_duration(t_base),
            fmt_duration(t_opt),
            t_base.as_secs_f64() / t_opt.as_secs_f64(),
            base.stats.rows_sorted,
            opt.stats.rows_sorted
        );
    }
    println!(
        "(the claim is about avoided sorting of both operands: the rewritten plan \
         sorts only its final — much smaller — result; wall-clock parity here is \
         the in-memory hash join materialization offsetting the sort savings)"
    );

    // The null pitfall (paper: Starburst Rule 8 is wrong without it).
    let mut s = Session::new(uniqueness::catalog::Database::new());
    s.run_script(
        "CREATE TABLE L (K INTEGER NOT NULL, X INTEGER, PRIMARY KEY (K));
         CREATE TABLE R2 (K INTEGER NOT NULL, X INTEGER, PRIMARY KEY (K));
         INSERT INTO L VALUES (1, NULL);
         INSERT INTO R2 VALUES (9, NULL);",
    )
    .unwrap();
    let correct = s
        .query("SELECT ALL L.X FROM L INTERSECT SELECT ALL R2.X FROM R2")
        .unwrap();
    // The naive rewrite with a plain equi-predicate loses the NULL match.
    let naive = s
        .query_unoptimized(
            "SELECT ALL L.X FROM L WHERE EXISTS (SELECT * FROM R2 WHERE R2.X = L.X)",
            &HostVars::new(),
        )
        .unwrap();
    println!(
        "\nnull-semantics check: INTERSECT finds {} row(s) [{}], naive equi-EXISTS \
         rewrite finds {} — the =̇ correlation predicate is required.",
        correct.rows.len(),
        correct
            .rows
            .first()
            .map(|r| r[0].to_string())
            .unwrap_or_default(),
        naive.rows.len()
    );
    assert_eq!(correct.rows, vec![vec![Value::Null]]);
    assert!(naive.rows.is_empty());
}

/// E7 — Example 10, key-qualified: DL/I calls halved.
fn e7_ims_key() {
    header(
        "E7",
        "IMS Example 10: DL/I calls, join vs nested strategy (key probe)",
    );
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>8}",
        "suppliers", "parts/sup", "join calls", "nested calls", "ratio"
    );
    for (suppliers, parts) in [(100usize, 8usize), (1_000, 8), (10_000, 8), (1_000, 64)] {
        let db = ims::sample::synthetic(suppliers, parts, 500, parts / 2).unwrap();
        let join = ims::gateway::join_strategy(&db, "PNO", 500i64).unwrap();
        let nested = ims::gateway::exists_strategy(&db, "PNO", 500i64).unwrap();
        assert_eq!(join.rows, nested.rows);
        let j = join.stats.calls_to("PARTS");
        let n = nested.stats.calls_to("PARTS");
        println!(
            "{:>10} {:>12} {:>14} {:>14} {:>7.2}x",
            suppliers,
            parts,
            j,
            n,
            j as f64 / n as f64
        );
    }
    println!("(paper's claim: the nested form issues half the PARTS calls — ratio 2.00x)");
}

/// E8 — Example 10 variant, non-key (OEM-PNO) qualification.
fn e8_ims_nonkey() {
    header(
        "E8",
        "IMS §6.1 OEM-PNO variant: twin-chain inspections, non-key probe",
    );
    println!(
        "{:>12} {:>16} {:>16} {:>8}",
        "parts/sup", "join inspected", "nested inspected", "ratio"
    );
    for parts in [4usize, 16, 64, 256] {
        let db = ims::sample::synthetic(1_000, parts, 500, 0).unwrap();
        let probe = ims::sample::SHARED_OEM_PNO;
        let join = ims::gateway::join_strategy(&db, "OEM-PNO", probe).unwrap();
        let nested = ims::gateway::exists_strategy(&db, "OEM-PNO", probe).unwrap();
        assert_eq!(join.rows, nested.rows);
        let ji = join.stats.inspected_of("PARTS");
        let ni = nested.stats.inspected_of("PARTS");
        println!(
            "{:>12} {:>16} {:>16} {:>7.2}x",
            parts,
            ji,
            ni,
            ji as f64 / ni as f64
        );
    }
    println!("(the join form must scan whole chains; reduction grows with chain length)");
}

/// E9 — Example 11: OODB strategies across parent-range selectivity.
fn e9_oodb() {
    header(
        "E9",
        "OODB Example 11: object fetches vs parent-range selectivity",
    );
    let suppliers = 10_000usize;
    let (store, classes) = oodb::sample::synthetic(suppliers, 4, 500).unwrap();
    println!(
        "{:>12} {:>10} {:>16} {:>16} {:>9}",
        "selectivity", "matches", "pointer fetches", "nested fetches", "winner"
    );
    for pct in [0.1f64, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0] {
        let hi = ((suppliers as f64) * pct / 100.0).round().max(1.0) as i64;
        let ptr = oodb::pointer_strategy(&store, &classes, 500, 1, hi).unwrap();
        let nst = oodb::nested_strategy(&store, &classes, 500, 1, hi).unwrap();
        assert_eq!(ptr.rows.len(), nst.rows.len());
        println!(
            "{:>11}% {:>10} {:>16} {:>16} {:>9}",
            pct,
            ptr.rows.len(),
            ptr.stats.objects_fetched,
            nst.stats.objects_fetched,
            if nst.stats.objects_fetched < ptr.stats.objects_fetched {
                "nested"
            } else {
                "pointer"
            }
        );
    }
}

/// E10 — analysis cost as the predicate grows.
fn e10_analysis_cost() {
    header("E10", "analysis cost: Algorithm 1 (CNF/DNF) vs FD closure");
    let db = uniqueness::catalog::sample::supplier_schema().unwrap();
    println!(
        "{:>10} {:>14} {:>14} {:>12}",
        "conjuncts", "Algorithm 1", "FD closure", "verdicts"
    );
    for n in [2usize, 6, 12, 24, 48] {
        let cols = ["SNO", "SNAME", "SCITY", "BUDGET", "STATUS"];
        let pred: Vec<String> = (0..n)
            .map(|i| format!("S.{} = :H{}", cols[i % cols.len()], i))
            .collect();
        let sql = format!(
            "SELECT DISTINCT S.SCITY FROM SUPPLIER S WHERE {}",
            pred.join(" AND ")
        );
        let bound = bind_query(db.catalog(), &parse_query(&sql).unwrap()).unwrap();
        let spec = bound.as_spec().unwrap().clone();
        let t_a1 = median_time(7, || {
            algorithm1(&spec, &Algorithm1Options::default()).unique
        });
        let t_fd = median_time(7, || unique_projection(&spec).unique);
        let v1 = algorithm1(&spec, &Algorithm1Options::default()).unique;
        let v2 = unique_projection(&spec).unique;
        println!(
            "{:>10} {:>14} {:>14} {:>7}/{:<4}",
            n,
            fmt_duration(t_a1),
            fmt_duration(t_fd),
            if v1 { "YES" } else { "NO" },
            if v2 { "YES" } else { "NO" }
        );
    }
}

/// E11 — set-operation semantics validation on adversarial instances.
fn e11_setop_semantics() {
    header(
        "E11",
        "INTERSECT/EXCEPT ALL min/max-count and =̇ null handling",
    );
    let mut s = Session::new(uniqueness::catalog::Database::new());
    s.run_script(
        "CREATE TABLE L (V INTEGER); CREATE TABLE R2 (V INTEGER);
         INSERT INTO L VALUES (1), (1), (1), (2), (NULL), (NULL);
         INSERT INTO R2 VALUES (1), (2), (2), (NULL);",
    )
    .unwrap();
    let cases = [
        (
            "INTERSECT",
            "SELECT ALL L.V FROM L INTERSECT SELECT ALL R2.V FROM R2",
            3usize,
        ),
        (
            "INTERSECT ALL",
            "SELECT ALL L.V FROM L INTERSECT ALL SELECT ALL R2.V FROM R2",
            3,
        ),
        (
            "EXCEPT",
            "SELECT ALL L.V FROM L EXCEPT SELECT ALL R2.V FROM R2",
            0,
        ),
        (
            "EXCEPT ALL",
            "SELECT ALL L.V FROM L EXCEPT ALL SELECT ALL R2.V FROM R2",
            3,
        ),
    ];
    println!(
        "L = {{1,1,1,2,NULL,NULL}}, R = {{1,2,2,NULL}}\n{:>15} {:>8} {:>8}",
        "operator", "rows", "expect"
    );
    for (name, sql, expect) in cases {
        let out = s.query_unoptimized(sql, &HostVars::new()).unwrap();
        println!(
            "{:>15} {:>8} {:>8} {}",
            name,
            out.rows.len(),
            expect,
            if out.rows.len() == expect {
                "✓"
            } else {
                "✗"
            }
        );
        assert_eq!(out.rows.len(), expect, "{name}");
    }
    println!("(INTERSECT ALL: min(3,1)+min(1,2)+min(2,1) = 3; EXCEPT ALL: 2+0+1 = 3)");
}

/// E13 — the §7 future-work extension: join elimination via foreign keys.
fn e13_join_elimination(runs: usize) {
    header(
        "E13",
        "join elimination via inclusion dependencies (§7 future work)",
    );
    let sql = "SELECT ALL P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
    println!(
        "{:>10} {:>12} {:>12} {:>9} {:>14}",
        "suppliers", "with join", "eliminated", "speedup", "rows scanned"
    );
    for suppliers in [1_000usize, 10_000, 40_000] {
        let session = scaled_session(suppliers, 5);
        let hv = HostVars::new();
        let base = session.query_unoptimized(sql, &hv).unwrap();
        let opt = session.query(sql).unwrap();
        assert_eq!(base.rows.len(), opt.rows.len());
        assert!(opt.trace.steps.iter().any(|s| s.rule == "join-elimination"));
        let t_base = median_time(runs, || session.query_unoptimized(sql, &hv).unwrap());
        let t_opt = median_time(runs, || session.query(sql).unwrap());
        println!(
            "{:>10} {:>12} {:>12} {:>8.2}x {:>6} → {:<6}",
            suppliers,
            fmt_duration(t_base),
            fmt_duration(t_opt),
            t_base.as_secs_f64() / t_opt.as_secs_f64(),
            base.stats.rows_scanned,
            opt.stats.rows_scanned
        );
    }
}

/// One optimize-heavy statement for E14: a DISTINCT block guarded by a
/// chain of EXISTS subqueries, each of which pins the inner table's full
/// key. Every subquery licenses a Theorem 2 rewrite, so the optimizer
/// walks a long chain of steps — each one re-running the uniqueness
/// analyses on the rewritten query and re-rendering its SQL — which makes
/// compilation dwarf execution on a small instance. `salt` varies the
/// probed part numbers so statements are textually (and fingerprint-)
/// distinct.
fn e14_query(subqueries: usize, salt: usize) -> String {
    let pred: Vec<String> = (0..subqueries)
        .map(|i| {
            format!(
                "EXISTS (SELECT * FROM PARTS P{i} \
                 WHERE P{i}.SNO = S.SNO AND P{i}.PNO = {})",
                salt + i
            )
        })
        .collect();
    format!(
        "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE {}",
        pred.join(" AND ")
    )
}

/// E14 — serving path: sharded plan cache under a repeated-query batch,
/// cached vs uncached, plus worker-pool scaling over a shared session.
fn e14_plan_cache(m: &mut Metrics) {
    header(
        "E14",
        "plan cache + batch serving: repeated queries, cached vs uncached",
    );
    let (reps, distinct, subqueries) = (40usize, 6usize, 8usize);
    let corpus: Vec<String> = (0..reps)
        .flat_map(|_| (0..distinct).map(|q| e14_query(subqueries, q * 100)))
        .collect();
    println!(
        "workload: {} statements ({} distinct × {} repetitions), {} EXISTS each",
        corpus.len(),
        distinct,
        reps,
        subqueries
    );

    let cached = scaled_session(50, 2);
    let uncached = cached.clone().with_cache_capacity(0);
    let cold = run_batch(&uncached, &corpus, BatchOptions { threads: 1 });
    let hot = run_batch(&cached, &corpus, BatchOptions { threads: 1 });
    assert_eq!(cold.errors, 0, "{:?}", cold.first_error);
    assert_eq!(hot.errors, 0, "{:?}", hot.first_error);
    assert_eq!(
        cold.rows, hot.rows,
        "cached plans must produce identical results"
    );

    let stage = |t: &StageTimings| {
        [
            t.parse_ns,
            t.bind_ns,
            t.optimize_ns,
            t.execute_ns,
            t.total_ns(),
        ]
    };
    let (c, h) = (stage(&cold.timings), stage(&hot.timings));
    println!("\nper-stage time, summed over the batch (single worker):");
    println!("{:>10} {:>12} {:>12}", "stage", "uncached", "cached");
    for (name, i) in [
        ("parse", 0),
        ("bind", 1),
        ("optimize", 2),
        ("execute", 3),
        ("total", 4),
    ] {
        println!(
            "{:>10} {:>12} {:>12}",
            name,
            fmt_duration(std::time::Duration::from_nanos(c[i])),
            fmt_duration(std::time::Duration::from_nanos(h[i]))
        );
    }
    let speedup = cold.elapsed.as_secs_f64() / hot.elapsed.as_secs_f64();
    println!(
        "\nwall clock: uncached {} | cached {} | speedup {:.2}x",
        fmt_duration(cold.elapsed),
        fmt_duration(hot.elapsed),
        speedup
    );
    println!(
        "cache: hit rate {:.1}% ({} hits / {} probes), {} insertions, {} evictions",
        hot.hit_rate() * 100.0,
        hot.cache.hits,
        hot.cache.hits + hot.cache.misses,
        hot.cache.insertions,
        hot.cache.evictions
    );
    let stage_speedup = c[4] as f64 / h[4] as f64;
    m.push("E14", "cache_speedup_wall", speedup, true);
    m.push("E14", "cache_speedup_stages", stage_speedup, true);
    m.push("E14", "cache_hit_rate", hot.hit_rate(), false);
    // The stage sum isolates the pipeline work the cache saves; wall
    // clock also carries driver overhead that scales with the host, so
    // it only gets a floor (~4.3x on the current 1-core container).
    assert!(
        stage_speedup >= 5.0,
        "plan cache stage-summed speedup {stage_speedup:.2}x below the 5x bar"
    );
    assert!(
        speedup >= 3.0,
        "plan cache wall-clock speedup {speedup:.2}x below the 3x floor"
    );

    println!("\nworker-pool scaling, shared session and cache:");
    println!(
        "{:>8} {:>12} {:>14} {:>10}",
        "threads", "elapsed", "stmts/sec", "hit rate"
    );
    for threads in [1usize, 2, 4, 8] {
        let session = cached.clone().with_cache_capacity(1024);
        let r = run_batch(&session, &corpus, BatchOptions { threads });
        assert_eq!(r.errors, 0, "{:?}", r.first_error);
        println!(
            "{:>8} {:>12} {:>14.0} {:>9.1}%",
            r.threads,
            fmt_duration(r.elapsed),
            r.throughput(),
            r.hit_rate() * 100.0
        );
    }
    println!(
        "(first touch of each distinct statement compiles; every other probe hits. \
         Throughput scales with physical cores — on a single-core host the table \
         shows the locking overhead of sharing one cache, which should be ~none.)"
    );
}

/// E12 — ablation: sort-based vs hash-based duplicate elimination.
fn e12_distinct_methods(runs: usize) {
    header("E12", "ablation: sort vs hash duplicate elimination");
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>12}",
        "suppliers", "sort", "hash", "comparisons", "hash probes"
    );
    let sql = "SELECT DISTINCT S.SNAME, P.COLOR FROM SUPPLIER S, PARTS P \
               WHERE S.SNO = P.SNO";
    for suppliers in [1_000usize, 5_000, 20_000] {
        let mut session = scaled_session(suppliers, 5);
        session.optimizer = OptimizerOptions::disabled();
        let hv = HostVars::new();
        session.planner.distinct = DistinctMethod::Sort;
        let sort_out = session.query_unoptimized(sql, &hv).unwrap();
        let t_sort = median_time(runs, || session.query_unoptimized(sql, &hv).unwrap());
        session.planner.distinct = DistinctMethod::Hash;
        let hash_out = session.query_unoptimized(sql, &hv).unwrap();
        let t_hash = median_time(runs, || session.query_unoptimized(sql, &hv).unwrap());
        let a: HashMap<_, usize> = sort_out.rows.iter().fold(HashMap::new(), |mut m, r| {
            *m.entry(r.clone()).or_insert(0) += 1;
            m
        });
        let b: HashMap<_, usize> = hash_out.rows.iter().fold(HashMap::new(), |mut m, r| {
            *m.entry(r.clone()).or_insert(0) += 1;
            m
        });
        assert_eq!(a, b);
        println!(
            "{:>10} {:>12} {:>12} {:>14} {:>12}",
            suppliers,
            fmt_duration(t_sort),
            fmt_duration(t_hash),
            sort_out.stats.sort_comparisons,
            hash_out.stats.hash_probes
        );
    }
}

/// E15 — driver ablation: the one-pass bottom-up fixpoint driver vs the
/// pre-refactor root-restart strategy, over the same rule registry and
/// uniqueness-test memo. Workloads are chosen so traversal strategy is
/// what varies: `UNION ALL` chains have N independent firing sites (the
/// root-restart driver pays one full traversal per firing), and EXISTS
/// chains cascade many firings at a single node (both drivers should be
/// close). Ends with a no-regression assertion on the new driver.
fn e15_optimizer_driver(runs: usize, m: &mut Metrics) {
    header(
        "E15",
        "optimizer driver: one-pass fixpoint vs root-restart baseline",
    );
    let db = uniqueness::catalog::sample::supplier_schema().unwrap();
    let options = OptimizerOptions::relational();
    let optimizer = Optimizer::new(options);

    println!(
        "{:<18} {:>8} {:>7} {:>9} {:>12} {:>14} {:>8}",
        "workload", "firings", "passes", "restarts", "one-pass", "root-restart", "ratio"
    );
    let mut total_new = Duration::ZERO;
    let mut total_old = Duration::ZERO;
    let mut breakdown = None;
    for (name, sql) in [
        ("union chain x8", e15_union_chain(8)),
        ("union chain x16", e15_union_chain(16)),
        ("union chain x24", e15_union_chain(24)),
        ("exists chain x8", e15_exists_chain(8)),
    ] {
        let bound = bind_query(db.catalog(), &parse_query(&sql).unwrap()).unwrap();
        let outcome = optimizer.optimize(&bound);
        let base = optimize_root_restart(&options, &bound);
        assert_eq!(
            outcome.query, base.query,
            "drivers must agree on the rewritten query for {name}"
        );
        assert_eq!(outcome.trace.steps.len() as u64, base.firings(), "{name}");
        let t_new = median_time(runs, || optimizer.optimize(&bound));
        let t_old = median_time(runs, || optimize_root_restart(&options, &bound));
        total_new += t_new;
        total_old += t_old;
        println!(
            "{:<18} {:>8} {:>7} {:>9} {:>12} {:>14} {:>7.2}x",
            name,
            outcome.trace.steps.len(),
            outcome.trace.passes,
            base.traversals,
            fmt_duration(t_new),
            fmt_duration(t_old),
            t_old.as_secs_f64() / t_new.as_secs_f64()
        );
        if name == "union chain x24" {
            breakdown = Some((outcome, base));
        }
    }

    let (outcome, base) = breakdown.expect("union chain x24 measured");
    println!("\nper-rule breakdown, union chain x24 (attempts / fires / time):");
    println!("{:<22} {:>18} {:>18}", "rule", "one-pass", "root-restart");
    let old_stats: HashMap<&str, _> = base
        .rule_stats
        .iter()
        .map(|s| (s.rule.as_str(), s))
        .collect();
    for s in &outcome.trace.rule_stats {
        if s.attempts == 0 {
            continue;
        }
        let old = old_stats.get(s.rule.as_str()).expect("same registry");
        let cell = |attempts: u64, fires: u64, nanos: u64| {
            format!(
                "{attempts}/{fires}/{}",
                fmt_duration(Duration::from_nanos(nanos))
            )
        };
        println!(
            "{:<22} {:>18} {:>18}",
            s.rule,
            cell(s.attempts, s.fires, s.nanos),
            cell(old.attempts, old.fires, old.nanos)
        );
    }
    println!(
        "uniqueness tests: one-pass {} computed + {} memoized",
        outcome.trace.uniqueness_tests_computed, outcome.trace.uniqueness_tests_memoized
    );
    println!(
        "\ntotal optimize time: one-pass {} | root-restart {}",
        fmt_duration(total_new),
        fmt_duration(total_old)
    );
    m.push(
        "E15",
        "driver_speedup",
        total_old.as_secs_f64() / total_new.as_secs_f64().max(f64::EPSILON),
        true,
    );
    assert!(
        total_new <= total_old.mul_f64(1.25),
        "one-pass driver regressed: {total_new:?} vs baseline {total_old:?}"
    );
}
