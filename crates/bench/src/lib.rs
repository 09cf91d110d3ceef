//! Shared infrastructure for the experiment suite: timing helpers,
//! workload construction and the queries each experiment drives.
//!
//! The `report` binary (`cargo run -p uniq-bench --bin report --release`)
//! prints every experiment table from `EXPERIMENTS.md`; the Criterion
//! benches under `benches/` provide statistically robust wall-clock
//! measurements for the subset of experiments where time (rather than a
//! work counter) is the claim.

use std::time::{Duration, Instant};
use uniqueness::catalog::Database;
use uniqueness::engine::{DistinctMethod, ExecStats, JoinMethod, QueryOutput, Session};
use uniqueness::plan::HostVars;
use uniqueness::types::Result;
use uniqueness::workload::{generate_corpus, indexed_database, scaled_database, ScaleConfig};

pub mod baseline;

/// Median wall-clock time of `runs` executions of `f`.
pub fn median_time<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut samples: Vec<Duration> = (0..runs.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// A session over a scaled supplier database with the relational
/// optimizer profile.
pub fn scaled_session(suppliers: usize, parts_per_supplier: usize) -> Session {
    let cfg = ScaleConfig {
        suppliers,
        parts_per_supplier,
        ..Default::default()
    };
    let db = scaled_database(&cfg).expect("scaled database");
    Session::new(db)
}

/// The E2 query: a single-table `SELECT DISTINCT` whose projection
/// contains the key. Scan and projection are cheap, so the baseline's
/// cost is dominated by the result sort — the situation §1 describes —
/// while the rewritten form skips it entirely. The projection leads with
/// the randomly-distributed SNAME so the sort cannot exploit insertion
/// order. (The Example 1 join shape is measured separately in E4/E13,
/// where join strategy dominates.)
pub const E2_QUERY: &str = "SELECT DISTINCT S.SNAME, S.SCITY, S.SNO FROM SUPPLIER S";

/// The Example 7 shape: EXISTS subquery that pins the inner key.
pub const E4_QUERY: &str = "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S \
     WHERE EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 1)";

/// The Example 8 shape: EXISTS subquery with unbounded matches.
pub const E5_QUERY: &str = "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S \
     WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')";

/// The Example 9 shape at scale: INTERSECT over key-projecting blocks.
pub const E6_QUERY: &str = "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
     INTERSECT \
     SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'";

/// The E15 shape with many independent firing sites: a `UNION ALL`
/// chain whose every operand carries a redundant `DISTINCT` (the block
/// projects the `SUPPLIER` key). The one-pass driver fires all sites in
/// a single bottom-up traversal; a root-restart driver pays one full
/// traversal per firing.
pub fn e15_union_chain(sites: usize) -> String {
    (0..sites.max(1))
        .map(|i| format!("SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.BUDGET = {i}"))
        .collect::<Vec<_>>()
        .join(" UNION ALL ")
}

/// The E15 cascade shape: a `DISTINCT` outer block over a chain of
/// `EXISTS` subqueries. Every subquery merge re-offers the whole
/// registry, so the same node fires repeatedly before quiescing.
pub fn e15_exists_chain(subqueries: usize) -> String {
    let pred: Vec<String> = (0..subqueries.max(1))
        .map(|i| {
            format!(
                "EXISTS (SELECT * FROM PARTS P{i} \
                 WHERE P{i}.SNO = S.SNO AND P{i}.PNO = {i})"
            )
        })
        .collect();
    format!(
        "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE {}",
        pred.join(" AND ")
    )
}

/// The E16 work metric: the executor counters the physical choices
/// trade against each other — base-table scans (join order and join
/// method), sort comparisons (sort-based duplicate elimination and
/// sort-merge set operations) and hash probes (hash joins and hash
/// duplicate elimination).
pub fn total_work(stats: &ExecStats) -> u64 {
    stats.rows_scanned + stats.sort_comparisons + stats.hash_probes
}

/// The E16 corpus: `generated` statements from the labelled SPJ corpus
/// generator, plus multi-join, Cartesian and set-operation shapes the
/// generator never emits. None of them use host variables, so every
/// operator's actual cardinality is measurable.
pub fn e16_corpus(seed: u64, generated: usize) -> Vec<String> {
    let mut corpus: Vec<String> = generate_corpus(seed, generated, 1)
        .expect("corpus generation")
        .into_iter()
        .map(|q| q.sql)
        .collect();
    corpus.extend(
        [
            "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            "SELECT DISTINCT P.COLOR FROM PARTS P, SUPPLIER S, AGENTS A \
             WHERE S.SNO = P.SNO AND S.SNO = A.SNO",
            "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A",
            "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
             INTERSECT SELECT ALL A.SNO FROM AGENTS A",
            "SELECT DISTINCT S.SNO FROM SUPPLIER S \
             UNION SELECT A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
        ]
        .into_iter()
        .map(String::from),
    );
    corpus
}

/// The E16 contenders: one unanalyzed session per combination of the
/// fixed plan's join and distinct methods, plus a cost-based session,
/// all over clones of the same database.
pub fn e16_contenders(db: Database) -> Vec<(&'static str, Session)> {
    let mut out: Vec<(&'static str, Session)> = Vec::new();
    for (name, distinct, join) in [
        ("static sort/hash", DistinctMethod::Sort, JoinMethod::Hash),
        (
            "static sort/nl",
            DistinctMethod::Sort,
            JoinMethod::NestedLoop,
        ),
        ("static hash/hash", DistinctMethod::Hash, JoinMethod::Hash),
        (
            "static hash/nl",
            DistinctMethod::Hash,
            JoinMethod::NestedLoop,
        ),
    ] {
        let mut s = Session::new(db.clone());
        s.planner.distinct = distinct;
        s.planner.join = join;
        out.push((name, s));
    }
    out.push(("cost-based", Session::new(db).with_cost_based()));
    out
}

/// The join-heavy corpus of the retired E17 experiment, kept because
/// E21 serves it: the large-join subset of the E16 shapes — multi-table
/// equi-joins, joins under `DISTINCT`, set operations over join blocks
/// and a correlated `EXISTS` — where scans and hash joins do the work.
/// Single-table probes are deliberately excluded.
pub fn e17_corpus() -> Vec<String> {
    [
        "SELECT P.PNO, S.SNAME FROM PARTS P, SUPPLIER S WHERE S.SNO = P.SNO",
        "SELECT DISTINCT S.SCITY, P.COLOR FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
        "SELECT S.SNO, P.PNO, A.ANO FROM SUPPLIER S, PARTS P, AGENTS A \
         WHERE S.SNO = P.SNO AND S.SNO = A.SNO",
        "SELECT DISTINCT P.COLOR FROM PARTS P, SUPPLIER S, AGENTS A \
         WHERE S.SNO = P.SNO AND S.SNO = A.SNO",
        "SELECT ALL S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED' \
         INTERSECT SELECT ALL A.SNO FROM AGENTS A, SUPPLIER S WHERE A.SNO = S.SNO",
        "SELECT ALL P.SNO FROM PARTS P WHERE P.COLOR = 'RED' \
         EXCEPT ALL SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
        "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

/// The E18 join+`DISTINCT` workload: dictionary-friendly (`COLOR` and
/// `SCITY` are low-cardinality strings), selective on `PARTS` (so the
/// greedy order scans `PARTS` first and `SUPPLIER` joins in through its
/// primary key — the direct-index kernel), and the `DISTINCT` is not
/// removable (neither projected column is a key).
pub const E18_JOIN_DISTINCT: &str = "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S \
     WHERE P.SNO = S.SNO AND P.PNO = 1 AND P.COLOR = 'RED'";

/// The E18 direct-index probe: `SUPPLIER` joins in by its dense integer
/// primary key, so the columnar path answers every probe with one array
/// load — zero hash operations end to end (no `DISTINCT`, which would
/// add its own).
pub const E18_UNIQUE_PROBE: &str = "SELECT P.OEM-PNO, S.SCITY FROM PARTS P, SUPPLIER S \
     WHERE P.SNO = S.SNO AND P.PNO = 1 AND P.COLOR = 'RED'";

/// The E18 corpus: covered shapes for every columnar kernel (filter on
/// int and string codes, keyed joins unique and non-unique, `DISTINCT`,
/// set operations over columnar blocks) plus uncovered shapes that must
/// take the row fallback — the columnar session answers all of them,
/// and E18 asserts multiset identity with the row oracle on each.
pub fn e18_corpus() -> Vec<String> {
    let mut corpus: Vec<String> = vec![E18_JOIN_DISTINCT.into(), E18_UNIQUE_PROBE.into()];
    corpus.extend(
        [
            // Non-unique hash step: SNO alone covers no AGENTS key.
            "SELECT DISTINCT P.COLOR, A.ACITY FROM PARTS P, SUPPLIER S, AGENTS A \
             WHERE P.SNO = S.SNO AND S.SNO = A.SNO AND P.PNO = 1",
            // String comparisons compile to dictionary code ranges.
            "SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY > 'Chicago'",
            "SELECT P.PNO FROM PARTS P WHERE P.COLOR <> 'GREEN' AND P.SNO = 3",
            // Set operation over columnar blocks.
            "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
             INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
            // Uncovered shapes: the row fallback must serve these.
            "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1 OR S.SNO = 2",
            "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
            "SELECT P.PNO FROM PARTS P WHERE P.PNO BETWEEN 1 AND 2",
        ]
        .into_iter()
        .map(String::from),
    );
    corpus
}

/// The E18 work metric: every per-item counter either executor charges.
/// The row path pays `rows_scanned` per stored row it touches plus
/// probes; the columnar path pays per-chunk `vector_ops`, per-probe
/// `probe_steps` and per-output-row `materialized_rows` instead. Summing
/// both sides' currencies keeps the comparison honest — a path cannot
/// look cheap by doing its work under a counter the metric ignores.
pub fn e18_work(stats: &ExecStats) -> u64 {
    stats.rows_scanned
        + stats.sort_comparisons
        + stats.hash_probes
        + stats.probe_steps
        + stats.vector_ops
        + stats.materialized_rows
}

/// One way to run a query on a session: a contender of E18 or E19.
pub type Runner = fn(&Session, &str) -> Result<QueryOutput>;

/// The row baseline: the session's own cost-based plan, run by the row
/// executor with no column store attached (the columnar license is not
/// a promise, so every block takes the row pipeline).
pub fn row_path(session: &Session, sql: &str) -> Result<QueryOutput> {
    session.query_row_path(sql, &HostVars::new())
}

/// The E18 contenders over one analyzed session: the row baseline (the
/// oracle) and the served plan (`Session::query`), which runs covered
/// blocks columnar. Both run the same plan, so the only variable is the
/// executor.
pub const E18_CONTENDERS: [(&str, Runner); 2] =
    [("row cost-based", row_path), ("columnar", Session::query)];

/// The E19 scale: 2,400 suppliers — above the 2,000-row floor the
/// experiment's work claim is stated at — with four parts each. Red
/// parts are rare (5%) so the sargable color scan is genuinely
/// selective rather than a disguised full scan.
pub fn e19_scale() -> ScaleConfig {
    ScaleConfig {
        suppliers: 2_400,
        parts_per_supplier: 4,
        red_fraction: 0.05,
        ..Default::default()
    }
}

/// The E19 point lookups: unique-key equality selections spread across
/// the supplier domain. With `IDX_S_SNO` each is a guaranteed one-row
/// probe (exactly one `probe_steps` unit); without it each pays a full
/// 2,400-row scan.
pub fn e19_point_lookups() -> Vec<String> {
    (0..8)
        .map(|i| {
            format!(
                "SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = {}",
                101 + 97 * i
            )
        })
        .collect()
}

/// The E19 index join: the sargable color scan feeds an index
/// nested-loop join that probes `SUPPLIER` through its unique key index
/// — no build side at all. The full-scan plan hashes `SUPPLIER` and
/// scans `PARTS` end to end.
pub const E19_INDEX_JOIN: &str = "SELECT P.PNO, S.SNAME FROM PARTS P, SUPPLIER S \
     WHERE S.SNO = P.SNO AND P.PNO = 1 AND P.COLOR = 'RED'";

/// The E19 corpus: the point-lookup battery plus the index join.
pub fn e19_corpus() -> Vec<String> {
    let mut corpus = e19_point_lookups();
    corpus.push(E19_INDEX_JOIN.into());
    corpus
}

/// The E19 contenders: the same cost-based row executor over the same
/// data, without and with the benchmark secondary indexes — the only
/// variable is the access path. Run both through [`row_path`], so
/// neither takes the columnar kernels.
pub fn e19_contenders() -> Vec<(&'static str, Session)> {
    let cfg = e19_scale();
    let plain = scaled_database(&cfg).expect("scaled database");
    let indexed = indexed_database(&cfg).expect("indexed database");
    vec![
        ("full-scan", Session::new(plain).with_cost_based()),
        ("indexed", Session::new(indexed).with_cost_based()),
    ]
}

/// The E19 work metric: the same all-currencies sum as E18, so index
/// probes (`probe_steps`) are charged in the same unit as the scans they
/// replace.
pub fn e19_work(stats: &ExecStats) -> u64 {
    e18_work(stats)
}

/// The E20 standard rewrite corpus: hand-written shapes that fire all
/// seven rules under the two optimizer profiles, plus a slice of the
/// generated corpus — the population over which the proof checker's
/// proved fraction is measured.
pub fn e20_corpus() -> Vec<String> {
    let mut corpus: Vec<String> = [
        // Theorem 1: DISTINCT over a key-projecting join.
        "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
         WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        // Theorem 2 / Corollary 1: EXISTS merges.
        "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 2)",
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
        // Theorem 3 / Corollary 2: set-operation lowerings.
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' INTERSECT \
         SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'",
        "SELECT ALL S.SNO FROM SUPPLIER S EXCEPT \
         SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
        // §7: join elimination via the FK inclusion dependency.
        "SELECT ALL P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
        // §6: join → subquery (navigational profile).
        "SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS \
         FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.PNO = 2",
        // Proof-gated DISTINCT pushdown (navigational profile).
        E20_PUSHDOWN_OK,
        // Cascades and multi-site firings.
        "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = 1) AND EXISTS \
         (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO AND A.ANO = 2)",
        "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
         UNION ALL SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Ottawa'",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    for seed in [5u64, 23, 41] {
        corpus.extend(
            generate_corpus(seed, 6, 0)
                .expect("corpus generation")
                .into_iter()
                .map(|q| q.sql),
        );
    }
    corpus
}

/// The E20 DISTINCT-pushdown pair: the first satisfies the rule's FD
/// precondition (the remaining projection covers the `SUPPLIER` key,
/// so eliding the `DISTINCT` is provable), the second projects a
/// non-key column and must be refused — the checker, not the rule,
/// makes that call.
pub const E20_PUSHDOWN_OK: &str =
    "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
/// See [`E20_PUSHDOWN_OK`].
pub const E20_PUSHDOWN_BLOCKED: &str =
    "SELECT DISTINCT S.SCITY FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";

/// The E20 UNION bound demo: neither operand block is duplicate-free,
/// yet the distinct `UNION` is hard-bounded by its merged city domains
/// — strictly tighter than the additive operand estimate.
pub const E20_UNION_BOUND: &str =
    "SELECT S.SCITY FROM SUPPLIER S UNION SELECT A.ACITY FROM AGENTS A";

/// Format a `Duration` compactly for tables.
pub fn fmt_duration(d: Duration) -> String {
    let micros = d.as_micros();
    if micros < 1_000 {
        format!("{micros}µs")
    } else if micros < 1_000_000 {
        format!("{:.2}ms", micros as f64 / 1_000.0)
    } else {
        format!("{:.2}s", micros as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_session_executes_e2() {
        let s = scaled_session(100, 5);
        let out = s.query(E2_QUERY).unwrap();
        assert!(out
            .trace
            .steps
            .iter()
            .any(|st| st.rule == "distinct-removal"));
        assert_eq!(out.stats.sorts, 0);
    }

    #[test]
    fn median_time_is_monotone_in_work() {
        // Opaque elements, so the optimizer cannot fold either sum to a
        // closed form and leave two noise-level timings.
        let sum = |n: u64| (0..n).map(std::hint::black_box).sum::<u64>();
        let fast = median_time(3, || sum(100));
        let slow = median_time(3, || sum(1_000_000));
        assert!(slow >= fast);
    }

    #[test]
    fn e16_cost_based_work_within_every_static_configuration() {
        use uniqueness::workload::{run_batch, BatchOptions};
        let cfg = ScaleConfig {
            suppliers: 40,
            parts_per_supplier: 4,
            ..Default::default()
        };
        let db = scaled_database(&cfg).unwrap();
        let corpus = e16_corpus(7, 24);
        let mut works: Vec<(&str, u64)> = Vec::new();
        let mut all_work: Vec<(&str, u64)> = Vec::new();
        for (name, session) in e16_contenders(db) {
            let report = run_batch(&session, &corpus, BatchOptions { threads: 2 });
            assert_eq!(report.errors, 0, "{name}: {:?}", report.first_error);
            if name == "cost-based" {
                assert!(report.qerror.ops > 0, "cost-based runs measure q-error");
                assert!(report.exec.vector_ops > 0, "covered blocks ran columnar");
            }
            works.push((name, total_work(&report.exec)));
            all_work.push((name, e18_work(&report.exec)));
        }
        // The cost-based contender runs its covered blocks on the
        // columnar kernels, whose vector_ops and materialized rows
        // total_work does not count: compare in every currency.
        let cost = all_work
            .iter()
            .find(|(n, _)| *n == "cost-based")
            .expect("cost-based contender present")
            .1;
        for (name, work) in &all_work {
            assert!(
                cost <= *work,
                "cost-based work {cost} exceeds {name} work {work}"
            );
        }
        // The four fixed plans' totals, pinned: any change to the work a
        // fixed plan does shows up here.
        assert_eq!(
            works[..4],
            [
                ("static sort/hash", 30_058),
                ("static sort/nl", 115_161),
                ("static hash/hash", 9_542),
                ("static hash/nl", 94_645),
            ]
        );
    }

    #[test]
    fn e16_explain_annotates_every_operator_with_est_and_act() {
        let cfg = ScaleConfig {
            suppliers: 10,
            parts_per_supplier: 3,
            ..Default::default()
        };
        let session = Session::new(scaled_database(&cfg).unwrap()).with_cost_based();
        for sql in e16_corpus(11, 8) {
            let out = session.explain(&sql).unwrap();
            let section = out
                .split("Cost-based plan (est/act rows):")
                .nth(1)
                .unwrap_or_else(|| panic!("no cost section for {sql}: {out}"));
            let lines: Vec<&str> = section.lines().filter(|l| !l.trim().is_empty()).collect();
            assert!(!lines.is_empty(), "{sql}");
            for line in &lines {
                assert!(
                    line.contains("est=") && line.contains("act="),
                    "{sql}: {line}"
                );
                assert!(
                    !line.contains("act=?"),
                    "actuals measured for {sql}: {line}"
                );
            }
        }
    }

    fn sorted_rows(
        session: &Session,
        run: Runner,
        sql: &str,
    ) -> (Vec<Vec<uniqueness::types::Value>>, ExecStats) {
        let out = run(session, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let mut rows = out.rows;
        rows.sort_by(|a, b| uniqueness::types::value::tuple_null_cmp(a, b).unwrap());
        (rows, out.stats)
    }

    #[test]
    fn e18_columnar_agrees_and_beats_row_work_by_two_x() {
        let cfg = ScaleConfig {
            suppliers: 2_000,
            parts_per_supplier: 4,
            ..Default::default()
        };
        let session = Session::new(scaled_database(&cfg).unwrap()).with_cost_based();
        let [(_, row), (_, col)] = E18_CONTENDERS;
        // Multiset identity with the row oracle on every E18 query.
        for sql in e18_corpus() {
            let (want, _) = sorted_rows(&session, row, &sql);
            let (got, _) = sorted_rows(&session, col, &sql);
            assert_eq!(got, want, "columnar multiset differs for {sql}");
        }
        // ≥2× fewer work units on the dictionary-friendly workload.
        let (_, row_stats) = sorted_rows(&session, row, E18_JOIN_DISTINCT);
        let (_, col_stats) = sorted_rows(&session, col, E18_JOIN_DISTINCT);
        assert_eq!(row_stats.vector_ops, 0, "{row_stats:?}");
        assert!(col_stats.vector_ops > 0, "{col_stats:?}");
        assert_eq!(col_stats.rows_scanned, 0, "{col_stats:?}");
        let (row_work, col_work) = (e18_work(&row_stats), e18_work(&col_stats));
        assert!(
            2 * col_work <= row_work,
            "columnar work {col_work} not 2x under row work {row_work}"
        );
        // The direct-index unique probe performs zero hash operations.
        let (_, probe_stats) = sorted_rows(&session, col, E18_UNIQUE_PROBE);
        assert_eq!(probe_stats.hash_probes, 0, "{probe_stats:?}");
        assert_eq!(probe_stats.hash_joins, 0, "{probe_stats:?}");
        assert!(probe_stats.probe_steps > 0, "{probe_stats:?}");
    }

    #[test]
    fn e19_index_plans_agree_and_cut_work_ten_x() {
        let contenders = e19_contenders();
        let full = &contenders[0].1;
        let ix = &contenders[1].1;
        let (mut full_work, mut ix_work) = (0u64, 0u64);
        for sql in e19_corpus() {
            let (want, f) = sorted_rows(full, row_path, &sql);
            let (got, i) = sorted_rows(ix, row_path, &sql);
            assert_eq!(got, want, "indexed multiset differs for {sql}");
            full_work += e19_work(&f);
            ix_work += e19_work(&i);
        }
        assert!(
            10 * ix_work <= full_work,
            "indexed work {ix_work} not 10x under full-scan work {full_work}"
        );
        // Every unique-index point lookup is a guaranteed one-row probe.
        for sql in e19_point_lookups() {
            let (_, stats) = sorted_rows(ix, row_path, &sql);
            assert_eq!(stats.ix_probes, 1, "{sql}: {stats:?}");
            assert_eq!(stats.probe_steps, 1, "{sql}: {stats:?}");
            assert_eq!(stats.rows_scanned, 1, "{sql}: {stats:?}");
        }
        // The index join builds no hash table and probes uniquely.
        let (_, join) = sorted_rows(ix, row_path, E19_INDEX_JOIN);
        assert_eq!(join.hash_joins, 0, "{join:?}");
        assert!(join.ix_probes > 0, "{join:?}");
    }

    #[test]
    fn e23_elisions_agree_and_cut_work_five_x() {
        let cfg = ScaleConfig {
            suppliers: 300,
            parts_per_supplier: 2,
            agents_per_supplier: 1,
            ..Default::default()
        };
        let db = scaled_database(&cfg).unwrap();
        let index = "CREATE INDEX IDX_S_BUDGET_SNO ON SUPPLIER (BUDGET, SNO);";
        let mut fast = Session::new(db.clone());
        fast.run_script(index).unwrap();
        let mut naive = Session::new(db).with_agg_elision(false);
        naive.run_script(index).unwrap();
        // Key-covered GROUP BY and COUNT(DISTINCT key): zero hash ops
        // on the elided session, >= 5x fewer than the oracle's.
        for sql in [
            "SELECT S.SNO, COUNT(*) AS N, SUM(S.BUDGET) AS B FROM SUPPLIER S GROUP BY S.SNO",
            "SELECT COUNT(DISTINCT S.SNO) AS N FROM SUPPLIER S",
        ] {
            let (want, ns) = sorted_rows(&naive, Session::query, sql);
            let (got, fs) = sorted_rows(&fast, Session::query, sql);
            assert_eq!(got, want, "elided multiset differs for {sql}");
            assert_eq!(fs.hash_probes, 0, "{sql}: {fs:?}");
            assert!(
                ns.hash_probes >= 5 * fs.hash_probes.max(1),
                "{sql}: {} vs {}",
                ns.hash_probes,
                fs.hash_probes
            );
        }
        // Early-stopping Top-K: k rows examined, no sort, same rows.
        let topk = "SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET, S.SNO LIMIT 5";
        let base = naive.query(topk).unwrap();
        let out = fast.query(topk).unwrap();
        assert_eq!(out.rows, base.rows);
        assert_eq!(out.stats.early_stops, 1, "{:?}", out.stats);
        assert_eq!(out.stats.sorts, 0);
        assert!(
            base.stats.rows_scanned >= 5 * out.stats.topk_rows_examined.max(1),
            "{:?} vs {:?}",
            base.stats,
            out.stats
        );
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12µs");
        assert_eq!(fmt_duration(Duration::from_micros(1_500)), "1.50ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
