//! Columnar/row agreement for the vectorized executor (E18).
//!
//! The row executor is the oracle: for every statement, the columnar
//! session must return the oracle's multiset (no ORDER BY appears here,
//! so row order is unconstrained by contract and both sides are sorted
//! with the null-aware tuple comparator before comparison).
//!
//! Coverage:
//! * a fixed *covered* statement list with at least one case per
//!   vectorized kernel — filter (int and string ranges, NULL literal),
//!   projection, hash and unique joins (two- and three-way), DISTINCT,
//!   INTERSECT, EXCEPT;
//! * a fixed *fallback* list of shapes the planner must refuse to
//!   license (OR, BETWEEN, subqueries, Cartesian products, same-table
//!   comparisons), which must run on the row path and still agree;
//! * property tests over random database instances.

use proptest::prelude::*;
use uniqueness::engine::{ExecStats, Session};
use uniqueness::types::value::tuple_null_cmp;
use uniqueness::types::Value;
use uniqueness::workload::{columnar_session_pair, scaled_database, ScaleConfig, INDEX_DDL};

/// Statements the planner licenses for columnar execution, with at
/// least one per kernel: filter, project, join, DISTINCT, set ops.
fn covered_statements() -> Vec<&'static str> {
    vec![
        // filter kernels: int ranges, string equality and ranges, a
        // nullable column, and a NULL literal (the empty code range)
        "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'Toronto'",
        "SELECT P.PNO, P.COLOR FROM PARTS P WHERE P.PNO > 2",
        "SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY >= 'New York'",
        "SELECT P.PNO FROM PARTS P WHERE P.COLOR <> 'GREEN' AND P.PNO <= 4",
        "SELECT S.SNO FROM SUPPLIER S WHERE S.BUDGET > 2",
        "SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME = NULL",
        // projection with late materialization
        "SELECT P.PNAME, P.COLOR FROM PARTS P WHERE P.SNO = 1",
        // hash and direct-index unique joins, two- and three-way
        "SELECT P.PNO, S.SCITY FROM PARTS P, SUPPLIER S WHERE P.SNO = S.SNO",
        "SELECT P.PNO, S.SCITY FROM PARTS P, SUPPLIER S \
         WHERE P.SNO = S.SNO AND P.COLOR = 'RED'",
        "SELECT S.SNO, P.PNO, A.ANO FROM SUPPLIER S, PARTS P, AGENTS A \
         WHERE S.SNO = P.SNO AND S.SNO = A.SNO",
        // DISTINCT kernel, single- and multi-table
        "SELECT DISTINCT S.SCITY FROM SUPPLIER S",
        "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S \
         WHERE P.SNO = S.SNO",
        // INTERSECT evaluates each block through the kernels
        "SELECT ALL S.SNO FROM SUPPLIER S \
         INTERSECT SELECT ALL A.SNO FROM AGENTS A",
    ]
}

/// Shapes the planner must *not* license: they exercise the documented
/// fallback to the row executor, which remains the oracle.
fn fallback_statements() -> Vec<&'static str> {
    vec![
        "SELECT P.PNO FROM PARTS P WHERE P.COLOR = 'RED' OR P.PNO = 1",
        "SELECT P.PNO FROM PARTS P WHERE P.PNO BETWEEN 1 AND 3",
        "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A",
        "SELECT P.PNO FROM PARTS P WHERE P.PNO = P.SNO",
    ]
}

/// Shapes whose path depends on what the optimizer rewrites them into
/// (an EXISTS may become a licensed join; an EXCEPT stays on rows):
/// agreement is the contract, the path is the optimizer's choice.
fn rewrite_dependent_statements() -> Vec<&'static str> {
    vec![
        "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
        "SELECT P.PNO FROM PARTS P WHERE P.SNO IN \
         (SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto')",
        "SELECT ALL P.SNO FROM PARTS P \
         EXCEPT SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
    ]
}

/// Run `sql` and sort the result into a canonical multiset.
fn sorted_rows(session: &Session, sql: &str) -> Vec<Vec<Value>> {
    let mut rows = session
        .query(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows;
    rows.sort_by(|a, b| tuple_null_cmp(a, b).unwrap());
    rows
}

fn assert_agreement(oracle: &Session, columnar: &Session, statements: &[&str], label: &str) {
    for sql in statements {
        assert_eq!(
            sorted_rows(columnar, sql),
            sorted_rows(oracle, sql),
            "{label}: multiset differs for {sql}"
        );
    }
}

/// CI fast lane: every covered statement agrees with the oracle AND
/// actually runs through the vectorized kernels (vector_ops > 0), so a
/// silent fallback cannot masquerade as kernel coverage.
#[test]
fn covered_statements_agree_and_use_the_kernels() {
    let (oracle, columnar) = columnar_session_pair(42, 30, 60, 30).unwrap();
    for sql in covered_statements() {
        assert_eq!(
            sorted_rows(&columnar, sql),
            sorted_rows(&oracle, sql),
            "covered: multiset differs for {sql}"
        );
        let out = columnar.query(sql).unwrap();
        assert!(out.stats.vector_ops > 0, "row-path fallback for {sql}");
        assert_eq!(out.stats.rows_scanned, 0, "row scan leaked into {sql}");
    }
}

/// CI fast lane: unlicensed shapes stay on the row path and agree.
#[test]
fn fallback_statements_agree_on_the_row_path() {
    let (oracle, columnar) = columnar_session_pair(42, 30, 60, 30).unwrap();
    for sql in fallback_statements() {
        assert_eq!(
            sorted_rows(&columnar, sql),
            sorted_rows(&oracle, sql),
            "fallback: multiset differs for {sql}"
        );
        let out = columnar.query(sql).unwrap();
        assert_eq!(out.stats.vector_ops, 0, "kernels ran for fallback {sql}");
    }
    assert_agreement(
        &oracle,
        &columnar,
        &rewrite_dependent_statements(),
        "rewrite-dependent",
    );
}

/// perfbench's `analytic` statements, in its order, then the aggregate
/// view its `write_subscribe` workload recomputes after every write.
const PERFBENCH_STATEMENTS: [&str; 9] = [
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
    "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO GROUP BY S.SCITY",
];

/// Each statement's counters, in `ExecStats` field order: rows scanned,
/// rows output, sort comparisons, rows sorted, sorts, hash probes, probe
/// steps, index probes, subquery evaluations, hash joins, vector ops,
/// materialized rows, delta rows, view updates, aggregated rows, early
/// stops, Top-K rows examined. Taken from the hashed kernels the dense
/// tables replaced, which booked the same work. Statements 3-5 run
/// encoded since the access choice is priced: their index scan and
/// index probe price above the encoded access on this data.
const PERFBENCH_BOOKING: [[u64; 17]; 9] = [
    [0, 6, 0, 0, 0, 22_000, 22_000, 0, 0, 1, 45, 6, 0, 0, 0, 0, 0],
    [
        0, 12, 0, 0, 0, 46_000, 50_000, 0, 0, 2, 73, 12, 0, 0, 0, 0, 0,
    ],
    [
        0, 6, 0, 0, 0, 22_000, 42_000, 0, 0, 1, 44, 6, 0, 0, 20_000, 0, 0,
    ],
    [
        0, 1_893, 0, 0, 0, 7_924, 0, 0, 0, 0, 32, 7_924, 0, 0, 0, 0, 0,
    ],
    [
        0, 4_040, 0, 0, 0, 7_858, 0, 0, 0, 0, 32, 7_858, 0, 0, 0, 0, 0,
    ],
    [
        0, 1_943, 0, 0, 0, 7_891, 7_891, 0, 0, 1, 32, 1_943, 0, 0, 0, 0, 0,
    ],
    [
        0, 10, 16_625, 2_000, 1, 42_000, 62_000, 0, 0, 1, 44, 2_000, 0, 0, 20_000, 0, 0,
    ],
    [
        0, 20_000, 0, 0, 0, 2_000, 22_000, 0, 0, 1, 44, 20_000, 0, 0, 0, 0, 0,
    ],
    [
        0, 3, 0, 0, 0, 22_000, 42_000, 0, 0, 1, 44, 3, 0, 0, 20_000, 0, 0,
    ],
];

/// On perfbench's data (2,000 suppliers × 10 parts × 2 agents, its index
/// set, ANALYZEd) the dense join, group and `DISTINCT` tables book
/// exactly what the hashed tables booked: every counter of every
/// statement equals the constant above, and the answers agree with the
/// same plans on the stored rows.
#[test]
fn perfbench_statements_book_the_hashed_kernels_counters() {
    let config = ScaleConfig {
        suppliers: 2_000,
        parts_per_supplier: 10,
        agents_per_supplier: 2,
        ..Default::default()
    };
    let mut db = scaled_database(&config).expect("scaled database");
    db.run_script(INDEX_DDL).expect("index set");
    db.run_script("CREATE INDEX IDX_P_SNO ON PARTS (SNO); CREATE INDEX IDX_A_SNO ON AGENTS (SNO);")
        .expect("join-column indexes");
    let session = Session::new(db).with_cost_based();
    let hv = uniqueness::plan::HostVars::new();
    for (sql, booked) in PERFBENCH_STATEMENTS.iter().zip(PERFBENCH_BOOKING) {
        let out = session.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let [rows_scanned, rows_output, sort_comparisons, rows_sorted, sorts, hash_probes, probe_steps, ix_probes, subquery_evals, hash_joins, vector_ops, materialized_rows, delta_rows, view_updates, agg_rows, early_stops, topk_rows_examined] =
            booked;
        let expected = ExecStats {
            rows_scanned,
            rows_output,
            sort_comparisons,
            rows_sorted,
            sorts,
            hash_probes,
            probe_steps,
            ix_probes,
            subquery_evals,
            hash_joins,
            vector_ops,
            materialized_rows,
            delta_rows,
            view_updates,
            agg_rows,
            early_stops,
            topk_rows_examined,
        };
        assert_eq!(out.stats, expected, "{sql}");
        let mut rows = out.rows;
        let mut on_rows = session.query_row_path(sql, &hv).expect("row path").rows;
        if !sql.contains("ORDER BY") {
            rows.sort_by(|a, b| tuple_null_cmp(a, b).unwrap());
            on_rows.sort_by(|a, b| tuple_null_cmp(a, b).unwrap());
        }
        assert_eq!(rows, on_rows, "{sql}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random instances: the columnar session returns the row oracle's
    /// multiset for every covered and fallback statement.
    #[test]
    fn columnar_matches_row_oracle_on_random_instances(
        seed in 0u64..1_000,
        suppliers in 5usize..40,
        parts in 5usize..80,
    ) {
        let (oracle, columnar) =
            columnar_session_pair(seed, suppliers, parts, suppliers).unwrap();
        let statements: Vec<&str> = covered_statements()
            .into_iter()
            .chain(fallback_statements())
            .chain(rewrite_dependent_statements())
            .collect();
        for sql in &statements {
            prop_assert_eq!(
                sorted_rows(&columnar, sql),
                sorted_rows(&oracle, sql),
                "seed {} differs for {}", seed, sql
            );
        }
    }

    /// Mutation behind the session's back: an INSERT applied to
    /// `Session::db` directly skips the column-store refresh, so the
    /// store goes stale and covered statements must transparently fall
    /// back to the row path — and still agree with an oracle that sees
    /// the new row.
    #[test]
    fn stale_store_falls_back_and_still_agrees(
        seed in 0u64..1_000,
    ) {
        let (mut oracle, mut columnar) = columnar_session_pair(seed, 20, 40, 20).unwrap();
        // SNO 21 lies outside the generator's 1..=20 domain, so the
        // insert can never clash with an existing candidate-key value.
        let insert = "INSERT INTO SUPPLIER VALUES (21, 'Late', 'Toronto', 3, 'Active');";
        oracle.run_script(insert).unwrap();
        columnar.db.run_script(insert).unwrap();
        for sql in covered_statements() {
            prop_assert_eq!(
                sorted_rows(&columnar, sql),
                sorted_rows(&oracle, sql),
                "stale store differs for {}", sql
            );
            // Staleness is detected per table: only blocks that touch
            // the mutated SUPPLIER table must abandon the kernels.
            if sql.contains("SUPPLIER") {
                let out = columnar.query(sql).unwrap();
                prop_assert_eq!(out.stats.vector_ops, 0, "stale store still vectorized {}", sql);
            }
        }
    }

    /// Writes through `Session::run_script` refresh the column store: a
    /// covered statement keeps running on the kernels after an INSERT,
    /// with no second ANALYZE. The inserted strings are new to their
    /// dictionaries and sort before, between or after the existing
    /// ones, so string comparisons on re-coded columns are checked too.
    #[test]
    fn refreshed_store_stays_vectorized_and_agrees(
        seed in 0u64..1_000,
        pick in 0usize..3,
    ) {
        let (mut oracle, mut columnar) = columnar_session_pair(seed, 20, 40, 20).unwrap();
        let name = ["Aaron", "Hooli", "Zed"][pick];
        let color = ["AMBER", "ORANGE", "YELLOW"][pick];
        // Keys outside the generator's domains cannot clash.
        let insert = format!(
            "INSERT INTO SUPPLIER VALUES (21, '{name}', 'Toronto', 3, 'Active');
             INSERT INTO PARTS VALUES (21, 7, 'part9', 999, '{color}');"
        );
        oracle.run_script(&insert).unwrap();
        columnar.run_script(&insert).unwrap();
        let mut comparisons = Vec::new();
        for (col, lit) in [("S.SNAME", name), ("S.SNAME", "Globex"), ("P.COLOR", color)] {
            let table = if col.starts_with("S.") { "SUPPLIER S" } else { "PARTS P" };
            for op in ["=", "<", ">="] {
                comparisons.push(format!("SELECT {col} FROM {table} WHERE {col} {op} '{lit}'"));
            }
        }
        let statements = covered_statements()
            .into_iter()
            .chain(comparisons.iter().map(String::as_str));
        for sql in statements {
            prop_assert_eq!(
                sorted_rows(&columnar, sql),
                sorted_rows(&oracle, sql),
                "refreshed store differs for {}", sql
            );
            let out = columnar.query(sql).unwrap();
            prop_assert!(out.stats.vector_ops > 0, "row-path fallback for {}", sql);
            prop_assert_eq!(out.stats.rows_scanned, 0, "row scan leaked into {}", sql);
        }
    }
}
