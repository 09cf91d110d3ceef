//! End-to-end reproduction of every worked example in the paper, on the
//! Figure 1 sample instance: analysis verdicts, applied rewrites, and
//! result equivalence between original and rewritten forms.

use std::collections::HashMap;
use uniqueness::catalog::Row;
use uniqueness::core::pipeline::{Optimizer, OptimizerOptions};
use uniqueness::engine::{Executor, Session};
use uniqueness::plan::{bind_query, HostVars};
use uniqueness::sql::parse_query;
use uniqueness::types::Value;

fn multiset(rows: &[Row]) -> HashMap<Row, usize> {
    let mut m = HashMap::new();
    for r in rows {
        *m.entry(r.clone()).or_insert(0) += 1;
    }
    m
}

/// Optimize under `opts`; assert the given rules fired (in order) and the
/// rewritten query returns the same multiset as the original.
fn check(
    session: &Session,
    sql: &str,
    hv: &HostVars,
    opts: OptimizerOptions,
    expected_rules: &[&str],
) -> Vec<Row> {
    let bound = bind_query(session.db.catalog(), &parse_query(sql).unwrap()).unwrap();
    let outcome = Optimizer::new(opts).optimize(&bound);
    let rules: Vec<&str> = outcome.trace.steps.iter().map(|s| s.rule).collect();
    assert_eq!(
        rules, expected_rules,
        "for {sql}\nsteps: {:#?}",
        outcome.trace.steps
    );
    let mut ex = Executor::new(&session.db, hv);
    let original = ex.run(&bound).unwrap();
    let mut ex = Executor::new(&session.db, hv);
    let rewritten = ex.run(&outcome.query).unwrap();
    assert_eq!(
        multiset(&original),
        multiset(&rewritten),
        "rewrite changed semantics for {sql}"
    );
    original
}

#[test]
fn example_1_distinct_removed_rows_match_paper() {
    let s = Session::sample().unwrap();
    let rows = check(
        &s,
        "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
         WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        &HostVars::new(),
        OptimizerOptions::relational(),
        &["distinct-removal"],
    );
    // Red parts: (1,10), (2,10), (3,10), (3,13).
    assert_eq!(rows.len(), 4);
}

#[test]
fn example_2_no_rewrite_duplicates_collapse() {
    let s = Session::sample().unwrap();
    let rows = check(
        &s,
        "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
         WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        &HostVars::new(),
        OptimizerOptions::relational(),
        &[],
    );
    // Both Acmes supply part 10 'bolt' → the DISTINCT collapses one row.
    assert_eq!(rows.len(), 3);
}

#[test]
fn example_3_derived_key_semantics() {
    // The ALL query of Example 3: PNO keys the derived table when
    // :SUPPLIER-NO pins the supplier.
    let s = Session::sample().unwrap();
    let hv = HostVars::new().with("SUPPLIER-NO", 3i64);
    let out = s
        .query_with(
            "SELECT ALL S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P \
             WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO",
            &hv,
        )
        .unwrap();
    // Supplier 3 supplies parts 10 and 13: two rows, distinct PNOs.
    assert_eq!(out.rows.len(), 2);
    let pnos: Vec<&Value> = out.rows.iter().map(|r| &r[2]).collect();
    assert_ne!(pnos[0], pnos[1]);
}

#[test]
fn examples_4_and_5_distinct_removed_with_host_variable() {
    let s = Session::sample().unwrap();
    let hv = HostVars::new().with("SUPPLIER-NO", 1i64);
    let rows = check(
        &s,
        "SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P \
         WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO",
        &hv,
        OptimizerOptions::relational(),
        &["distinct-removal"],
    );
    assert_eq!(rows.len(), 2); // parts 10, 11 of supplier 1
}

#[test]
fn example_6_distinct_removed() {
    let s = Session::sample().unwrap();
    let hv = HostVars::new().with("SUPPLIER-NAME", "Acme");
    let rows = check(
        &s,
        "SELECT DISTINCT S.SNO, PNO, PNAME, P.COLOR FROM SUPPLIER S, PARTS P \
         WHERE S.SNAME = :SUPPLIER-NAME AND S.SNO = P.SNO",
        &hv,
        OptimizerOptions::relational(),
        &["distinct-removal"],
    );
    // Two Acmes (1, 3): parts (1,10), (1,11), (3,10), (3,13).
    assert_eq!(rows.len(), 4);
}

#[test]
fn example_7_subquery_to_join_theorem_2() {
    let s = Session::sample().unwrap();
    let hv = HostVars::new()
        .with("SUPPLIER-NAME", "Acme")
        .with("PART-NO", 10i64);
    let rows = check(
        &s,
        "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S \
         WHERE S.SNAME = :SUPPLIER-NAME AND EXISTS \
         (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)",
        &hv,
        OptimizerOptions::relational(),
        &["subquery-to-join"],
    );
    assert_eq!(rows.len(), 2); // both Acmes supply part 10
}

#[test]
fn example_8_subquery_to_distinct_join_corollary_1() {
    let s = Session::sample().unwrap();
    let rows = check(
        &s,
        "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
        &HostVars::new(),
        OptimizerOptions::relational(),
        &["subquery-to-join"],
    );
    // Suppliers 1, 2, 3 supply red parts; supplier 3 supplies two red
    // parts but must appear once (ALL over SUPPLIER, one row each).
    assert_eq!(rows.len(), 3);
}

#[test]
fn example_9_intersect_to_exists_then_join() {
    let s = Session::sample().unwrap();
    let rows = check(
        &s,
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
         INTERSECT \
         SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'",
        &HostVars::new(),
        OptimizerOptions::relational(),
        &["intersect-to-exists", "subquery-to-join"],
    );
    assert_eq!(rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn example_10_navigational_join_to_subquery() {
    let s = Session::sample().unwrap();
    let hv = HostVars::new().with("PARTNO", 10i64);
    let rows = check(
        &s,
        "SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS \
         FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PARTNO",
        &hv,
        OptimizerOptions::navigational(),
        &["join-to-subquery"],
    );
    assert_eq!(rows.len(), 3); // suppliers 1, 2, 3 supply part 10
}

#[test]
fn example_11_navigational_with_range() {
    let s = Session::sample().unwrap();
    let hv = HostVars::new().with("PARTNO", 10i64);
    let rows = check(
        &s,
        "SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS \
         FROM SUPPLIER S, PARTS P \
         WHERE S.SNO BETWEEN 2 AND 3 AND S.SNO = P.SNO AND P.PNO = :PARTNO",
        &hv,
        OptimizerOptions::navigational(),
        &["join-to-subquery"],
    );
    assert_eq!(rows.len(), 2);
}

#[test]
fn theorem_3_null_aware_correlation_is_required() {
    // The Starburst Rule 8 pitfall: INTERSECT over nullable columns must
    // match NULL =̇ NULL. Build two tables whose only common "value" is
    // NULL and check the rewritten query still finds it.
    let mut s = Session::new(uniqueness::catalog::Database::new());
    s.run_script(
        "CREATE TABLE L (K INTEGER NOT NULL, X INTEGER, PRIMARY KEY (K));
         CREATE TABLE R2 (K INTEGER NOT NULL, X INTEGER, PRIMARY KEY (K));
         INSERT INTO L VALUES (1, NULL), (2, 10);
         INSERT INTO R2 VALUES (7, NULL), (8, 20);",
    )
    .unwrap();
    let sql = "SELECT ALL L.X FROM L INTERSECT SELECT ALL R2.X FROM R2";
    let base = s.query_unoptimized(sql, &HostVars::new()).unwrap();
    assert_eq!(
        base.rows,
        vec![vec![Value::Null]],
        "INTERSECT matches NULLs"
    );
    let opt = s.query(sql).unwrap();
    assert!(
        opt.trace
            .steps
            .iter()
            .any(|st| st.rule == "intersect-to-exists"),
        "{:#?}",
        opt.trace.steps
    );
    assert_eq!(multiset(&opt.rows), multiset(&base.rows));
    // And the rewritten SQL carries the explicit IS NULL arm.
    let step = &opt.trace.steps[0];
    assert!(
        step.sql_after.contains("IS NULL"),
        "null-aware predicate missing: {}",
        step.sql_after
    );
}

#[test]
fn except_extension_preserves_semantics() {
    let s = Session::sample().unwrap();
    for sql in [
        "SELECT ALL S.SNO FROM SUPPLIER S EXCEPT SELECT ALL A.SNO FROM AGENTS A",
        "SELECT ALL S.SNO FROM SUPPLIER S EXCEPT ALL SELECT ALL A.SNO FROM AGENTS A",
        "SELECT ALL P.PNAME FROM PARTS P EXCEPT SELECT ALL S.SNAME FROM SUPPLIER S",
    ] {
        let base = s.query_unoptimized(sql, &HostVars::new()).unwrap();
        let opt = s.query(sql).unwrap();
        assert_eq!(multiset(&opt.rows), multiset(&base.rows), "{sql}");
    }
}

#[test]
fn intersect_all_multiplicities_survive_rewrite() {
    let mut s = Session::new(uniqueness::catalog::Database::new());
    s.run_script(
        "CREATE TABLE L (K INTEGER NOT NULL, V INTEGER, PRIMARY KEY (K));
         CREATE TABLE R2 (V INTEGER);
         INSERT INTO L VALUES (1, 10), (2, 10), (3, 20);
         INSERT INTO R2 VALUES (10), (10), (10), (20), (30);",
    )
    .unwrap();
    // Left has V duplicates (10 twice): INTERSECT ALL min-counts. The
    // left operand is NOT unique on V, but the right is not unique
    // either — no rewrite; semantics still correct end to end.
    let sql = "SELECT ALL L.V FROM L INTERSECT ALL SELECT ALL R2.V FROM R2";
    let base = s.query_unoptimized(sql, &HostVars::new()).unwrap();
    let opt = s.query(sql).unwrap();
    assert_eq!(multiset(&opt.rows), multiset(&base.rows));
    // min(2,3) copies of 10 + min(1,1) of 20.
    assert_eq!(base.rows.len(), 3);
}
