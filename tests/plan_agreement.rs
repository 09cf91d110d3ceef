//! Planned/unoptimized agreement on random instances.
//!
//! A cost-based session (`with_cost_based()`: statistics and the column
//! store collected, so every query runs rewritten and under a
//! cost-based `PhysicalPlan` — join order, join and distinct methods,
//! index access paths, the columnar license) must return the multiset
//! `Session::query_unoptimized` returns: the bound query with no
//! rewrites, run under the fixed plan. Each plan is checked twice: as
//! served (covered blocks on the columnar kernels) and with no column
//! store attached (`Session::query_row_path`), so the row pipeline the
//! kernels fall back to stays property-tested too. Without an ORDER BY
//! a result is a multiset, so every side is sorted with the null-aware
//! tuple comparator before comparison.
//!
//! Coverage:
//! * a fixed statement list exercising every physical operator (joins,
//!   Cartesian products, DISTINCT, EXISTS / NOT EXISTS / IN subqueries,
//!   INTERSECT [ALL], EXCEPT [ALL], UNION [ALL]) over random instances;
//! * the labelled corpus generator's statements.

use proptest::prelude::*;
use uniqueness::engine::Session;
use uniqueness::plan::HostVars;
use uniqueness::types::value::tuple_null_cmp;
use uniqueness::types::Value;
use uniqueness::workload::{generate_corpus, random_instance};

/// Statements spanning every physical operator. None carry an
/// ORDER BY, so results are multisets by contract.
const FIXED_STATEMENTS: &[&str] = &[
    // plain scans and filters
    "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'Toronto'",
    "SELECT ALL P.PNO, P.COLOR FROM PARTS P WHERE P.COLOR = 'RED'",
    // equi-joins and a three-way join
    "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
    "SELECT P.PNO, S.SNAME FROM PARTS P, SUPPLIER S \
     WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
    "SELECT S.SNO, P.PNO, A.ANO FROM SUPPLIER S, PARTS P, AGENTS A \
     WHERE S.SNO = P.SNO AND S.SNO = A.SNO",
    // Cartesian product
    "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A",
    // duplicate elimination
    "SELECT DISTINCT S.SCITY FROM SUPPLIER S",
    "SELECT DISTINCT S.SCITY, P.COLOR FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO",
    // correlated and uncorrelated subqueries
    "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
    "SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
    "SELECT P.PNO FROM PARTS P WHERE P.SNO IN \
     (SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto')",
    // set operations, both DISTINCT and ALL flavours
    "SELECT ALL S.SNO FROM SUPPLIER S \
     INTERSECT SELECT ALL A.SNO FROM AGENTS A",
    "SELECT ALL S.SNO FROM SUPPLIER S \
     INTERSECT ALL SELECT ALL P.SNO FROM PARTS P",
    "SELECT ALL P.SNO FROM PARTS P \
     EXCEPT SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
    "SELECT ALL P.SNO FROM PARTS P \
     EXCEPT ALL SELECT ALL A.SNO FROM AGENTS A",
    "SELECT S.SNO FROM SUPPLIER S \
     UNION SELECT A.SNO FROM AGENTS A",
    "SELECT ALL S.SNO FROM SUPPLIER S \
     UNION ALL SELECT ALL A.SNO FROM AGENTS A",
    // an attribute two scopes up (a positive EXISTS would be merged
    // into a join), three-valued NOT IN over a nullable column, an
    // analyzed join block the column kernels do not cover (OR,
    // BETWEEN), and a cross product with a residual conjunct
    "SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND NOT EXISTS \
     (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO AND A.ANO = P.PNO))",
    "SELECT P.PNO FROM PARTS P WHERE P.OEM-PNO NOT IN \
     (SELECT Q.OEM-PNO FROM PARTS Q WHERE Q.COLOR = 'RED')",
    "SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO \
     AND (P.COLOR = 'RED' OR S.SCITY = 'Toronto') AND P.PNO BETWEEN 1 AND 3",
    "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A WHERE S.SNO < A.SNO",
];

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| tuple_null_cmp(a, b).unwrap());
    rows
}

/// `sql` through the planned path as served, the same plan on the row
/// executor, and the unoptimized oracle, each reduced to its canonical
/// sorted multiset.
fn three_ways(session: &Session, sql: &str) -> [Vec<Vec<Value>>; 3] {
    let hostvars = HostVars::new();
    let planned = session.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let row_path = session
        .query_row_path(sql, &hostvars)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let oracle = session
        .query_unoptimized(sql, &hostvars)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    [planned.rows, row_path.rows, oracle.rows].map(sorted)
}

/// The last four fixed statements guard outer-scope resolution, the
/// three-valued `IN` and residual conjuncts on the rows access; each
/// must keep taking the path it guards.
#[test]
fn row_access_shapes_take_the_paths_they_guard() {
    let n = FIXED_STATEMENTS.len();
    let &[two_up, not_in, uncovered, cross] = &FIXED_STATEMENTS[n - 4..] else {
        unreachable!("four statements")
    };
    for seed in 1..=3 {
        let db = random_instance(seed, 20, 40, 20).unwrap();
        let session = Session::new(db).with_cost_based();
        for sql in [two_up, not_in] {
            let stats = session.query(sql).unwrap().stats;
            assert!(stats.subquery_evals > 0, "seed {seed}: {sql}");
        }
        let stats = session.query(uncovered).unwrap().stats;
        assert_eq!(stats.vector_ops, 0, "seed {seed}: {uncovered}");
        let plan = session.explain(cross).unwrap();
        assert!(plan.contains("CrossJoin"), "seed {seed}: {plan}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random instances: the planned session returns the oracle's
    /// multiset for every fixed statement.
    #[test]
    fn planned_matches_unoptimized_on_random_instances(
        seed in 0u64..1_000,
        suppliers in 5usize..40,
        parts in 5usize..80,
    ) {
        let db = random_instance(seed, suppliers, parts, suppliers).unwrap();
        let session = Session::new(db).with_cost_based();
        for sql in FIXED_STATEMENTS {
            let [planned, row_path, oracle] = three_ways(&session, sql);
            prop_assert_eq!(&planned, &oracle, "seed {} differs for {}", seed, sql);
            prop_assert_eq!(row_path, oracle, "seed {} row path differs for {}", seed, sql);
        }
    }

    /// Random instances over the generated corpus.
    #[test]
    fn planned_matches_unoptimized_on_corpus(seed in 0u64..1_000) {
        let db = random_instance(seed, 20, 40, 20).unwrap();
        let session = Session::new(db).with_cost_based();
        let corpus = generate_corpus(seed, 16, 1).expect("corpus generation");
        for q in corpus {
            let [planned, row_path, oracle] = three_ways(&session, &q.sql);
            prop_assert_eq!(&planned, &oracle, "seed {} differs for {}", seed, q.sql);
            prop_assert_eq!(row_path, oracle, "seed {} row path differs for {}", seed, q.sql);
        }
    }
}
