//! Property tests for the uniqueness analyses themselves (Theorem 1 /
//! Algorithm 1): a YES verdict must mean *no duplicates on any valid
//! instance* — here checked against batteries of random valid instances.

use proptest::prelude::*;
use std::collections::HashMap;
use uniqueness::catalog::Row;
use uniqueness::core::algorithm1::{algorithm1, Algorithm1Options};
use uniqueness::core::analysis::{single_tuple_condition, unique_projection};
use uniqueness::engine::Executor;
use uniqueness::plan::{bind_query, BoundExpr, HostVars};
use uniqueness::sql::{parse_query, Distinct};
use uniqueness::workload::{generate_corpus, random_instance};

fn has_duplicates(db: &uniqueness::catalog::Database, sql: &str) -> bool {
    let mut bound = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
    if let uniqueness::plan::BoundQuery::Spec(spec) = &mut bound {
        spec.distinct = Distinct::All;
    }
    let hv = HostVars::new();
    let mut ex = Executor::new(db, &hv);
    let rows = ex.run(&bound).unwrap();
    let mut seen: HashMap<Row, usize> = HashMap::new();
    for r in rows {
        let c = seen.entry(r).or_insert(0);
        *c += 1;
        if *c > 1 {
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// YES from either analysis ⇒ no duplicates, ever.
    #[test]
    fn yes_verdicts_are_sound(qseed in 0u64..1000, iseed in 0u64..1000) {
        let corpus = generate_corpus(qseed, 4, 0).unwrap();
        let schema = uniqueness::catalog::sample::supplier_schema().unwrap();
        let dbs: Vec<_> = (0..3)
            .map(|k| random_instance(iseed.wrapping_add(k * 7919), 12, 28, 12).unwrap())
            .collect();
        for q in &corpus {
            let bound = bind_query(schema.catalog(), &parse_query(&q.sql).unwrap()).unwrap();
            let spec = bound.as_spec().unwrap();
            let alg1 = algorithm1(spec, &Algorithm1Options::default()).unique;
            let fd = unique_projection(spec).unique;
            if alg1 || fd {
                for db in &dbs {
                    prop_assert!(
                        !has_duplicates(db, &q.sql),
                        "proved unique but duplicated: {} (alg1={}, fd={})",
                        q.sql, alg1, fd
                    );
                }
            }
            // The FD test subsumes the (soundly-implemented) Algorithm 1.
            if alg1 {
                prop_assert!(fd, "Algorithm 1 YES but FD NO for {}", q.sql);
            }
        }
    }

    /// Theorem 2's single-tuple condition: a YES subquery block matches at
    /// most one tuple per outer row.
    #[test]
    fn single_tuple_condition_is_sound(iseed in 0u64..1000, pno in 1i64..6) {
        let db = random_instance(iseed, 10, 25, 10).unwrap();
        let sql = format!(
            "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = {pno})"
        );
        let bound = bind_query(db.catalog(), &parse_query(&sql).unwrap()).unwrap();
        let spec = bound.as_spec().unwrap();
        let BoundExpr::Exists { subquery, .. } = spec.predicate.as_ref().unwrap() else {
            panic!("expected EXISTS");
        };
        let verdict = single_tuple_condition(subquery);
        prop_assert!(verdict.unique, "key-pinning subquery should pass");
        // Check empirically: per supplier, at most one matching part.
        let suppliers = db.rows(&"SUPPLIER".into()).unwrap();
        let parts = db.rows(&"PARTS".into()).unwrap();
        for s in suppliers {
            let matches = parts
                .iter()
                .filter(|p| p[0] == s[0] && p[1] == uniqueness::types::Value::Int(pno))
                .count();
            prop_assert!(matches <= 1);
        }
    }
}

/// Deterministic checks that the known *incompletenesses* stay incomplete
/// (so the implementation stays faithful to the paper's algorithm).
#[test]
fn algorithm1_known_gaps() {
    let db = uniqueness::catalog::sample::supplier_schema().unwrap();
    // Line 10: no usable predicate → NO, even with keys projected.
    let bound = bind_query(
        db.catalog(),
        &parse_query("SELECT DISTINCT S.SNO FROM SUPPLIER S").unwrap(),
    )
    .unwrap();
    let out = algorithm1(bound.as_spec().unwrap(), &Algorithm1Options::default());
    assert!(!out.unique);
    // …while the FD test answers YES.
    assert!(unique_projection(bound.as_spec().unwrap()).unique);
}

#[test]
fn no_verdict_examples_do_duplicate() {
    // Completeness sanity (not guaranteed by the theory, but by our
    // corpus): some query judged NO must actually duplicate somewhere,
    // otherwise the tests above are vacuous.
    let corpus = generate_corpus(5, 60, 5).unwrap();
    assert!(corpus.iter().any(|q| !q.fd_unique && q.duplicates_observed));
}
