//! Property tests: every rewrite the optimizer applies preserves query
//! semantics, on randomized schemas-with-data and randomized queries.
//!
//! The oracle is execution itself: run the original and the optimized
//! query on the same instance and compare result *multisets* under the
//! structural equality that coincides with `=̇`.

use proptest::prelude::*;
use std::collections::HashMap;
use uniqueness::catalog::Row;
use uniqueness::core::pipeline::{Optimizer, OptimizerOptions};
use uniqueness::engine::{DistinctMethod, Executor, JoinMethod, PlannerOptions};
use uniqueness::plan::{bind_query, HostVars};
use uniqueness::sql::parse_query;
use uniqueness::workload::{generate_corpus, random_instance};

fn multiset(rows: &[Row]) -> HashMap<Row, usize> {
    let mut m = HashMap::new();
    for r in rows {
        *m.entry(r.clone()).or_insert(0) += 1;
    }
    m
}

fn run(
    db: &uniqueness::catalog::Database,
    q: &uniqueness::plan::BoundQuery,
    options: PlannerOptions,
) -> Vec<Row> {
    let hv = HostVars::new();
    let plan = uniqueness::cost::plan_query(q, None, options);
    let mut ex = Executor::new(db, &hv);
    ex.run_with_plan(q, &plan).expect("execution succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Relational-profile rewrites preserve semantics on corpus queries.
    #[test]
    fn relational_rewrites_preserve_semantics(
        qseed in 0u64..500, iseed in 0u64..500
    ) {
        let corpus = generate_corpus(qseed, 3, 0).unwrap();
        let db = random_instance(iseed, 10, 24, 10).unwrap();
        let optimizer = Optimizer::new(OptimizerOptions::relational());
        for q in &corpus {
            let bound = bind_query(db.catalog(), &parse_query(&q.sql).unwrap()).unwrap();
            let outcome = optimizer.optimize(&bound);
            let base = run(&db, &bound, PlannerOptions::default());
            let opt = run(&db, &outcome.query, PlannerOptions::default());
            prop_assert_eq!(
                multiset(&base),
                multiset(&opt),
                "rewrite diverged for {} (steps {:?})",
                q.sql,
                outcome.trace.steps.iter().map(|s| s.rule).collect::<Vec<_>>()
            );
        }
    }

    /// Navigational-profile rewrites preserve semantics too.
    #[test]
    fn navigational_rewrites_preserve_semantics(
        qseed in 0u64..300, iseed in 0u64..300
    ) {
        let corpus = generate_corpus(qseed.wrapping_mul(31), 3, 0).unwrap();
        let db = random_instance(iseed, 8, 20, 8).unwrap();
        let optimizer = Optimizer::new(OptimizerOptions::navigational());
        for q in &corpus {
            let bound = bind_query(db.catalog(), &parse_query(&q.sql).unwrap()).unwrap();
            let outcome = optimizer.optimize(&bound);
            let base = run(&db, &bound, PlannerOptions::default());
            let opt = run(&db, &outcome.query, PlannerOptions::default());
            prop_assert_eq!(multiset(&base), multiset(&opt), "{}", q.sql);
        }
    }

    /// All four physical configurations agree with each other.
    #[test]
    fn physical_strategies_agree(qseed in 0u64..300, iseed in 0u64..300) {
        let corpus = generate_corpus(qseed.wrapping_add(9000), 2, 0).unwrap();
        let db = random_instance(iseed, 9, 18, 9).unwrap();
        for q in &corpus {
            let bound = bind_query(db.catalog(), &parse_query(&q.sql).unwrap()).unwrap();
            let reference = run(&db, &bound, PlannerOptions::default());
            for join in [JoinMethod::Hash, JoinMethod::NestedLoop] {
                for distinct in [DistinctMethod::Sort, DistinctMethod::Hash] {
                    let rows = run(&db, &bound, PlannerOptions { join, distinct, ..Default::default() });
                    prop_assert_eq!(
                        multiset(&reference),
                        multiset(&rows),
                        "{} with {:?}/{:?}",
                        q.sql, join, distinct
                    );
                }
            }
        }
    }
}

/// Deterministic regression: the EXISTS-heavy shapes the random corpus
/// does not generate.
#[test]
fn handwritten_exists_shapes_preserve_semantics() {
    let db = random_instance(77, 12, 30, 12).unwrap();
    let optimizer = Optimizer::new(OptimizerOptions::relational());
    for sql in [
        // Theorem 2 (single tuple).
        "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 2)",
        // Corollary 1 (key-projecting outer).
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
        // DISTINCT outer, unrestricted subquery.
        "SELECT DISTINCT S.SCITY FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO)",
        // NOT EXISTS must never merge.
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE NOT EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
        // Nested EXISTS inside EXISTS.
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = 1 AND EXISTS \
          (SELECT * FROM AGENTS A WHERE A.SNO = P.SNO))",
        // IN subquery (never merged; 3VL semantics must survive).
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SNO IN \
         (SELECT P.SNO FROM PARTS P WHERE P.COLOR = 'RED')",
        // Set operations over specs with nullable columns.
        "SELECT ALL P.OEM-PNO FROM PARTS P INTERSECT SELECT ALL P.OEM-PNO FROM PARTS P \
         WHERE P.COLOR = 'RED'",
        "SELECT ALL S.BUDGET FROM SUPPLIER S EXCEPT SELECT ALL S.BUDGET FROM SUPPLIER S \
         WHERE S.SCITY = 'Toronto'",
    ] {
        let bound = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let outcome = optimizer.optimize(&bound);
        let base = run(&db, &bound, PlannerOptions::default());
        let opt = run(&db, &outcome.query, PlannerOptions::default());
        assert_eq!(
            multiset(&base),
            multiset(&opt),
            "diverged: {sql}\nsteps: {:#?}",
            outcome.trace.steps
        );
    }
}

/// Every intermediate step of the trace is faithful *and* sound: each
/// [`RewriteStep`] over an example suite that exercises all seven
/// rules retains the exact bound before/after ASTs the driver saw, so
/// no re-parse or re-bind is needed. A step the U-semiring checker
/// certified (`proof=✓`) is trusted symbolically; the execution oracle
/// runs only as the fallback for `PropertyTested` steps — exactly the
/// division of labor `EXPLAIN` advertises.
///
/// [`RewriteStep`]: uniqueness::core::pipeline::RewriteStep
#[test]
fn every_trace_step_executes_equivalently() {
    let suite = [
        // Theorem 1: DISTINCT over a key-projecting join (Example 1).
        "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
         WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        // Theorem 2 / Corollary 1: EXISTS merges.
        "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 2)",
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
        // Theorem 3 / Corollary 2: set-operation lowerings (Example 9).
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' INTERSECT \
         SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'",
        "SELECT ALL S.SNO FROM SUPPLIER S EXCEPT \
         SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
        // §7: join elimination via the FK inclusion dependency.
        "SELECT ALL P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
        // §6: join → subquery under the navigational profile (the same
        // shape the relational profile leaves alone).
        "SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS \
         FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.PNO = 2",
        // Multi-site convergence: steps fire inside set-op operands, so
        // before/after SQL must re-embed the subtree in the full query.
        "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
         UNION ALL SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Ottawa' \
         UNION ALL SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.BUDGET = 7",
        // Cascade: several firings at one node, trace chains through all.
        "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = 1) AND EXISTS \
         (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO AND A.ANO = 2)",
        // Proof-gated DISTINCT pushdown (navigational profile): PARTS
        // is unprojected and the remaining projection covers the
        // SUPPLIER key, so the checker licenses the elision.
        "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
    ];
    let instances: Vec<_> = [5u64, 17, 42]
        .iter()
        .map(|&seed| random_instance(seed, 10, 24, 10).unwrap())
        .collect();
    let mut fired = std::collections::HashSet::new();
    let mut checked_steps = 0usize;
    let mut proved_steps = 0usize;
    for options in [
        OptimizerOptions::relational(),
        OptimizerOptions::navigational(),
    ] {
        let optimizer = Optimizer::new(options);
        for sql in suite {
            let catalog = instances[0].catalog();
            let bound = bind_query(catalog, &parse_query(sql).unwrap()).unwrap();
            let outcome = optimizer.optimize(&bound);
            for step in &outcome.trace.steps {
                fired.insert(step.rule);
                checked_steps += 1;
                if step.proof.is_proved() {
                    // Symbolically certified — the execution oracle is
                    // reserved for steps the checker could not decide.
                    proved_steps += 1;
                    continue;
                }
                for db in &instances {
                    let b = run(db, &step.before, PlannerOptions::default());
                    let a = run(db, &step.after, PlannerOptions::default());
                    assert_eq!(
                        multiset(&b),
                        multiset(&a),
                        "step [{} / {}] not equivalence-preserving:\n  before: {}\n  after:  {}",
                        step.rule,
                        step.theorem,
                        step.sql_before,
                        step.sql_after
                    );
                }
            }
        }
    }
    assert!(checked_steps >= 12, "suite too thin: {checked_steps} steps");
    assert!(
        proved_steps * 5 >= checked_steps * 4,
        "checker too weak on the standard suite: {proved_steps}/{checked_steps} proved"
    );
    for rule in [
        "distinct-removal",
        "distinct-pushdown",
        "subquery-to-join",
        "join-to-subquery",
        "intersect-to-exists",
        "except-to-not-exists",
        "join-elimination",
    ] {
        assert!(fired.contains(rule), "suite never fired {rule}: {fired:?}");
    }
}

/// The symbolic checker's verdicts are themselves execution-checked:
/// every step it certifies as `Proved` on the optimizer's own traces
/// must be execution-equivalent on randomized instances. (The inverse
/// guard — known-inequivalent pairs are never `Proved` — lives in
/// `tests/proof_soundness.rs`.)
#[test]
fn proved_steps_are_execution_equivalent() {
    let instances: Vec<_> = [3u64, 29, 71]
        .iter()
        .map(|&seed| random_instance(seed, 10, 24, 10).unwrap())
        .collect();
    let mut proved = 0usize;
    for options in [
        OptimizerOptions::relational(),
        OptimizerOptions::navigational(),
    ] {
        let optimizer = Optimizer::new(options);
        for qseed in 0u64..12 {
            let corpus = generate_corpus(qseed.wrapping_mul(131), 3, 0).unwrap();
            for q in &corpus {
                let bound =
                    bind_query(instances[0].catalog(), &parse_query(&q.sql).unwrap()).unwrap();
                let outcome = optimizer.optimize(&bound);
                for step in outcome.trace.steps.iter().filter(|s| s.proof.is_proved()) {
                    proved += 1;
                    for db in &instances {
                        let b = run(db, &step.before, PlannerOptions::default());
                        let a = run(db, &step.after, PlannerOptions::default());
                        assert_eq!(
                            multiset(&b),
                            multiset(&a),
                            "PROVED step diverged — checker unsound!\n  rule: {}\n  {}\n  \
                             before: {}\n  after:  {}",
                            step.rule,
                            step.proof,
                            step.sql_before,
                            step.sql_after
                        );
                    }
                }
            }
        }
    }
    assert!(
        proved >= 20,
        "corpus produced too few proved steps: {proved}"
    );
}

/// The merge machinery renumbers deeply-nested correlations correctly.
#[test]
fn nested_correlation_merge_is_sound() {
    let db = random_instance(123, 10, 25, 10).unwrap();
    let optimizer = Optimizer::new(OptimizerOptions::relational());
    // Inner subquery references BOTH enclosing blocks.
    let sql = "SELECT ALL S.SNO FROM SUPPLIER S WHERE EXISTS \
               (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = 3 AND EXISTS \
                (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO AND A.ANO = P.PNO))";
    let bound = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
    let outcome = optimizer.optimize(&bound);
    assert!(
        outcome
            .trace
            .steps
            .iter()
            .any(|s| s.rule == "subquery-to-join"),
        "expected a merge: {:#?}",
        outcome.trace.steps
    );
    let base = run(&db, &bound, PlannerOptions::default());
    let opt = run(&db, &outcome.query, PlannerOptions::default());
    assert_eq!(multiset(&base), multiset(&opt));
}
