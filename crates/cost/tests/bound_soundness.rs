//! Property tests for the uniqueness-derived cardinality bounds.
//!
//! Over randomized workload instances, every bound the estimator
//! derives from a uniqueness proof must be a *true* upper bound on the
//! observed cardinality — never an approximation. Three facts are
//! checked per (corpus query, random instance) pair:
//!
//! * when [`Estimator::unique_output_bound`] returns a bound, the
//!   block's undeduplicated output never exceeds it;
//! * when Algorithm 1 answers YES, the proof is exact: running the
//!   block without `DISTINCT` produces no duplicates at all, and the
//!   bound exists;
//! * the deduplicated output of *any* block (provable or not) fits in
//!   the projection's active-domain product, since distinct tuples can
//!   only be drawn from the stored domains.
//!
//! A fourth property checks the collector itself: the declared-key
//! `ndv` shortcut agrees with an exhaustive distinct count.

use proptest::prelude::*;
use std::collections::HashSet;
use uniq_cost::{Estimator, Statistics};
use uniq_engine::Executor;
use uniq_plan::{bind_query, BoundQuery, HostVars};
use uniq_sql::{parse_query, Distinct};
use uniq_workload::{generate_corpus, random_instance};

/// Row count of `sql` over `db` with the requested `DISTINCT` mode.
fn run_counted(db: &uniq_catalog::Database, sql: &str, distinct: Distinct) -> usize {
    let mut bound = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
    if let BoundQuery::Spec(spec) = &mut bound {
        spec.distinct = distinct;
    }
    let hv = HostVars::new();
    let mut ex = Executor::new(db, &hv);
    ex.run(&bound).unwrap().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every uniqueness-derived bound is a true upper bound on the
    /// observed cardinality, and exact duplicate-freeness holds
    /// whenever Algorithm 1 answers YES.
    #[test]
    fn unique_bounds_hold_on_random_instances(seed in 0u64..1u64 << 48) {
        let corpus = generate_corpus(seed, 8, 1).unwrap();
        let db = random_instance(seed, 12, 24, 12).unwrap();
        let stats = Statistics::collect(&db);
        let est = Estimator::new(&stats);
        for q in &corpus {
            let bound_q = bind_query(db.catalog(), &parse_query(&q.sql).unwrap()).unwrap();
            let spec = bound_q.as_spec().expect("corpus queries are single blocks");
            let all = run_counted(&db, &q.sql, Distinct::All);
            let dedup = run_counted(&db, &q.sql, Distinct::Distinct);
            if let Some(bound) = est.unique_output_bound(spec) {
                // The bound caps the block's raw output: a duplicate-free
                // block emits pairwise-distinct tuples, of which only
                // `Π domain` exist.
                prop_assert!(
                    all as f64 <= bound,
                    "{}: {all} rows exceed bound {bound}",
                    q.sql
                );
            }
            if q.alg1_unique {
                // Algorithm 1 YES ⇒ the FD test also proves it, so the
                // estimator must produce a bound…
                prop_assert!(
                    est.unique_output_bound(spec).is_some(),
                    "{}: Algorithm 1 YES but no bound",
                    q.sql
                );
                // …and the proof is exact: no duplicates to remove.
                prop_assert_eq!(all, dedup, "{}: duplicates despite proof", q.sql.clone());
            }
            // Deduplicated output always fits the projection's domain
            // product, provable or not.
            prop_assert!(
                dedup as f64 <= est.projection_domain(spec),
                "{}: {dedup} distinct rows exceed domain product {}",
                q.sql,
                est.projection_domain(spec)
            );
        }
    }

    /// The declared-key `ndv` shortcut is exact: it agrees with an
    /// exhaustive distinct count on every random instance.
    #[test]
    fn key_shortcut_ndv_is_exact(seed in 0u64..1u64 << 48) {
        let db = random_instance(seed, 15, 30, 15).unwrap();
        let stats = Statistics::collect(&db);
        for schema in db.catalog().tables() {
            let rows = db.rows(&schema.name).unwrap();
            for c in 0..schema.arity() {
                let col = stats.column(&schema.name, c).unwrap();
                if !col.from_key {
                    continue;
                }
                let exhaustive: HashSet<_> =
                    rows.iter().map(|r| &r[c]).filter(|v| !v.is_null()).collect();
                prop_assert_eq!(
                    col.ndv,
                    exhaustive.len() as u64,
                    "{}.{c}: shortcut ndv diverges from recount",
                    schema.name
                );
            }
        }
    }
}
