//! Incremental view maintenance agreement (E22's oracle, as a
//! property).
//!
//! For every subscribed query, after *every* write in a random
//! interleaving of INSERTs, the incrementally maintained view state
//! must equal a full recompute of the query over the head snapshot —
//! whatever maintenance tier the license granted. The subscribed
//! queries come from the standard labelled corpus (random DISTINCT
//! blocks over the Figure 1 schema), plus a fixed `NOT EXISTS` shape
//! that forces the honest recompute tier and can *delete* view rows
//! under insert-only bases, and a `GROUP BY` over a join, whose rows an
//! insert replaces. Each case runs on an unanalyzed engine and on one
//! `ANALYZE`d before the views subscribe, where every whole-query run
//! of a view takes the cost-based plan on the encoded columns.

use proptest::prelude::*;
use std::sync::Arc;
use uniqueness::engine::{MaintenanceMode, SharedEngine};
use uniqueness::workload::rng::SplitMix64;
use uniqueness::workload::{generate_corpus, random_instance};

/// Recompute-tier shape: the subquery makes delta evaluation
/// non-monotone, so the registry falls back to recompute-and-diff.
const ANTI_JOIN: &str = "SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS \
     (SELECT P.PNO FROM PARTS P WHERE P.SNO = S.SNO)";

/// Recompute-tier aggregate over a join: a write changes a group's row.
const GROUPED_JOIN: &str = "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S, PARTS P \
     WHERE S.SNO = P.SNO GROUP BY S.SCITY";

/// One random insert-only write against `engine` (keys outside every
/// generator domain, supplier inserted first so FKs resolve).
fn apply_random_write(engine: &SharedEngine, rng: &mut SplitMix64, round: usize) {
    let sno = 100 + round as i64;
    let mut script =
        format!("INSERT INTO SUPPLIER VALUES ({sno}, 'Late', 'Toronto', 1, 'Active');");
    for p in 0..rng.gen_range(0..3usize) {
        script.push_str(&format!(
            " INSERT INTO PARTS VALUES ({sno}, {p}, 'part9', {}, 'RED');",
            1000 + 10 * round + p
        ));
    }
    if rng.gen_bool(0.3) {
        script.push_str(&format!(
            " INSERT INTO AGENTS VALUES ({sno}, 1, 'agent9', 'Ottawa');"
        ));
    }
    engine.execute(&script).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Incremental state == full recompute, after every write, for
    /// every subscribed corpus query, on every tier, unanalyzed and
    /// analyzed.
    #[test]
    fn incremental_views_equal_full_recompute(
        seed in 0u64..500,
        writes in 1usize..6,
    ) {
        for analyzed in [false, true] {
            let engine = Arc::new(SharedEngine::new(
                random_instance(seed, 12, 24, 12).unwrap(),
            ));
            if analyzed {
                engine.analyze();
            }
            let corpus = generate_corpus(seed, 6, 1).unwrap();
            let mut subscribed = Vec::new();
            for sql in corpus
                .iter()
                .map(|q| q.sql.as_str())
                .chain([ANTI_JOIN, GROUPED_JOIN])
            {
                let sub = engine
                    .subscribe(sql, Box::new(|_, _| true))
                    .unwrap_or_else(|e| panic!("{sql}: {e}"));
                // License-not-promise: the refcount-free tier is only ever
                // granted with a checked proof attached.
                if sub.mode == MaintenanceMode::Set {
                    prop_assert!(sub.license.is_proved(), "unproved set tier for {}", sql);
                }
                subscribed.push((sub.id, sql.to_string()));
            }

            let mut rng = SplitMix64::seed_from_u64(seed ^ 0xde17a);
            for round in 0..writes {
                apply_random_write(&engine, &mut rng, round);
                for (id, sql) in &subscribed {
                    let view = engine
                        .subscription_rows(*id)
                        .expect("subscription survives plain INSERTs");
                    let mut recompute = engine.query(sql).unwrap().rows;
                    recompute.sort();
                    // View rows are already canonically sorted, so equal
                    // sorted rows are equal multisets.
                    prop_assert_eq!(
                        &view, &recompute,
                        "round {} diverged for {} (analyzed: {})", round, sql, analyzed
                    );
                }
            }
        }
    }
}
