//! Aggregate-output optimization: the uniqueness elisions over a
//! [`BoundOutput`].
//!
//! The aggregate surface lowers onto an ordinary `SELECT ALL` block (the
//! binder lays grouping columns out first in the body's projection), so
//! both headline elisions reduce to **Theorem 1's duplicate-free
//! condition on a derived projection of the body**, which the U-semiring
//! checker can prove symbolically:
//!
//! * **Key-covered `GROUP BY`** — if `SELECT DISTINCT (group cols)` ≡
//!   `SELECT ALL (group cols)` over the body, every row is its own
//!   group: the executor skips the hash aggregate entirely and computes
//!   aggregates per-row in one pass (zero hash operations).
//! * **`COUNT(DISTINCT e)` → `COUNT(e)`** — if `SELECT DISTINCT
//!   (group cols, e)` ≡ `SELECT ALL (group cols, e)`, the argument is
//!   duplicate-free within every group, so the distinct-set bookkeeping
//!   is dead weight (grounded in *Decidability of Equivalence of
//!   Aggregate Count-Distinct Queries*, see PAPERS.md). `NULL`s make
//!   the proof fail conservatively: two `NULL` arguments in one group
//!   duplicate the probe tuple, and `COUNT(DISTINCT)` ignores `NULL`s
//!   anyway.
//!
//! Both rewrites are **proof-gated**: they fire only when the checker
//! returns `Proved`, and every firing appends a [`RewriteStep`] whose
//! before/after pair *is* the proof obligation (the DISTINCT-vs-ALL
//! probe), so `EXPLAIN` shows exactly what was proved.

use crate::pipeline::{Optimizer, RewriteStep, RewriteTrace};
use crate::rules::{Justification, RuleContext};
use crate::unbind::unbind_query;
use uniq_plan::{BoundAggItem, BoundOutput, BoundQuery, BoundSpec};
use uniq_sql::{AggFunc, Distinct};

/// Rule name of the key-covered `GROUP BY` elision.
pub const GROUP_ELISION_RULE: &str = "group-by-key-elision";
/// Rule name of the `COUNT(DISTINCT)` → `COUNT` elision.
pub const COUNT_DISTINCT_RULE: &str = "count-distinct-elision";

/// Optimize a full query: run the rewrite pipeline over the body, then —
/// when [`agg_elision`](crate::pipeline::OptimizerOptions::agg_elision)
/// is on — attempt the proof-gated aggregate elisions. Steps for the
/// elisions are appended to the body's trace.
pub fn optimize_output(optimizer: &Optimizer, output: &BoundOutput) -> (BoundOutput, RewriteTrace) {
    let outcome = optimizer.optimize(&output.body);
    let mut trace = outcome.trace;
    let mut out = BoundOutput {
        body: outcome.query,
        agg: output.agg.clone(),
        order_by: output.order_by.clone(),
        limit: output.limit,
    };
    if optimizer.options().agg_elision && out.agg.is_some() {
        let mut cx = RuleContext::new(optimizer.options().test);
        cx.register(COUNT_DISTINCT_RULE);
        cx.register(GROUP_ELISION_RULE);
        elide(&mut out, &mut cx, &mut trace.steps);
        trace.rule_stats.extend(cx.into_stats());
    }
    (out, trace)
}

fn elide(out: &mut BoundOutput, cx: &mut RuleContext, steps: &mut Vec<RewriteStep>) {
    let Some(agg) = &mut out.agg else { return };
    let BoundQuery::Spec(spec) = &out.body else {
        return;
    };

    // COUNT(DISTINCT e) → COUNT(e), per aggregate item.
    let mut any_count_elided = false;
    for item in agg.items.iter_mut() {
        let BoundAggItem::Agg {
            func: AggFunc::Count,
            distinct: distinct @ true,
            arg: Some(p),
            name,
        } = item
        else {
            continue;
        };
        let mut positions: Vec<usize> = (0..agg.group_count).collect();
        positions.push(*p);
        let (before, after) = probe_pair(spec, &positions);
        let status = cx.prove_step(COUNT_DISTINCT_RULE, &before, &after);
        if !status.is_proved() {
            continue;
        }
        *distinct = false;
        any_count_elided = true;
        let just = Justification::new(
            "Theorem 1",
            format!(
                "COUNT(DISTINCT {name}) degraded to COUNT({name}): the checker proved \
                 (group keys, argument) duplicate-free over the body, so the distinct-set \
                 bookkeeping is dead weight"
            ),
        )
        .with_proof(status);
        push_step(steps, COUNT_DISTINCT_RULE, just, before, after);
    }
    if any_count_elided {
        agg.count_distinct_elided = true;
    }

    // Key-covered GROUP BY → no-op grouping.
    if agg.group_count > 0 && !agg.group_elided {
        let positions: Vec<usize> = (0..agg.group_count).collect();
        let (before, after) = probe_pair(spec, &positions);
        let status = cx.prove_step(GROUP_ELISION_RULE, &before, &after);
        if status.is_proved() {
            agg.group_elided = true;
            let just = Justification::new(
                "Theorem 1",
                "GROUP BY keys cover a candidate key of the body: the checker proved the \
                 group columns duplicate-free, so every row is its own group and the hash \
                 aggregate is elided"
                    .to_string(),
            )
            .with_proof(status);
            push_step(steps, GROUP_ELISION_RULE, just, before, after);
        }
    }
}

/// The DISTINCT-vs-ALL proof obligation over the given projection
/// positions of the body block.
fn probe_pair(spec: &BoundSpec, positions: &[usize]) -> (BoundQuery, BoundQuery) {
    let projection = positions
        .iter()
        .map(|&p| spec.projection[p].clone())
        .collect::<Vec<_>>();
    let mut distinct = spec.clone();
    distinct.distinct = Distinct::Distinct;
    distinct.projection = projection.clone();
    let mut all = spec.clone();
    all.distinct = Distinct::All;
    all.projection = projection;
    (
        BoundQuery::Spec(Box::new(distinct)),
        BoundQuery::Spec(Box::new(all)),
    )
}

fn push_step(
    steps: &mut Vec<RewriteStep>,
    rule: &'static str,
    just: Justification,
    before: BoundQuery,
    after: BoundQuery,
) {
    steps.push(RewriteStep {
        rule,
        theorem: just.theorem,
        why: just.detail,
        proof: just.proof,
        sql_before: render(&before),
        sql_after: render(&after),
        before,
        after,
    });
}

fn render(q: &BoundQuery) -> String {
    unbind_query(q)
        .map(|ast| ast.to_string())
        .unwrap_or_else(|e| format!("<unprintable: {e}>"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::OptimizerOptions;
    use uniq_catalog::sample::supplier_schema;
    use uniq_plan::bind_output;
    use uniq_sql::parse_full_query;

    fn optimized(sql: &str, opts: OptimizerOptions) -> (BoundOutput, RewriteTrace) {
        let db = supplier_schema().unwrap();
        let out = bind_output(db.catalog(), &parse_full_query(sql).unwrap()).unwrap();
        optimize_output(&Optimizer::new(opts), &out)
    }

    #[test]
    fn key_covered_group_by_is_elided_with_proof() {
        // SNO is SUPPLIER's primary key: one group per row.
        let (out, trace) = optimized(
            "SELECT S.SNO, COUNT(*) FROM SUPPLIER S GROUP BY S.SNO",
            OptimizerOptions::relational(),
        );
        assert!(out.agg.unwrap().group_elided);
        let step = trace
            .steps
            .iter()
            .find(|s| s.rule == GROUP_ELISION_RULE)
            .expect("elision step recorded");
        assert!(step.proof.is_proved(), "{:?}", step.proof);
        assert!(step.sql_before.starts_with("SELECT DISTINCT"));
        assert!(step.sql_after.starts_with("SELECT ALL"));
    }

    #[test]
    fn non_key_group_by_is_not_elided() {
        let (out, trace) = optimized(
            "SELECT S.SCITY, COUNT(*) FROM SUPPLIER S GROUP BY S.SCITY",
            OptimizerOptions::relational(),
        );
        assert!(!out.agg.unwrap().group_elided);
        assert!(!trace.steps.iter().any(|s| s.rule == GROUP_ELISION_RULE));
    }

    #[test]
    fn count_distinct_over_key_degrades_to_count() {
        let (out, trace) = optimized(
            "SELECT COUNT(DISTINCT S.SNO) FROM SUPPLIER S",
            OptimizerOptions::relational(),
        );
        let agg = out.agg.unwrap();
        assert!(agg.count_distinct_elided);
        match &agg.items[0] {
            BoundAggItem::Agg { distinct, .. } => assert!(!distinct),
            other => panic!("expected aggregate item, got {other:?}"),
        }
        let step = trace
            .steps
            .iter()
            .find(|s| s.rule == COUNT_DISTINCT_RULE)
            .expect("elision step recorded");
        assert!(step.proof.is_proved());
    }

    #[test]
    fn count_distinct_over_non_key_is_kept() {
        let (out, trace) = optimized(
            "SELECT COUNT(DISTINCT S.SCITY) FROM SUPPLIER S",
            OptimizerOptions::relational(),
        );
        match &out.agg.unwrap().items[0] {
            BoundAggItem::Agg { distinct, .. } => assert!(distinct),
            other => panic!("expected aggregate item, got {other:?}"),
        }
        assert!(!trace.steps.iter().any(|s| s.rule == COUNT_DISTINCT_RULE));
    }

    #[test]
    fn disabled_options_skip_elision() {
        let (out, trace) = optimized(
            "SELECT S.SNO, COUNT(DISTINCT S.SNO) FROM SUPPLIER S GROUP BY S.SNO",
            OptimizerOptions::disabled(),
        );
        let agg = out.agg.unwrap();
        assert!(!agg.group_elided);
        assert!(!agg.count_distinct_elided);
        match &agg.items[1] {
            BoundAggItem::Agg { distinct, .. } => assert!(distinct),
            other => panic!("expected aggregate item, got {other:?}"),
        }
        assert!(trace.steps.is_empty());
    }

    #[test]
    fn plain_output_passes_through() {
        let (out, _) = optimized(
            "SELECT S.SNO FROM SUPPLIER S ORDER BY SNO LIMIT 3",
            OptimizerOptions::relational(),
        );
        assert!(out.agg.is_none());
        assert_eq!(out.limit, Some(3));
        assert_eq!(out.order_by, vec![(0, false)]);
    }
}
