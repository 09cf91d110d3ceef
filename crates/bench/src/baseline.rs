//! The pre-refactor optimizer driver, preserved for E15.
//!
//! Before the one-pass fixpoint driver landed, the optimizer restarted
//! its traversal from the root after *every* rule firing: find the
//! first rule that fires anywhere in the tree, apply it, and start
//! over. That is quadratic in the number of independent firing sites —
//! N firings cost N full traversals — where the current driver brings
//! every node to local quiescence in one bottom-up pass.
//!
//! This module reimplements that root-restart strategy on top of the
//! public rule registry so E15 can measure what the driver refactor
//! bought. Both drivers share [`RuleContext`], so uniqueness-test
//! memoization is identical and the comparison isolates traversal
//! strategy alone.

use uniqueness::core::pipeline::{OptimizerOptions, RewriteStep};
use uniqueness::core::rules::{ProofStatus, RewriteRule, RuleContext, RuleStats};
use uniqueness::core::unbind::unbind_query;
use uniqueness::plan::BoundQuery;

/// What the root-restart driver produced: the rewritten query plus the
/// counters needed to compare it against the one-pass driver.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// The rewritten query (must equal the one-pass driver's output).
    pub query: BoundQuery,
    /// The applied steps, rendered exactly like the trace's (the old
    /// driver produced these too, so the comparison stays fair).
    pub steps: Vec<RewriteStep>,
    /// Full root-to-leaf traversals performed (one per firing, plus the
    /// final all-quiet traversal that certifies the fixpoint).
    pub traversals: u64,
    /// Per-rule attempt/fire/timing counters, same shape as the trace's.
    pub rule_stats: Vec<RuleStats>,
}

impl BaselineOutcome {
    /// Rule firings applied.
    pub fn firings(&self) -> u64 {
        self.steps.len() as u64
    }
}

/// Run the registry selected by `options` with the old root-restart
/// strategy: apply the first firing rule found in a pre-order walk,
/// then restart the walk from the root.
pub fn optimize_root_restart(options: &OptimizerOptions, query: &BoundQuery) -> BaselineOutcome {
    let rules = options.registry();
    let mut cx = RuleContext::new(options.test);
    for rule in &rules {
        cx.register(rule.name());
    }
    let mut current = query.clone();
    let mut steps: Vec<RewriteStep> = Vec::new();
    let mut traversals: u64 = 0;
    while steps.len() < options.max_steps {
        traversals += 1;
        match apply_first(&rules, &current, &mut cx) {
            Some((next, rule, theorem, why)) => {
                steps.push(RewriteStep {
                    rule,
                    theorem,
                    why,
                    proof: ProofStatus::default(),
                    sql_before: render(&current),
                    sql_after: render(&next),
                    before: current.clone(),
                    after: next.clone(),
                });
                current = next;
            }
            None => break,
        }
    }
    BaselineOutcome {
        query: current,
        steps,
        traversals,
        rule_stats: cx.into_stats(),
    }
}

/// Pre-order search for the first firing rule: offer every rule at this
/// node, then recurse into set-operation operands, returning as soon as
/// anything fires.
fn apply_first(
    rules: &[Box<dyn RewriteRule>],
    node: &BoundQuery,
    cx: &mut RuleContext,
) -> Option<(BoundQuery, &'static str, &'static str, String)> {
    for rule in rules {
        if let Some((next, j)) = cx.try_rule(rule.as_ref(), node) {
            return Some((next, rule.name(), j.theorem, j.detail));
        }
    }
    if let BoundQuery::SetOp {
        op,
        all,
        left,
        right,
    } = node
    {
        if let Some((new_left, rule, theorem, why)) = apply_first(rules, left, cx) {
            let rebuilt = BoundQuery::SetOp {
                op: *op,
                all: *all,
                left: Box::new(new_left),
                right: right.clone(),
            };
            return Some((rebuilt, rule, theorem, why));
        }
        if let Some((new_right, rule, theorem, why)) = apply_first(rules, right, cx) {
            let rebuilt = BoundQuery::SetOp {
                op: *op,
                all: *all,
                left: left.clone(),
                right: Box::new(new_right),
            };
            return Some((rebuilt, rule, theorem, why));
        }
    }
    None
}

fn render(q: &BoundQuery) -> String {
    unbind_query(q)
        .map(|ast| ast.to_string())
        .unwrap_or_else(|e| format!("<unprintable: {e}>"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniqueness::core::pipeline::Optimizer;
    use uniqueness::plan::bind_query;
    use uniqueness::sql::parse_query;

    fn bound(sql: &str) -> BoundQuery {
        let db = uniqueness::catalog::sample::supplier_schema().unwrap();
        bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap()
    }

    #[test]
    fn baseline_agrees_with_one_pass_driver() {
        let options = OptimizerOptions::relational();
        let optimizer = Optimizer::new(options);
        for sql in [
            crate::e15_union_chain(6),
            crate::e15_exists_chain(4),
            crate::E6_QUERY.to_string(),
        ] {
            let q = bound(&sql);
            let old = optimize_root_restart(&options, &q);
            let new = optimizer.optimize(&q);
            assert_eq!(old.query, new.query, "{sql}");
            assert_eq!(old.firings(), new.trace.steps.len() as u64, "{sql}");
        }
    }

    #[test]
    fn baseline_traversals_grow_with_firings() {
        // N independent sites ⇒ N firings ⇒ N+1 root restarts, while the
        // one-pass driver needs two passes regardless of N.
        let options = OptimizerOptions::relational();
        let q = bound(&crate::e15_union_chain(8));
        let old = optimize_root_restart(&options, &q);
        assert_eq!(old.firings(), 8);
        assert_eq!(old.traversals, 9);
        let new = Optimizer::new(options).optimize(&q);
        assert_eq!(new.trace.steps.len(), 8);
        assert_eq!(new.trace.passes, 2);
    }
}
