//! The fixpoint driver: drives a registry of [`RewriteRule`]s over a
//! bound query until none fires, recording every step in a
//! [`RewriteTrace`].
//!
//! Two profiles mirror the paper's two worlds:
//!
//! * [`OptimizerOptions::relational`] — merge subqueries into joins
//!   (Theorem 2 / Corollary 1), lower set operations to `EXISTS`
//!   (Theorem 3 / Corollary 2), then drop provably redundant `DISTINCT`s
//!   (Theorem 1). This is the Starburst-style direction.
//! * [`OptimizerOptions::navigational`] — the §6 direction for IMS and
//!   pointer-based OODBs: convert joins *to* subqueries so the back-end
//!   can run first-match nested loops.
//!
//! # Driver shape
//!
//! Each **pass** is a single bottom-up traversal: set-operation operands
//! are rewritten in place first (deepest first), then every registry
//! rule is offered the node repeatedly until the node quiesces. Because
//! all the rules are local — whether a rule fires at a node depends only
//! on that node's subtree — one quiescent bottom-up pass that fires
//! nothing proves the whole tree is at fixpoint, so the driver converges
//! in `O(passes)` traversals (typically two: one that fires, one that
//! verifies quiescence) rather than the one-root-restart-per-firing
//! `O(firings × tree)` of the previous driver.

use crate::rewrite::distinct::UniquenessTest;
use crate::rewrite::{
    DistinctPushdown, DistinctRemoval, ExceptToNotExists, IntersectToExists, JoinElimination,
    JoinToSubquery, SubqueryToJoin,
};
use crate::rules::{ProofStatus, RewriteRule, RuleContext, RuleStats};
use crate::unbind::unbind_query;
use uniq_plan::BoundQuery;

/// Which rules run, and with which uniqueness test.
#[derive(Debug, Clone, Copy, Hash)]
pub struct OptimizerOptions {
    /// Rule 1: Theorem 1 `DISTINCT` removal.
    pub remove_redundant_distinct: bool,
    /// Rule 2: Theorem 2 / Corollary 1 subquery → join.
    pub subquery_to_join: bool,
    /// Rules 3/4: `INTERSECT`/`EXCEPT` → `[NOT] EXISTS`.
    pub setops_to_exists: bool,
    /// Rule 5: §6 join → subquery (navigational back-ends).
    pub join_to_subquery: bool,
    /// Rule 6: §7 join elimination via foreign keys (future-work
    /// extension).
    pub join_elimination: bool,
    /// Rule 7: push a `DISTINCT` through a key-covered join, demoting
    /// the unprojected side to an `EXISTS` semijoin and eliding the
    /// `DISTINCT` (Corollary 1 read right-to-left). Fires only when the
    /// symbolic checker proves the pair equivalent. Off in the
    /// relational profile — it is the exact inverse of
    /// [`subquery_to_join`](OptimizerOptions::subquery_to_join)'s
    /// Corollary 1 case and the two would cycle.
    pub distinct_pushdown: bool,
    /// Aggregate elisions (`crate::agg`): key-covered `GROUP BY` becomes
    /// a no-op grouping and `COUNT(DISTINCT e)` over a duplicate-free
    /// block degrades to `COUNT(e)`. Both fire only on a symbolic proof.
    pub agg_elision: bool,
    /// Which uniqueness test(s) rules may consult.
    pub test: UniquenessTest,
    /// Upper bound on total rule firings (defensive; the rules are
    /// strictly reducing and cannot actually loop).
    pub max_steps: usize,
}

impl OptimizerOptions {
    /// The relational profile (§5): everything toward joins.
    pub fn relational() -> OptimizerOptions {
        OptimizerOptions {
            remove_redundant_distinct: true,
            subquery_to_join: true,
            setops_to_exists: true,
            join_to_subquery: false,
            join_elimination: true,
            distinct_pushdown: false,
            agg_elision: true,
            test: UniquenessTest::Both,
            max_steps: 32,
        }
    }

    /// The navigational profile (§6): everything toward nested subqueries.
    pub fn navigational() -> OptimizerOptions {
        OptimizerOptions {
            remove_redundant_distinct: true,
            subquery_to_join: false,
            setops_to_exists: true,
            join_to_subquery: true,
            join_elimination: true,
            distinct_pushdown: true,
            agg_elision: true,
            test: UniquenessTest::Both,
            max_steps: 32,
        }
    }

    /// All rules off — identity pipeline (baseline for experiments).
    pub fn disabled() -> OptimizerOptions {
        OptimizerOptions {
            remove_redundant_distinct: false,
            subquery_to_join: false,
            setops_to_exists: false,
            join_to_subquery: false,
            join_elimination: false,
            distinct_pushdown: false,
            agg_elision: false,
            test: UniquenessTest::Both,
            max_steps: 0,
        }
    }

    /// Select the uniqueness test (builder style).
    pub fn with_test(mut self, test: UniquenessTest) -> OptimizerOptions {
        self.test = test;
        self
    }

    /// Toggle the proof-gated `DISTINCT` pushdown (builder style).
    pub fn with_distinct_pushdown(mut self, on: bool) -> OptimizerOptions {
        self.distinct_pushdown = on;
        self
    }

    /// The rule registry these options select, in priority order:
    /// set-operation lowerings first (they expose blocks to the
    /// block-level rules), then join elimination, the subquery↔join
    /// pair, and `DISTINCT` removal last (the other rules can make a
    /// `DISTINCT` removable, or need to see it before it goes).
    pub fn registry(&self) -> Vec<Box<dyn RewriteRule>> {
        let mut rules: Vec<Box<dyn RewriteRule>> = Vec::new();
        if self.setops_to_exists {
            rules.push(Box::new(IntersectToExists));
            rules.push(Box::new(ExceptToNotExists));
        }
        if self.join_elimination {
            rules.push(Box::new(JoinElimination));
        }
        if self.distinct_pushdown {
            rules.push(Box::new(DistinctPushdown));
        }
        if self.subquery_to_join {
            rules.push(Box::new(SubqueryToJoin));
        }
        if self.join_to_subquery {
            rules.push(Box::new(JoinToSubquery));
        }
        if self.remove_redundant_distinct {
            rules.push(Box::new(DistinctRemoval));
        }
        rules
    }
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions::relational()
    }
}

/// One applied rewrite.
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteStep {
    /// Short rule identifier (`"distinct-removal"`, …).
    pub rule: &'static str,
    /// The theorem/corollary that licensed this particular firing.
    pub theorem: &'static str,
    /// Prose justification naming the licensing theorem.
    pub why: String,
    /// Symbolically proved equivalent, or relying on the property-test
    /// oracle. Set by the driver (or by a proof-gated rule) at fire
    /// time.
    pub proof: ProofStatus,
    /// The rewritten subtree before this step, in bound form — the
    /// exact node the rule saw, retained so equivalence tooling needs
    /// no re-parse.
    pub before: BoundQuery,
    /// The rewritten subtree after this step, in bound form.
    pub after: BoundQuery,
    /// The full query before this step, rendered as SQL.
    pub sql_before: String,
    /// The full query after this step, rendered as SQL.
    pub sql_after: String,
}

/// The ordered record of everything one optimize call did: the steps,
/// the per-rule counters, and the fixpoint shape (passes, memo hits).
/// This is the object that travels up through the engine session, the
/// plan cache, `EXPLAIN`, the batch driver, and the bench report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RewriteTrace {
    /// Every step applied, in order (empty = nothing fired).
    pub steps: Vec<RewriteStep>,
    /// Per-rule counters: attempts, fires, uniqueness tests consulted,
    /// wall time — in registry order.
    pub rule_stats: Vec<RuleStats>,
    /// Bottom-up traversals the driver ran (the last one fires nothing
    /// and certifies the fixpoint).
    pub passes: u64,
    /// Uniqueness-test verdicts computed by actually running Theorem 1 /
    /// Algorithm 1 machinery during this optimize call.
    pub uniqueness_tests_computed: u64,
    /// Verdicts answered from the per-optimize memo instead (see
    /// [`crate::rewrite::UniquenessMemo`]).
    pub uniqueness_tests_memoized: u64,
}

impl RewriteTrace {
    /// Total rule firings recorded.
    pub fn fires(&self) -> u64 {
        self.steps.len() as u64
    }
}

/// The pipeline's result.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The final query.
    pub query: BoundQuery,
    /// What happened along the way.
    pub trace: RewriteTrace,
}

impl OptimizeOutcome {
    /// Did any rule fire?
    pub fn changed(&self) -> bool {
        !self.trace.steps.is_empty()
    }

    /// The ordered steps (convenience for `self.trace.steps`).
    pub fn steps(&self) -> &[RewriteStep] {
        &self.trace.steps
    }
}

/// The rewrite engine: a rule registry plus the fixpoint driver.
#[derive(Debug)]
pub struct Optimizer {
    options: OptimizerOptions,
    rules: Vec<Box<dyn RewriteRule>>,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::new(OptimizerOptions::default())
    }
}

impl Optimizer {
    /// An optimizer with the registry the options select.
    pub fn new(options: OptimizerOptions) -> Optimizer {
        Optimizer {
            rules: options.registry(),
            options,
        }
    }

    /// Append a rule to the registry (after the options-selected ones).
    /// This is the extension point for new rule families: implement
    /// [`RewriteRule`], push it here — no driver surgery.
    pub fn with_rule(mut self, rule: Box<dyn RewriteRule>) -> Optimizer {
        self.rules.push(rule);
        self
    }

    /// The options this optimizer was built with.
    pub fn options(&self) -> &OptimizerOptions {
        &self.options
    }

    /// Apply the registered rules to `query` until none fires.
    ///
    /// All uniqueness-test verdicts produced along the way are memoized
    /// for the duration of the call, so the Theorem 1 / Algorithm 1
    /// machinery runs at most once per distinct (block, test) pair no
    /// matter how many rules or fixpoint passes re-ask.
    pub fn optimize(&self, query: &BoundQuery) -> OptimizeOutcome {
        let mut cx = RuleContext::new(self.options.test);
        for rule in &self.rules {
            cx.register(rule.name());
        }
        let mut current = query.clone();
        let mut steps: Vec<RewriteStep> = Vec::new();
        let mut passes: u64 = 0;
        while !self.rules.is_empty() && steps.len() < self.options.max_steps {
            let fired_before = steps.len();
            passes += 1;
            current = self.run_pass(current, &|sql, _| sql, &mut cx, &mut steps);
            if steps.len() == fired_before {
                break;
            }
        }
        let (computed, memoized) = (cx.memo.computed, cx.memo.reused);
        OptimizeOutcome {
            query: current,
            trace: RewriteTrace {
                steps,
                rule_stats: cx.into_stats(),
                passes,
                uniqueness_tests_computed: computed,
                uniqueness_tests_memoized: memoized,
            },
        }
    }

    /// One bottom-up traversal. `wrap_sql` re-embeds a rewritten
    /// subtree's SQL into the full statement's SQL (second argument:
    /// whether the subtree is itself a set operation and so needs
    /// operand parentheses), so every step's before/after SQL shows the
    /// whole query however deep the firing site. It is only invoked when
    /// a step actually fires — a quiet pass never renders anything.
    fn run_pass(
        &self,
        node: BoundQuery,
        wrap_sql: &dyn Fn(String, bool) -> String,
        cx: &mut RuleContext,
        steps: &mut Vec<RewriteStep>,
    ) -> BoundQuery {
        // Children first: both operands of a set operation are brought to
        // local quiescence before their parent is offered to the rules,
        // so independent firing sites anywhere in the tree all fire
        // within this same pass.
        let mut node = match node {
            BoundQuery::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let all_kw = if all { " ALL" } else { "" };
                let wrap_left = |sql: String, setop: bool| {
                    let lhs = if setop { format!("({sql})") } else { sql };
                    wrap_sql(
                        format!("{lhs} {op}{all_kw} {}", render_operand(&right)),
                        true,
                    )
                };
                let new_left = self.run_pass(*left, &wrap_left, cx, steps);
                let wrap_right = |sql: String, setop: bool| {
                    let rhs = if setop { format!("({sql})") } else { sql };
                    wrap_sql(
                        format!("{} {op}{all_kw} {rhs}", render_operand(&new_left)),
                        true,
                    )
                };
                let new_right = self.run_pass(*right, &wrap_right, cx, steps);
                BoundQuery::SetOp {
                    op,
                    all,
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                }
            }
            other => other,
        };
        // Local quiescence: keep offering this node to the registry until
        // nothing fires (a set-op lowering can expose the node to the
        // block-level rules within the same visit).
        'quiesce: loop {
            if steps.len() >= self.options.max_steps {
                break;
            }
            for rule in &self.rules {
                if let Some((next, justification)) = cx.try_rule(rule.as_ref(), &node) {
                    // Every fired step gets a proof status: keep one a
                    // proof-gated rule attached, otherwise run the
                    // symbolic checker on the before/after pair now.
                    let justification = if justification.proof.is_proved() {
                        cx.tally_proved(rule.name());
                        justification
                    } else {
                        let status = cx.prove_step(rule.name(), &node, &next);
                        justification.with_proof(status)
                    };
                    steps.push(RewriteStep {
                        rule: rule.name(),
                        theorem: justification.theorem,
                        why: justification.detail,
                        proof: justification.proof,
                        sql_before: wrap_sql(
                            render(&node),
                            matches!(node, BoundQuery::SetOp { .. }),
                        ),
                        sql_after: wrap_sql(
                            render(&next),
                            matches!(next, BoundQuery::SetOp { .. }),
                        ),
                        before: node,
                        after: next.clone(),
                    });
                    node = next;
                    continue 'quiesce;
                }
            }
            break;
        }
        node
    }
}

fn render(q: &BoundQuery) -> String {
    unbind_query(q)
        .map(|ast| ast.to_string())
        .unwrap_or_else(|e| format!("<unprintable: {e}>"))
}

/// Render `q` in set-operation operand position: parenthesized when it
/// is itself a set operation, exactly as the printer does.
fn render_operand(q: &BoundQuery) -> String {
    match q {
        BoundQuery::SetOp { .. } => format!("({})", render(q)),
        BoundQuery::Spec(_) => render(q),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Justification, RuleContext};
    use uniq_catalog::sample::supplier_schema;
    use uniq_plan::{bind_query, BoundSpec};
    use uniq_sql::{parse_query, Distinct};

    fn optimize(sql: &str, opts: OptimizerOptions) -> OptimizeOutcome {
        let db = supplier_schema().unwrap();
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        Optimizer::new(opts).optimize(&q)
    }

    #[test]
    fn example_1_distinct_removed() {
        let out = optimize(
            "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            OptimizerOptions::relational(),
        );
        assert_eq!(out.trace.steps.len(), 1);
        assert_eq!(out.trace.steps[0].rule, "distinct-removal");
        assert_eq!(out.trace.steps[0].theorem, "Theorem 1");
        assert_eq!(out.query.as_spec().unwrap().distinct, Distinct::All);
    }

    #[test]
    fn example_8_merge_then_distinct_stays() {
        // Corollary 1 turns ALL into DISTINCT-join; the DISTINCT is then
        // genuinely required (SNAME is not projected... SNO is, so
        // Theorem 1 fires afterwards and removes it again!).
        let out = optimize(
            "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
            OptimizerOptions::relational(),
        );
        // Step 1: subquery-to-join (adds DISTINCT). The join result
        // projects only SUPPLIER's key: unique per (S,P) pair? No — PARTS'
        // key is not determined, so DISTINCT must stay.
        assert_eq!(out.trace.steps.len(), 1, "{:#?}", out.trace.steps);
        assert_eq!(out.trace.steps[0].rule, "subquery-to-join");
        assert_eq!(out.trace.steps[0].theorem, "Corollary 1");
        assert_eq!(out.query.as_spec().unwrap().distinct, Distinct::Distinct);
    }

    #[test]
    fn theorem_2_merge_keeps_all_semantics() {
        let out = optimize(
            "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S \
             WHERE S.SNAME = :NAME AND EXISTS \
             (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PNO)",
            OptimizerOptions::relational(),
        );
        assert_eq!(out.trace.steps.len(), 1);
        assert_eq!(out.trace.steps[0].rule, "subquery-to-join");
        assert_eq!(out.trace.steps[0].theorem, "Theorem 2");
        assert_eq!(out.query.as_spec().unwrap().distinct, Distinct::All);
        assert!(out.trace.steps[0]
            .sql_after
            .contains("FROM SUPPLIER S, PARTS P"));
    }

    #[test]
    fn example_9_chain_intersect_then_block_rules() {
        let out = optimize(
            "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
             INTERSECT \
             SELECT ALL A.SNO FROM AGENTS A \
             WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'",
            OptimizerOptions::relational(),
        );
        assert!(out.changed());
        assert_eq!(out.trace.steps[0].rule, "intersect-to-exists");
        // The paper notes the resulting EXISTS can subsequently convert to
        // a join (Corollary 1, since S.SNO is SUPPLIER's key) — the
        // pipeline chains exactly that, within a single pass: the lowered
        // block quiesces at its node before the pass ends.
        assert_eq!(out.trace.steps[1].rule, "subquery-to-join");
        let spec = out.query.as_spec().unwrap();
        assert_eq!(spec.from.len(), 2);
        assert_eq!(spec.distinct, Distinct::Distinct);
    }

    #[test]
    fn navigational_profile_inverts_direction() {
        let out = optimize(
            "SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS \
             FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.PNO = :PARTNO",
            OptimizerOptions::navigational(),
        );
        assert_eq!(out.trace.steps[0].rule, "join-to-subquery");
        assert!(out.trace.steps[0].sql_after.contains("EXISTS"));
        assert_eq!(out.query.as_spec().unwrap().from.len(), 1);
    }

    #[test]
    fn disabled_profile_is_identity() {
        let out = optimize(
            "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 1",
            OptimizerOptions::disabled(),
        );
        assert!(!out.changed());
        assert_eq!(out.trace.passes, 0);
    }

    #[test]
    fn steps_render_sql_before_and_after() {
        let out = optimize(
            "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :H",
            OptimizerOptions::relational(),
        );
        assert_eq!(out.trace.steps.len(), 1);
        assert!(
            out.trace.steps[0].sql_before.starts_with("SELECT DISTINCT"),
            "{}",
            out.trace.steps[0].sql_before
        );
        assert!(
            out.trace.steps[0].sql_after.starts_with("SELECT ALL"),
            "{}",
            out.trace.steps[0].sql_after
        );
    }

    #[test]
    fn uniqueness_tests_run_once_per_block() {
        // Two EXISTS conjuncts, neither merged by Theorem 2, outer not
        // provably unique: the Corollary 1 check asks about the same
        // outer block once per conjunct — the second ask must come from
        // the memo, not a fresh Algorithm 1 run.
        let out = optimize(
            "SELECT ALL S.SNAME FROM SUPPLIER S \
             WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO) \
             AND EXISTS (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO)",
            OptimizerOptions::relational(),
        );
        assert_eq!(out.trace.uniqueness_tests_computed, 1, "{out:#?}");
        assert!(out.trace.uniqueness_tests_memoized >= 1, "{out:#?}");
    }

    #[test]
    fn set_op_operands_are_optimized_recursively() {
        // INTERSECT ALL with a DISTINCT left operand: the bottom-up pass
        // first simplifies the operand in place (its DISTINCT is
        // redundant — SNO is SUPPLIER's key), then lowers the INTERSECT
        // ALL at the parent because the left operand is still provably
        // duplicate-free.
        let out = optimize(
            "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S \
             INTERSECT ALL \
             SELECT ALL A.SNO, A.ANAME FROM AGENTS A",
            OptimizerOptions::relational(),
        );
        assert!(out.changed());
        assert_eq!(out.trace.steps[0].rule, "distinct-removal");
        assert!(out
            .trace
            .steps
            .iter()
            .any(|s| s.rule == "intersect-to-exists"));
        // The operand firing's SQL still shows the full INTERSECT query.
        assert!(
            out.trace.steps[0].sql_before.contains("INTERSECT"),
            "{}",
            out.trace.steps[0].sql_before
        );
    }

    #[test]
    fn independent_sites_converge_in_one_firing_pass() {
        // Four independent rewrite sites (each UNION ALL operand carries
        // its own redundant DISTINCT). The bottom-up driver must fire all
        // of them in the first pass and certify the fixpoint in the
        // second — O(passes), not one root-restart per firing.
        let out = optimize(
            "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
             UNION ALL \
             SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Ottawa' \
             UNION ALL \
             SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Hull' \
             UNION ALL \
             SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.BUDGET = 7",
            OptimizerOptions::relational(),
        );
        assert_eq!(out.trace.steps.len(), 4, "{:#?}", out.trace.steps);
        assert!(out.trace.steps.iter().all(|s| s.rule == "distinct-removal"));
        assert_eq!(out.trace.passes, 2, "{:#?}", out.trace);
    }

    #[test]
    fn trace_records_per_rule_stats() {
        let out = optimize(
            "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            OptimizerOptions::relational(),
        );
        let distinct = out
            .trace
            .rule_stats
            .iter()
            .find(|s| s.rule == "distinct-removal")
            .expect("stats row for distinct-removal");
        assert_eq!(distinct.fires, 1);
        assert!(distinct.attempts >= 1);
        assert!(distinct.uniqueness_tests >= 1);
        // Every registered rule has a stats row even if it never fired.
        assert!(out
            .trace
            .rule_stats
            .iter()
            .any(|s| s.rule == "join-elimination" && s.fires == 0));
    }

    #[test]
    fn custom_rules_register_through_with_rule() {
        // A rule family added from outside the crate: force every
        // DISTINCT projection (trivially sound in reverse — this is just
        // an extensibility smoke test).
        #[derive(Debug)]
        struct ForceDistinct;
        impl crate::rules::RewriteRule for ForceDistinct {
            fn name(&self) -> &'static str {
                "force-distinct"
            }
            fn theorem(&self) -> &'static str {
                "test-only"
            }
            fn apply_spec(
                &self,
                spec: &BoundSpec,
                _cx: &mut RuleContext,
            ) -> Option<(BoundSpec, Justification)> {
                if spec.distinct == Distinct::Distinct {
                    return None;
                }
                let mut out = spec.clone();
                out.distinct = Distinct::Distinct;
                Some((out, Justification::new("test-only", "forced DISTINCT")))
            }
        }
        let db = supplier_schema().unwrap();
        let q = bind_query(
            db.catalog(),
            &parse_query("SELECT ALL S.SNAME FROM SUPPLIER S").unwrap(),
        )
        .unwrap();
        let opt = Optimizer::new(OptimizerOptions::disabled()).with_rule(Box::new(ForceDistinct));
        // `disabled()` zeroes max_steps; re-enable the budget only.
        let mut options = OptimizerOptions::disabled();
        options.max_steps = 8;
        let opt = Optimizer { options, ..opt };
        let out = opt.optimize(&q);
        assert_eq!(out.trace.steps.len(), 1);
        assert_eq!(out.trace.steps[0].rule, "force-distinct");
        assert_eq!(out.query.as_spec().unwrap().distinct, Distinct::Distinct);
    }
}
