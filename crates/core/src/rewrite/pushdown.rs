//! Rule 7: push a `DISTINCT` through a key-covered join.
//!
//! A `SELECT DISTINCT` block whose projection (plus derived FDs) covers
//! a candidate key of every *projected* table can demote an unprojected
//! table to an `EXISTS` semijoin **and** drop the `DISTINCT` outright:
//! the remaining block is duplicate-free by itself, and the semijoin
//! preserves exactly the support of the join. This is Corollary 1 read
//! right-to-left — and precisely because it is the inverse of the
//! [`SubqueryToJoin`](crate::rewrite::SubqueryToJoin) Corollary 1 case,
//! the two rules must never share a registry (see
//! [`OptimizerOptions::distinct_pushdown`](crate::pipeline::OptimizerOptions::distinct_pushdown)).
//!
//! Unlike every other rule, this one does not verify its own side
//! conditions: it *constructs* the candidate rewrite and fires only if
//! the U-semiring checker proves the before/after pair equivalent
//! ([`RuleContext::prove`]). The justification therefore always carries
//! a `Proved` status — an `Unknown` verdict suppresses the firing
//! entirely, so the rule can never put an unproved step in a trace.

use crate::rewrite::subquery::visit_subquery_refs;
use crate::rewrite::util::{
    conjuncts_of, rebuild_predicate, reindex_after_removal, reindex_pushed_down,
};
use crate::rules::{Justification, RewriteRule, RuleContext};
use uniq_plan::{BoundExpr, BoundQuery, BoundSpec, ProjItem};
use uniq_sql::Distinct;

/// Rule 7: proof-gated `DISTINCT` pushdown (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct DistinctPushdown;

impl RewriteRule for DistinctPushdown {
    fn name(&self) -> &'static str {
        "distinct-pushdown"
    }

    fn theorem(&self) -> &'static str {
        "Corollary 1 (inverse)"
    }

    fn apply_spec(
        &self,
        spec: &BoundSpec,
        cx: &mut RuleContext,
    ) -> Option<(BoundSpec, Justification)> {
        if spec.distinct != Distinct::Distinct || spec.from.len() < 2 {
            return None;
        }
        // Candidate victims: tables the projection never touches,
        // rightmost first (the lookup side of a typical join).
        'candidates: for victim in (0..spec.from.len()).rev() {
            let range = spec.from[victim].attr_range();
            if spec.projection.iter().any(|p| range.contains(&p.attr)) {
                continue;
            }
            let conjuncts = conjuncts_of(spec);
            let mut stay: Vec<BoundExpr> = Vec::new();
            let mut moved: Vec<BoundExpr> = Vec::new();
            for c in &conjuncts {
                let mut mentions = false;
                c.visit_local_attrs(&mut |a| {
                    if range.contains(&a) {
                        mentions = true;
                    }
                });
                // A nested subquery referencing the victim would need
                // its correlation re-rooted; skip this victim.
                let mut sub_mentions = false;
                visit_subquery_refs(c, &mut |below, up, idx| {
                    if up == below && range.contains(&idx) {
                        sub_mentions = true;
                    }
                });
                if sub_mentions {
                    continue 'candidates;
                }
                if mentions {
                    moved.push(c.clone());
                } else {
                    stay.push(c.clone());
                }
            }

            let removed_width = spec.from[victim].schema.arity();
            let mut sub_from = vec![spec.from[victim].clone()];
            sub_from[0].offset = 0;
            let mut sub_pred: Vec<BoundExpr> = Vec::new();
            for mut c in moved {
                reindex_pushed_down(&mut c, range.clone(), removed_width);
                sub_pred.push(c);
            }
            let sub = BoundSpec {
                distinct: Distinct::All,
                from: sub_from,
                predicate: rebuild_predicate(sub_pred),
                projection: spec.from[victim]
                    .schema
                    .columns
                    .iter()
                    .enumerate()
                    .map(|(i, c)| ProjItem {
                        attr: i,
                        name: c.name.clone(),
                    })
                    .collect(),
            };

            // The candidate: victim demoted to EXISTS, DISTINCT elided.
            let mut outer = spec.clone();
            outer.distinct = Distinct::All;
            outer.from.remove(victim);
            for t in outer.from.iter_mut() {
                if t.offset >= range.end {
                    t.offset -= removed_width;
                }
            }
            for p in outer.projection.iter_mut() {
                if p.attr >= range.end {
                    p.attr -= removed_width;
                }
            }
            let mut new_conjuncts: Vec<BoundExpr> = Vec::new();
            for mut c in stay {
                reindex_after_removal(&mut c, range.clone(), removed_width);
                new_conjuncts.push(c);
            }
            new_conjuncts.push(BoundExpr::Exists {
                negated: false,
                subquery: Box::new(sub),
            });
            outer.predicate = rebuild_predicate(new_conjuncts);

            // Fire only on a proof. The checker re-derives the side
            // condition (remaining projection covers a key of every
            // kept table) from its own axioms — the rule asserts
            // nothing the checker has not verified.
            let status = cx.prove(
                &BoundQuery::Spec(Box::new(spec.clone())),
                &BoundQuery::Spec(Box::new(outer.clone())),
            );
            if !status.is_proved() {
                continue;
            }
            let why = format!(
                "DISTINCT pushed through key-covered join: {} demoted to EXISTS semijoin, \
                 duplicate elimination elided ({status})",
                spec.from[victim].binding
            );
            return Some((
                outer,
                Justification::new("Corollary 1 (inverse)", why).with_proof(status),
            ));
        }
        None
    }
}

/// Standalone form of [`DistinctPushdown`] (a shim over the one
/// context-taking code path, for callers outside the pipeline).
pub fn push_down_distinct(spec: &BoundSpec) -> Option<(BoundSpec, String)> {
    let mut cx = RuleContext::new(crate::rewrite::distinct::UniquenessTest::Both);
    DistinctPushdown
        .apply_spec(spec, &mut cx)
        .map(|(s, j)| (s, j.detail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_schema;
    use uniq_plan::bind_query;
    use uniq_sql::parse_query;

    fn spec_of(sql: &str) -> BoundSpec {
        let db = supplier_schema().unwrap();
        bind_query(db.catalog(), &parse_query(sql).unwrap())
            .unwrap()
            .as_spec()
            .unwrap()
            .clone()
    }

    #[test]
    fn pushes_distinct_when_remaining_projection_covers_keys() {
        let spec =
            spec_of("SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO");
        let (rw, why) = push_down_distinct(&spec).unwrap();
        assert_eq!(rw.distinct, Distinct::All, "DISTINCT must be elided");
        assert_eq!(rw.from.len(), 1);
        assert!(
            matches!(
                rw.predicate.as_ref().unwrap().conjuncts().as_slice(),
                [BoundExpr::Exists { negated: false, .. }]
            ),
            "{rw:?}"
        );
        assert!(why.contains("proved"), "{why}");
    }

    #[test]
    fn refuses_without_a_proof() {
        // SCITY covers no key of SUPPLIER: eliding the DISTINCT would
        // reintroduce duplicates. The checker returns Unknown, so the
        // rule must not fire.
        let spec = spec_of("SELECT DISTINCT S.SCITY FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO");
        assert!(push_down_distinct(&spec).is_none());
    }

    #[test]
    fn refuses_when_every_table_is_projected() {
        let spec =
            spec_of("SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO");
        assert!(push_down_distinct(&spec).is_none());
    }
}
