//! Rules 2 and 5: subquery → join (§5.2, Theorem 2 / Corollary 1) and
//! join → subquery (§6, for navigational back-ends).
//!
//! **Subquery → join.** A positive existential subquery block can be
//! merged into the outer block's Cartesian product when any of:
//!
//! 1. *(Theorem 2)* the subquery matches at most one tuple per outer row —
//!    the [`crate::analysis::single_tuple_condition`]; projection
//!    multiplicity is then unchanged;
//! 2. the outer block already eliminates duplicates (`SELECT DISTINCT`) —
//!    extra matches collapse in the projection (the observation before
//!    Corollary 1);
//! 3. *(Corollary 1)* the outer `SELECT ALL` block is provably
//!    duplicate-free by itself — then its projection may be switched to
//!    `DISTINCT` without changing semantics, reducing to case 2 (paper
//!    Example 8).
//!
//! **Join → subquery.** The inverse: a table that contributes nothing to
//! the projection can be pushed into an `EXISTS` subquery when either the
//! single-tuple condition holds for it (Theorem 2 read right-to-left) or
//! the outer projection is `DISTINCT`. On IMS and pointer-based OODBs a
//! nested-loop `EXISTS` that stops at the first match is often the better
//! plan (paper Examples 10 and 11).

use crate::analysis::single_tuple_condition;
use crate::rewrite::distinct::UniquenessTest;
use crate::rewrite::util::{
    append_tables, conjuncts_of, rebuild_predicate, reindex_after_removal, reindex_merged_subquery,
    reindex_pushed_down,
};
use crate::rules::{Justification, RewriteRule, RuleContext};
use uniq_plan::{BoundExpr, BoundSpec};
use uniq_sql::Distinct;

/// Rule 2: merge the first eligible positive `EXISTS` subquery of a
/// block into its `FROM` clause. The single code path is
/// [`RewriteRule::apply_spec`]; [`subquery_to_join`] is a thin shim over
/// it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubqueryToJoin;

impl RewriteRule for SubqueryToJoin {
    fn name(&self) -> &'static str {
        "subquery-to-join"
    }

    fn theorem(&self) -> &'static str {
        "Theorem 2 / Corollary 1"
    }

    fn apply_spec(
        &self,
        spec: &BoundSpec,
        cx: &mut RuleContext,
    ) -> Option<(BoundSpec, Justification)> {
        let conjuncts = conjuncts_of(spec);
        for (i, conjunct) in conjuncts.iter().enumerate() {
            let BoundExpr::Exists {
                negated: false,
                subquery,
            } = conjunct
            else {
                continue;
            };
            // Decide which of the three licenses applies.
            let single = single_tuple_condition(subquery);
            let (result_distinct, theorem, why) = if single.unique {
                (
                    spec.distinct,
                    "Theorem 2",
                    format!(
                        "Theorem 2 (subquery matches at most one tuple: {})",
                        single.reason
                    ),
                )
            } else if spec.distinct == Distinct::Distinct {
                (
                    Distinct::Distinct,
                    "Corollary 1 (observation)",
                    "outer projection is DISTINCT; extra join matches collapse".to_string(),
                )
            } else if let Some(reason) = cx.is_provably_unique(spec) {
                (
                    Distinct::Distinct,
                    "Corollary 1",
                    format!(
                        "Corollary 1 (outer block is duplicate-free — {reason} — so its \
                         projection may become DISTINCT)"
                    ),
                )
            } else {
                continue;
            };

            let mut merged = spec.clone();
            merged.distinct = result_distinct;
            // Append the subquery's tables to the outer product.
            let offset = append_tables(&mut merged.from, subquery.from.clone());
            // Hoist the subquery predicate, renumbering its references.
            let mut hoisted: Vec<BoundExpr> = Vec::new();
            if let Some(p) = &subquery.predicate {
                let mut p = p.clone();
                reindex_merged_subquery(&mut p, offset);
                hoisted.push(p);
            }
            // Remaining outer conjuncts keep their positions.
            let mut new_conjuncts: Vec<BoundExpr> = conjuncts
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| c.clone())
                .collect();
            new_conjuncts.extend(hoisted);
            merged.predicate = rebuild_predicate(new_conjuncts);
            return Some((
                merged,
                Justification::new(theorem, format!("EXISTS subquery merged into join: {why}")),
            ));
        }
        None
    }
}

/// Standalone form of [`SubqueryToJoin`] (a shim over the one
/// context-taking code path, for callers outside the pipeline).
pub fn subquery_to_join(spec: &BoundSpec, test: UniquenessTest) -> Option<(BoundSpec, String)> {
    let mut cx = RuleContext::new(test);
    SubqueryToJoin
        .apply_spec(spec, &mut cx)
        .map(|(s, j)| (s, j.detail))
}

/// Rule 5: push the last `FROM` table that contributes nothing to the
/// projection into an `EXISTS` subquery (the §6 rewrite for navigational
/// systems). The single code path is [`RewriteRule::apply_spec`];
/// [`join_to_subquery`] is a thin shim over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinToSubquery;

impl RewriteRule for JoinToSubquery {
    fn name(&self) -> &'static str {
        "join-to-subquery"
    }

    fn theorem(&self) -> &'static str {
        "Theorem 2 (§6, read right-to-left)"
    }

    fn apply_spec(
        &self,
        spec: &BoundSpec,
        _cx: &mut RuleContext,
    ) -> Option<(BoundSpec, Justification)> {
        join_to_subquery_impl(spec)
    }
}

/// Standalone form of [`JoinToSubquery`] (a shim over the one
/// context-taking code path, for callers outside the pipeline).
pub fn join_to_subquery(spec: &BoundSpec) -> Option<(BoundSpec, String)> {
    join_to_subquery_impl(spec).map(|(s, j)| (s, j.detail))
}

fn join_to_subquery_impl(spec: &BoundSpec) -> Option<(BoundSpec, Justification)> {
    if spec.from.len() < 2 {
        return None;
    }
    // Candidate tables: not referenced by the projection. Scan from the
    // right so the "lookup" table of a typical join goes inner.
    'candidates: for victim in (0..spec.from.len()).rev() {
        let range = spec.from[victim].attr_range();
        if spec.projection.iter().any(|p| range.contains(&p.attr)) {
            continue;
        }
        // Partition conjuncts: those mentioning the victim move into the
        // subquery, the rest stay.
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
            // An EXISTS/IN subquery conjunct may reference the victim from
            // inside; moving it would require re-rooting its correlation,
            // so bail out on this victim if one does.
            let mut sub_mentions = false;
            visit_subquery_refs(c, &mut |below, up, idx| {
                if up == below && range.contains(&idx) {
                    sub_mentions = true;
                }
            });
            if sub_mentions && !mentions {
                continue 'candidates;
            }
            if mentions {
                moved.push(c.clone());
            } else {
                stay.push(c.clone());
            }
        }

        let removed_width = spec.from[victim].schema.arity();
        // Build the subquery block around the victim table.
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
                .map(|(i, c)| uniq_plan::ProjItem {
                    attr: i,
                    name: c.name.clone(),
                })
                .collect(),
        };

        // License: Theorem 2 backwards (single-tuple), or DISTINCT outer.
        let single = single_tuple_condition(&sub);
        let why = if single.unique {
            Justification::new(
                "Theorem 2",
                format!(
                    "join converted to EXISTS subquery (Theorem 2: {})",
                    single.reason
                ),
            )
        } else if spec.distinct == Distinct::Distinct {
            Justification::new(
                "§6 (DISTINCT outer)",
                "join converted to EXISTS subquery (outer is DISTINCT; \
                 multiplicity is irrelevant)",
            )
        } else {
            // A duplicate-free join result is NOT a license here: it says
            // nothing about how many S-tuples joined each outer row, and
            // under ALL semantics dropping those copies changes the result.
            continue;
        };

        // Rebuild the outer block without the victim.
        let mut outer = spec.clone();
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
        return Some((outer, why));
    }
    None
}

/// Visit attribute references *inside subqueries* of `e`, reporting
/// `(below, up, idx)` where `below` is how many block boundaries separate
/// the reference from `e`'s own block — so `up == below` means the
/// reference points at `e`'s block.
pub(crate) fn visit_subquery_refs(e: &BoundExpr, f: &mut impl FnMut(usize, usize, usize)) {
    match e {
        BoundExpr::Exists { subquery, .. } | BoundExpr::InSubquery { subquery, .. } => {
            if let Some(p) = &subquery.predicate {
                let mut clone = p.clone();
                crate::rewrite::util::map_attr_refs(&mut clone, &mut |d, a| {
                    f(d + 1, a.up, a.idx);
                });
            }
        }
        BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
            visit_subquery_refs(a, f);
            visit_subquery_refs(b, f);
        }
        BoundExpr::Not(a) => visit_subquery_refs(a, f),
        _ => {}
    }
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
    fn example_7_theorem_2_merge() {
        // Subquery pins PARTS' full key → merge without DISTINCT.
        let spec = spec_of(
            "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S \
             WHERE S.SNAME = :SUPPLIER-NAME AND EXISTS \
             (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)",
        );
        let (merged, why) = subquery_to_join(&spec, UniquenessTest::Both).unwrap();
        assert!(why.contains("Theorem 2"), "{why}");
        assert_eq!(merged.distinct, Distinct::All);
        assert_eq!(merged.from.len(), 2);
        assert_eq!(merged.from[1].binding.as_str(), "P");
        assert_eq!(merged.from[1].offset, 5);
        // Hoisted predicate: S.SNO = P.SNO becomes #0 = #5.
        let pred = merged.predicate.as_ref().unwrap();
        let atoms = pred.conjuncts();
        assert_eq!(atoms.len(), 3); // SNAME = :h, S.SNO = P.SNO, P.PNO = :p
    }

    #[test]
    fn example_8_corollary_1_merge_adds_distinct() {
        // Subquery does NOT pin a key (many red parts per supplier), but
        // the outer block projects SUPPLIER's key → Corollary 1.
        let spec = spec_of(
            "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
        );
        let (merged, why) = subquery_to_join(&spec, UniquenessTest::Both).unwrap();
        assert!(why.contains("Corollary 1"), "{why}");
        assert_eq!(merged.distinct, Distinct::Distinct);
        assert_eq!(merged.from.len(), 2);
    }

    #[test]
    fn no_merge_when_duplicates_would_appear() {
        // Outer projects a non-key and is ALL; subquery unbounded → the
        // merge would change multiplicities.
        let spec = spec_of(
            "SELECT ALL S.SNAME FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
        );
        assert!(subquery_to_join(&spec, UniquenessTest::Both).is_none());
    }

    #[test]
    fn distinct_outer_always_merges() {
        let spec = spec_of(
            "SELECT DISTINCT S.SNAME FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
        );
        let (merged, why) = subquery_to_join(&spec, UniquenessTest::Both).unwrap();
        assert!(why.contains("DISTINCT"), "{why}");
        assert_eq!(merged.distinct, Distinct::Distinct);
    }

    #[test]
    fn not_exists_is_never_merged() {
        let spec = spec_of(
            "SELECT ALL S.SNO FROM SUPPLIER S WHERE NOT EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.PNO = :X)",
        );
        assert!(subquery_to_join(&spec, UniquenessTest::Both).is_none());
    }

    #[test]
    fn binding_collision_renames() {
        let spec = spec_of(
            "SELECT ALL P.PNO FROM PARTS P WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = 1 AND P.PNO = 2)",
        );
        // Inner block's P shadows outer P; subquery pins PARTS key → merge.
        let (merged, _) = subquery_to_join(&spec, UniquenessTest::Both).unwrap();
        assert_eq!(merged.from[1].binding.as_str(), "P_2");
    }

    #[test]
    fn example_10_join_to_subquery() {
        // Paper Example 10: join on key + PNO pinned → nested form.
        let spec = spec_of(
            "SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS \
             FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.PNO = :PARTNO",
        );
        let (rw, why) = join_to_subquery(&spec).unwrap();
        assert!(why.contains("Theorem 2"), "{why}");
        assert_eq!(rw.from.len(), 1);
        let pred = rw.predicate.as_ref().unwrap();
        let exists = pred
            .conjuncts()
            .into_iter()
            .find(|c| matches!(c, BoundExpr::Exists { .. }))
            .expect("an EXISTS conjunct");
        match exists {
            BoundExpr::Exists { subquery, .. } => {
                assert_eq!(subquery.from[0].binding.as_str(), "P");
                // Correlation: S.SNO (outer #0) = P.SNO (local #0).
                let atoms = subquery.predicate.as_ref().unwrap().conjuncts();
                assert_eq!(atoms.len(), 2);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn join_to_subquery_requires_license() {
        // ALL outer, non-single-tuple inner: pushing PARTS down would drop
        // duplicate SNAME rows.
        let spec = spec_of(
            "SELECT ALL S.SNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        assert!(join_to_subquery(&spec).is_none());
    }

    #[test]
    fn join_to_subquery_with_distinct_outer() {
        let spec = spec_of(
            "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let (rw, _) = join_to_subquery(&spec).unwrap();
        assert_eq!(rw.from.len(), 1);
        assert_eq!(rw.distinct, Distinct::Distinct);
    }

    #[test]
    fn projected_table_is_not_pushed_down() {
        let spec = spec_of(
            "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO",
        );
        assert!(join_to_subquery(&spec).is_none());
    }
}
