//! Rule 6 (paper §7 future work): join elimination via inclusion
//! dependencies.
//!
//! The paper's concluding remarks propose "utilizing inclusion
//! dependencies to prune query graphs, thus implementing King's notion of
//! join elimination". This rule does exactly that for declared foreign
//! keys: in
//!
//! ```sql
//! SELECT P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO
//! ```
//!
//! the join contributes nothing — `PARTS.SNO` is a `NOT NULL` foreign key
//! referencing candidate key `SUPPLIER.SNO`, so *every* `PARTS` row
//! matches **exactly one** `SUPPLIER` row: the join neither drops rows
//! (no `NULL`/dangling references) nor multiplies them (the parent side
//! is a key). The parent table and the join conjuncts can be deleted.
//!
//! Preconditions checked before firing, for parent table `T` joined to
//! child `C`:
//!
//! 1. the projection references no attribute of `T`;
//! 2. every predicate conjunct mentioning `T` (including through
//!    correlated subqueries — then we bail) is an equality
//!    `T.pk_i = C.fk_i`, and those equalities cover the foreign key's
//!    column pairs *exactly* (extra equalities against `T` would
//!    constrain the result and must block the rule);
//! 3. `C` declares a foreign key on exactly those columns referencing a
//!    candidate key of `T` on exactly those parent columns;
//! 4. every referencing column of `C` is declared `NOT NULL` (a nullable
//!    reference row would be dropped by the join but kept after
//!    elimination).

use crate::rewrite::util::{conjuncts_of, rebuild_predicate, reindex_after_removal};
use crate::rules::{Justification, RewriteRule, RuleContext};
use uniq_plan::{BScalar, BoundExpr, BoundSpec};
use uniq_sql::CmpOp;

/// Rule 6: remove one provably-redundant parent table from the block's
/// join. The single code path is [`RewriteRule::apply_spec`];
/// [`eliminate_join`] is a thin shim over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinElimination;

impl RewriteRule for JoinElimination {
    fn name(&self) -> &'static str {
        "join-elimination"
    }

    fn theorem(&self) -> &'static str {
        "§7 (inclusion dependency)"
    }

    fn apply_spec(
        &self,
        spec: &BoundSpec,
        _cx: &mut RuleContext,
    ) -> Option<(BoundSpec, Justification)> {
        eliminate_join_impl(spec)
    }
}

/// Standalone form of [`JoinElimination`] (a shim over the one
/// context-taking code path, for callers outside the pipeline).
pub fn eliminate_join(spec: &BoundSpec) -> Option<(BoundSpec, String)> {
    eliminate_join_impl(spec).map(|(s, j)| (s, j.detail))
}

fn eliminate_join_impl(spec: &BoundSpec) -> Option<(BoundSpec, Justification)> {
    if spec.from.len() < 2 {
        return None;
    }
    'parents: for parent_idx in 0..spec.from.len() {
        let parent = &spec.from[parent_idx];
        let parent_range = parent.attr_range();
        // 1. Projection must not use the parent.
        if spec
            .projection
            .iter()
            .any(|p| parent_range.contains(&p.attr))
        {
            continue;
        }

        // 2. Partition conjuncts; collect the equality pairs on T.
        let conjuncts = conjuncts_of(spec);
        let mut join_pairs: Vec<(usize, usize)> = Vec::new(); // (parent col, child attr)
        let mut kept: Vec<BoundExpr> = Vec::new();
        for c in &conjuncts {
            let mut mentions = false;
            c.visit_local_attrs(&mut |a| {
                if parent_range.contains(&a) {
                    mentions = true;
                }
            });
            // A subquery referencing the parent blocks elimination.
            let mut sub_mentions = false;
            visit_subquery_local_refs(c, &mut |idx| {
                if parent_range.contains(&idx) {
                    sub_mentions = true;
                }
            });
            if sub_mentions {
                continue 'parents;
            }
            if !mentions {
                kept.push(c.clone());
                continue;
            }
            // Must be a plain local equality T.col = other.col.
            let BoundExpr::Cmp {
                op: CmpOp::Eq,
                left,
                right,
            } = c
            else {
                continue 'parents;
            };
            let (BScalar::Attr(a), BScalar::Attr(b)) = (left, right) else {
                continue 'parents;
            };
            if !a.is_local() || !b.is_local() {
                continue 'parents;
            }
            let (t_attr, o_attr) =
                if parent_range.contains(&a.idx) && !parent_range.contains(&b.idx) {
                    (a.idx, b.idx)
                } else if parent_range.contains(&b.idx) && !parent_range.contains(&a.idx) {
                    (b.idx, a.idx)
                } else {
                    // T = T or T = constant — constrains the parent.
                    continue 'parents;
                };
            let pair = (t_attr - parent_range.start, o_attr);
            if !join_pairs.contains(&pair) {
                join_pairs.push(pair);
            }
        }
        if join_pairs.is_empty() {
            continue;
        }

        // All pairs must target one child table.
        let (child, _) = spec.attr_owner(join_pairs[0].1)?;
        let child_range = child.attr_range();
        if !join_pairs.iter().all(|(_, o)| child_range.contains(o)) {
            continue;
        }

        // 3. Find a foreign key of the child matching the pairs exactly.
        let fk = child.schema.foreign_keys().find(|fk| {
            if fk.parent != parent.schema.name || fk.columns.len() != join_pairs.len() {
                return false;
            }
            fk.columns.iter().zip(&fk.parent_columns).all(|(&cc, pc)| {
                let Ok(pp) = parent.schema.column_position(pc) else {
                    return false;
                };
                join_pairs.contains(&(pp, child_range.start + cc))
            })
        })?;

        // FK must reference a candidate key of the parent (enforced at
        // DDL time; re-checked here because schemas travel by value).
        let mut parent_positions: Vec<usize> = fk
            .parent_columns
            .iter()
            .filter_map(|c| parent.schema.column_position(c).ok())
            .collect();
        parent_positions.sort_unstable();
        if !parent
            .schema
            .candidate_keys()
            .any(|k| k.columns == parent_positions)
        {
            continue;
        }

        // 4. Referencing columns must be NOT NULL.
        if fk.columns.iter().any(|&c| child.schema.columns[c].nullable) {
            continue;
        }

        // Fire: drop the parent table and the join conjuncts.
        let removed_width = parent.schema.arity();
        let why = Justification::new(
            "§7 (inclusion dependency)",
            format!(
                "join elimination (§7, inclusion dependency): every {} row references \
                 exactly one {} row through its NOT NULL foreign key, so the join \
                 neither filters nor multiplies",
                child.binding, parent.binding
            ),
        );
        let mut out = spec.clone();
        out.from.remove(parent_idx);
        for t in out.from.iter_mut() {
            if t.offset >= parent_range.end {
                t.offset -= removed_width;
            }
        }
        for p in out.projection.iter_mut() {
            if p.attr >= parent_range.end {
                p.attr -= removed_width;
            }
        }
        let mut new_conjuncts = Vec::with_capacity(kept.len());
        for mut c in kept {
            reindex_after_removal(&mut c, parent_range.clone(), removed_width);
            new_conjuncts.push(c);
        }
        out.predicate = rebuild_predicate(new_conjuncts);
        return Some((out, why));
    }
    None
}

/// Visit local-attr references that sit *inside subqueries* of `e` but
/// point back at `e`'s own block.
fn visit_subquery_local_refs(e: &BoundExpr, f: &mut impl FnMut(usize)) {
    match e {
        BoundExpr::Exists { subquery, .. } | BoundExpr::InSubquery { subquery, .. } => {
            if let Some(p) = &subquery.predicate {
                let mut clone = p.clone();
                crate::rewrite::util::map_attr_refs(&mut clone, &mut |d, a| {
                    if a.up == d + 1 {
                        f(a.idx);
                    }
                });
            }
        }
        BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
            visit_subquery_local_refs(a, f);
            visit_subquery_local_refs(b, f);
        }
        BoundExpr::Not(a) => visit_subquery_local_refs(a, f),
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
    fn eliminates_fk_parent_join() {
        let spec =
            spec_of("SELECT ALL P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO");
        let (out, why) = eliminate_join(&spec).unwrap();
        assert!(why.contains("join elimination"), "{why}");
        assert_eq!(out.from.len(), 1);
        assert_eq!(out.from[0].binding.as_str(), "P");
        assert_eq!(out.from[0].offset, 0);
        assert!(out.predicate.is_none());
        // Projection reindexed: P.PNO was attr 6, now 1.
        assert_eq!(out.projection[0].attr, 1);
    }

    #[test]
    fn parent_in_projection_blocks() {
        let spec =
            spec_of("SELECT ALL S.SNAME, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO");
        assert!(eliminate_join(&spec).is_none());
    }

    #[test]
    fn extra_parent_restriction_blocks() {
        let spec = spec_of(
            "SELECT ALL P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND S.SCITY = 'Toronto'",
        );
        assert!(eliminate_join(&spec).is_none());
    }

    #[test]
    fn non_fk_join_columns_block() {
        // Joining on a non-FK pair (SNAME vs PNAME) must not fire.
        let spec = spec_of("SELECT ALL P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNAME = P.PNAME");
        assert!(eliminate_join(&spec).is_none());
    }

    #[test]
    fn child_filters_do_not_block() {
        let spec = spec_of(
            "SELECT ALL P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let (out, _) = eliminate_join(&spec).unwrap();
        assert_eq!(out.from.len(), 1);
        // COLOR filter survives, reindexed.
        let atoms = out.predicate.as_ref().unwrap().conjuncts();
        assert_eq!(atoms.len(), 1);
    }

    #[test]
    fn nullable_fk_blocks() {
        let mut db = uniq_catalog::Database::new();
        db.run_script(
            "CREATE TABLE PT (K INTEGER, PRIMARY KEY (K));
             CREATE TABLE CT (C INTEGER, R INTEGER, PRIMARY KEY (C),
               FOREIGN KEY (R) REFERENCES PT (K));",
        )
        .unwrap();
        // R is nullable: rows with R = NULL are dropped by the join but
        // kept after elimination → must not fire.
        let bound = bind_query(
            db.catalog(),
            &parse_query("SELECT ALL CT.C FROM PT, CT WHERE PT.K = CT.R").unwrap(),
        )
        .unwrap();
        assert!(eliminate_join(bound.as_spec().unwrap()).is_none());
    }

    #[test]
    fn subquery_reference_to_parent_blocks() {
        let spec = spec_of(
            "SELECT ALL P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND EXISTS \
             (SELECT * FROM AGENTS A WHERE A.SNO = S.SNO)",
        );
        assert!(eliminate_join(&spec).is_none());
    }

    #[test]
    fn agents_parent_also_eliminable() {
        let spec = spec_of("SELECT ALL A.ANAME FROM SUPPLIER S, AGENTS A WHERE A.SNO = S.SNO");
        let (out, _) = eliminate_join(&spec).unwrap();
        assert_eq!(out.from[0].binding.as_str(), "A");
    }

    #[test]
    fn no_join_predicate_no_elimination() {
        // A pure Cartesian product multiplies rows — never eliminable.
        let spec = spec_of("SELECT ALL P.PNO FROM SUPPLIER S, PARTS P");
        assert!(eliminate_join(&spec).is_none());
    }
}
