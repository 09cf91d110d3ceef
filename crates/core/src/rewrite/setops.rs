//! Rules 3 and 4: `INTERSECT [ALL]` → `EXISTS` (§5.3, Theorem 3 /
//! Corollary 2) and `EXCEPT [ALL]` → `NOT EXISTS` (the extension the paper
//! mentions but omits for space).
//!
//! The crux the paper stresses: set operators compare tuples with the
//! null-aware `=̇` (`NULL =̇ NULL` is *true*), while a `WHERE` clause
//! compares with three-valued `=`. Moving the matching into a correlation
//! predicate therefore requires, for each output column `X`,
//!
//! ```sql
//! (R.X IS NULL AND S.X IS NULL) OR R.X = S.X
//! ```
//!
//! — a plain equi-predicate is correct only for columns that can never be
//! `NULL` (the paper notes Starburst's Rule 8 overlooked this). The rule
//! emits the plain form exactly when both compared columns are declared
//! non-nullable.
//!
//! Validity:
//!
//! * `INTERSECT` (distinct): rewrite over the duplicate-free operand
//!   (Theorem 3; the operator is symmetric so either side may lead). If
//!   neither operand is provably duplicate-free the rewrite still holds
//!   with a `DISTINCT` on the outer block — an extension we apply and
//!   flag.
//! * `INTERSECT ALL`: requires a duplicate-free operand (Corollary 2).
//!   With `|t|_L = j`, `|t|_R = k` and, say, R duplicate-free (`k ≤ 1`),
//!   `min(j, k)` is 1 exactly when `k = 1` and `j ≥ 1` — the rows of R
//!   that have an L-match.
//! * `EXCEPT` (distinct): over a duplicate-free left operand, `NOT
//!   EXISTS`; otherwise valid with an added outer `DISTINCT` (extension).
//!   Not symmetric — the left operand must lead.
//! * `EXCEPT ALL`: requires the **left** operand duplicate-free
//!   (`max(j − k, 0)` with `j ≤ 1` is `1` iff `j = 1 ∧ k = 0`).

use crate::rewrite::distinct::UniquenessTest;
use crate::rewrite::util::rebuild_predicate;
use crate::rules::{Justification, RewriteRule, RuleContext};
use uniq_plan::{AttrRef, BScalar, BoundExpr, BoundQuery, BoundSpec};
use uniq_sql::{CmpOp, Distinct, SetOp};

/// Is this block's result free of duplicate rows (either declared
/// `DISTINCT` or provable via Theorem 1)?
fn block_is_duplicate_free(spec: &BoundSpec, cx: &mut RuleContext) -> Option<String> {
    if spec.distinct == Distinct::Distinct {
        return Some("the block already eliminates duplicates".into());
    }
    cx.is_provably_unique(spec)
}

/// Build the null-aware correlation predicate matching `outer`'s projected
/// columns (referenced one level up) against `inner`'s (local).
fn correlation_predicate(outer: &BoundSpec, inner: &BoundSpec) -> Option<BoundExpr> {
    let atoms: Vec<BoundExpr> = outer
        .projection
        .iter()
        .zip(&inner.projection)
        .map(|(o, i)| {
            let o_ref = BScalar::Attr(AttrRef { up: 1, idx: o.attr });
            let i_ref = BScalar::Attr(AttrRef::local(i.attr));
            let eq = BoundExpr::Cmp {
                op: CmpOp::Eq,
                left: o_ref.clone(),
                right: i_ref.clone(),
            };
            let o_nullable = attr_nullable(outer, o.attr);
            let i_nullable = attr_nullable(inner, i.attr);
            if o_nullable || i_nullable {
                // (o IS NULL AND i IS NULL) OR o = i  — the =̇ operator.
                BoundExpr::or(
                    BoundExpr::and(
                        BoundExpr::IsNull {
                            scalar: o_ref,
                            negated: false,
                        },
                        BoundExpr::IsNull {
                            scalar: i_ref,
                            negated: false,
                        },
                    ),
                    eq,
                )
            } else {
                // Both non-nullable: the plain equi-predicate suffices
                // (paper footnote 1).
                eq
            }
        })
        .collect();
    BoundExpr::conjoin(atoms)
}

fn attr_nullable(spec: &BoundSpec, attr: usize) -> bool {
    match spec.attr_owner(attr) {
        Some((t, c)) => t.schema.columns[c].nullable,
        None => true,
    }
}

/// Rewrite `outer <op> inner` into `outer` filtered by a correlated
/// `[NOT] EXISTS (inner)` subquery.
fn fuse(outer: &BoundSpec, inner: &BoundSpec, negated: bool, force_distinct: bool) -> BoundSpec {
    let mut sub = inner.clone();
    // The inner block's own predicate is extended with the correlation;
    // its references are untouched (it keeps its own block).
    let corr = correlation_predicate(outer, inner);
    let mut sub_conjuncts: Vec<BoundExpr> = Vec::new();
    if let Some(p) = sub.predicate.take() {
        // Its refs gain one enclosing block? No: the inner block stays a
        // block; only its *position* changes (operand → subquery), which
        // does not alter local references, and the paper's class has no
        // correlated references inside set-operation operands.
        sub_conjuncts.push(p);
    }
    if let Some(c) = corr {
        sub_conjuncts.push(c);
    }
    sub.predicate = rebuild_predicate(sub_conjuncts);

    let mut result = outer.clone();
    if force_distinct {
        result.distinct = Distinct::Distinct;
    }
    let exists = BoundExpr::Exists {
        negated,
        subquery: Box::new(sub),
    };
    result.predicate = Some(match result.predicate.take() {
        Some(p) => BoundExpr::and(p, exists),
        None => exists,
    });
    result
}

/// Rule 3: Theorem 3 / Corollary 2 — rewrite an `INTERSECT [ALL]` whose
/// operands are plain blocks into an `EXISTS` filter over one operand.
/// The single code path is [`RewriteRule::apply_query`];
/// [`intersect_to_exists`] is a thin shim over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntersectToExists;

impl RewriteRule for IntersectToExists {
    fn name(&self) -> &'static str {
        "intersect-to-exists"
    }

    fn theorem(&self) -> &'static str {
        "Theorem 3 / Corollary 2"
    }

    fn apply_query(
        &self,
        query: &BoundQuery,
        cx: &mut RuleContext,
    ) -> Option<(BoundQuery, Justification)> {
        let BoundQuery::SetOp {
            op: SetOp::Intersect,
            all,
            left,
            right,
        } = query
        else {
            return None;
        };
        let (l, r) = (left.as_spec()?, right.as_spec()?);
        if let Some(reason) = block_is_duplicate_free(l, cx) {
            let v = fuse(l, r, false, false);
            let just = if *all {
                Justification::new(
                    "Corollary 2",
                    format!("INTERSECT ALL → EXISTS over the left operand (Corollary 2: {reason})"),
                )
            } else {
                Justification::new(
                    "Theorem 3",
                    format!("INTERSECT → EXISTS over the left operand (Theorem 3: {reason})"),
                )
            };
            return Some((BoundQuery::Spec(Box::new(v)), just));
        }
        if let Some(reason) = block_is_duplicate_free(r, cx) {
            let v = fuse(r, l, false, false);
            let just = if *all {
                Justification::new(
                    "Corollary 2",
                    format!(
                        "INTERSECT ALL → EXISTS over the right operand \
                         (Corollary 2, operands interchanged: {reason})"
                    ),
                )
            } else {
                Justification::new(
                    "Theorem 3",
                    format!(
                        "INTERSECT → EXISTS over the right operand \
                         (Theorem 3, operands interchanged: {reason})"
                    ),
                )
            };
            return Some((BoundQuery::Spec(Box::new(v)), just));
        }
        if !*all {
            // Extension: neither operand duplicate-free — still valid for
            // the distinct INTERSECT by adding DISTINCT to the outer block.
            let v = fuse(l, r, false, true);
            return Some((
                BoundQuery::Spec(Box::new(v)),
                Justification::new(
                    "Theorem 3 (extension)",
                    "INTERSECT → EXISTS with added DISTINCT (neither operand is \
                     provably duplicate-free)",
                ),
            ));
        }
        None
    }
}

/// Rule 4: the `EXCEPT [ALL]` → `NOT EXISTS` extension the paper
/// mentions but omits for space. The single code path is
/// [`RewriteRule::apply_query`]; [`except_to_not_exists`] is a thin
/// shim over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExceptToNotExists;

impl RewriteRule for ExceptToNotExists {
    fn name(&self) -> &'static str {
        "except-to-not-exists"
    }

    fn theorem(&self) -> &'static str {
        "Theorem 3 (EXCEPT extension)"
    }

    fn apply_query(
        &self,
        query: &BoundQuery,
        cx: &mut RuleContext,
    ) -> Option<(BoundQuery, Justification)> {
        let BoundQuery::SetOp {
            op: SetOp::Except,
            all,
            left,
            right,
        } = query
        else {
            return None;
        };
        let (l, r) = (left.as_spec()?, right.as_spec()?);
        match block_is_duplicate_free(l, cx) {
            Some(reason) => {
                let v = fuse(l, r, true, false);
                let just = if *all {
                    Justification::new(
                        "Corollary 2 (EXCEPT extension)",
                        format!("EXCEPT ALL → NOT EXISTS (left operand duplicate-free: {reason})"),
                    )
                } else {
                    Justification::new(
                        "Theorem 3 (EXCEPT extension)",
                        format!("EXCEPT → NOT EXISTS (left operand duplicate-free: {reason})"),
                    )
                };
                Some((BoundQuery::Spec(Box::new(v)), just))
            }
            None if !*all => {
                // Distinct EXCEPT tolerates duplicates on the left if the
                // outer projection becomes DISTINCT.
                let v = fuse(l, r, true, true);
                Some((
                    BoundQuery::Spec(Box::new(v)),
                    Justification::new(
                        "Theorem 3 (extension)",
                        "EXCEPT → NOT EXISTS with added DISTINCT (left operand not \
                         provably duplicate-free)",
                    ),
                ))
            }
            None => None,
        }
    }
}

/// Standalone form of [`IntersectToExists`] (a shim over the one
/// context-taking code path, for callers outside the pipeline).
pub fn intersect_to_exists(
    query: &BoundQuery,
    test: UniquenessTest,
) -> Option<(BoundQuery, String)> {
    let mut cx = RuleContext::new(test);
    IntersectToExists
        .apply_query(query, &mut cx)
        .map(|(q, j)| (q, j.detail))
}

/// Standalone form of [`ExceptToNotExists`] (a shim over the one
/// context-taking code path, for callers outside the pipeline).
pub fn except_to_not_exists(
    query: &BoundQuery,
    test: UniquenessTest,
) -> Option<(BoundQuery, String)> {
    let mut cx = RuleContext::new(test);
    ExceptToNotExists
        .apply_query(query, &mut cx)
        .map(|(q, j)| (q, j.detail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_schema;
    use uniq_plan::bind_query;
    use uniq_sql::parse_query;

    fn bound(sql: &str) -> BoundQuery {
        let db = supplier_schema().unwrap();
        bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap()
    }

    const EXAMPLE_9: &str = "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
         INTERSECT \
         SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'";

    #[test]
    fn example_9_intersect_to_exists() {
        let q = bound(EXAMPLE_9);
        let (rw, why) = intersect_to_exists(&q, UniquenessTest::Both).unwrap();
        assert!(why.contains("Theorem 3"), "{why}");
        let spec = rw.as_spec().unwrap();
        // Left operand leads (SNO is SUPPLIER's key → duplicate-free).
        assert_eq!(spec.from[0].binding.as_str(), "S");
        assert_eq!(spec.distinct, Distinct::All);
        let conjuncts = spec.predicate.as_ref().unwrap().conjuncts();
        let exists = conjuncts.last().unwrap();
        match exists {
            BoundExpr::Exists { negated, subquery } => {
                assert!(!negated);
                // Correlation on the projected SNO columns. Both are
                // declared NOT NULL (keys), so the plain equi-predicate
                // suffices — paper footnote 1.
                let sub_conjuncts = subquery.predicate.as_ref().unwrap().conjuncts();
                let corr = sub_conjuncts.last().unwrap();
                assert!(
                    matches!(corr, BoundExpr::Cmp { op: CmpOp::Eq, .. }),
                    "{corr:?}"
                );
            }
            other => panic!("expected EXISTS, got {other:?}"),
        }
    }

    #[test]
    fn nullable_columns_get_null_aware_correlation() {
        // OEM-PNO is nullable: correlation must use the =̇ form.
        let q = bound(
            "SELECT ALL P.OEM-PNO FROM PARTS P \
             INTERSECT \
             SELECT ALL P.OEM-PNO FROM PARTS P WHERE P.COLOR = 'RED'",
        );
        let (rw, _) = intersect_to_exists(&q, UniquenessTest::Both).unwrap();
        let spec = rw.as_spec().unwrap();
        let conjuncts = spec.predicate.as_ref().unwrap().conjuncts();
        let BoundExpr::Exists { subquery, .. } = conjuncts.last().unwrap() else {
            panic!("expected EXISTS");
        };
        let corr = subquery.predicate.as_ref().unwrap().conjuncts();
        let null_aware = corr.last().unwrap();
        // (o IS NULL AND i IS NULL) OR o = i
        assert!(matches!(null_aware, BoundExpr::Or(_, _)), "{null_aware:?}");
    }

    #[test]
    fn intersect_all_requires_a_unique_operand() {
        // Neither operand unique (SNAME / PNAME are not keys): ALL
        // semantics cannot be preserved.
        let q = bound(
            "SELECT ALL S.SNAME FROM SUPPLIER S \
             INTERSECT ALL \
             SELECT ALL P.PNAME FROM PARTS P",
        );
        assert!(intersect_to_exists(&q, UniquenessTest::Both).is_none());
    }

    #[test]
    fn intersect_all_with_unique_right_operand_swaps() {
        let q = bound(
            "SELECT ALL S.SNAME FROM SUPPLIER S \
             INTERSECT ALL \
             SELECT DISTINCT P.PNAME FROM PARTS P",
        );
        let (rw, why) = intersect_to_exists(&q, UniquenessTest::Both).unwrap();
        assert!(why.contains("interchanged"), "{why}");
        let spec = rw.as_spec().unwrap();
        assert_eq!(spec.from[0].binding.as_str(), "P");
    }

    #[test]
    fn plain_intersect_falls_back_to_added_distinct() {
        let q = bound(
            "SELECT ALL S.SNAME FROM SUPPLIER S \
             INTERSECT \
             SELECT ALL P.PNAME FROM PARTS P",
        );
        let (rw, why) = intersect_to_exists(&q, UniquenessTest::Both).unwrap();
        assert!(why.contains("added DISTINCT"), "{why}");
        assert_eq!(rw.as_spec().unwrap().distinct, Distinct::Distinct);
    }

    #[test]
    fn except_uses_not_exists_and_keeps_left() {
        let q = bound(
            "SELECT ALL S.SNO FROM SUPPLIER S \
             EXCEPT \
             SELECT ALL A.SNO FROM AGENTS A",
        );
        let (rw, why) = except_to_not_exists(&q, UniquenessTest::Both).unwrap();
        assert!(why.contains("NOT EXISTS"), "{why}");
        let spec = rw.as_spec().unwrap();
        assert_eq!(spec.from[0].binding.as_str(), "S");
        let conjuncts = spec.predicate.as_ref().map(|p| p.conjuncts()).unwrap();
        assert!(matches!(
            conjuncts.last().unwrap(),
            BoundExpr::Exists { negated: true, .. }
        ));
    }

    #[test]
    fn except_all_requires_unique_left() {
        let q = bound(
            "SELECT ALL S.SNAME FROM SUPPLIER S \
             EXCEPT ALL \
             SELECT ALL P.PNAME FROM PARTS P",
        );
        assert!(except_to_not_exists(&q, UniquenessTest::Both).is_none());
        // Unique RIGHT does not help EXCEPT ALL.
        let q = bound(
            "SELECT ALL S.SNAME FROM SUPPLIER S \
             EXCEPT ALL \
             SELECT DISTINCT P.PNAME FROM PARTS P",
        );
        assert!(except_to_not_exists(&q, UniquenessTest::Both).is_none());
    }

    #[test]
    fn plain_spec_is_not_touched() {
        let q = bound("SELECT ALL S.SNO FROM SUPPLIER S");
        assert!(intersect_to_exists(&q, UniquenessTest::Both).is_none());
        assert!(except_to_not_exists(&q, UniquenessTest::Both).is_none());
    }
}
