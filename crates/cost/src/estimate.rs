//! The cardinality estimator.
//!
//! Selectivities follow the classic System R catalogue, adapted to the
//! paper's vocabulary: a Type-1 conjunct (`col = const`) selects
//! `1/ndv(col)` of its table, a Type-2 conjunct (`col = col`) selects
//! `1/max(ndv, ndv)` of the cross product, ranges select a third,
//! `IS NULL` selects the measured null fraction, and `AND`/`OR`/`NOT`
//! combine under independence. Subquery predicates are opaque and get
//! the neutral `1/2`.
//!
//! On top of the guesses sit two *provable* facts:
//!
//! * [`Estimator::unique_output_bound`] — if Algorithm 1 or the
//!   FD-closure test proves a block duplicate-free, its output tuples
//!   are pairwise distinct over the projected columns, so the output
//!   cardinality is at most the product of those columns' active
//!   domains (`ndv + 1` for a nullable bucket, under `=̇`). No estimate,
//!   however wrong, may exceed it.
//! * key-covered joins (detected by the planner): if a join's equality
//!   keys cover a candidate key of the inner table, each outer row
//!   matches at most one inner row, so the join emits at most the outer
//!   side.

use crate::stats::{ColumnStats, Statistics};
use uniq_core::rewrite::distinct::{is_provably_unique, UniquenessTest};
use uniq_plan::{BScalar, BoundExpr, BoundQuery, BoundSpec};
use uniq_sql::{CmpOp, SetOp};
use uniq_types::TableName;

/// Rows assumed for a table with no collected statistics.
pub const DEFAULT_TABLE_ROWS: f64 = 1000.0;
/// Distinct values assumed for a column with no collected statistics.
pub const DEFAULT_NDV: f64 = 10.0;
/// Selectivity of predicates the estimator cannot see through
/// (subqueries, comparisons between two constants, …).
pub const DEFAULT_SELECTIVITY: f64 = 0.5;
/// Selectivity of an inequality range conjunct (`<`, `<=`, `>`, `>=`).
pub const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Selectivity of a `BETWEEN` conjunct.
pub const BETWEEN_SELECTIVITY: f64 = 0.25;

/// Cardinality estimation over collected [`Statistics`].
#[derive(Debug, Clone, Copy)]
pub struct Estimator<'a> {
    stats: &'a Statistics,
}

impl<'a> Estimator<'a> {
    /// An estimator reading from `stats`.
    pub fn new(stats: &'a Statistics) -> Estimator<'a> {
        Estimator { stats }
    }

    /// Estimated row count of a stored table.
    pub fn table_rows(&self, name: &TableName) -> f64 {
        self.stats
            .table(name)
            .map(|t| t.rows as f64)
            .unwrap_or(DEFAULT_TABLE_ROWS)
    }

    /// Statistics for the column behind product attribute `idx` of
    /// `spec`, if collected.
    fn attr_column(&self, spec: &BoundSpec, idx: usize) -> Option<&ColumnStats> {
        let (table, position) = spec.attr_owner(idx)?;
        self.stats.column(&table.schema.name, position)
    }

    /// Distinct non-null values of attribute `idx`, at least one.
    pub fn attr_ndv(&self, spec: &BoundSpec, idx: usize) -> f64 {
        self.attr_column(spec, idx)
            .map(|c| (c.ndv as f64).max(1.0))
            .unwrap_or(DEFAULT_NDV)
    }

    /// Active-domain size of attribute `idx` under `=̇` (distinct
    /// non-null values plus a `NULL` bucket when the column has nulls),
    /// at least one.
    pub fn attr_domain(&self, spec: &BoundSpec, idx: usize) -> f64 {
        self.attr_column(spec, idx)
            .map(|c| (c.domain() as f64).max(1.0))
            .unwrap_or(DEFAULT_NDV)
    }

    /// Estimated selectivity of one predicate over the block's cross
    /// product, in `[0, 1]`.
    pub fn selectivity(&self, spec: &BoundSpec, e: &BoundExpr) -> f64 {
        let s = match e {
            BoundExpr::Cmp { op, left, right } => self.cmp_selectivity(spec, *op, left, right),
            BoundExpr::Between { negated, .. } => flip(BETWEEN_SELECTIVITY, *negated),
            BoundExpr::InList {
                scalar,
                list,
                negated,
            } => {
                let s = match local_attr(scalar) {
                    Some(idx) => (list.len() as f64 / self.attr_ndv(spec, idx)).min(1.0),
                    None => DEFAULT_SELECTIVITY,
                };
                flip(s, *negated)
            }
            BoundExpr::IsNull { scalar, negated } => {
                let s = local_attr(scalar)
                    .and_then(|idx| {
                        let (table, position) = spec.attr_owner(idx)?;
                        let stats = self.stats.table(&table.schema.name)?;
                        let col = stats.columns.get(position)?;
                        Some(if stats.rows == 0 {
                            0.0
                        } else {
                            col.nulls as f64 / stats.rows as f64
                        })
                    })
                    .unwrap_or(DEFAULT_SELECTIVITY);
                flip(s, *negated)
            }
            // Subquery membership is opaque to the estimator.
            BoundExpr::Exists { .. } | BoundExpr::InSubquery { .. } => DEFAULT_SELECTIVITY,
            BoundExpr::And(a, b) => self.selectivity(spec, a) * self.selectivity(spec, b),
            BoundExpr::Or(a, b) => {
                let (sa, sb) = (self.selectivity(spec, a), self.selectivity(spec, b));
                sa + sb - sa * sb
            }
            BoundExpr::Not(a) => 1.0 - self.selectivity(spec, a),
        };
        s.clamp(0.0, 1.0)
    }

    fn cmp_selectivity(&self, spec: &BoundSpec, op: CmpOp, left: &BScalar, right: &BScalar) -> f64 {
        match op {
            CmpOp::Eq | CmpOp::Ne => {
                let s = match (local_attr(left), local_attr(right)) {
                    // Type-2: col = col → 1/max(ndv, ndv).
                    (Some(l), Some(r)) => 1.0 / self.attr_ndv(spec, l).max(self.attr_ndv(spec, r)),
                    // Type-1: col = const (literals, host variables and
                    // correlated outer attributes all bind to one value
                    // per evaluation). A NULL literal never matches.
                    (Some(idx), None) | (None, Some(idx)) => {
                        if is_null_literal(left) || is_null_literal(right) {
                            0.0
                        } else {
                            1.0 / self.attr_ndv(spec, idx)
                        }
                    }
                    (None, None) => DEFAULT_SELECTIVITY,
                };
                flip(s, op == CmpOp::Ne)
            }
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => RANGE_SELECTIVITY,
        }
    }

    /// The largest number of pairwise-distinct output tuples the
    /// projection admits: the product, over the `FROM` entries, of that
    /// entry's projected columns' active domains, each entry's factor
    /// capped at its table's row count. The cap is a key bound (Chen and
    /// Schneider's SPJU bounds): an output tuple's columns from one entry
    /// come from one row of it, so they take at most as many values as
    /// the table has rows. Two aliases of one table count separately.
    pub fn projection_domain(&self, spec: &BoundSpec) -> f64 {
        let mut factors: Vec<Option<f64>> = vec![None; spec.from.len()];
        let mut other = 1.0;
        for p in &spec.projection {
            let domain = self.attr_domain(spec, p.attr);
            match spec.table_of(p.attr) {
                Some(t) => *factors[t].get_or_insert(1.0) *= domain,
                None => other *= domain,
            }
        }
        (spec.from.iter().zip(factors))
            .filter_map(|(t, f)| Some(f?.min(self.table_rows(&t.schema.name))))
            .product::<f64>()
            * other
    }

    /// The uniqueness-derived hard upper bound on the block's output
    /// cardinality: `Some(Π domain(projected column))` when Algorithm 1
    /// or the FD-closure test proves the block duplicate-free, `None`
    /// otherwise. Provably sound: a duplicate-free block's output rows
    /// are pairwise distinct tuples over the projected columns, and
    /// there are only that many such tuples drawn from the stored
    /// (active) domains.
    pub fn unique_output_bound(&self, spec: &BoundSpec) -> Option<f64> {
        is_provably_unique(spec, UniquenessTest::Both)?;
        Some(self.projection_domain(spec))
    }

    /// Per-output-column active-domain sizes of a whole query tree —
    /// the SPJU extension of [`Estimator::projection_domain`]. A block
    /// contributes its projected columns' stored domains; a set
    /// operation combines the operands' domains column-wise: a `UNION`
    /// output value comes from either side (`dom_l + dom_r` is an upper
    /// bound on the merged value set), an `INTERSECT` value from both
    /// (`min`), an `EXCEPT` value only from the left. `ALL` never
    /// changes the domains — only how many copies of each value
    /// survive.
    pub fn output_domains(&self, query: &BoundQuery) -> Vec<f64> {
        match query {
            BoundQuery::Spec(spec) => spec
                .projection
                .iter()
                .map(|p| self.attr_domain(spec, p.attr))
                .collect(),
            BoundQuery::SetOp {
                op, left, right, ..
            } => {
                let l = self.output_domains(left);
                let r = self.output_domains(right);
                l.iter()
                    .zip(&r)
                    .map(|(a, b)| match op {
                        SetOp::Union => a + b,
                        SetOp::Intersect => a.min(*b),
                        SetOp::Except => *a,
                    })
                    .collect()
            }
        }
    }

    /// The uniqueness-derived **hard** upper bound on a whole query
    /// tree's output cardinality, `UNION`-aware (Chen–Schneider SPJU
    /// bounds). Every arm is provable, never a guess:
    ///
    /// * a block is bounded when it is duplicate-free — declared
    ///   `DISTINCT` or proved by [`Estimator::unique_output_bound`] —
    ///   by the product of its projected domains;
    /// * `UNION ALL` concatenates: the sum of the operand bounds, when
    ///   both exist;
    /// * `UNION` (distinct) is duplicate-free *by definition*: bounded
    ///   by the product of its column-wise merged domains even when
    ///   neither operand has a bound of its own, and by the operand sum
    ///   when both do;
    /// * `INTERSECT [ALL]` emits `min(j, k)` copies per value: any
    ///   operand's bound caps it, plus the domain product when distinct;
    /// * `EXCEPT [ALL]` emits at most the left operand, plus the domain
    ///   product when distinct.
    pub fn query_hard_bound(&self, query: &BoundQuery) -> Option<f64> {
        match query {
            BoundQuery::Spec(spec) => {
                if spec.distinct == uniq_sql::Distinct::Distinct {
                    Some(self.projection_domain(spec))
                } else {
                    self.unique_output_bound(spec)
                }
            }
            BoundQuery::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let lb = self.query_hard_bound(left);
                let rb = self.query_hard_bound(right);
                let domains: f64 = self.output_domains(query).iter().product();
                match (op, all) {
                    (SetOp::Union, true) => Some(lb? + rb?),
                    (SetOp::Union, false) => Some(match (lb, rb) {
                        (Some(l), Some(r)) => (l + r).min(domains),
                        _ => domains,
                    }),
                    (SetOp::Intersect, all) => {
                        let side = match (lb, rb) {
                            (Some(l), Some(r)) => Some(l.min(r)),
                            (one, None) | (None, one) => one,
                        };
                        if *all {
                            side
                        } else {
                            Some(side.map_or(domains, |s| s.min(domains)))
                        }
                    }
                    (SetOp::Except, true) => lb,
                    (SetOp::Except, false) => Some(lb.map_or(domains, |l| l.min(domains))),
                }
            }
        }
    }
}

/// The product-attribute index a scalar reads, when it is an attribute
/// of the current block (not correlated, not a constant).
fn local_attr(s: &BScalar) -> Option<usize> {
    match s {
        BScalar::Attr(a) if a.is_local() => Some(a.idx),
        _ => None,
    }
}

fn is_null_literal(s: &BScalar) -> bool {
    matches!(s, BScalar::Literal(v) if v.is_null())
}

fn flip(s: f64, negated: bool) -> f64 {
    if negated {
        1.0 - s
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_database;
    use uniq_plan::{bind_query, BoundQuery};
    use uniq_sql::parse_query;

    fn spec_of(sql: &str) -> (Statistics, BoundQuery) {
        let db = supplier_database().unwrap();
        let stats = Statistics::collect(&db);
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        (stats, q)
    }

    fn first_conjunct_selectivity(sql: &str) -> f64 {
        let (stats, q) = spec_of(sql);
        let spec = q.as_spec().unwrap();
        let est = Estimator::new(&stats);
        let pred = spec.predicate.as_ref().unwrap();
        est.selectivity(spec, pred.conjuncts()[0])
    }

    #[test]
    fn type_1_selectivity_is_inverse_ndv() {
        // COLOR has 3 distinct values.
        let s = first_conjunct_selectivity("SELECT P.PNO FROM PARTS P WHERE P.COLOR = 'RED'");
        assert!((s - 1.0 / 3.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn type_2_selectivity_uses_larger_ndv() {
        // SUPPLIER.SNO has 5 distinct values, PARTS.SNO has 4.
        let s =
            first_conjunct_selectivity("SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO");
        assert!((s - 1.0 / 5.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn is_null_selectivity_is_measured_fraction() {
        // PARTS.OEM-PNO has exactly one NULL in seven rows.
        let s = first_conjunct_selectivity("SELECT P.PNO FROM PARTS P WHERE P.OEM-PNO IS NULL");
        assert!((s - 1.0 / 7.0).abs() < 1e-9, "{s}");
        let not_null =
            first_conjunct_selectivity("SELECT P.PNO FROM PARTS P WHERE P.OEM-PNO IS NOT NULL");
        assert!((not_null - 6.0 / 7.0).abs() < 1e-9, "{not_null}");
    }

    #[test]
    fn connectives_combine_independently() {
        let s = first_conjunct_selectivity(
            "SELECT P.PNO FROM PARTS P WHERE P.COLOR = 'RED' OR P.COLOR = 'BLUE'",
        );
        let one = 1.0 / 3.0;
        assert!((s - (one + one - one * one)).abs() < 1e-9, "{s}");
        let neg =
            first_conjunct_selectivity("SELECT P.PNO FROM PARTS P WHERE NOT (P.COLOR = 'RED')");
        assert!((neg - (1.0 - one)).abs() < 1e-9, "{neg}");
    }

    #[test]
    fn null_literal_comparison_selects_nothing() {
        let s = first_conjunct_selectivity("SELECT P.PNO FROM PARTS P WHERE P.COLOR = NULL");
        assert_eq!(s, 0.0);
    }

    #[test]
    fn unique_bound_present_exactly_when_provable() {
        // Projecting the whole PARTS key (SNO, PNO) → provably unique.
        let (stats, q) = spec_of("SELECT DISTINCT P.SNO, P.PNO FROM PARTS P");
        let est = Estimator::new(&stats);
        let bound = est.unique_output_bound(q.as_spec().unwrap()).unwrap();
        // Domains: SNO has 4 distinct values, PNO has 5 (10..14), but
        // both come from one PARTS row and the table has 7 rows.
        assert_eq!(bound, 7.0);

        // Projecting COLOR alone → not provable, no bound.
        let (stats2, q2) = spec_of("SELECT DISTINCT P.COLOR FROM PARTS P");
        let est2 = Estimator::new(&stats2);
        assert!(est2.unique_output_bound(q2.as_spec().unwrap()).is_none());
    }

    #[test]
    fn projection_domains_are_capped_by_each_entrys_rows() {
        // Statement 5's shape after Corollary 1: SNO and SNAME have 5
        // values each, but both come from one SUPPLIER row, and the table
        // has 5 rows, so at most 5 distinct tuples, not 25.
        let (stats, q) = spec_of(
            "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S, PARTS P \
             WHERE P.SNO = S.SNO AND P.COLOR = 'RED'",
        );
        let est = Estimator::new(&stats);
        assert_eq!(est.projection_domain(q.as_spec().unwrap()), 5.0);
        // Two aliases of PARTS (7 rows) count separately: each alias's
        // SNO × PNO domain (4 × 5 = 20) is capped at 7.
        let (stats2, q2) =
            spec_of("SELECT DISTINCT P.SNO, P.PNO, Q.SNO, Q.PNO FROM PARTS P, PARTS Q");
        let est2 = Estimator::new(&stats2);
        assert_eq!(est2.projection_domain(q2.as_spec().unwrap()), 49.0);
        // A factor below its table's rows is left alone (3 cities × 3
        // colors).
        let (stats3, q3) = spec_of(
            "SELECT DISTINCT S.SCITY, P.COLOR FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
        );
        let est3 = Estimator::new(&stats3);
        assert_eq!(est3.projection_domain(q3.as_spec().unwrap()), 9.0);
    }

    #[test]
    fn fallbacks_without_statistics() {
        let stats = Statistics::default();
        let est = Estimator::new(&stats);
        assert_eq!(est.table_rows(&"GHOST".into()), DEFAULT_TABLE_ROWS);
    }

    #[test]
    fn union_domains_merge_columnwise() {
        // SCITY: 3 distinct cities; ACITY: 4. The merged UNION domain
        // is their sum.
        let (stats, q) =
            spec_of("SELECT S.SCITY FROM SUPPLIER S UNION SELECT A.ACITY FROM AGENTS A");
        let est = Estimator::new(&stats);
        assert_eq!(est.output_domains(&q), vec![7.0]);
        let BoundQuery::SetOp { left, right, .. } = &q else {
            panic!("expected setop");
        };
        assert_eq!(est.output_domains(left), vec![3.0]);
        assert_eq!(est.output_domains(right), vec![4.0]);
    }

    #[test]
    fn distinct_union_is_bounded_even_with_unbounded_operands() {
        // Neither operand block is distinct or provably unique, so
        // neither has a bound of its own — but UNION deduplicates, so
        // the merged domain product bounds the whole tree.
        let (stats, q) =
            spec_of("SELECT S.SCITY FROM SUPPLIER S UNION SELECT A.ACITY FROM AGENTS A");
        let est = Estimator::new(&stats);
        let BoundQuery::SetOp { left, .. } = &q else {
            panic!("expected setop");
        };
        assert!(est.query_hard_bound(left).is_none());
        assert_eq!(est.query_hard_bound(&q), Some(7.0));
    }

    #[test]
    fn union_all_needs_both_operand_bounds() {
        // UNION ALL concatenates — no dedup, so the domain product does
        // not apply and the bound exists only when both operands have
        // one (here: both blocks declared DISTINCT, bounded by their
        // projected domains 3 and 4).
        let (stats, q) =
            spec_of("SELECT S.SCITY FROM SUPPLIER S UNION ALL SELECT A.ACITY FROM AGENTS A");
        let est = Estimator::new(&stats);
        assert!(est.query_hard_bound(&q).is_none());
        let (stats2, q2) = spec_of(
            "SELECT DISTINCT S.SCITY FROM SUPPLIER S \
             UNION ALL SELECT DISTINCT A.ACITY FROM AGENTS A",
        );
        let est2 = Estimator::new(&stats2);
        assert_eq!(est2.query_hard_bound(&q2), Some(7.0));
    }

    #[test]
    fn intersect_and_except_bounds_follow_their_semantics() {
        // INTERSECT over SNO: min domain is AGENTS' 4 distinct SNOs.
        let (stats, q) =
            spec_of("SELECT S.SNO FROM SUPPLIER S INTERSECT SELECT A.SNO FROM AGENTS A");
        let est = Estimator::new(&stats);
        assert_eq!(est.query_hard_bound(&q), Some(4.0));
        // EXCEPT keeps the left domain (SUPPLIER's 5 SNOs).
        let (stats2, q2) =
            spec_of("SELECT S.SNO FROM SUPPLIER S EXCEPT SELECT A.SNO FROM AGENTS A");
        let est2 = Estimator::new(&stats2);
        assert_eq!(est2.query_hard_bound(&q2), Some(5.0));
        // EXCEPT ALL: bag semantics — only a left-operand bound carries
        // through. A key projection on the left has one (5)…
        let (stats3, q3) =
            spec_of("SELECT S.SNO FROM SUPPLIER S EXCEPT ALL SELECT A.SNO FROM AGENTS A");
        let est3 = Estimator::new(&stats3);
        assert_eq!(est3.query_hard_bound(&q3), Some(5.0));
        // …a non-key projection has none, and EXCEPT ALL adds nothing.
        let (stats4, q4) =
            spec_of("SELECT S.SCITY FROM SUPPLIER S EXCEPT ALL SELECT A.ACITY FROM AGENTS A");
        let est4 = Estimator::new(&stats4);
        assert!(est4.query_hard_bound(&q4).is_none());
    }

    #[test]
    fn provably_unique_block_is_bounded_without_a_distinct() {
        // SELECT S.SNO projects the key: duplicate-free without any
        // DISTINCT, so the block itself carries a hard bound.
        let (stats, q) = spec_of("SELECT S.SNO FROM SUPPLIER S");
        let est = Estimator::new(&stats);
        assert_eq!(est.query_hard_bound(&q), Some(5.0));
        // A non-key projection has no bound.
        let (stats2, q2) = spec_of("SELECT S.SCITY FROM SUPPLIER S");
        let est2 = Estimator::new(&stats2);
        assert!(est2.query_hard_bound(&q2).is_none());
    }
}
