//! Bound (resolved) query representation.
//!
//! A [`BoundSpec`] is the paper's
//! `π_d[A]( σ[C_R ∧ C_S ∧ C_{R,S}](R × S × …) )`: a projection over a
//! selection over the extended Cartesian product of the `FROM` tables.
//! Attributes are numbered left to right across the product — table 0
//! contributes attributes `0 .. arity(0)`, table 1 the next block, and so
//! on. Correlated subqueries reference enclosing blocks through
//! [`AttrRef::up`].

use uniq_catalog::TableSchema;
use uniq_sql::{AggFunc, CmpOp, Distinct, SetOp};
use uniq_types::{ColumnName, DataType, HostVarName, TableName, Value};

/// A resolved attribute reference.
///
/// `up = 0` refers to the current query block's product; `up = 1` to the
/// immediately enclosing block (a correlated reference), and so on.
/// `idx` indexes the flat attribute space of that block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    /// How many query blocks to walk outwards.
    pub up: usize,
    /// Attribute position within that block's Cartesian product.
    pub idx: usize,
}

impl AttrRef {
    /// A reference into the current block.
    pub fn local(idx: usize) -> AttrRef {
        AttrRef { up: 0, idx }
    }

    /// True iff the reference is into the current block.
    pub fn is_local(&self) -> bool {
        self.up == 0
    }
}

/// A bound scalar operand.
#[derive(Debug, Clone, PartialEq)]
pub enum BScalar {
    /// A resolved column.
    Attr(AttrRef),
    /// A literal constant.
    Literal(Value),
    /// A host variable, bound at execution time.
    HostVar(HostVarName),
}

impl BScalar {
    /// The attribute reference if this operand is a column.
    pub fn as_attr(&self) -> Option<AttrRef> {
        match self {
            BScalar::Attr(a) => Some(*a),
            _ => None,
        }
    }

    /// True iff the operand's value is fixed for the whole execution —
    /// a literal or host variable (the paper's "constant").
    pub fn is_constant(&self) -> bool {
        !matches!(self, BScalar::Attr(_))
    }
}

/// A bound search condition. Mirrors `uniq_sql::Expr` with columns
/// resolved; `IN (subquery)` is *not* desugared to `EXISTS` because the two
/// differ under three-valued logic when the tested value or the subquery
/// column is `NULL` (`NOT IN` vs `NOT EXISTS`) — the executor implements
/// `InSubquery` natively with exact SQL semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// `left op right`.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        left: BScalar,
        /// Right operand.
        right: BScalar,
    },
    /// `scalar [NOT] BETWEEN low AND high`.
    Between {
        /// Tested operand.
        scalar: BScalar,
        /// Inclusive lower bound.
        low: BScalar,
        /// Inclusive upper bound.
        high: BScalar,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `scalar [NOT] IN (list…)`.
    InList {
        /// Tested operand.
        scalar: BScalar,
        /// List elements.
        list: Vec<BScalar>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `scalar IS [NOT] NULL`.
    IsNull {
        /// Tested operand.
        scalar: BScalar,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// `NOT EXISTS`.
        negated: bool,
        /// The bound (possibly correlated) subquery block.
        subquery: Box<BoundSpec>,
    },
    /// `scalar [NOT] IN (subquery)`.
    InSubquery {
        /// Tested operand.
        scalar: BScalar,
        /// The bound subquery block; projects exactly one column.
        subquery: Box<BoundSpec>,
        /// `NOT IN`.
        negated: bool,
    },
    /// Conjunction.
    And(Box<BoundExpr>, Box<BoundExpr>),
    /// Disjunction.
    Or(Box<BoundExpr>, Box<BoundExpr>),
    /// Negation.
    Not(Box<BoundExpr>),
}

impl BoundExpr {
    /// `a AND b`.
    pub fn and(a: BoundExpr, b: BoundExpr) -> BoundExpr {
        BoundExpr::And(Box::new(a), Box::new(b))
    }

    /// `a OR b`.
    pub fn or(a: BoundExpr, b: BoundExpr) -> BoundExpr {
        BoundExpr::Or(Box::new(a), Box::new(b))
    }

    /// `NOT a`.
    #[allow(clippy::should_implement_trait)] // associated constructor, not a method
    pub fn not(a: BoundExpr) -> BoundExpr {
        BoundExpr::Not(Box::new(a))
    }

    /// Local attribute equality `#l = #r`.
    pub fn attr_eq_attr(l: usize, r: usize) -> BoundExpr {
        BoundExpr::Cmp {
            op: CmpOp::Eq,
            left: BScalar::Attr(AttrRef::local(l)),
            right: BScalar::Attr(AttrRef::local(r)),
        }
    }

    /// Conjoin a sequence of conditions; `None` for an empty sequence.
    pub fn conjoin(exprs: impl IntoIterator<Item = BoundExpr>) -> Option<BoundExpr> {
        exprs.into_iter().reduce(BoundExpr::and)
    }

    /// Collect the flat list of conjuncts of a (possibly nested) `AND`.
    pub fn conjuncts(&self) -> Vec<&BoundExpr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a BoundExpr, out: &mut Vec<&'a BoundExpr>) {
            match e {
                BoundExpr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Visit every attribute reference in this expression with the
    /// subquery depth it occurs at: 0 in this block, 1 inside one of its
    /// subqueries, and so on. A reference with `up == depth` names an
    /// attribute of this block, also from inside a nested subquery,
    /// where it is a correlated outer.
    pub fn visit_attrs(&self, f: &mut impl FnMut(usize, &AttrRef)) {
        fn go(e: &BoundExpr, depth: usize, f: &mut impl FnMut(usize, &AttrRef)) {
            let mut scalar = |s: &BScalar| {
                if let BScalar::Attr(a) = s {
                    f(depth, a);
                }
            };
            match e {
                BoundExpr::Cmp { left, right, .. } => {
                    scalar(left);
                    scalar(right);
                }
                BoundExpr::Between {
                    scalar: s,
                    low,
                    high,
                    ..
                } => {
                    scalar(s);
                    scalar(low);
                    scalar(high);
                }
                BoundExpr::InList {
                    scalar: s, list, ..
                } => {
                    scalar(s);
                    for item in list {
                        scalar(item);
                    }
                }
                BoundExpr::IsNull { scalar: s, .. } => scalar(s),
                BoundExpr::Exists { subquery, .. } => {
                    if let Some(p) = &subquery.predicate {
                        go(p, depth + 1, f);
                    }
                }
                BoundExpr::InSubquery {
                    scalar: s,
                    subquery,
                    ..
                } => {
                    scalar(s);
                    if let Some(p) = &subquery.predicate {
                        go(p, depth + 1, f);
                    }
                }
                BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
                    go(a, depth, f);
                    go(b, depth, f);
                }
                BoundExpr::Not(a) => go(a, depth, f),
            }
        }
        go(self, 0, f);
    }

    /// Visit every local attribute reference (`up == 0`) in this
    /// expression, *not* descending into subqueries (whose local space is
    /// different).
    pub fn visit_local_attrs(&self, f: &mut impl FnMut(usize)) {
        self.visit_attrs(&mut |depth, a| {
            if depth == 0 && a.is_local() {
                f(a.idx);
            }
        });
    }

    /// Does the expression contain an `EXISTS` or `IN` subquery?
    pub fn has_subquery(&self) -> bool {
        match self {
            BoundExpr::Exists { .. } | BoundExpr::InSubquery { .. } => true,
            BoundExpr::And(a, b) | BoundExpr::Or(a, b) => a.has_subquery() || b.has_subquery(),
            BoundExpr::Not(a) => a.has_subquery(),
            _ => false,
        }
    }

    /// If this is an equality `placed = new` (either direction) between
    /// two local attributes, one accepted by `is_placed` and the other
    /// inside `range`, the pair `(placed, new)`: an equi-join key that
    /// links already-joined tables to the table occupying `range`.
    pub fn equi_join_key(
        &self,
        range: &std::ops::Range<usize>,
        is_placed: impl Fn(usize) -> bool,
    ) -> Option<(usize, usize)> {
        let BoundExpr::Cmp {
            op: CmpOp::Eq,
            left: BScalar::Attr(a),
            right: BScalar::Attr(b),
        } = self
        else {
            return None;
        };
        if !a.is_local() || !b.is_local() {
            return None;
        }
        match (range.contains(&a.idx), range.contains(&b.idx)) {
            (false, true) if is_placed(a.idx) => Some((a.idx, b.idx)),
            (true, false) if is_placed(b.idx) => Some((b.idx, a.idx)),
            _ => None,
        }
    }
}

/// One `FROM`-clause table of a bound block.
#[derive(Debug, Clone, PartialEq)]
pub struct FromTable {
    /// The name the query refers to this table by (alias or table name).
    pub binding: TableName,
    /// The base table's schema (cloned out of the catalog at bind time so
    /// analyzers need no catalog access).
    pub schema: TableSchema,
    /// This table's first attribute position in the block's flat space.
    pub offset: usize,
}

impl FromTable {
    /// The half-open range of attribute positions this table occupies.
    pub fn attr_range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.schema.arity()
    }
}

/// One projection item: an attribute position plus its output name.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjItem {
    /// Position in the block's flat attribute space.
    pub attr: usize,
    /// Output column name (the alias when one was given).
    pub name: ColumnName,
}

/// A bound query block.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSpec {
    /// `ALL` or `DISTINCT`.
    pub distinct: Distinct,
    /// The tables of the extended Cartesian product, in `FROM` order.
    pub from: Vec<FromTable>,
    /// The bound `WHERE` condition, if any.
    pub predicate: Option<BoundExpr>,
    /// The projection list (`SELECT *` is expanded at bind time).
    pub projection: Vec<ProjItem>,
}

impl BoundSpec {
    /// Total width of the block's Cartesian product.
    pub fn product_arity(&self) -> usize {
        self.from.iter().map(|t| t.schema.arity()).sum()
    }

    /// The `FROM` position of the table that owns attribute `idx`.
    pub fn table_of(&self, idx: usize) -> Option<usize> {
        self.from.iter().position(|t| t.attr_range().contains(&idx))
    }

    /// The table that owns attribute `idx`, with its local column index.
    pub fn attr_owner(&self, idx: usize) -> Option<(&FromTable, usize)> {
        let t = &self.from[self.table_of(idx)?];
        Some((t, idx - t.offset))
    }

    /// Output data type of each projected column.
    pub fn output_types(&self) -> Vec<DataType> {
        self.projection
            .iter()
            .map(|p| {
                let (t, c) = self
                    .attr_owner(p.attr)
                    .expect("projection attr within product");
                t.schema.columns[c].data_type
            })
            .collect()
    }

    /// Human-readable name of attribute `idx` (`BINDING.COLUMN`).
    pub fn attr_name(&self, idx: usize) -> String {
        match self.attr_owner(idx) {
            Some((t, c)) => format!("{}.{}", t.binding, t.schema.columns[c].name),
            None => format!("#{idx}"),
        }
    }
}

/// A bound query: a block, or a set operation over two bound queries.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundQuery {
    /// A single block.
    Spec(Box<BoundSpec>),
    /// `left <op> [ALL] right` over union-compatible operands.
    SetOp {
        /// The set operator.
        op: SetOp,
        /// Multiset (`ALL`) vs distinct semantics.
        all: bool,
        /// Left operand.
        left: Box<BoundQuery>,
        /// Right operand.
        right: Box<BoundQuery>,
    },
}

impl BoundQuery {
    /// Number of output columns.
    pub fn output_arity(&self) -> usize {
        match self {
            BoundQuery::Spec(s) => s.projection.len(),
            BoundQuery::SetOp { left, .. } => left.output_arity(),
        }
    }

    /// Output column names (the left operand's, for set operations,
    /// following SQL).
    pub fn output_names(&self) -> Vec<ColumnName> {
        match self {
            BoundQuery::Spec(s) => s.projection.iter().map(|p| p.name.clone()).collect(),
            BoundQuery::SetOp { left, .. } => left.output_names(),
        }
    }

    /// The single block, if this query is one.
    pub fn as_spec(&self) -> Option<&BoundSpec> {
        match self {
            BoundQuery::Spec(s) => Some(s),
            BoundQuery::SetOp { .. } => None,
        }
    }
}

/// One output item of an aggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundAggItem {
    /// A grouping column, projected through.
    Group {
        /// Position within the body's projection (always `< group_count`).
        pos: usize,
        /// Output column name.
        name: ColumnName,
    },
    /// An aggregate function over the group's rows.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// `COUNT(DISTINCT …)` — counts distinct non-null argument values.
        distinct: bool,
        /// Argument position within the body's projection;
        /// `None` for `COUNT(*)`.
        arg: Option<usize>,
        /// Output column name.
        name: ColumnName,
    },
}

impl BoundAggItem {
    /// The item's output column name.
    pub fn name(&self) -> &ColumnName {
        match self {
            BoundAggItem::Group { name, .. } | BoundAggItem::Agg { name, .. } => name,
        }
    }
}

/// A bound aggregation over a query body.
///
/// The body is an ordinary [`BoundQuery`] (always `SELECT ALL` over a
/// single block) whose projection lays out the grouping columns first —
/// positions `0 .. group_count` — followed by the aggregate argument
/// columns. Grouping treats `NULL`s as equal (SQL `GROUP BY` semantics);
/// aggregates ignore `NULL` arguments; with an empty group set the query
/// produces exactly one global group even on empty input.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundAgg {
    /// Number of grouping columns (the body projection's leading columns).
    pub group_count: usize,
    /// Output items in `SELECT`-list order.
    pub items: Vec<BoundAggItem>,
    /// Uniqueness elision: the group keys cover a candidate key of the
    /// body, so every row is its own group — the executor skips the hash
    /// table and computes aggregates per-row in one pass. Set only by the
    /// proof-gated rewrite in `uniq-core`.
    pub group_elided: bool,
    /// Uniqueness elision: at least one `COUNT(DISTINCT e)` item was
    /// degraded to `COUNT(e)` (its `distinct` flag cleared) because
    /// `(group keys, e)` was proved duplicate-free over the body. Set
    /// only by the proof-gated rewrite in `uniq-core`; recorded so
    /// `EXPLAIN` can mark the plan.
    pub count_distinct_elided: bool,
}

/// A fully bound query: body plus aggregation / ordering / limit output
/// clauses. The paper's §2 subset is the `agg: None, order_by: [],
/// limit: None` case.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundOutput {
    /// The bound body (for aggregates: the lowered `SELECT ALL` block).
    pub body: BoundQuery,
    /// Aggregation over the body, if any.
    pub agg: Option<BoundAgg>,
    /// `ORDER BY` as (output column position, descending) pairs. Positions
    /// index the aggregate output when `agg` is present, the body's
    /// projection otherwise. Comparison uses the engine's total order
    /// (`NULL`s first), matching B-tree canonical key order.
    pub order_by: Vec<(usize, bool)>,
    /// `LIMIT k`, if any.
    pub limit: Option<u64>,
}

impl BoundOutput {
    /// Wrap a plain bound query with no output clauses.
    pub fn plain(body: BoundQuery) -> BoundOutput {
        BoundOutput {
            body,
            agg: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// The bare body if there are no output clauses at all.
    pub fn as_plain(&self) -> Option<&BoundQuery> {
        (self.agg.is_none() && self.order_by.is_empty() && self.limit.is_none())
            .then_some(&self.body)
    }

    /// Number of output columns.
    pub fn output_arity(&self) -> usize {
        match &self.agg {
            Some(a) => a.items.len(),
            None => self.body.output_arity(),
        }
    }

    /// Output column names.
    pub fn output_names(&self) -> Vec<ColumnName> {
        match &self.agg {
            Some(a) => a.items.iter().map(|i| i.name().clone()).collect(),
            None => self.body.output_names(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_output_plain_accessors() {
        let spec = BoundSpec {
            distinct: Distinct::All,
            from: Vec::new(),
            predicate: None,
            projection: Vec::new(),
        };
        let out = BoundOutput::plain(BoundQuery::Spec(Box::new(spec)));
        assert!(out.as_plain().is_some());
        assert_eq!(out.output_arity(), 0);
        let limited = BoundOutput {
            limit: Some(3),
            ..out
        };
        assert!(limited.as_plain().is_none());
    }

    #[test]
    fn conjuncts_flatten_nested_and() {
        let atom = |i| BoundExpr::IsNull {
            scalar: BScalar::Attr(AttrRef::local(i)),
            negated: false,
        };
        let e = BoundExpr::and(BoundExpr::and(atom(0), atom(1)), atom(2));
        assert_eq!(e.conjuncts().len(), 3);
        assert_eq!(atom(0).conjuncts().len(), 1);
    }

    #[test]
    fn visit_local_attrs_skips_outer_and_subquery() {
        let e = BoundExpr::Cmp {
            op: CmpOp::Eq,
            left: BScalar::Attr(AttrRef { up: 1, idx: 3 }),
            right: BScalar::Attr(AttrRef::local(5)),
        };
        let mut seen = Vec::new();
        e.visit_local_attrs(&mut |i| seen.push(i));
        assert_eq!(seen, vec![5]);
    }
}
