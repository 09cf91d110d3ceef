//! Abstract syntax tree for the paper's SQL subset.
//!
//! The AST mirrors the grammar of paper §2: statements are DDL
//! (`CREATE TABLE`), DML (`INSERT`), or queries; a query is either a single
//! *query specification* ([`QuerySpec`]) or a *query expression* combining
//! two queries with a set operator ([`QueryExpr::SetOp`]).

use uniq_types::{ColRef, ColumnName, DataType, HostVarName, Result, TableName, Tri, Value};

/// A complete SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE …`.
    CreateTable(CreateTable),
    /// `CREATE [UNIQUE] INDEX …`.
    CreateIndex(CreateIndex),
    /// `INSERT INTO …`.
    Insert(Insert),
    /// A query (specification or set-operator expression), optionally
    /// aggregated, ordered, and limited.
    Query(Query),
}

/// `CREATE TABLE name (columns…, constraints…)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// The table's name.
    pub name: TableName,
    /// Column definitions, in declaration order.
    pub columns: Vec<ColumnDefAst>,
    /// Table constraints (column constraints are folded into these, since
    /// SQL2 table constraints subsume column constraints — paper §2.1).
    pub constraints: Vec<TableConstraintAst>,
}

/// One column definition inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDefAst {
    /// Column name.
    pub name: ColumnName,
    /// Declared scalar type.
    pub data_type: DataType,
    /// `NOT NULL` was specified.
    pub not_null: bool,
}

/// A table constraint inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraintAst {
    /// `PRIMARY KEY (cols)` — implies `NOT NULL` on every named column.
    PrimaryKey(Vec<ColumnName>),
    /// `UNIQUE (cols)` — a candidate key; columns may be nullable, with
    /// SQL2's null-as-special-value semantics (at most one all-equivalent
    /// null-bearing key per table instance; paper §2.1).
    Unique(Vec<ColumnName>),
    /// `CHECK (condition)` — a search condition every row must satisfy
    /// (true-interpreted: a row violates it only when definitely false).
    Check(Expr),
    /// `FOREIGN KEY (cols) REFERENCES parent (parent_cols)` — an inclusion
    /// dependency. Not used by the paper's §2–§5 analyses, but the basis
    /// of the join-elimination rewrite its §7 lists as future work
    /// (King's semantic optimization via referential constraints).
    ForeignKey {
        /// Referencing columns of this table.
        columns: Vec<ColumnName>,
        /// The referenced (parent) table.
        parent: TableName,
        /// The referenced columns — must form a candidate key of the
        /// parent.
        parent_columns: Vec<ColumnName>,
    },
}

/// `CREATE [UNIQUE] INDEX name ON table (cols) [USING HASH | USING BTREE]`.
///
/// A persistent secondary index. `UNIQUE` declares the indexed columns a
/// candidate key of the table (with the paper's §2.1 null-as-special-value
/// semantics), which makes the index a new *source of uniqueness* for
/// Algorithm 1 in addition to a physical access path.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    /// The index's name (shared namespace across the database).
    pub name: String,
    /// The indexed table.
    pub table: TableName,
    /// Indexed columns, in declaration order (the probe-key prefix order).
    pub columns: Vec<ColumnName>,
    /// `UNIQUE` was specified: at most one row per key value.
    pub unique: bool,
    /// The physical structure backing the index.
    pub kind: IndexKindAst,
}

/// The physical structure of a secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKindAst {
    /// Ordered index (`USING BTREE`, the default): supports point probes
    /// and range scans.
    BTree,
    /// Hash index (`USING HASH`): point probes only.
    Hash,
}

/// `INSERT INTO table [(cols)] VALUES (…), (…)…`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: TableName,
    /// Optional explicit column list; `None` means declaration order.
    pub columns: Option<Vec<ColumnName>>,
    /// Rows of literal values.
    pub rows: Vec<Vec<Value>>,
}

/// A full query: a body (plain SPJ/set-op expression, or an aggregate
/// specification) with optional `ORDER BY` and `LIMIT` output clauses.
///
/// The paper's §2 subset is exactly the `body: Plain, order_by: [],
/// limit: None` corner; everything the rewrite pipeline and the proof
/// checker consume stays a [`QueryExpr`]. Aggregation and ordering are
/// *output operators* layered on top of a block, which is why they live
/// in a wrapper instead of inside [`QuerySpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The producing body.
    pub body: QueryBody,
    /// `ORDER BY` items, outermost sort first. Empty = no ordering.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT k`.
    pub limit: Option<u64>,
}

impl Query {
    /// Wrap a plain query expression (no aggregation/ordering/limit).
    pub fn plain(expr: QueryExpr) -> Query {
        Query {
            body: QueryBody::Plain(expr),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// The bare query expression, when this query is exactly the paper's
    /// subset: a plain body with no `ORDER BY` and no `LIMIT`.
    pub fn as_plain(&self) -> Option<&QueryExpr> {
        match &self.body {
            QueryBody::Plain(e) if self.order_by.is_empty() && self.limit.is_none() => Some(e),
            _ => None,
        }
    }
}

/// The producing body of a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBody {
    /// A plain specification or set-operator expression (paper §2).
    Plain(QueryExpr),
    /// An aggregate specification (`GROUP BY` / aggregate functions).
    Agg(Box<AggSpec>),
}

/// `SELECT items FROM … [WHERE …] [GROUP BY cols]` — a select block whose
/// projection mixes grouping columns and aggregate calls.
///
/// Lowering: the binder projects the grouping columns plus every
/// aggregate argument out of an ordinary `SELECT ALL` block and layers
/// the aggregation on top, so the whole SPJ machinery (rewrites, cost
/// model, all three executors) applies to the input block unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The output items, in `SELECT`-list order.
    pub items: Vec<AggItem>,
    /// `FROM` items (Cartesian product of the named tables).
    pub from: Vec<TableRef>,
    /// Optional `WHERE` search condition (applied before grouping).
    pub where_clause: Option<Expr>,
    /// `GROUP BY` columns. Empty = one global group (even for an empty
    /// input: `COUNT` is then 0 and every other aggregate `NULL`).
    pub group_by: Vec<ColRef>,
}

/// One item of an aggregate projection list.
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    /// A grouping column or an aggregate call.
    pub kind: AggItemKind,
    /// Optional `AS alias`.
    pub alias: Option<ColumnName>,
}

/// The two kinds of aggregate-projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum AggItemKind {
    /// A grouping column (must appear in `GROUP BY`).
    Group(ColRef),
    /// An aggregate function call.
    Agg(AggCall),
}

/// An aggregate function call: `COUNT(*)`, `COUNT(DISTINCT e)`,
/// `SUM(e)`, `MIN(e)`, `MAX(e)`, `AVG(e)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// `DISTINCT` inside the call (`COUNT(DISTINCT e)`). The
    /// uniqueness-powered elision rewrites this to `false` when the
    /// argument is proven duplicate-free per group.
    pub distinct: bool,
    /// The argument column; `None` is `COUNT(*)`.
    pub arg: Option<ColRef>,
}

/// The aggregate functions of the extended surface. All of them ignore
/// `NULL` arguments (`COUNT(*)` counts rows); `AVG` over `INTEGER` is
/// the truncating integer mean, consistent across every executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(e)` / `COUNT(*)`.
    Count,
    /// `SUM(e)` (integer argument).
    Sum,
    /// `MIN(e)`.
    Min,
    /// `MAX(e)`.
    Max,
    /// `AVG(e)` (integer argument, truncating).
    Avg,
}

impl AggFunc {
    /// Canonical keyword spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

/// One `ORDER BY` item: an output column reference plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// The referenced column: an output column name/alias, optionally
    /// qualified to disambiguate (`S.SNO`).
    pub col: ColRef,
    /// `DESC` (the default is `ASC`).
    pub desc: bool,
}

/// A query: one specification, or two queries joined by a set operator.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpr {
    /// A plain `SELECT … FROM … WHERE …` block.
    Spec(Box<QuerySpec>),
    /// `left <op> [ALL] right`.
    SetOp {
        /// Which set operator.
        op: SetOp,
        /// `ALL` (multiset) vs. distinct semantics.
        all: bool,
        /// Left operand.
        left: Box<QueryExpr>,
        /// Right operand.
        right: Box<QueryExpr>,
    },
}

impl QueryExpr {
    /// Convenience constructor wrapping a specification.
    pub fn spec(spec: QuerySpec) -> QueryExpr {
        QueryExpr::Spec(Box::new(spec))
    }

    /// The specification, if this query is a single `SELECT` block.
    pub fn as_spec(&self) -> Option<&QuerySpec> {
        match self {
            QueryExpr::Spec(s) => Some(s),
            QueryExpr::SetOp { .. } => None,
        }
    }
}

/// The set operators of the paper's query expressions (§2.2), plus `UNION`
/// which the engine supports as an extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOp {
    /// `INTERSECT` — `R ∩ S`.
    Intersect,
    /// `EXCEPT` — `R − S`.
    Except,
    /// `UNION` (extension; not part of the paper's considered class).
    Union,
}

/// `ALL` vs. `DISTINCT` in a `SELECT` clause — the paper's `π_All`/`π_Dist`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distinct {
    /// Retain duplicates (`SELECT ALL`, the default).
    All,
    /// Eliminate duplicates (`SELECT DISTINCT`).
    Distinct,
}

/// A `SELECT` block: projection over a selection over an extended
/// Cartesian product.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// `ALL` or `DISTINCT`.
    pub distinct: Distinct,
    /// The projection list.
    pub projection: Projection,
    /// `FROM` items (Cartesian product of the named tables).
    pub from: Vec<TableRef>,
    /// Optional `WHERE` search condition.
    pub where_clause: Option<Expr>,
}

/// The projection list of a `SELECT` block.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`.
    Star,
    /// An explicit list of column references.
    Columns(Vec<SelectItem>),
}

/// One item of an explicit projection list. The paper's subset has no
/// arithmetic, so items are always column references (optionally aliased).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The referenced column.
    pub col: ColRef,
    /// Optional `AS alias`.
    pub alias: Option<ColumnName>,
}

impl SelectItem {
    /// A plain, unaliased column reference.
    pub fn col(c: ColRef) -> SelectItem {
        SelectItem {
            col: c,
            alias: None,
        }
    }
}

/// One `FROM`-clause item: a base table with an optional correlation name.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// The base table.
    pub table: TableName,
    /// Optional correlation name (`SUPPLIER S`).
    pub alias: Option<TableName>,
}

impl TableRef {
    /// The name this table is referred to by in the query: the alias when
    /// present, the table name otherwise.
    pub fn binding_name(&self) -> &TableName {
        self.alias.as_ref().unwrap_or(&self.table)
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a op b` ≡ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// `l op r` under three-valued logic: unknown when either side is
    /// `NULL`, an error when [`Value::sql_cmp`] cannot compare them.
    #[inline]
    pub fn eval(self, l: &Value, r: &Value) -> Result<Tri> {
        Ok(match l.sql_cmp(r)? {
            None => Tri::Unknown,
            Some(ord) => Tri::from_bool(match self {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => ord.is_ne(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
            }),
        })
    }

    /// The operator's logical negation (`NOT (a op b)` ≡ `a op.negate() b`).
    ///
    /// Sound under three-valued logic: when either operand is `NULL` both
    /// sides are *unknown* (and `NOT unknown = unknown`); otherwise it is
    /// ordinary two-valued negation. Property-tested in
    /// `tests/norm_properties.rs`.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// A scalar operand of a predicate: the paper's subset compares columns,
/// literal constants and host variables only.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A column reference.
    Column(ColRef),
    /// A literal value.
    Literal(Value),
    /// A host variable whose value is supplied at execution time.
    HostVar(HostVarName),
}

impl Scalar {
    /// The column reference, if this scalar is one.
    pub fn as_column(&self) -> Option<&ColRef> {
        match self {
            Scalar::Column(c) => Some(c),
            _ => None,
        }
    }

    /// True iff this scalar's value is fixed for the whole execution
    /// (a literal or a host variable) — the paper's "constant" for Type-1
    /// equality conditions.
    pub fn is_constant(&self) -> bool {
        !matches!(self, Scalar::Column(_))
    }
}

/// A search condition (predicate expression).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `left op right` over scalars.
    Cmp {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand.
        left: Scalar,
        /// Right operand.
        right: Scalar,
    },
    /// `scalar [NOT] BETWEEN low AND high`.
    Between {
        /// Tested scalar.
        scalar: Scalar,
        /// Lower bound (inclusive).
        low: Scalar,
        /// Upper bound (inclusive).
        high: Scalar,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `scalar [NOT] IN (v1, v2, …)`.
    InList {
        /// Tested scalar.
        scalar: Scalar,
        /// The list elements.
        list: Vec<Scalar>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `scalar IS [NOT] NULL`.
    IsNull {
        /// Tested scalar.
        scalar: Scalar,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// `NOT EXISTS`.
        negated: bool,
        /// The (possibly correlated) subquery.
        subquery: Box<QuerySpec>,
    },
    /// `scalar [NOT] IN (subquery)` — sugar for a correlated `EXISTS`.
    InSubquery {
        /// Tested scalar.
        scalar: Scalar,
        /// The subquery; must project a single column.
        subquery: Box<QuerySpec>,
        /// `NOT IN`.
        negated: bool,
    },
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// `a AND b`.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// `a OR b`.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    /// `NOT a`.
    #[allow(clippy::should_implement_trait)] // associated constructor, not a method
    pub fn not(a: Expr) -> Expr {
        Expr::Not(Box::new(a))
    }

    /// `left = right` over two columns.
    pub fn col_eq_col(l: ColRef, r: ColRef) -> Expr {
        Expr::Cmp {
            op: CmpOp::Eq,
            left: Scalar::Column(l),
            right: Scalar::Column(r),
        }
    }

    /// `col = literal`.
    pub fn col_eq_val(c: ColRef, v: Value) -> Expr {
        Expr::Cmp {
            op: CmpOp::Eq,
            left: Scalar::Column(c),
            right: Scalar::Literal(v),
        }
    }

    /// Conjoin all expressions; `None` when the iterator is empty.
    pub fn conjoin(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(Expr::and)
    }

    /// Visit every subquery (EXISTS / IN) contained in this expression.
    pub fn visit_subqueries<'a>(&'a self, f: &mut impl FnMut(&'a QuerySpec)) {
        match self {
            Expr::Exists { subquery, .. } | Expr::InSubquery { subquery, .. } => f(subquery),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.visit_subqueries(f);
                b.visit_subqueries(f);
            }
            Expr::Not(a) => a.visit_subqueries(f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_flip_is_involutive() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn cmp_op_eval_is_three_valued() {
        use CmpOp::*;
        let (t, f) = (Tri::True, Tri::False);
        // Each operator on (below, equal, above) the right operand.
        let table = [
            (Eq, [f, t, f]),
            (Ne, [t, f, t]),
            (Lt, [t, f, f]),
            (Le, [t, t, f]),
            (Gt, [f, f, t]),
            (Ge, [f, t, t]),
        ];
        let ints = [1, 2, 3].map(Value::Int);
        let strs = ["a", "b", "c"].map(Value::str);
        for (op, expected) in table {
            for column in [&ints, &strs] {
                for (l, want) in column.iter().zip(expected) {
                    assert_eq!(op.eval(l, &column[1]).unwrap(), want, "{l:?} {op:?}");
                    assert_eq!(op.flip().eval(&column[1], l).unwrap(), want);
                }
            }
            for (l, r) in [(&Value::Null, &ints[1]), (&strs[0], &Value::Null)] {
                assert_eq!(op.eval(l, r).unwrap(), Tri::Unknown, "{op:?}");
            }
            assert_eq!(op.eval(&Value::Null, &Value::Null).unwrap(), Tri::Unknown);
            let err = ints[0].sql_cmp(&strs[0]).unwrap_err();
            assert_eq!(op.eval(&ints[0], &strs[0]).unwrap_err(), err, "{op:?}");
        }
    }

    #[test]
    fn binding_name_prefers_alias() {
        let t = TableRef {
            table: "SUPPLIER".into(),
            alias: Some("S".into()),
        };
        assert_eq!(t.binding_name().as_str(), "S");
        let t = TableRef {
            table: "SUPPLIER".into(),
            alias: None,
        };
        assert_eq!(t.binding_name().as_str(), "SUPPLIER");
    }

    #[test]
    fn conjoin_builds_left_deep_and() {
        let e = Expr::conjoin(vec![
            Expr::IsNull {
                scalar: Scalar::Column(ColRef::bare("A")),
                negated: false,
            },
            Expr::IsNull {
                scalar: Scalar::Column(ColRef::bare("B")),
                negated: false,
            },
        ])
        .unwrap();
        assert!(matches!(e, Expr::And(_, _)));
        assert!(Expr::conjoin(vec![]).is_none());
    }

    #[test]
    fn scalar_constantness() {
        assert!(Scalar::Literal(Value::Int(1)).is_constant());
        assert!(Scalar::HostVar("H".into()).is_constant());
        assert!(!Scalar::Column(ColRef::bare("C")).is_constant());
    }
}
