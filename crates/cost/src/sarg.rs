//! Sargability analysis: matching `WHERE`-clause conjuncts to secondary
//! indexes.
//!
//! A conjunct is *sargable* for an index when it constrains a leading
//! index column to a constant (`col = literal`, `col = :hostvar`) or —
//! on an ordered index — bounds the column following the point-bound
//! prefix (`<`, `<=`, `>`, `>=`, or a non-negated `BETWEEN`). Only the
//! planner derives an index access: an [`IndexSarg`] for a block's
//! scan, an [`IndexProbe`] for a join step. The plan carries it, and the
//! executor runs it as planned once it has checked that the live
//! catalog still holds the planned index definition (or, for a delta
//! term's key probe, still declares the key); otherwise it runs the
//! planned full scan or join method.
//!
//! Soundness contract: a probe or range scan built from an
//! [`IndexSarg`] returns a **superset-free, subset-free** match — the
//! exact set of rows satisfying the consumed conjuncts under `WHERE`
//! `=` semantics (`NULL` never matches a point or range bound). The
//! executor still evaluates every conjunct over the returned rows, so
//! even an imprecise extraction could only cost work, never rows.

use std::collections::BTreeMap;
use uniq_plan::{BScalar, BoundExpr, BoundSpec};
use uniq_sql::CmpOp;

/// A sargable access path for one table's initial scan: point constants
/// for the leading index columns, plus an optional range on the next.
/// An early-stop walk without either covers the whole index.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IndexSarg {
    /// Name of the matched index.
    pub index: String,
    /// The matched index is unique **and** fully point-bound: the probe
    /// returns at most one row (the paper's `=̇` special-value reading
    /// of `UNIQUE` makes this a hard bound, not an estimate).
    pub unique: bool,
    /// Point constants for the leading index columns, declaration
    /// order. Resolved to [`Value`](uniq_types::Value)s at run time
    /// (host variables bind then).
    pub prefix: Vec<BScalar>,
    /// Lower bound on the column after the prefix (`scalar`,
    /// `inclusive`).
    pub low: Option<(BScalar, bool)>,
    /// Upper bound on the column after the prefix.
    pub high: Option<(BScalar, bool)>,
    /// Human-readable predicate fragment, e.g. `SNO=3,PNO>=2` — what
    /// `EXPLAIN` prints inside `ixscan(…)`; empty for the whole index.
    pub desc: String,
}

/// Where one component of an index-join probe key comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeSource {
    /// A product attribute already bound by earlier pipeline steps
    /// (a join-equality conjunct supplied it).
    Outer(usize),
    /// A constant scalar from a point conjunct on the probed table.
    Const(BScalar),
}

/// An index-nested-loop probe for one join step: every column of the
/// index is supplied per outer row, at least one from the outer side.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexProbe {
    /// Name of the probed index; for a declared candidate key, a label
    /// naming its columns (`KEY(SNO,PNO)`).
    pub index: String,
    /// The probed index is unique: each probe matches at most one row,
    /// costing exactly one probe step (no chain to walk).
    pub unique: bool,
    /// Per index column (declaration order), its probe-key source.
    pub sources: Vec<ProbeSource>,
    /// The columns of the probed declared candidate key, when the probe
    /// targets a key rather than a secondary index.
    pub key: Option<Vec<usize>>,
}

/// Per-column constraints accumulated from one table's conjuncts.
#[derive(Default, Clone)]
struct ColBounds {
    point: Option<BScalar>,
    low: Option<(BScalar, bool)>,
    high: Option<(BScalar, bool)>,
}

/// A scalar that is constant for the whole scan: a literal or a host
/// variable. (Correlated outer attributes never appear in plannable
/// top-level blocks.)
fn const_scalar(s: &BScalar) -> Option<BScalar> {
    match s {
        BScalar::Literal(_) | BScalar::HostVar(_) => Some(s.clone()),
        BScalar::Attr(_) => None,
    }
}

fn scalar_desc(s: &BScalar) -> String {
    match s {
        BScalar::Literal(v) => v.to_string(),
        BScalar::HostVar(h) => format!(":{h}"),
        BScalar::Attr(_) => "?".into(),
    }
}

/// Collect per-column point/range constraints on table `t` from this
/// level's conjuncts. Keys are table-local column positions.
fn collect_bounds(
    spec: &BoundSpec,
    t: usize,
    conjuncts: &[&BoundExpr],
) -> BTreeMap<usize, ColBounds> {
    let range = spec.from[t].attr_range();
    let mut bounds: BTreeMap<usize, ColBounds> = BTreeMap::new();
    let local_col = |s: &BScalar| match s {
        BScalar::Attr(a) if a.is_local() && range.contains(&a.idx) => Some(a.idx - range.start),
        _ => None,
    };
    for c in conjuncts {
        match c {
            BoundExpr::Cmp { op, left, right } => {
                // Normalize to `col <op> const`.
                let (col, val, op) = match (local_col(left), local_col(right)) {
                    (Some(col), None) => match const_scalar(right) {
                        Some(v) => (col, v, *op),
                        None => continue,
                    },
                    (None, Some(col)) => match const_scalar(left) {
                        Some(v) => (col, v, op.flip()),
                        None => continue,
                    },
                    _ => continue,
                };
                let slot = bounds.entry(col).or_default();
                match op {
                    CmpOp::Eq => {
                        slot.point.get_or_insert(val);
                    }
                    CmpOp::Lt => {
                        slot.high.get_or_insert((val, false));
                    }
                    CmpOp::Le => {
                        slot.high.get_or_insert((val, true));
                    }
                    CmpOp::Gt => {
                        slot.low.get_or_insert((val, false));
                    }
                    CmpOp::Ge => {
                        slot.low.get_or_insert((val, true));
                    }
                    CmpOp::Ne => {}
                }
            }
            BoundExpr::Between {
                scalar,
                low,
                high,
                negated: false,
            } => {
                let Some(col) = local_col(scalar) else {
                    continue;
                };
                let (Some(lo), Some(hi)) = (const_scalar(low), const_scalar(high)) else {
                    continue;
                };
                let slot = bounds.entry(col).or_default();
                slot.low.get_or_insert((lo, true));
                slot.high.get_or_insert((hi, true));
            }
            _ => {}
        }
    }
    bounds
}

/// Find the best sargable index for scanning table `t` under this
/// level's conjuncts: longest point-bound prefix, preferring a unique
/// fully-bound probe (hard one-row bound), then a trailing range. A
/// hash index qualifies only when fully point-bound; an ordered index
/// also with a shorter prefix or a leading-column range.
pub(crate) fn find_index_sarg(
    spec: &BoundSpec,
    t: usize,
    conjuncts: &[&BoundExpr],
) -> Option<IndexSarg> {
    let schema = &spec.from[t].schema;
    let bounds = collect_bounds(spec, t, conjuncts);
    let mut best: Option<(IndexSarg, (bool, usize, bool))> = None;
    for def in &schema.indexes {
        let mut prefix = Vec::new();
        let mut desc: Vec<String> = Vec::new();
        for &col in &def.columns {
            let Some(p) = bounds.get(&col).and_then(|b| b.point.clone()) else {
                break;
            };
            desc.push(format!("{}={}", schema.columns[col].name, scalar_desc(&p)));
            prefix.push(p);
        }
        let full = prefix.len() == def.columns.len();
        if !def.ordered && !full {
            continue; // a hash index answers only complete point probes
        }
        let (mut low, mut high) = (None, None);
        if !full && def.ordered {
            let next = def.columns[prefix.len()];
            if let Some(b) = bounds.get(&next) {
                let name = &schema.columns[next].name;
                if let Some((v, inc)) = &b.low {
                    desc.push(format!(
                        "{name}{}{}",
                        if *inc { ">=" } else { ">" },
                        scalar_desc(v)
                    ));
                    low = b.low.clone();
                }
                if let Some((v, inc)) = &b.high {
                    desc.push(format!(
                        "{name}{}{}",
                        if *inc { "<=" } else { "<" },
                        scalar_desc(v)
                    ));
                    high = b.high.clone();
                }
            }
        }
        if prefix.is_empty() && low.is_none() && high.is_none() {
            continue; // nothing sargable for this index
        }
        let unique = def.unique && full;
        let score = (unique, prefix.len(), low.is_some() || high.is_some());
        if best.as_ref().is_none_or(|(_, s)| score > *s) {
            best = Some((
                IndexSarg {
                    index: def.name.clone(),
                    unique,
                    prefix,
                    low,
                    high,
                    desc: desc.join(","),
                },
                score,
            ));
        }
    }
    best.map(|(s, _)| s)
}

/// Find an index of table `t` every column of which is supplied by this
/// level's conjuncts — join equalities against already-placed tables
/// (`is_placed`) or point constants — with at least one join equality
/// (otherwise an [`IndexSarg`] scan applies, not a join probe). With
/// `keys`, the table's declared candidate keys are targets too, after
/// its indexes. Prefers a unique target: its probes are guaranteed
/// one-row lookups.
pub(crate) fn find_index_probe(
    spec: &BoundSpec,
    t: usize,
    conjuncts: &[&BoundExpr],
    is_placed: &dyn Fn(usize) -> bool,
    keys: bool,
) -> Option<IndexProbe> {
    let schema = &spec.from[t].schema;
    let range = spec.from[t].attr_range();
    let mut supplied: BTreeMap<usize, ProbeSource> = BTreeMap::new();
    for c in conjuncts {
        if let Some((built, new)) = c.equi_join_key(&range, is_placed) {
            supplied
                .entry(new - range.start)
                .or_insert(ProbeSource::Outer(built));
        }
    }
    for (col, b) in collect_bounds(spec, t, conjuncts) {
        if let Some(p) = b.point {
            supplied.entry(col).or_insert(ProbeSource::Const(p));
        }
    }
    let indexes = (schema.indexes.iter()).map(|d| (d.name.clone(), &d.columns, d.unique, false));
    let declared = (schema.candidate_keys().filter(|_| keys)).map(|k| {
        let names: Vec<&str> = (k.columns.iter())
            .map(|&c| schema.columns[c].name.as_str())
            .collect();
        (format!("KEY({})", names.join(",")), &k.columns, true, true)
    });
    let mut best: Option<(IndexProbe, (bool, usize))> = None;
    for (index, columns, unique, key) in indexes.chain(declared) {
        let sources: Option<Vec<ProbeSource>> =
            columns.iter().map(|c| supplied.get(c).cloned()).collect();
        let Some(sources) = sources else { continue };
        if !sources.iter().any(|s| matches!(s, ProbeSource::Outer(_))) {
            continue;
        }
        // Prefer unique targets, then narrow probe keys.
        let score = (unique, usize::MAX - sources.len());
        if best.as_ref().is_none_or(|(_, s)| score > *s) {
            let key = key.then(|| columns.clone());
            best = Some((
                IndexProbe {
                    index,
                    unique,
                    sources,
                    key,
                },
                score,
            ));
        }
    }
    best.map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::Database;
    use uniq_plan::bind_query;
    use uniq_sql::parse_query;

    fn indexed_db() -> Database {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER NOT NULL, B INTEGER, C VARCHAR, PRIMARY KEY (A));
             CREATE UNIQUE INDEX IDX_B ON T (B);
             CREATE INDEX IDX_BC ON T (B, C);
             CREATE INDEX IDX_HA ON T (A) USING HASH;",
        )
        .unwrap();
        db
    }

    fn sarg_of(db: &Database, sql: &str) -> Option<IndexSarg> {
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let spec = q.as_spec().unwrap();
        let conjuncts = spec.predicate.as_ref().map(|p| p.conjuncts()).unwrap();
        find_index_sarg(spec, 0, &conjuncts)
    }

    #[test]
    fn point_predicate_prefers_the_unique_index() {
        let db = indexed_db();
        let s = sarg_of(&db, "SELECT T.A FROM T WHERE T.B = 7").unwrap();
        assert_eq!(s.index, "IDX_B");
        assert!(s.unique, "fully bound unique index is a one-row probe");
        assert_eq!(s.desc, "B=7");
        assert_eq!(s.prefix.len(), 1);
    }

    #[test]
    fn prefix_plus_range_matches_the_composite_index() {
        let db = indexed_db();
        // A unique fully-bound probe beats a wider prefix+range match.
        let s = sarg_of(&db, "SELECT T.A FROM T WHERE T.B = 7 AND T.C >= 'M'").unwrap();
        assert_eq!(s.index, "IDX_B");
        assert!(s.unique);
        // With the leading column only point-bound on the composite,
        // the prefix extends into a range on the following column.
        let s = sarg_of(
            &db,
            "SELECT T.A FROM T WHERE T.C = 'x' AND T.B = 7 AND T.A < 4",
        );
        let s = s.unwrap();
        assert_eq!(s.index, "IDX_B", "unique full probe still preferred");
        let mut db2 = Database::new();
        db2.run_script(
            "CREATE TABLE W (X INTEGER, Y INTEGER);
             CREATE INDEX IDX_XY ON W (X, Y);",
        )
        .unwrap();
        let s = sarg_of(
            &db2,
            "SELECT W.X FROM W WHERE W.X = 1 AND W.Y >= 2 AND W.Y < 9",
        )
        .unwrap();
        assert_eq!(s.index, "IDX_XY");
        assert!(!s.unique);
        assert_eq!(s.prefix.len(), 1);
        assert!(s.low.is_some() && s.high.is_some());
        assert_eq!(s.desc, "X=1,Y>=2,Y<9");
    }

    #[test]
    fn between_and_reversed_comparisons_extract_ranges() {
        let db = indexed_db();
        let s = sarg_of(&db, "SELECT T.A FROM T WHERE T.B BETWEEN 2 AND 5").unwrap();
        assert_eq!(s.index, "IDX_B");
        assert!(!s.unique, "range probe is not a one-row lookup");
        assert!(s.prefix.is_empty());
        assert_eq!(s.desc, "B>=2,B<=5");
        // `10 > B` normalizes to `B < 10`.
        let s = sarg_of(&db, "SELECT T.A FROM T WHERE 10 > T.B").unwrap();
        assert_eq!(s.desc, "B<10");
    }

    #[test]
    fn hash_index_needs_a_full_point_probe() {
        let db = indexed_db();
        // A is only range-bound: the hash index on A cannot serve it,
        // and no ordered index leads with A.
        assert!(sarg_of(&db, "SELECT T.A FROM T WHERE T.A > 3").is_none());
        let s = sarg_of(&db, "SELECT T.A FROM T WHERE T.A = 3").unwrap();
        assert_eq!(s.index, "IDX_HA");
    }

    #[test]
    fn unsargable_shapes_yield_nothing() {
        let db = indexed_db();
        for sql in [
            "SELECT T.A FROM T WHERE T.B = 1 OR T.B = 2", // OR is no conjunct
            "SELECT T.A FROM T WHERE T.B <> 5",           // Ne never sargs
            "SELECT T.A FROM T WHERE T.C = 'x'",          // no index leads with C
            "SELECT T.A FROM T WHERE T.B NOT BETWEEN 2 AND 5", // negated
        ] {
            assert!(sarg_of(&db, sql).is_none(), "{sql}");
        }
    }

    #[test]
    fn join_probe_mixes_outer_attrs_and_constants() {
        let mut db = indexed_db();
        db.run_script("CREATE TABLE U (B INTEGER, C VARCHAR);")
            .unwrap();
        let q = bind_query(
            db.catalog(),
            &parse_query("SELECT T.A FROM U U, T T WHERE U.B = T.B AND T.C = 'x'").unwrap(),
        )
        .unwrap();
        let spec = q.as_spec().unwrap();
        let conjuncts = spec.predicate.as_ref().map(|p| p.conjuncts()).unwrap();
        let u_range = spec.from[0].attr_range();
        let probe =
            find_index_probe(spec, 1, &conjuncts, &|idx| u_range.contains(&idx), false).unwrap();
        // The unique one-column index wins over the wider composite.
        assert_eq!(probe.index, "IDX_B");
        assert!(probe.unique);
        assert!(matches!(probe.sources[0], ProbeSource::Outer(_)));
        // Constants alone (no join equality) never form a join probe.
        let none = find_index_probe(spec, 1, &conjuncts, &|_| false, false);
        assert!(none.is_none());
    }
}
