//! Columnar storage and vectorized, uniqueness-aware execution kernels.
//!
//! A [`ColumnStore`] re-encodes a database's tables column-wise: `i64`
//! columns are stored flat next to a [`NullBitmap`], string columns are
//! dictionary-encoded into dense `u32` codes (one sorted dictionary per
//! column, so code order coincides with string order and every
//! comparison predicate compiles to a code-range test). The store is
//! built at `ANALYZE` time, alongside the statistics, and every write
//! served after that brings it up to the new database state by
//! encoding only the appended rows and new tables
//! ([`ColumnStore::refresh`]). A block reads it only if it is provably
//! fresh for the database the query runs on: the catalog version must
//! match and every scanned table's row count must equal the encoded
//! count, so codes from a stale encoding — or rows a pinned snapshot
//! cannot see — are never read.
//!
//! The store is the *encoded access* of the executor's one block
//! pipeline (see [`crate::exec`]): `Encoded` compiles a licensed
//! block against it, and the pipeline carries the same flat row-id
//! tuples through either access. A scan or build side is a *selection
//! vector* of qualifying row ids, refined predicate by predicate without
//! copying rows; `Value` rows are materialized only at query output,
//! which is what the `materialized_rows` counter measures.
//!
//! Uniqueness is the fast path throughout:
//!
//! * when a join step's keys cover a candidate key of the build side
//!   (the planner's `JoinStep::unique` proof), the single-column kernels
//!   skip hashing entirely and use a *direct-index* table — dictionary
//!   codes (or a bounded integer span) index straight into an array of
//!   row ids, one array load per probe, `hash_probes == 0`;
//! * blocks the optimizer proved duplicate-free never reach the
//!   distinct kernel at all (the rewrite removed the `DISTINCT`), so
//!   the encoded access inherits that saving for free.
//!
//! The planner licenses a block only for shapes these kernels cover,
//! and `Encoded::compile` re-verifies the license before any counter
//! moves — an unsupported conjunct, a missing or stale encoding, or a
//! keyless step — so the block reads the stored rows instead. The rows
//! access stays the reference the agreement suites check this one
//! against. Kernels walk their input in [`CHUNK_SIZE`]-row chunks; each
//! (kernel, chunk) pair counts one `vector_ops`, the columnar analogue
//! of per-row dispatch.

use crate::exec::{hash_join, Probe};
use crate::stats::ExecStats;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use uniq_catalog::{Database, Row, TableRows, TableSchema};
use uniq_cost::{BlockPlan, JoinMethod};
use uniq_plan::{BScalar, BoundAgg, BoundExpr, BoundSpec};
use uniq_sql::CmpOp;
use uniq_types::{DataType, NullBitmap, Result, TableName, Value};

/// Rows per column chunk: the unit of vectorized work, so one kernel
/// pass over `n` rows books `n.div_ceil(CHUNK_SIZE)` `vector_ops`.
pub const CHUNK_SIZE: usize = 1024;

/// Largest dictionary a string column may grow before the table is left
/// un-encoded (and every plan over it reads the stored rows). One
/// below `u32::MAX` so a code never collides with the kernels' `MAX`
/// "empty slot" sentinel.
pub const DEFAULT_DICT_LIMIT: usize = (u32::MAX - 1) as usize;

/// Largest integer key span (`max - min + 1`) the direct-index join
/// kernel will allocate an array for; wider spans use the hash kernel.
const DIRECT_SPAN_LIMIT: i128 = 1 << 22;

/// Sentinel row id / code meaning "no entry".
const NONE_U32: u32 = u32::MAX;

/// One encoded column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnData {
    /// An `INTEGER` column: values flat, validity in the bitmap (NULL
    /// slots hold 0 and must never be read).
    Int {
        /// One `i64` per row.
        values: Vec<i64>,
        /// Per-row NULL flags.
        nulls: NullBitmap,
    },
    /// A `VARCHAR` column, dictionary-encoded. The dictionary is sorted
    /// ascending, so codes are dense *and order-preserving*: every
    /// comparison against a literal becomes a code-range test.
    Str {
        /// One dictionary code per row (NULL slots hold 0).
        codes: Vec<u32>,
        /// Per-row NULL flags.
        nulls: NullBitmap,
        /// Sorted distinct non-NULL values; `codes[r]` indexes here.
        dict: Vec<String>,
    },
}

/// All columns of one encoded table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableColumns {
    rows: usize,
    cols: Vec<ColumnData>,
}

impl TableColumns {
    /// Encoded row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column `c`'s encoded data.
    pub fn column(&self, c: usize) -> &ColumnData {
        &self.cols[c]
    }

    /// Decode one cell back to a [`Value`] (late materialization).
    pub fn value_at(&self, c: usize, r: usize) -> Value {
        match &self.cols[c] {
            ColumnData::Int { values, nulls } => {
                if nulls.is_null(r) {
                    Value::Null
                } else {
                    Value::Int(values[r])
                }
            }
            ColumnData::Str { codes, nulls, dict } => {
                if nulls.is_null(r) {
                    Value::Null
                } else {
                    Value::Str(dict[codes[r] as usize].clone())
                }
            }
        }
    }
}

/// Column-wise encodings of every encodable table of one database
/// snapshot, keyed by table name.
///
/// Each encoding sits behind an `Arc`, so a [`ColumnStore::refresh`]
/// shares every table it does not touch with the store it started from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStore {
    /// Every table of the encoded snapshot: its encoding, or `None` when
    /// it cannot be encoded. That verdict is final, because tables are
    /// insert-only and DDL never changes an existing table's columns.
    tables: HashMap<TableName, Option<Arc<TableColumns>>>,
    catalog_version: u64,
    dict_limit: usize,
}

impl ColumnStore {
    /// Encode every table of `db` (skipping any that cannot be encoded:
    /// non-scalar column types, row counts beyond `u32`, or string
    /// dictionaries beyond [`DEFAULT_DICT_LIMIT`]).
    pub fn build(db: &Database) -> ColumnStore {
        ColumnStore::build_with_dict_limit(db, DEFAULT_DICT_LIMIT)
    }

    /// Like [`ColumnStore::build`] with an explicit dictionary-size
    /// guard: a string column with more than `limit` distinct values
    /// leaves its whole table un-encoded (queries over it read the stored
    /// rows). Exposed for tests; production use is
    /// [`DEFAULT_DICT_LIMIT`], the `u32` code-space guard.
    pub fn build_with_dict_limit(db: &Database, limit: usize) -> ColumnStore {
        let mut store = ColumnStore {
            tables: HashMap::new(),
            catalog_version: db.version(),
            dict_limit: limit.min(DEFAULT_DICT_LIMIT),
        };
        store.refresh(db);
        store
    }

    /// Bring the store up to `db`, a later state of the database it
    /// encodes, by encoding only what is new. Tables are insert-only, so
    /// an encoded table's rows are a prefix of its rows in `db`:
    ///
    /// * a table with the encoded row count keeps sharing its encoding;
    /// * a grown table has its new rows appended to its encoding (to a
    ///   copy when another store still shares it). A string new to a
    ///   column's sorted dictionary re-codes that column, so every
    ///   comparison stays a code-range test;
    /// * a table the store has not seen (`CREATE TABLE`) is encoded.
    ///
    /// Then the store is re-stamped with `db`'s catalog version, which
    /// is sound because DDL never changes an existing table's columns.
    pub fn refresh(&mut self, db: &Database) {
        let limit = self.dict_limit;
        let mut tables = HashMap::with_capacity(self.tables.len() + 1);
        for schema in db.catalog().tables() {
            let Ok(rows) = db.rows(&schema.name) else {
                continue;
            };
            let encoded = match self.tables.remove(&schema.name) {
                Some(None) => None,
                Some(Some(tc)) if tc.rows == rows.len() => Some(tc),
                Some(Some(mut tc)) if tc.rows < rows.len() => {
                    let at = tc.rows;
                    Arc::make_mut(&mut tc)
                        .append(rows.range(at..), limit)
                        .then_some(tc)
                }
                // Unseen, or not a later state of the encoded table.
                _ => encode_table(schema, rows, limit).map(Arc::new),
            };
            tables.insert(schema.name.clone(), encoded);
        }
        self.tables = tables;
        self.catalog_version = db.version();
    }

    /// The encoding of `name`, if the table was encodable.
    pub fn table(&self, name: &TableName) -> Option<&TableColumns> {
        self.tables.get(name)?.as_deref()
    }

    /// The catalog version the store was built against; a mismatch with
    /// the live database means the encoding is stale.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// Number of encoded tables.
    pub fn len(&self) -> usize {
        self.tables.values().flatten().count()
    }

    /// Whether no table could be encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn encode_table(schema: &TableSchema, rows: TableRows<'_>, limit: usize) -> Option<TableColumns> {
    let cols = schema
        .columns
        .iter()
        .map(|def| match def.data_type {
            DataType::Int => Some(ColumnData::Int {
                values: Vec::with_capacity(rows.len()),
                nulls: NullBitmap::with_capacity(rows.len()),
            }),
            DataType::Str => Some(ColumnData::Str {
                codes: Vec::with_capacity(rows.len()),
                nulls: NullBitmap::with_capacity(rows.len()),
                dict: Vec::new(),
            }),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let mut tc = TableColumns { rows: 0, cols };
    tc.append(rows, limit).then_some(tc)
}

impl TableColumns {
    /// Encode `rows` after the encoded ones. Returns `false` (leaving the
    /// encoding unusable) when they cannot be encoded: a value of the
    /// wrong type, a row count beyond `u32`, or a dictionary beyond
    /// `limit`.
    fn append(&mut self, rows: TableRows<'_>, limit: usize) -> bool {
        if self.rows + rows.len() > NONE_U32 as usize {
            return false;
        }
        for (c, col) in self.cols.iter_mut().enumerate() {
            let fits = match col {
                ColumnData::Int { values, nulls } => rows.iter().all(|row| match &row[c] {
                    Value::Null => {
                        values.push(0);
                        nulls.push(true);
                        true
                    }
                    Value::Int(i) => {
                        values.push(*i);
                        nulls.push(false);
                        true
                    }
                    _ => false,
                }),
                ColumnData::Str { codes, nulls, dict } => {
                    extend_dict(dict, codes, nulls, rows, c, limit)
                        && rows.iter().all(|row| match &row[c] {
                            Value::Null => {
                                codes.push(0);
                                nulls.push(true);
                                true
                            }
                            Value::Str(s) => {
                                let code = dict.binary_search(s).expect("dictionary extended");
                                codes.push(code as u32);
                                nulls.push(false);
                                true
                            }
                            _ => false,
                        })
                }
            };
            if !fits {
                return false;
            }
        }
        self.rows += rows.len();
        true
    }
}

/// Merge the strings of column `c` of `rows` that `dict` lacks into it,
/// keeping it sorted, and re-code the encoded `codes` when an insertion
/// shifts them. `false` when a value is not a string or the dictionary
/// would outgrow `limit`.
fn extend_dict(
    dict: &mut Vec<String>,
    codes: &mut [u32],
    nulls: &NullBitmap,
    rows: TableRows<'_>,
    c: usize,
    limit: usize,
) -> bool {
    let mut fresh: BTreeSet<&str> = BTreeSet::new();
    for row in rows {
        match &row[c] {
            Value::Null => {}
            Value::Str(s) => {
                if dict.binary_search(s).is_err() {
                    fresh.insert(s);
                }
            }
            _ => return false,
        }
    }
    if fresh.is_empty() {
        return true;
    }
    if dict.len() + fresh.len() > limit {
        return false;
    }
    // Old code → new code, increasing, so code order stays string order.
    let mut merged = Vec::with_capacity(dict.len() + fresh.len());
    let mut remap = Vec::with_capacity(dict.len());
    let mut fresh = fresh.into_iter().peekable();
    for old in dict.drain(..) {
        while let Some(s) = fresh.next_if(|s| *s < old.as_str()) {
            merged.push(s.to_string());
        }
        remap.push(merged.len() as u32);
        merged.push(old);
    }
    merged.extend(fresh.map(str::to_string));
    *dict = merged;
    // An increasing map that ends at its own last index is the identity:
    // every new string sorted after every old one.
    if remap.last().is_some_and(|&l| l as usize != remap.len() - 1) {
        for (r, code) in codes.iter_mut().enumerate() {
            if !nulls.is_null(r) {
                *code = remap[*code as usize];
            }
        }
    }
    true
}

// --- vectorizable predicates -------------------------------------------

/// A table-local conjunct compiled against one encoded table. All six
/// comparison operators are supported on both column types: integer
/// comparisons run on the flat values, string comparisons become
/// code-range tests because each dictionary is sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pred {
    /// `col ⋄ literal` on an integer column.
    IntCmp { col: usize, op: CmpOp, lit: i64 },
    /// Row qualifies iff non-NULL and `lo <= code < hi` (xor `negate`,
    /// which still never admits NULL rows — `WHERE` is false-interpreted).
    StrRange {
        col: usize,
        lo: u32,
        hi: u32,
        negate: bool,
    },
    /// Never matches (comparison against a NULL literal is unknown).
    Never,
}

fn flip_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Compile one conjunct into a vectorizable predicate over the table
/// occupying `range`, or `None` when the shape is not covered (the
/// block then reads the stored rows).
fn compile_pred(c: &BoundExpr, range: &std::ops::Range<usize>, tc: &TableColumns) -> Option<Pred> {
    let BoundExpr::Cmp { op, left, right } = c else {
        return None;
    };
    let (attr, lit, op) = match (left, right) {
        (BScalar::Attr(a), BScalar::Literal(v)) if a.is_local() => (a, v, *op),
        (BScalar::Literal(v), BScalar::Attr(a)) if a.is_local() => (a, v, flip_op(*op)),
        _ => return None,
    };
    if !range.contains(&attr.idx) {
        return None;
    }
    let col = attr.idx - range.start;
    if lit.is_null() {
        return Some(Pred::Never);
    }
    match (tc.column(col), lit) {
        (ColumnData::Int { .. }, Value::Int(i)) => Some(Pred::IntCmp { col, op, lit: *i }),
        (ColumnData::Str { dict, .. }, Value::Str(s)) => {
            // First dictionary position not below the literal; the code
            // ranges below follow from the dictionary being sorted.
            let pos = dict.partition_point(|d| d.as_str() < s.as_str()) as u32;
            let hit = u32::from(dict.get(pos as usize).is_some_and(|d| d == s));
            let len = dict.len() as u32;
            let (lo, hi, negate) = match op {
                CmpOp::Eq => (pos, pos + hit, false),
                CmpOp::Ne => (pos, pos + hit, true),
                CmpOp::Lt => (0, pos, false),
                CmpOp::Le => (0, pos + hit, false),
                CmpOp::Gt => (pos + hit, len, false),
                CmpOp::Ge => (pos, len, false),
            };
            Some(Pred::StrRange {
                col,
                lo,
                hi,
                negate,
            })
        }
        _ => None,
    }
}

fn eval_pred(p: &Pred, tc: &TableColumns, r: usize) -> bool {
    match p {
        Pred::Never => false,
        Pred::IntCmp { col, op, lit } => match tc.column(*col) {
            ColumnData::Int { values, nulls } => {
                if nulls.is_null(r) {
                    return false;
                }
                let v = values[r];
                match op {
                    CmpOp::Eq => v == *lit,
                    CmpOp::Ne => v != *lit,
                    CmpOp::Lt => v < *lit,
                    CmpOp::Le => v <= *lit,
                    CmpOp::Gt => v > *lit,
                    CmpOp::Ge => v >= *lit,
                }
            }
            ColumnData::Str { .. } => false,
        },
        Pred::StrRange {
            col,
            lo,
            hi,
            negate,
        } => match tc.column(*col) {
            ColumnData::Str { codes, nulls, .. } => {
                if nulls.is_null(r) {
                    return false;
                }
                let c = codes[r];
                (*lo <= c && c < *hi) != *negate
            }
            ColumnData::Int { .. } => false,
        },
    }
}

/// Vectorized filter: walk the table in [`CHUNK_SIZE`]-row chunks,
/// build each chunk's identity selection, then refine it predicate by
/// predicate — rows are never copied, only the selection shrinks. One
/// `vector_ops` per (predicate, chunk).
fn filter_table(tc: &TableColumns, preds: &[Pred], stats: &mut ExecStats) -> Vec<u32> {
    let mut sel = Vec::new();
    for start in (0..tc.rows).step_by(CHUNK_SIZE) {
        let end = (start + CHUNK_SIZE).min(tc.rows);
        let mut chunk: Vec<u32> = (start as u32..end as u32).collect();
        for p in preds {
            chunk.retain(|&r| eval_pred(p, tc, r as usize));
        }
        sel.extend(chunk);
    }
    stats.vector_ops += (tc.rows.div_ceil(CHUNK_SIZE) * preds.len().max(1)) as u64;
    sel
}

// --- join kernels ------------------------------------------------------

/// A key with its per-step probe/build column data. For string keys,
/// `trans` maps probe-dictionary codes into the build dictionary
/// (`NONE_U32` = the probe string does not occur on the build side), so
/// both kernels compare codes in *build* space — translated once per
/// distinct probe value, not once per row.
struct KeyAt<'a> {
    slot: usize,
    probe: &'a ColumnData,
    build: &'a ColumnData,
    trans: Option<Vec<u32>>,
}

fn translation(probe_dict: &[String], build_dict: &[String]) -> Vec<u32> {
    probe_dict
        .iter()
        .map(|s| match build_dict.binary_search(s) {
            Ok(i) => i as u32,
            Err(_) => NONE_U32,
        })
        .collect()
}

impl KeyAt<'_> {
    /// The probe row's key in build space.
    fn probe_key(&self, r: u32) -> Probe<u64> {
        let r = r as usize;
        match self.probe {
            ColumnData::Int { values, nulls } => {
                if nulls.is_null(r) {
                    Probe::Null
                } else {
                    Probe::Key(values[r] as u64)
                }
            }
            ColumnData::Str { codes, nulls, .. } => {
                if nulls.is_null(r) {
                    return Probe::Null;
                }
                let trans = self.trans.as_ref().expect("string key has translation");
                match trans[codes[r] as usize] {
                    NONE_U32 => Probe::Miss,
                    c => Probe::Key(c as u64),
                }
            }
        }
    }

    fn build_key(&self, r: u32) -> Option<u64> {
        let r = r as usize;
        match self.build {
            ColumnData::Int { values, nulls } => (!nulls.is_null(r)).then(|| values[r] as u64),
            ColumnData::Str { codes, nulls, .. } => (!nulls.is_null(r)).then(|| codes[r] as u64),
        }
    }
}

/// Direct-index table for a unique single-key build side: key → build
/// row id, no hashing. Dictionary codes index straight into `index`;
/// integer keys index by offset from the observed minimum.
enum Direct {
    Str {
        index: Vec<u32>,
    },
    Int {
        base: i64,
        max: i64,
        index: Vec<u32>,
    },
}

/// Build the direct-index table over the (filtered) build side, or
/// `None` when an integer key's span is too wide to tabulate — the
/// caller then uses the hash kernel instead.
fn build_direct(key: &KeyAt<'_>, build_sel: &[u32]) -> Option<Direct> {
    match key.build {
        ColumnData::Str { codes, nulls, dict } => {
            let mut index = vec![NONE_U32; dict.len()];
            for &r in build_sel {
                if !nulls.is_null(r as usize) {
                    index[codes[r as usize] as usize] = r;
                }
            }
            Some(Direct::Str { index })
        }
        ColumnData::Int { values, nulls } => {
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for &r in build_sel {
                if !nulls.is_null(r as usize) {
                    let v = values[r as usize];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            if lo > hi {
                // Empty build side: every probe misses.
                return Some(Direct::Int {
                    base: 0,
                    max: -1,
                    index: Vec::new(),
                });
            }
            let span = hi as i128 - lo as i128 + 1;
            if span > DIRECT_SPAN_LIMIT {
                return None;
            }
            let mut index = vec![NONE_U32; span as usize];
            for &r in build_sel {
                if !nulls.is_null(r as usize) {
                    index[(values[r as usize] - lo) as usize] = r;
                }
            }
            Some(Direct::Int {
                base: lo,
                max: hi,
                index,
            })
        }
    }
}

fn direct_lookup(d: &Direct, key: u64) -> u32 {
    match d {
        Direct::Str { index } => index.get(key as usize).copied().unwrap_or(NONE_U32),
        Direct::Int { base, max, index } => {
            let v = key as i64;
            if v < *base || v > *max {
                NONE_U32
            } else {
                index[(v - base) as usize]
            }
        }
    }
}

// --- the encoded access ------------------------------------------------

/// One resolved equi-join key of a step: where the probe side reads its
/// value (`slot` into the tuple of placed row ids, then `probe_col` of
/// that table) and which build-side column it must equal.
#[derive(Debug, Clone, Copy)]
struct ResolvedKey {
    slot: usize,
    probe_col: usize,
    build_col: usize,
}

/// A block compiled for the encoded access: each tuple slot's encoding,
/// per pipeline level the compiled predicates of its table (and, for a
/// join step, its resolved keys), and the projection as (tuple slot,
/// table-local column) pairs.
pub(crate) struct Encoded<'a> {
    tables: Vec<&'a TableColumns>,
    levels: Vec<(Vec<Pred>, Vec<ResolvedKey>)>,
    proj: Vec<(usize, usize)>,
}

impl<'a> Encoded<'a> {
    /// Compile a block the plan licenses for the encoded access, given
    /// its conjuncts by pipeline level and where each attribute lives
    /// (`attrs[idx]` = tuple slot, table-local column). `None` — with no
    /// counter touched — when the store is stale for `db` (the catalog
    /// moved, or a table's row count differs from its encoding: `INSERT`
    /// does not bump the catalog version), a join step is not a keyed
    /// hash step, or a conjunct does not compile.
    pub(crate) fn compile(
        store: &'a ColumnStore,
        db: &Database,
        spec: &BoundSpec,
        bp: &BlockPlan,
        levels: &[Vec<&BoundExpr>],
        attrs: &[(usize, usize)],
    ) -> Result<Option<Encoded<'a>>> {
        if store.catalog_version != db.version()
            || bp.joins.iter().any(|j| j.method != JoinMethod::Hash)
            || levels.iter().flatten().any(|c| c.has_subquery())
        {
            return Ok(None);
        }
        let mut tables = Vec::with_capacity(bp.order.len());
        for &t in &bp.order {
            let name = &spec.from[t].schema.name;
            match store.table(name) {
                Some(tc) if tc.rows == db.row_count(name)? => tables.push(tc),
                _ => return Ok(None),
            }
        }
        let mut compiled = Vec::with_capacity(levels.len());
        for (k, conjuncts) in levels.iter().enumerate() {
            let range = spec.from[bp.order[k]].attr_range();
            let mut preds = Vec::new();
            let mut keys = Vec::new();
            for c in conjuncts {
                if let Some((built, new)) = c.equi_join_key(&range, |idx| attrs[idx].0 < k) {
                    let (slot, probe_col) = attrs[built];
                    let build_col = new - range.start;
                    // Kernel keys compare codes, so both sides must carry
                    // the same physical encoding.
                    let same_kind = matches!(
                        (tables[slot].column(probe_col), tables[k].column(build_col)),
                        (ColumnData::Int { .. }, ColumnData::Int { .. })
                            | (ColumnData::Str { .. }, ColumnData::Str { .. })
                    );
                    if !same_kind {
                        return Ok(None);
                    }
                    keys.push(ResolvedKey {
                        slot,
                        probe_col,
                        build_col,
                    });
                } else if let Some(p) = compile_pred(c, &range, tables[k]) {
                    preds.push(p);
                } else {
                    return Ok(None);
                }
            }
            if k > 0 && keys.is_empty() {
                return Ok(None);
            }
            compiled.push((preds, keys));
        }
        let proj = spec.projection.iter().map(|p| attrs[p.attr]).collect();
        Ok(Some(Encoded {
            tables,
            levels: compiled,
            proj,
        }))
    }

    /// The scan: a vectorized filter of the first table's selection.
    pub(crate) fn scan(&self, stats: &mut ExecStats) -> Vec<u32> {
        filter_table(self.tables[0], &self.levels[0].0, stats)
    }

    /// Join step `k`: filter the build side, then probe it once per
    /// tuple. A `unique` step on one key uses the direct-index table
    /// (zero hash operations, one probe step per probe); anything else
    /// hashes build-space key words.
    pub(crate) fn join(
        &self,
        k: usize,
        unique: bool,
        tuples: &[u32],
        stats: &mut ExecStats,
    ) -> Result<Vec<u32>> {
        let (preds, resolved) = &self.levels[k];
        let table = self.tables[k];
        let build = filter_table(table, preds, stats);
        let keys: Vec<KeyAt<'_>> = (resolved.iter())
            .map(|rk| {
                let probe = self.tables[rk.slot].column(rk.probe_col);
                let build = table.column(rk.build_col);
                let trans = match (probe, build) {
                    (ColumnData::Str { dict: pd, .. }, ColumnData::Str { dict: bd, .. }) => {
                        Some(translation(pd, bd))
                    }
                    _ => None,
                };
                KeyAt {
                    slot: rk.slot,
                    probe,
                    build,
                    trans,
                }
            })
            .collect();
        let direct = match keys.as_slice() {
            [key] if unique => build_direct(key, &build).map(|d| (key, d)),
            _ => None,
        };
        let mut out = Vec::new();
        if let Some((key, direct)) = direct {
            for tuple in tuples.chunks_exact(k) {
                let m = match key.probe_key(tuple[key.slot]) {
                    Probe::Null => continue,
                    Probe::Miss => NONE_U32,
                    Probe::Key(code) => direct_lookup(&direct, code),
                };
                stats.probe_steps += 1;
                if m != NONE_U32 {
                    out.extend_from_slice(tuple);
                    out.push(m);
                }
            }
        } else {
            stats.hash_joins += 1;
            let (probes, steps) = hash_join(
                tuples,
                k,
                &build,
                |r| {
                    keys.iter()
                        .map(|key| key.build_key(r))
                        .collect::<Option<Vec<u64>>>()
                },
                |tuple| {
                    let mut words = Vec::with_capacity(keys.len());
                    let mut miss = false;
                    for key in &keys {
                        match key.probe_key(tuple[key.slot]) {
                            Probe::Null => return Probe::Null,
                            Probe::Miss => miss = true,
                            Probe::Key(w) => words.push(w),
                        }
                    }
                    if miss {
                        Probe::Miss
                    } else {
                        Probe::Key(words)
                    }
                },
                unique,
                |tuple, m| {
                    out.extend_from_slice(tuple);
                    out.push(m);
                    Ok(())
                },
            )?;
            stats.hash_probes += probes;
            stats.probe_steps += steps;
        }
        stats.vector_ops += (tuples.len() / k).div_ceil(CHUNK_SIZE) as u64;
        Ok(out)
    }

    /// `DISTINCT` on encoded keys: keep each tuple whose projected code
    /// words have not been seen. Exact under `=̇` (see
    /// [`Encoded::key_words`]).
    pub(crate) fn distinct(&self, ids: Vec<u32>, stats: &mut ExecStats) -> Vec<u32> {
        let n = ids.len() / self.tables.len();
        let mut seen: HashSet<Vec<u64>> = HashSet::with_capacity(n);
        let mut kept = Vec::new();
        for tuple in ids.chunks_exact(self.tables.len()) {
            stats.hash_probes += 1;
            if seen.insert(self.key_words(tuple, self.proj.len())) {
                kept.extend_from_slice(tuple);
            }
        }
        stats.vector_ops += n.div_ceil(CHUNK_SIZE) as u64;
        kept
    }

    /// Late materialization: decode the projection of every tuple.
    pub(crate) fn materialize(&self, ids: &[u32], stats: &mut ExecStats) -> Vec<Row> {
        let rows: Vec<Row> = (ids.chunks_exact(self.tables.len()))
            .map(|tuple| (0..self.proj.len()).map(|p| self.value(tuple, p)).collect())
            .collect();
        stats.vector_ops += rows.len().div_ceil(CHUNK_SIZE) as u64;
        stats.materialized_rows += rows.len() as u64;
        rows
    }

    /// Aggregate the tuples with group keys kept as code words end to
    /// end: only aggregate arguments and each group's representative
    /// cells are decoded.
    pub(crate) fn aggregate(
        &self,
        agg: &BoundAgg,
        ids: &[u32],
        stats: &mut ExecStats,
    ) -> Result<Vec<Row>> {
        let stride = self.tables.len();
        let tuple = |t: usize| &ids[t * stride..(t + 1) * stride];
        let n = ids.len() / stride;
        let out = crate::agg::aggregate(
            agg,
            n,
            |t| self.key_words(tuple(t), agg.group_count),
            |t, p| self.value(tuple(t), p),
            stats,
        )?;
        stats.vector_ops += n.div_ceil(CHUNK_SIZE) as u64;
        stats.materialized_rows += out.len() as u64;
        Ok(out)
    }

    /// Decode projection position `p` of one tuple (one cell, not a row).
    fn value(&self, tuple: &[u32], p: usize) -> Value {
        let (slot, col) = self.proj[p];
        self.tables[slot].value_at(col, tuple[slot] as usize)
    }

    /// Encoded key of the first `n` projection positions of one tuple:
    /// per column a (null, code/value) word pair — exact under `=̇`
    /// because codes within one column are injective. This is the
    /// dictionary-coded group and distinct key: strings compare by `u32`
    /// code, never by string compare.
    fn key_words(&self, tuple: &[u32], n: usize) -> Vec<u64> {
        let mut key = Vec::with_capacity(n * 2);
        for &(slot, col) in &self.proj[..n] {
            let r = tuple[slot] as usize;
            let (nulls, word) = match self.tables[slot].column(col) {
                ColumnData::Int { values, nulls } => (nulls, values[r] as u64),
                ColumnData::Str { codes, nulls, .. } => (nulls, codes[r] as u64),
            };
            if nulls.is_null(r) {
                key.extend([1, 0]);
            } else {
                key.extend([0, word]);
            }
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_database;

    fn store() -> (Database, ColumnStore) {
        let db = supplier_database().unwrap();
        let cs = ColumnStore::build(&db);
        (db, cs)
    }

    #[test]
    fn encoding_roundtrips_every_cell() {
        let (db, cs) = store();
        for schema in db.catalog().tables() {
            let tc = cs.table(&schema.name).expect("sample tables all encode");
            let rows = db.rows(&schema.name).unwrap();
            assert_eq!(tc.rows(), rows.len());
            for (r, row) in rows.iter().enumerate() {
                for (c, v) in row.iter().enumerate() {
                    assert_eq!(&tc.value_at(c, r), v, "{}[{r}][{c}]", schema.name);
                }
            }
        }
    }

    #[test]
    fn dictionaries_are_sorted_and_dense() {
        let (db, cs) = store();
        for schema in db.catalog().tables() {
            let tc = cs.table(&schema.name).unwrap();
            for c in 0..schema.arity() {
                if let ColumnData::Str { codes, nulls, dict } = tc.column(c) {
                    assert!(dict.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
                    for (r, &code) in codes.iter().enumerate() {
                        if !nulls.is_null(r) {
                            assert!((code as usize) < dict.len());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_table_and_all_null_column_encode() {
        let mut db = supplier_database().unwrap();
        db.run_script(
            "CREATE TABLE EMPTYT (A INTEGER, B VARCHAR);
             CREATE TABLE ALLN (A INTEGER, B VARCHAR);
             INSERT INTO ALLN VALUES (NULL, NULL), (NULL, NULL);",
        )
        .unwrap();
        let cs = ColumnStore::build(&db);
        let empty = cs.table(&"EMPTYT".into()).unwrap();
        assert_eq!(empty.rows(), 0);
        let alln = cs.table(&"ALLN".into()).unwrap();
        assert_eq!(alln.rows(), 2);
        match alln.column(1) {
            ColumnData::Str { dict, nulls, .. } => {
                assert!(dict.is_empty(), "all-NULL column has an empty dictionary");
                assert_eq!(nulls.count_nulls(), 2);
            }
            _ => panic!("B is a string column"),
        }
        assert_eq!(alln.value_at(0, 0), Value::Null);
        assert_eq!(alln.value_at(1, 1), Value::Null);
    }

    #[test]
    fn dict_limit_guard_leaves_table_unencoded() {
        let (db, _) = store();
        // SUPPLIER.SNAME has 5 distinct names; a limit of 2 must refuse
        // the table (u32 code-space guard path) while tables whose
        // string columns fit stay encoded.
        let cs = ColumnStore::build_with_dict_limit(&db, 2);
        assert!(cs.table(&"SUPPLIER".into()).is_none());
        let full = ColumnStore::build(&db);
        assert!(full.table(&"SUPPLIER".into()).is_some());
        assert_eq!(full.catalog_version(), db.version());
    }

    #[test]
    fn refresh_matches_a_rebuild_and_shares_untouched_tables() {
        let (mut db, cs) = store();
        // New SNAMEs sorting first and last, a NULL city, and a new
        // table with a NULL row: appends, re-codes and a fresh encoding.
        db.run_script(
            "INSERT INTO SUPPLIER VALUES (6, 'Aaron', 'Toronto', 10, 'Active'),
               (7, 'Zed', NULL, 10, 'Active'), (8, 'Hooli', 'Chicago', 10, 'Active');
             CREATE TABLE DEPOT (DNO INTEGER, DCITY VARCHAR);
             INSERT INTO DEPOT VALUES (1, 'Hull'), (NULL, NULL);",
        )
        .unwrap();
        let mut refreshed = cs.clone();
        refreshed.refresh(&db);
        assert_eq!(refreshed, ColumnStore::build(&db));
        assert_eq!(refreshed.catalog_version(), db.version());
        assert_eq!(refreshed.len(), 4);
        let parts: &TableName = &"PARTS".into();
        assert!(
            Arc::ptr_eq(
                cs.tables[parts].as_ref().unwrap(),
                refreshed.tables[parts].as_ref().unwrap()
            ),
            "an untouched table is shared, not copied"
        );
        assert_eq!(
            cs.table(&"SUPPLIER".into()).unwrap().rows(),
            5,
            "a store still shared keeps its encoding"
        );
    }

    #[test]
    fn refresh_past_the_dict_limit_leaves_the_table_unencoded() {
        let (mut db, _) = store();
        // SUPPLIER's widest dictionary (SNAME) has 4 values, PARTS' 5.
        let mut cs = ColumnStore::build_with_dict_limit(&db, 5);
        assert!(cs.table(&"SUPPLIER".into()).is_some());
        db.run_script(
            "INSERT INTO SUPPLIER VALUES (6, 'Aaron', 'Toronto', 10, 'Active'),
               (7, 'Zed', 'Toronto', 10, 'Active');",
        )
        .unwrap();
        cs.refresh(&db);
        assert!(cs.table(&"SUPPLIER".into()).is_none(), "6 names > 5");
        assert!(cs.table(&"PARTS".into()).is_some());
        assert_eq!(cs, ColumnStore::build_with_dict_limit(&db, 5));
    }

    fn tiny_str_table() -> TableColumns {
        // Values: ["b", NULL, "d", "a", "d"] → dict [a, b, d].
        let mut nulls = NullBitmap::new();
        for is_null in [false, true, false, false, false] {
            nulls.push(is_null);
        }
        TableColumns {
            rows: 5,
            cols: vec![ColumnData::Str {
                codes: vec![1, 0, 2, 0, 2],
                nulls,
                dict: vec!["a".into(), "b".into(), "d".into()],
            }],
        }
    }

    #[test]
    fn string_predicates_compile_to_code_ranges() {
        use uniq_plan::AttrRef;
        let tc = tiny_str_table();
        let pred = |op: CmpOp, lit: &str| BoundExpr::Cmp {
            op,
            left: BScalar::Attr(AttrRef::local(0)),
            right: BScalar::Literal(Value::Str(lit.into())),
        };
        let rows_matching =
            |p: &Pred| -> Vec<usize> { (0..5).filter(|&r| eval_pred(p, &tc, r)).collect() };
        // "c" is absent from the dictionary: Eq matches nothing, Ne
        // matches every non-NULL row, ranges split around its position.
        let eq = compile_pred(&pred(CmpOp::Eq, "c"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&eq), Vec::<usize>::new());
        let ne = compile_pred(&pred(CmpOp::Ne, "c"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&ne), vec![0, 2, 3, 4]);
        let lt = compile_pred(&pred(CmpOp::Lt, "c"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&lt), vec![0, 3]);
        let ge = compile_pred(&pred(CmpOp::Ge, "c"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&ge), vec![2, 4]);
        // Present literal: all six operators, NULL row never qualifies.
        let le = compile_pred(&pred(CmpOp::Le, "b"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&le), vec![0, 3]);
        let gt = compile_pred(&pred(CmpOp::Gt, "b"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&gt), vec![2, 4]);
        let eq_b = compile_pred(&pred(CmpOp::Eq, "b"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&eq_b), vec![0]);
        let ne_b = compile_pred(&pred(CmpOp::Ne, "b"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&ne_b), vec![2, 3, 4]);
        // NULL literal compiles to the never-matching predicate.
        let never = compile_pred(
            &BoundExpr::Cmp {
                op: CmpOp::Eq,
                left: BScalar::Attr(AttrRef::local(0)),
                right: BScalar::Literal(Value::Null),
            },
            &(0..1),
            &tc,
        )
        .unwrap();
        assert_eq!(never, Pred::Never);
        assert_eq!(rows_matching(&never), Vec::<usize>::new());
    }

    #[test]
    fn filter_kernel_counts_chunks_not_rows() {
        let tc = tiny_str_table();
        let mut stats = ExecStats::new();
        let sel = filter_table(&tc, &[], &mut stats);
        assert_eq!(sel, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.vector_ops, 1, "one chunk, identity kernel");
        assert_eq!(stats.rows_scanned, 0, "columnar scans count no rows");
    }

    #[test]
    fn translation_maps_shared_strings_only() {
        let probe = vec!["a".to_string(), "c".to_string(), "d".to_string()];
        let build = vec!["b".to_string(), "c".to_string()];
        assert_eq!(translation(&probe, &build), vec![NONE_U32, 1, NONE_U32]);
    }

    #[test]
    fn direct_index_int_guards_wide_spans() {
        let mut nulls = NullBitmap::new();
        nulls.push(false);
        nulls.push(false);
        let wide = ColumnData::Int {
            values: vec![0, i64::MAX / 2],
            nulls: nulls.clone(),
        };
        let key = KeyAt {
            slot: 0,
            probe: &wide,
            build: &wide,
            trans: None,
        };
        assert!(build_direct(&key, &[0, 1]).is_none(), "span too wide");
        let narrow = ColumnData::Int {
            values: vec![7, 9],
            nulls,
        };
        let key = KeyAt {
            slot: 0,
            probe: &narrow,
            build: &narrow,
            trans: None,
        };
        let d = build_direct(&key, &[0, 1]).unwrap();
        assert_eq!(direct_lookup(&d, 7), 0);
        assert_eq!(direct_lookup(&d, 8), NONE_U32);
        assert_eq!(direct_lookup(&d, 9), 1);
        assert_eq!(direct_lookup(&d, 100), NONE_U32, "outside span misses");
    }
}
