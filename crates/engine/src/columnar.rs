//! Columnar storage and vectorized, uniqueness-aware execution kernels.
//!
//! A [`ColumnStore`] re-encodes a database's tables column-wise: `i64`
//! columns are stored flat next to a [`NullBitmap`], string columns are
//! dictionary-encoded into dense `u32` codes (one sorted dictionary per
//! column, so code order coincides with string order). The store is
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
//! A kernel reads an encoded cell without decoding it in one place,
//! `ColumnData::word(r, min)`: `None` for `NULL`, else the string's
//! dictionary code or the integer's offset from `min`, modulo 2⁶⁴. For
//! one `min` words are injective within a column and order like their
//! values from `min` upwards, so with `min = i64::MIN` every integer word
//! orders like its integer, and with the column's own minimum the words
//! are small indices. Everything else is built on that reader:
//!
//! * a compiled filter is one inclusive word range, negated for `<>`,
//!   for all six operators on both column types (a sorted dictionary
//!   makes string order code order); `NULL` never qualifies;
//! * a key column (`KeyCol`: tuple slot, column, a join probe's
//!   translation into the build dictionary, domain) yields `NULL`, a
//!   miss (a probe string the build side lacks) or a word. A hashed join
//!   key is that word, or a `CodeKey` of words; the words of `GROUP BY`,
//!   `DISTINCT` and the aggregates are key columns over the projection.
//!
//! Keys are built without touching the heap. When a key's domain is
//! small, a kernel indexes its table by the words themselves and hashes
//! nothing. Such a *dense table* is one array, indexed by a mixed-radix
//! slot with one digit per key column: digit 0 is `NULL` and any other
//! is the word + 1. Domains come from the encoding, not from statistics:
//! a string column's width is `|dict| + 1`, an integer column's
//! `max − min + 2`, from the bounds the store keeps current across
//! appends (a join build side uses its filtered rows' bounds). A table
//! is dense when the product of its key columns' widths is at most four
//! slots per input tuple or build row, with a floor of 1,024 and never
//! more than `DIRECT_SPAN_LIMIT`. That one rule serves the join
//! postings, the `GROUP BY` index, the `DISTINCT` set and, as one
//! (group, word) bitmap, `COUNT(DISTINCT)`.
//!
//! Wider domains keep hashed tables under the executor's one keyed
//! hasher (the private `hasher` module): a join step on one key hashes
//! that key's word alone; a multi-key step, `DISTINCT` and `GROUP BY`
//! hash a fixed-width `CodeKey` (a word per join key column; a `(null,
//! word)` pair per projected column), stored inline for up to four
//! pairs and spilled to the heap only when wider; `COUNT(DISTINCT e)`
//! hashes (group, word) pairs. Either table makes each lookup cheaper,
//! not fewer: every kernel books `hash_probes` and `probe_steps` exactly
//! as a `Value`-keyed hash table would, so only time tells them apart.
//!
//! Uniqueness is the fast path throughout:
//!
//! * when a join step's keys cover a candidate key of the build side
//!   (the planner's `JoinStep::unique` proof), a step on one key is the
//!   *direct-index* kernel: the one-posting case of the dense table, for
//!   any dictionary or an integer span up to `DIRECT_SPAN_LIMIT`, one
//!   array load per probe and `hash_probes == 0`;
//! * blocks the optimizer proved duplicate-free never reach the
//!   distinct kernel at all (the rewrite removed the `DISTINCT`), so
//!   the encoded access inherits that saving for free.
//!
//! The planner's license is the one decision of which blocks these
//! kernels cover. `Encoded::compile` re-verifies only that the store is
//! fresh for the database, before any counter moves, and otherwise the
//! block reads the stored rows; a licensed conjunct that does not
//! compile is an internal error, as a plan that does not match its query
//! is. The rows access stays the reference the agreement suites check
//! this one against. Kernels walk their input in [`CHUNK_SIZE`]-row
//! chunks; each (kernel, chunk) pair counts one `vector_ops`, the
//! columnar analogue of per-row dispatch.

use crate::agg::{dense_distinct_counts, hashed_distinct_counts, Groups, Tuples};
use crate::exec::{hash_join, Postings, Probe, NO_SLOT};
use crate::stats::ExecStats;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;
use uniq_catalog::{Database, Row, TableRows, TableSchema};
use uniq_cost::BlockPlan;
use uniq_plan::{BScalar, BoundAgg, BoundExpr, BoundSpec};
use uniq_sql::CmpOp;
use uniq_types::{DataType, Error, NullBitmap, Result, TableName, Value};

/// Rows per column chunk: the unit of vectorized work, so one kernel
/// pass over `n` rows books `n.div_ceil(CHUNK_SIZE)` `vector_ops`.
pub const CHUNK_SIZE: usize = 1024;

/// Most slots a dense table may hold, and the widest integer key span
/// (`max - min + 1`) a unique join step indexes directly; wider keys
/// are hashed.
const DIRECT_SPAN_LIMIT: u64 = 1 << 22;

/// Slots a dense table over `n` input tuples or build rows may hold:
/// four per input, at least 1,024 and at most [`DIRECT_SPAN_LIMIT`], so
/// a table never outgrows its input by more than a constant factor.
fn dense_slots(n: usize) -> u64 {
    (4 * n as u64).clamp(1024, DIRECT_SPAN_LIMIT)
}

/// Sentinel row id / code meaning "no entry". A table holds at most
/// `u32::MAX` rows, so no dictionary code reaches it.
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
        /// The smallest and largest non-NULL value, `None` while there is
        /// none: the column's dense domain, kept current by every append.
        bounds: Option<(i64, i64)>,
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

impl ColumnData {
    /// Row `r` as a code word, `None` when it is `NULL`: the string's
    /// dictionary code, or the integer's offset from `min` modulo 2⁶⁴.
    /// The one place a kernel reads a cell without decoding it.
    #[inline]
    fn word(&self, r: usize, min: i64) -> Option<u64> {
        match self {
            ColumnData::Int { values, nulls, .. } => {
                (!nulls.is_null(r)).then(|| values[r].wrapping_sub(min) as u64)
            }
            ColumnData::Str { codes, nulls, .. } => {
                (!nulls.is_null(r)).then(|| u64::from(codes[r]))
            }
        }
    }

    /// Row `r` decoded back to a [`Value`] (late materialization).
    fn value(&self, r: usize) -> Value {
        match self {
            ColumnData::Int { values, nulls, .. } if !nulls.is_null(r) => Value::Int(values[r]),
            ColumnData::Str { codes, nulls, dict } if !nulls.is_null(r) => {
                Value::Str(dict[codes[r] as usize].clone())
            }
            _ => Value::Null,
        }
    }

    /// The column's domain, read from its encoding: its dictionary, or
    /// the integer bounds the store keeps.
    fn domain(&self) -> Domain {
        match self {
            ColumnData::Int { bounds, .. } => Domain::ints(*bounds),
            ColumnData::Str { dict, .. } => Domain {
                min: 0,
                width: dict.len() as u64 + 1,
            },
        }
    }
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
        self.cols[c].value(r)
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
}

impl ColumnStore {
    /// Encode every table of `db`, skipping any with more rows than
    /// `u32` row ids address.
    pub fn build(db: &Database) -> ColumnStore {
        let mut store = ColumnStore {
            tables: HashMap::new(),
            catalog_version: db.version(),
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
                        .append(rows.range(at..))
                        .then_some(tc)
                }
                // Unseen, or not a later state of the encoded table.
                _ => encode_table(schema, rows).map(Arc::new),
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

fn encode_table(schema: &TableSchema, rows: TableRows<'_>) -> Option<TableColumns> {
    let cols = schema
        .columns
        .iter()
        .map(|def| match def.data_type {
            DataType::Int => Some(ColumnData::Int {
                values: Vec::with_capacity(rows.len()),
                nulls: NullBitmap::with_capacity(rows.len()),
                bounds: None,
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
    tc.append(rows).then_some(tc)
}

impl TableColumns {
    /// Encode `rows` after the encoded ones. Returns `false` (leaving the
    /// encoding unusable) when they cannot be encoded: a value of the
    /// wrong type, or a row count beyond `u32`.
    fn append(&mut self, rows: TableRows<'_>) -> bool {
        if self.rows + rows.len() > NONE_U32 as usize {
            return false;
        }
        for (c, col) in self.cols.iter_mut().enumerate() {
            let fits = match col {
                ColumnData::Int {
                    values,
                    nulls,
                    bounds,
                } => rows.iter().all(|row| match &row[c] {
                    Value::Null => {
                        values.push(0);
                        nulls.push(true);
                        true
                    }
                    &Value::Int(i) => {
                        values.push(i);
                        nulls.push(false);
                        *bounds = Some(bounds.map_or((i, i), |(lo, hi)| (lo.min(i), hi.max(i))));
                        true
                    }
                    _ => false,
                }),
                ColumnData::Str { codes, nulls, dict } => {
                    extend_dict(dict, codes, nulls, rows, c)
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
/// shifts them. `false` when a value is not a string.
fn extend_dict(
    dict: &mut Vec<String>,
    codes: &mut [u32],
    nulls: &NullBitmap,
    rows: TableRows<'_>,
    c: usize,
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

// --- filters -----------------------------------------------------------

/// A table-local conjunct compiled against one encoded table: a row
/// qualifies iff column `col` is not `NULL` and its word from
/// `i64::MIN`, which orders like its value, lies in `lo..=hi` (xor
/// `negate`, for `<>`). `lo > hi` is the empty range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Filter {
    col: usize,
    lo: u64,
    hi: u64,
    negate: bool,
}

impl Filter {
    /// Compile `col ⋄ literal` (either way round) over the table
    /// occupying `range`, or `None` when `c` has another shape.
    fn compile(c: &BoundExpr, range: &Range<usize>, tc: &TableColumns) -> Option<Filter> {
        let BoundExpr::Cmp { op, left, right } = c else {
            return None;
        };
        let (attr, lit, op) = match (left, right) {
            (BScalar::Attr(a), BScalar::Literal(v)) => (a, v, *op),
            (BScalar::Literal(v), BScalar::Attr(a)) => (a, v, op.flip()),
            _ => return None,
        };
        if !attr.is_local() || !range.contains(&attr.idx) {
            return None;
        }
        let col = attr.idx - range.start;
        let empty = Filter {
            col,
            lo: 1,
            hi: 0,
            negate: false,
        };
        // `at` words lie below the literal, which is itself a word iff
        // `hit` is 1. A comparison with `NULL` admits nothing.
        let (at, hit) = match (tc.column(col), lit) {
            (_, Value::Null) => return Some(empty),
            (ColumnData::Int { .. }, &Value::Int(i)) => (i.wrapping_sub(i64::MIN) as u64, 1),
            (ColumnData::Str { dict, .. }, Value::Str(s)) => {
                let pos = dict.partition_point(|d| d < s);
                (pos as u64, u8::from(dict.get(pos) == Some(s)))
            }
            _ => return None,
        };
        let (at, hit, top) = (i128::from(at), i128::from(hit), i128::from(u64::MAX));
        let (lo, hi) = match op {
            CmpOp::Eq | CmpOp::Ne => (at, at + hit - 1),
            CmpOp::Lt => (0, at - 1),
            CmpOp::Le => (0, at + hit - 1),
            CmpOp::Gt => (at + hit, top),
            CmpOp::Ge => (at, top),
        };
        let negate = op == CmpOp::Ne;
        Some(match (u64::try_from(lo), u64::try_from(hi)) {
            (Ok(lo), Ok(hi)) if lo <= hi => Filter {
                col,
                lo,
                hi,
                negate,
            },
            _ => Filter { negate, ..empty },
        })
    }

    /// Whether row `r` of `tc` qualifies.
    #[inline]
    fn admits(&self, tc: &TableColumns, r: usize) -> bool {
        let word = tc.column(self.col).word(r, i64::MIN);
        word.is_some_and(|w| (self.lo <= w && w <= self.hi) != self.negate)
    }
}

/// Vectorized filter: walk the table in [`CHUNK_SIZE`]-row chunks,
/// build each chunk's identity selection, then refine it filter by
/// filter — rows are never copied, only the selection shrinks. One
/// `vector_ops` per (filter, chunk).
fn filter_table(tc: &TableColumns, filters: &[Filter], stats: &mut ExecStats) -> Vec<u32> {
    let mut sel = Vec::new();
    let mut chunk = Vec::with_capacity(CHUNK_SIZE.min(tc.rows));
    for start in (0..tc.rows).step_by(CHUNK_SIZE) {
        let end = (start + CHUNK_SIZE).min(tc.rows);
        chunk.clear();
        chunk.extend(start as u32..end as u32);
        for f in filters {
            chunk.retain(|&r| f.admits(tc, r as usize));
        }
        sel.extend_from_slice(&chunk);
    }
    stats.vector_ops += (tc.rows.div_ceil(CHUNK_SIZE) * filters.len().max(1)) as u64;
    sel
}

// --- keys --------------------------------------------------------------

/// Each probe-dictionary code's code in the build dictionary, `NONE_U32`
/// where the build side lacks the string: translated once per distinct
/// probe value, not once per row.
fn translation(probe_dict: &[String], build_dict: &[String]) -> Vec<u32> {
    probe_dict
        .iter()
        .map(|s| match build_dict.binary_search(s) {
            Ok(i) => i as u32,
            Err(_) => NONE_U32,
        })
        .collect()
}

/// A key column's domain: its integer words are offsets from `min`, and
/// `width` dense digits (`NULL` and the words below `width - 1`) cover
/// every value the column holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Domain {
    min: i64,
    width: u64,
}

impl Domain {
    /// The integers `lo..=hi` (none when `bounds` is `None`), saturating
    /// at a width no table fits.
    fn ints(bounds: Option<(i64, i64)>) -> Domain {
        match bounds {
            Some((lo, hi)) => Domain {
                min: lo,
                width: u64::try_from(i128::from(hi) - i128::from(lo) + 2).unwrap_or(u64::MAX),
            },
            None => Domain { min: 0, width: 1 },
        }
    }
}

/// The domain of a join step's build column over the rows `build`
/// selects: an integer key spans only their values.
fn build_domain(column: &ColumnData, build: &[u32]) -> Domain {
    let ColumnData::Int { .. } = column else {
        return column.domain();
    };
    // Words from `i64::MIN` order like the integers.
    let words = build
        .iter()
        .filter_map(|&r| column.word(r as usize, i64::MIN));
    let bounds = words.fold(None, |b, w| {
        Some(b.map_or((w, w), |(lo, hi): (u64, u64)| (lo.min(w), hi.max(w))))
    });
    let int = |w| i64::MIN.wrapping_add_unsigned(w);
    Domain::ints(bounds.map(|(lo, hi)| (int(lo), int(hi))))
}

/// One key column of a kernel's table: the column the row in tuple slot
/// `slot` is read from, a join probe's translation of its codes into
/// the build dictionary, and the domain its words are taken in.
#[derive(Clone, Copy)]
struct KeyCol<'a> {
    slot: usize,
    column: &'a ColumnData,
    trans: Option<&'a [u32]>,
    domain: Domain,
}

impl KeyCol<'_> {
    /// `tuple`'s word, `None` when it is `NULL`.
    #[inline]
    fn word(&self, tuple: &[u32]) -> Option<u64> {
        self.column.word(tuple[self.slot] as usize, self.domain.min)
    }

    /// `tuple`'s key: `Null`, a `Miss` when the build dictionary lacks
    /// the probe's string, else its word (in build space).
    #[inline]
    fn key(&self, tuple: &[u32]) -> Probe<u64> {
        match (self.word(tuple), self.trans) {
            (None, _) => Probe::Null,
            (Some(w), None) => Probe::Key(w),
            (Some(w), Some(trans)) => match trans[w as usize] {
                NONE_U32 => Probe::Miss,
                code => Probe::Key(u64::from(code)),
            },
        }
    }

    /// `tuple`'s cell, decoded.
    fn value(&self, tuple: &[u32]) -> Value {
        self.column.value(tuple[self.slot] as usize)
    }
}

/// A dense key: one digit per key column, combined into a mixed-radix
/// slot below `slots`, the product of the columns' widths. A table over
/// such keys is one array indexed by the slot, with no hashing: the
/// join's [`Postings`], the group index of `GROUP BY` and `DISTINCT`.
struct DenseKey<'a> {
    /// Each key column with its place value.
    digits: Vec<(KeyCol<'a>, u64)>,
    slots: usize,
}

impl<'a> DenseKey<'a> {
    /// The key over `columns` when the product of their widths is at
    /// most `cap`.
    fn new(columns: impl IntoIterator<Item = KeyCol<'a>>, cap: u64) -> Option<DenseKey<'a>> {
        let mut slots = 1u64;
        let digits = (columns.into_iter())
            .map(|column| {
                let stride = slots;
                slots = slots
                    .checked_mul(column.domain.width)
                    .filter(|&s| s <= cap)?;
                Some((column, stride))
            })
            .collect::<Option<Vec<_>>>()?;
        let slots = usize::try_from(slots).ok()?;
        Some(DenseKey { digits, slots })
    }

    /// `tuple`'s slot, `NULL` counting as a value (`=̇`): the grouping
    /// and `DISTINCT` key over the store's own domains, which hold every
    /// word.
    fn slot(&self, tuple: &[u32]) -> usize {
        (self.digits.iter())
            .map(|(column, stride)| column.word(tuple).map_or(0, |w| w + 1) * stride)
            .sum::<u64>() as usize
    }

    /// `tuple`'s join probe: no probe when a key is `NULL`, a miss when
    /// a key lies outside the build side's domain, else its slot.
    fn probe(&self, tuple: &[u32]) -> Probe<u32> {
        let (mut slot, mut miss) = (0, false);
        for (column, stride) in &self.digits {
            match column.key(tuple) {
                Probe::Null => return Probe::Null,
                Probe::Key(w) if w < column.domain.width - 1 => slot += (w + 1) * stride,
                Probe::Key(_) | Probe::Miss => miss = true,
            }
        }
        if miss {
            Probe::Miss
        } else {
            Probe::Key(slot as u32)
        }
    }
}

/// Every column's (null, word) pair: the hashed group and `DISTINCT`
/// key, exact under `=̇` because words within one column are injective
/// and a `NULL` cell's word is never read.
fn group_key(columns: &[KeyCol<'_>], tuple: &[u32]) -> CodeKey {
    let words = columns.iter().flat_map(|column| match column.word(tuple) {
        None => [Some(1), Some(0)],
        Some(w) => [Some(0), Some(w)],
    });
    CodeKey::try_from_words(2 * columns.len(), words).expect("every word is present")
}

// --- the encoded access ------------------------------------------------

/// One equi-join key of a step: the probe side's column, read from
/// tuple slot `slot`, with its codes translated into the build side's
/// dictionary when both are strings, and the build side's column.
struct JoinKey<'a> {
    slot: usize,
    probe: &'a ColumnData,
    build: &'a ColumnData,
    trans: Option<Vec<u32>>,
}

/// A block compiled for the encoded access: each tuple slot's encoding,
/// per pipeline level the compiled filters of its table (and, for a
/// join step, its keys), and the projection as key columns.
pub(crate) struct Encoded<'a> {
    tables: Vec<&'a TableColumns>,
    levels: Vec<(Vec<Filter>, Vec<JoinKey<'a>>)>,
    proj: Vec<KeyCol<'a>>,
}

impl<'a> Encoded<'a> {
    /// Compile a block the plan licenses for the encoded access, given
    /// its conjuncts by pipeline level and where each attribute lives
    /// (`attrs[idx]` = tuple slot, table-local column). The license is
    /// the one coverage decision, so only the store is re-verified:
    /// `None`, with no counter touched, when it holds no current encoding
    /// of a table the block reads (the catalog moved, or a table's row
    /// count differs from its encoding: `INSERT` does not bump the
    /// catalog version). A licensed conjunct that does not compile, or
    /// join keys of different encodings, is an internal error.
    pub(crate) fn compile(
        store: &'a ColumnStore,
        db: &Database,
        spec: &BoundSpec,
        bp: &BlockPlan,
        levels: &[Vec<&BoundExpr>],
        attrs: &[(usize, usize)],
    ) -> Result<Option<Encoded<'a>>> {
        if store.catalog_version != db.version() {
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
            let (mut filters, mut keys) = (Vec::new(), Vec::new());
            for c in conjuncts {
                let Some((built, new)) = c.equi_join_key(&range, |idx| attrs[idx].0 < k) else {
                    let filter = Filter::compile(c, &range, tables[k]);
                    filters.push(filter.ok_or_else(|| {
                        Error::internal("a licensed conjunct does not compile to a filter")
                    })?);
                    continue;
                };
                let (slot, probe_col) = attrs[built];
                let probe = tables[slot].column(probe_col);
                let build = tables[k].column(new - range.start);
                let trans = match (probe, build) {
                    (ColumnData::Int { .. }, ColumnData::Int { .. }) => None,
                    (ColumnData::Str { dict: p, .. }, ColumnData::Str { dict: b, .. }) => {
                        Some(translation(p, b))
                    }
                    _ => return Err(Error::internal("join keys of different encodings")),
                };
                keys.push(JoinKey {
                    slot,
                    probe,
                    build,
                    trans,
                });
            }
            compiled.push((filters, keys));
        }
        let proj = (spec.projection.iter())
            .map(|p| {
                let (slot, col) = attrs[p.attr];
                let column = tables[slot].column(col);
                KeyCol {
                    slot,
                    column,
                    trans: None,
                    domain: column.domain(),
                }
            })
            .collect();
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
    /// tuple. When the keys' build-side domains fit a dense table, the
    /// key's code words index the table directly; other keys hash their
    /// words. A `unique` step on one key is the direct-index kernel:
    /// dense for any dictionary or an integer span up to
    /// [`DIRECT_SPAN_LIMIT`], it books no hash work and one probe step
    /// per probe. Every other step books what a hash table would.
    pub(crate) fn join(
        &self,
        k: usize,
        unique: bool,
        tuples: &[u32],
        stats: &mut ExecStats,
    ) -> Result<Vec<u32>> {
        let (filters, keys) = &self.levels[k];
        let build = filter_table(self.tables[k], filters, stats);
        // Both sides take an integer key's words from the build rows'
        // minimum, so equal values have equal words.
        let (build_key, probe_key): (Vec<KeyCol<'_>>, Vec<KeyCol<'_>>) = (keys.iter())
            .map(|key| {
                let domain = build_domain(key.build, &build);
                let build = KeyCol {
                    slot: 0,
                    column: key.build,
                    trans: None,
                    domain,
                };
                let probe = KeyCol {
                    slot: key.slot,
                    column: key.probe,
                    trans: key.trans.as_deref(),
                    domain,
                };
                (build, probe)
            })
            .unzip();
        let direct = unique && keys.len() == 1;
        let cap = match build_key.first().map(|key| key.column) {
            Some(ColumnData::Str { .. }) if direct => u64::MAX,
            Some(ColumnData::Int { .. }) if direct => DIRECT_SPAN_LIMIT + 1,
            _ => dense_slots(build.len()),
        };
        let dense = DenseKey::new(build_key.iter().copied(), cap).map(|dense_build| {
            let dense_probe = DenseKey::new(probe_key.iter().copied(), cap);
            (
                dense_build,
                dense_probe.expect("same widths as the build key"),
            )
        });
        let mut out = Vec::new();
        let emit = |tuple: &[u32], m: u32| {
            out.extend_from_slice(tuple);
            out.push(m);
            Ok(())
        };
        let (probes, steps) = match (&dense, build_key.as_slice(), probe_key.as_slice()) {
            (Some((dense_build, dense_probe)), _, _) => {
                let slot_of: Vec<u32> = (build.iter())
                    .map(|&r| match dense_build.probe(&[r]) {
                        Probe::Key(slot) => slot,
                        Probe::Null | Probe::Miss => NO_SLOT,
                    })
                    .collect();
                let postings = Postings::new(&build, &slot_of, dense_build.slots);
                postings.probe(tuples, k, |tuple| dense_probe.probe(tuple), unique, emit)?
            }
            // One key hashes its word alone.
            (None, [build_col], [probe_col]) => hash_join(
                tuples,
                k,
                &build,
                |r| build_col.word(&[r]),
                |tuple| probe_col.key(tuple),
                unique,
                emit,
            )?,
            (None, _, _) => hash_join(
                tuples,
                k,
                &build,
                |r| CodeKey::try_from_words(keys.len(), build_key.iter().map(|c| c.word(&[r]))),
                |tuple| {
                    let mut miss = false;
                    let words = probe_key.iter().map(|c| match c.key(tuple) {
                        Probe::Null => None,
                        Probe::Miss => {
                            miss = true;
                            Some(0)
                        }
                        Probe::Key(w) => Some(w),
                    });
                    match CodeKey::try_from_words(keys.len(), words) {
                        None => Probe::Null,
                        Some(_) if miss => Probe::Miss,
                        Some(key) => Probe::Key(key),
                    }
                },
                unique,
                emit,
            )?,
        };
        if !direct || dense.is_none() {
            stats.hash_joins += 1;
            stats.hash_probes += probes;
        }
        stats.probe_steps += steps;
        stats.vector_ops += (tuples.len() / k).div_ceil(CHUNK_SIZE) as u64;
        Ok(out)
    }

    /// `DISTINCT` on encoded keys: keep the first tuple of each group of
    /// the whole projection (see [`EncodedTuples::groups`]), one
    /// `hash_probes` per tuple. Exact under `=̇`.
    pub(crate) fn distinct(&self, ids: Vec<u32>, stats: &mut ExecStats) -> Vec<u32> {
        let tuples = self.tuples(&ids);
        let groups = tuples.groups(self.proj.len());
        let kept = (groups.first.iter())
            .flat_map(|&t| tuples.tuple(t))
            .copied()
            .collect();
        stats.hash_probes += tuples.len() as u64;
        stats.vector_ops += tuples.len().div_ceil(CHUNK_SIZE) as u64;
        kept
    }

    /// Late materialization: decode the projection of every tuple.
    pub(crate) fn materialize(&self, ids: &[u32], stats: &mut ExecStats) -> Vec<Row> {
        let rows: Vec<Row> = (ids.chunks_exact(self.tables.len()))
            .map(|tuple| self.proj.iter().map(|column| column.value(tuple)).collect())
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
        let tuples = self.tuples(ids);
        let out = crate::agg::aggregate(agg, &tuples, stats)?;
        stats.vector_ops += tuples.len().div_ceil(CHUNK_SIZE) as u64;
        stats.materialized_rows += out.len() as u64;
        Ok(out)
    }

    /// The tuples of `ids`, as grouping and aggregation read them.
    fn tuples<'e>(&'e self, ids: &'e [u32]) -> EncodedTuples<'e, 'a> {
        EncodedTuples { enc: self, ids }
    }
}

/// Row-id tuples of an encoded block, read for `DISTINCT`, grouping and
/// aggregation through the projection's key columns. Words are
/// injective and order-preserving within a column (an integer's is its
/// offset from the column minimum), and below the column's domain width
/// minus one.
struct EncodedTuples<'e, 'a> {
    enc: &'e Encoded<'a>,
    ids: &'e [u32],
}

impl EncodedTuples<'_, '_> {
    fn tuple(&self, t: usize) -> &[u32] {
        let stride = self.enc.tables.len();
        &self.ids[t * stride..(t + 1) * stride]
    }
}

impl Tuples for EncodedTuples<'_, '_> {
    type Word = u64;

    fn len(&self) -> usize {
        self.ids.len() / self.enc.tables.len()
    }

    fn value(&self, t: usize, p: usize) -> Value {
        self.enc.proj[p].value(self.tuple(t))
    }

    fn word(&self, t: usize, p: usize) -> Option<u64> {
        self.enc.proj[p].word(self.tuple(t))
    }

    /// A dense slot table when the key's domains fit, else hashed
    /// [`CodeKey`]s.
    fn groups(&self, keys: usize) -> Groups {
        let (n, columns) = (self.len(), &self.enc.proj[..keys]);
        match DenseKey::new(columns.iter().copied(), dense_slots(n)) {
            Some(key) => Groups::dense(n, key.slots, |t| key.slot(self.tuple(t))),
            None => Groups::hashed(n, |t| group_key(columns, self.tuple(t))),
        }
    }

    /// A flat (group, word) bitmap when groups × the argument's domain
    /// fit a dense table, else the hashed set: words are small indices.
    fn distinct_counts(&self, p: usize, groups: &Groups, stats: &mut ExecStats) -> Vec<i64> {
        let span = self.enc.proj[p].domain.width - 1;
        let bits = (groups.len() as u64).checked_mul(span);
        if bits.is_some_and(|b| b <= dense_slots(self.len())) {
            let index = |t| self.word(t, p).map(|w| w as usize);
            dense_distinct_counts(groups, span as usize, index, stats)
        } else {
            hashed_distinct_counts(self, p, groups, stats)
        }
    }
}

/// Words a [`CodeKey`] holds inline: four (null, word) column pairs.
const INLINE_WORDS: usize = 8;

/// A fixed-width key of code words: up to [`INLINE_WORDS`] stored inline,
/// so building one allocates nothing; only wider keys spill to the
/// heap. Every key of one table has the same width.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CodeKey {
    /// `words[..len]`; the words past `len` stay zero.
    Inline { len: u8, words: [u64; INLINE_WORDS] },
    /// More than [`INLINE_WORDS`] words.
    Spilled(Box<[u64]>),
}

impl CodeKey {
    /// The key of `len` words, or `None` when a word is `None`.
    fn try_from_words(len: usize, words: impl IntoIterator<Item = Option<u64>>) -> Option<CodeKey> {
        let mut words = words.into_iter();
        if len > INLINE_WORDS {
            return words.collect::<Option<Box<[u64]>>>().map(CodeKey::Spilled);
        }
        let mut inline = [0; INLINE_WORDS];
        for slot in &mut inline[..len] {
            *slot = words.next()??;
        }
        Some(CodeKey::Inline {
            len: len as u8,
            words: inline,
        })
    }

    fn words(&self) -> &[u64] {
        match self {
            CodeKey::Inline { len, words } => &words[..*len as usize],
            CodeKey::Spilled(words) => words,
        }
    }
}

impl Hash for CodeKey {
    /// One word at a time, and only the words the key holds.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &w in self.words() {
            state.write_u64(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use uniq_catalog::sample::supplier_database;
    use uniq_plan::HostVars;

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
            |f: &Filter| -> Vec<usize> { (0..5).filter(|&r| f.admits(&tc, r)).collect() };
        // "c" is absent from the dictionary: Eq matches nothing, Ne
        // matches every non-NULL row, ranges split around its position.
        let eq = Filter::compile(&pred(CmpOp::Eq, "c"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&eq), Vec::<usize>::new());
        let ne = Filter::compile(&pred(CmpOp::Ne, "c"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&ne), vec![0, 2, 3, 4]);
        let lt = Filter::compile(&pred(CmpOp::Lt, "c"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&lt), vec![0, 3]);
        let ge = Filter::compile(&pred(CmpOp::Ge, "c"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&ge), vec![2, 4]);
        // Present literal: all six operators, NULL row never qualifies.
        let le = Filter::compile(&pred(CmpOp::Le, "b"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&le), vec![0, 3]);
        let gt = Filter::compile(&pred(CmpOp::Gt, "b"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&gt), vec![2, 4]);
        let eq_b = Filter::compile(&pred(CmpOp::Eq, "b"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&eq_b), vec![0]);
        let ne_b = Filter::compile(&pred(CmpOp::Ne, "b"), &(0..1), &tc).unwrap();
        assert_eq!(rows_matching(&ne_b), vec![2, 3, 4]);
        // NULL literal compiles to the empty range.
        let never = Filter::compile(
            &BoundExpr::Cmp {
                op: CmpOp::Eq,
                left: BScalar::Attr(AttrRef::local(0)),
                right: BScalar::Literal(Value::Null),
            },
            &(0..1),
            &tc,
        )
        .unwrap();
        let empty = Filter {
            col: 0,
            lo: 1,
            hi: 0,
            negate: false,
        };
        assert_eq!(never, empty);
        assert_eq!(rows_matching(&never), Vec::<usize>::new());
    }

    #[test]
    fn a_licensed_block_that_does_not_compile_is_an_internal_error() {
        use uniq_cost::{plan_query, PhysNode, PlannerOptions, Statistics};
        let db = supplier_database().unwrap();
        let (store, stats, hv) = (
            ColumnStore::build(&db),
            Statistics::collect(&db),
            HostVars::new(),
        );
        let run = |sql: &str, license: bool| {
            let query = uniq_sql::parse_query(sql).unwrap();
            let query = uniq_plan::bind_query(db.catalog(), &query).unwrap();
            let mut plan = plan_query(&query, Some(&stats), PlannerOptions::default());
            let PhysNode::Block(block) = &mut plan.root else {
                panic!("{sql} plans one block");
            };
            block.columnar |= license;
            let mut exec = crate::Executor::new(&db, &hv).with_columns(Some(&store));
            exec.run_with_plan(&query, &plan)
        };
        // The planner withholds the license from an OR, which the rows
        // access answers; forcing the license on is a broken plan.
        let sql = "SELECT P.PNO FROM PARTS P WHERE P.COLOR = 'RED' OR P.PNO = 1";
        assert!(run(sql, false).is_ok());
        assert!(matches!(
            run(sql, true),
            Err(uniq_types::Error::Internal(_))
        ));
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
        let column = |values: Vec<i64>| {
            let mut nulls = NullBitmap::new();
            values.iter().for_each(|_| nulls.push(false));
            ColumnData::Int {
                values,
                nulls,
                bounds: None,
            }
        };
        let key_col = |column, domain| KeyCol {
            slot: 0,
            column,
            trans: None,
            domain,
        };
        let cap = DIRECT_SPAN_LIMIT + 1;
        let wide = column(vec![0, i64::MAX / 2]);
        let domain = build_domain(&wide, &[0, 1]);
        assert!(
            DenseKey::new([key_col(&wide, domain)], cap).is_none(),
            "span too wide"
        );
        let narrow = column(vec![7, 9]);
        let domain = build_domain(&narrow, &[0, 1]);
        assert_eq!(domain, Domain { min: 7, width: 4 }, "NULL, 7, 8 and 9");
        let key = DenseKey::new([key_col(&narrow, domain)], cap).unwrap();
        let slot_of = [0, 1].map(|r| match key.probe(&[r]) {
            Probe::Key(slot) => slot,
            _ => NO_SLOT,
        });
        let table = Postings::new(&[0, 1], &slot_of, key.slots);
        let probe = column(vec![7, 8, 9, 100, 6]);
        let probe_key = DenseKey::new([key_col(&probe, domain)], cap).unwrap();
        let mut hits = Vec::new();
        let booked = table.probe(
            &[0, 1, 2, 3, 4],
            1,
            |tuple| probe_key.probe(tuple),
            true,
            |tuple, m| {
                hits.push((tuple[0], m));
                Ok(())
            },
        );
        assert_eq!(hits, vec![(0, 0), (2, 1)]);
        assert_eq!(
            booked.unwrap(),
            (5, 5),
            "one step per probe, misses outside the span too"
        );
    }

    /// An analyzed session over `E (ID, N, S)` and `F (N, S, M, T)`,
    /// whose nullable columns hold the values key words must keep apart:
    /// NULL beside 0, −1 and both `i64` extremes, and NULL beside `''`
    /// and ordinary strings, each repeated. The rows go in through the
    /// catalog API, since SQL cannot spell `i64::MIN`.
    fn edge_session() -> Session {
        let mut db = supplier_database().unwrap();
        db.run_script(
            "CREATE TABLE E (ID INTEGER, N INTEGER, S VARCHAR);
             CREATE TABLE F (N INTEGER, S VARCHAR, M INTEGER, T VARCHAR);",
        )
        .unwrap();
        let int = |n: Option<i64>| n.map_or(Value::Null, Value::Int);
        let string = |s: Option<&str>| s.map_or(Value::Null, Value::str);
        let (min, max) = (Some(i64::MIN), Some(i64::MAX));
        let e = [
            (None, None),
            (Some(0), Some("")),
            (Some(-1), Some("x")),
            (min, Some("")),
            (max, None),
            (None, Some("x")),
            (Some(0), Some("y")),
            (min, Some("x")),
            (max, Some("")),
            (Some(-1), None),
            (Some(0), Some("x")),
        ];
        for (id, (n, s)) in (1..).zip(e) {
            let row = vec![Value::Int(id), int(n), string(s)];
            db.insert(&"E".into(), row).unwrap();
        }
        let f = [
            (Some(0), Some(""), Some(1), Some("p")),
            (Some(0), Some(""), Some(1), Some("p")),
            (min, Some("x"), None, Some("q")),
            (None, None, Some(2), None),
            (Some(-1), Some("y"), Some(2), Some("p")),
            (max, Some(""), None, None),
            (Some(0), Some("x"), Some(1), Some("p")),
            (min, Some("x"), None, Some("q")),
        ];
        for (n, s, m, t) in f {
            let row = vec![int(n), string(s), int(m), string(t)];
            db.insert(&"F".into(), row).unwrap();
        }
        Session::new(db).with_cost_based()
    }

    /// `sql` as served on the encoded access, in sorted order, after
    /// checking it against the same plan on the stored rows and against
    /// the unoptimized fixed plan.
    fn agreed(session: &Session, sql: &str) -> Vec<Row> {
        let sorted = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| uniq_types::value::tuple_null_cmp(a, b).unwrap());
            rows
        };
        let hv = HostVars::new();
        let served = session.query(sql).unwrap();
        assert!(served.stats.vector_ops > 0, "{sql}: not encoded");
        let rows = sorted(served.rows);
        let row_path = session.query_row_path(sql, &hv).unwrap();
        assert_eq!(row_path.stats.vector_ops, 0);
        assert_eq!(rows, sorted(row_path.rows), "{sql}: rows access");
        let oracle = session.query_unoptimized(sql, &hv).unwrap();
        assert_eq!(rows, sorted(oracle.rows), "{sql}: unoptimized");
        rows
    }

    #[test]
    fn code_word_keys_are_exact_on_nulls_empty_strings_and_integer_extremes() {
        let session = edge_session();
        // N: NULL, 0, -1 and both extremes; S: NULL, '', 'x' and 'y'.
        for (col, other, values) in [("N", "S", 5), ("S", "N", 4)] {
            let distinct = agreed(&session, &format!("SELECT DISTINCT E.{col} FROM E"));
            assert_eq!(distinct.len(), values, "{col}");
            let groups = agreed(
                &session,
                &format!(
                    "SELECT E.{col}, COUNT(*) AS K, COUNT(DISTINCT E.{other}) AS D, \
                     COUNT(E.{other}) AS C FROM E GROUP BY E.{col}"
                ),
            );
            assert_eq!(groups.len(), values, "{col}");
            agreed(
                &session,
                &format!("SELECT COUNT(DISTINCT E.{col}) AS D, COUNT(E.{col}) AS C FROM E"),
            );
            let join = agreed(
                &session,
                &format!("SELECT E.ID, F.M, F.T FROM E, F WHERE E.{col} = F.{col}"),
            );
            assert!(!join.is_empty());
            agreed(
                &session,
                &format!("SELECT DISTINCT E.{other}, F.T FROM E, F WHERE E.{col} = F.{col}"),
            );
        }
        // Two keys: the join hashes an inline word pair per tuple.
        let both = agreed(
            &session,
            "SELECT E.ID, F.M FROM E, F WHERE E.N = F.N AND E.S = F.S",
        );
        assert_eq!(both.len(), 6, "{both:?}");
    }

    /// An analyzed session over `G (K, S, V, W)` and `H (K, S, T)`.
    /// `K` holds NULL beside 0 and negative integers, `S` NULL beside
    /// `''` (code 0), `V` small integers, so their domains fit dense
    /// tables; `W` holds both `i64` extremes, a domain too wide for any
    /// table, so every key over it is hashed.
    fn dense_session() -> Session {
        let mut db = supplier_database().unwrap();
        db.run_script(
            "CREATE TABLE G (K INTEGER, S VARCHAR, V INTEGER, W INTEGER);
             CREATE TABLE H (K INTEGER, S VARCHAR, T VARCHAR);",
        )
        .unwrap();
        let int = |n: Option<i64>| n.map_or(Value::Null, Value::Int);
        let string = |s: Option<&str>| s.map_or(Value::Null, Value::str);
        let (min, max) = (Some(i64::MIN), Some(i64::MAX));
        let g = [
            (Some(0), Some(""), Some(5), min),
            (None, None, Some(-3), max),
            (Some(-2), Some("x"), None, Some(0)),
            (Some(0), Some("x"), Some(7), min),
            (None, Some(""), Some(5), None),
            (Some(-2), None, Some(-3), max),
            (Some(3), Some("y"), Some(0), Some(0)),
            (Some(0), Some(""), None, min),
            (Some(-2), Some("x"), Some(7), Some(-1)),
        ];
        for (k, s, v, w) in g {
            db.insert(&"G".into(), vec![int(k), string(s), int(v), int(w)])
                .unwrap();
        }
        let h = [
            (Some(0), Some(""), "p"),
            (Some(-2), Some("x"), "q"),
            (None, Some(""), "r"),
            (Some(0), Some("x"), "p"),
            (Some(3), None, "q"),
            (Some(-2), Some("x"), "r"),
            (Some(5), Some("y"), "p"),
        ];
        for (k, s, t) in h {
            db.insert(&"H".into(), vec![int(k), string(s), Value::str(t)])
                .unwrap();
        }
        Session::new(db).with_cost_based()
    }

    /// `DISTINCT`, `GROUP BY` with every aggregate, global aggregates and
    /// one- and two-key joins over [`dense_session`]'s tables, on dense
    /// and on too-wide keys.
    fn dense_statements() -> Vec<String> {
        let mut statements: Vec<String> = [
            "SELECT DISTINCT G.K FROM G",
            "SELECT DISTINCT G.S FROM G",
            "SELECT DISTINCT G.K, G.S FROM G",
            "SELECT DISTINCT G.W FROM G",
            "SELECT DISTINCT G.K, G.W FROM G",
            "SELECT COUNT(DISTINCT G.K) AS D, COUNT(DISTINCT G.W) AS E, MIN(G.K) AS LO, \
             MAX(G.W) AS HI, MIN(G.W) AS WL, SUM(G.K) AS T FROM G",
            "SELECT G.V, H.T FROM G, H WHERE G.K = H.K",
            "SELECT G.V, H.T FROM G, H WHERE G.S = H.S",
            "SELECT G.W, H.T FROM G, H WHERE G.K = H.K AND G.S = H.S",
            "SELECT DISTINCT G.S, H.T FROM G, H WHERE G.K = H.K",
        ]
        .map(String::from)
        .to_vec();
        for keys in ["G.K", "G.S", "G.W", "G.K, G.S"] {
            statements.push(format!(
                "SELECT {keys}, COUNT(*) AS N, COUNT(G.V) AS C, COUNT(DISTINCT G.S) AS D, \
                 COUNT(DISTINCT G.W) AS E, SUM(G.V) AS T, MIN(G.V) AS LO, MAX(G.S) AS HI, \
                 MIN(G.W) AS WL, MAX(G.W) AS WH FROM G GROUP BY {keys}"
            ));
        }
        statements
    }

    #[test]
    fn dense_tables_are_exact_on_nulls_empty_strings_and_negative_integers() {
        let session = dense_session();
        let store = ColumnStore::build(&session.db);
        let g = store.table(&"G".into()).unwrap();
        assert_eq!(g.column(0).domain(), Domain { min: -2, width: 7 });
        assert_eq!(g.column(1).domain(), Domain { min: 0, width: 4 });
        assert_eq!(g.column(3).domain().width, u64::MAX, "W is too wide");
        let counts: Vec<usize> = (dense_statements().iter())
            .map(|sql| agreed(&session, sql).len())
            .collect();
        // NULL, 0, -2 and 3; NULL, '', 'x' and 'y'; NULL, 0, -1 and both
        // extremes.
        assert_eq!(counts[..5], [4, 4, 7, 5, 7]);
        assert_eq!(counts[10..], [4, 4, 5, 7], "one group per key value");
    }

    #[test]
    fn dense_tables_follow_domains_that_move_without_a_second_analyze() {
        let mut session = dense_session();
        let statements = dense_statements();
        let before: Vec<Vec<Row>> = statements.iter().map(|sql| agreed(&session, sql)).collect();
        // 'w' sorts between '' and 'x', so S re-codes; 9 and 90 are new
        // maxima of K and V.
        session
            .run_script("INSERT INTO G VALUES (9, 'w', 90, 1); INSERT INTO H VALUES (9, 'w', 's');")
            .unwrap();
        let store = ColumnStore::build(&session.db);
        let g = store.table(&"G".into()).unwrap();
        assert_eq!(g.column(0).domain(), Domain { min: -2, width: 13 });
        for (sql, before) in statements.iter().zip(before) {
            assert_ne!(agreed(&session, sql), before, "{sql} sees the new row");
        }
    }

    #[test]
    fn encoded_filters_are_exact_at_the_domain_edges() {
        let mut session = dense_session();
        session
            .run_script(
                "CREATE TABLE NU (A INTEGER, B VARCHAR);
                 INSERT INTO NU VALUES (NULL, NULL), (NULL, NULL);",
            )
            .unwrap();
        // G.W holds both i64 extremes; G.V spans -3..=7 beside NULLs;
        // H.T's dictionary is p, q, r and G.S's '', x, y; NU holds only
        // NULLs. Literals sit below, at and above each domain's ends.
        let (lo, hi) = ("-9223372036854775808", "9223372036854775807");
        let cases: Vec<(&str, &str, Vec<&str>)> = vec![
            ("G", "W", vec!["0", hi, lo, "-1", "NULL"]),
            ("G", "V", vec!["-4", "-3", "0", "7", "8", "NULL"]),
            ("H", "T", vec!["'a'", "'p'", "'q'", "'r'", "'z'", "NULL"]),
            ("G", "S", vec!["''", "'w'", "'y'", "'z'"]),
            ("NU", "A", vec!["0", hi, "NULL"]),
            ("NU", "B", vec!["''", "'x'", "NULL"]),
        ];
        let mut sizes = Vec::new();
        for (table, col, literals) in cases {
            for lit in literals {
                for op in ["=", "<>", "<", "<=", ">", ">="] {
                    for cmp in [
                        format!("{table}.{col} {op} {lit}"),
                        format!("{lit} {op} {table}.{col}"),
                    ] {
                        let sql = format!("SELECT {table}.{col} FROM {table} WHERE {cmp}");
                        sizes.push((cmp, agreed(&session, &sql).len()));
                    }
                }
            }
        }
        let size = |cmp: &str| sizes.iter().find(|(c, _)| c == cmp).map(|&(_, n)| n);
        // MIN, MAX, 0, MIN, NULL, MAX, 0, MIN, -1: eight non-NULL rows.
        assert_eq!(size("G.W >= 0"), Some(4));
        assert_eq!(size("G.W > 0"), Some(2));
        assert_eq!(size("G.W <> 0"), Some(6));
        assert_eq!(size(&format!("G.W >= {hi}")), Some(2));
        assert_eq!(size(&format!("G.W <= {hi}")), Some(8));
        assert_eq!(size(&format!("G.W > {hi}")), Some(0));
        assert_eq!(size(&format!("G.W < {lo}")), Some(0));
        assert_eq!(size(&format!("G.W <= {lo}")), Some(3));
        assert_eq!(size(&format!("G.W <> {lo}")), Some(5));
        assert_eq!(size("G.V < -3"), Some(0));
        assert_eq!(size("G.V >= -3"), Some(7));
        assert_eq!(size("G.V > 7"), Some(0));
        assert_eq!(size("H.T > 'z'"), Some(0));
        assert_eq!(size("H.T <> 'a'"), Some(7));
        assert_eq!(size("G.S >= ''"), Some(7));
        assert!(
            (sizes.iter())
                .filter(|(c, _)| c.contains("NULL") || c.contains("NU."))
                .all(|&(_, n)| n == 0),
            "NULL never qualifies"
        );
    }

    #[test]
    fn keys_wider_than_the_inline_words_spill_and_stay_exact() {
        let session = edge_session();
        let rows = agreed(
            &session,
            "SELECT DISTINCT E.N, E.S, F.N, F.S, F.M, F.T FROM E, F WHERE E.N = F.N",
        );
        assert_eq!(rows.len(), 12, "{rows:?}");
        let key = CodeKey::try_from_words(12, (0..12).map(Some)).unwrap();
        assert!(matches!(&key, CodeKey::Spilled(words) if words.len() == 12));
        let narrow = CodeKey::try_from_words(2, [Some(7), Some(9)]).unwrap();
        assert_eq!(narrow.words(), &[7, 9]);
        assert_eq!(CodeKey::try_from_words(2, [Some(7), None]), None);
    }
}
