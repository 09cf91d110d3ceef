//! A database: catalog plus validated in-memory row storage.
//!
//! Storage keeps one sorted index per candidate key (keyed by the key's
//! value tuple under `Value`'s canonical order, whose `Equal` coincides
//! with `=̇`), so key-uniqueness validation and foreign-key lookups are
//! `O(log n)` per row rather than a scan.
//!
//! Rows and indexes are laid out to be shared across snapshots (see
//! [`crate::storage`]): a write to a table another snapshot shares
//! appends into the shared row chunks and copies the table's small index
//! overlays, not the table, so it costs O(Δ) plus at most √n entries per
//! index.

use crate::catalog::Catalog;
use crate::storage::{Key, Layered, Positions, Postings, RowChunks, SortedMap, TableRows};
use crate::table::{IndexDef, TableSchema};
use crate::validate;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;
use uniq_sql::{CreateIndex, IndexKindAst, Insert, Statement};
use uniq_types::{Error, Result, TableName, Value};

/// One stored row.
pub type Row = Vec<Value>;

/// A candidate key's index: key tuple → row position.
type KeyIndex = Layered<usize>;

/// The position of the row whose key tuple is `key`, base first: after
/// an unchecked insert the first row keeps the key.
fn key_position(index: &KeyIndex, key: &[Value]) -> Option<usize> {
    let [base, overlay] = index.get(key);
    base.or(overlay).copied()
}

/// One persistent secondary index structure: key tuple → positions of
/// every row carrying that key (a unique index stores one position per
/// tuple by construction; uniqueness itself is enforced through the
/// candidate-key machinery the index registers). Keys sort under
/// `Value`'s canonical order, whose `Equal` coincides with `=̇`.
#[derive(Debug, Clone)]
struct SecondaryIndex {
    /// `USING BTREE`: point probes and range scans. A hash index answers
    /// point probes only.
    ordered: bool,
    ix: Layered<Postings>,
}

impl SecondaryIndex {
    /// The index of `columns` over `rows`.
    fn build(ordered: bool, columns: &[usize], rows: TableRows<'_>) -> SecondaryIndex {
        let mut keyed: Vec<(Key, usize)> = (rows.iter().enumerate())
            .map(|(pos, row)| (key_tuple(columns, row), pos))
            .collect();
        keyed.sort();
        let mut entries: Vec<(Key, Postings)> = Vec::new();
        for (key, pos) in keyed {
            match entries.last_mut() {
                Some((last, positions)) if *last == key => Arc::make_mut(positions).push(pos),
                _ => entries.push((key, Arc::new(vec![pos]))),
            }
        }
        SecondaryIndex {
            ordered,
            ix: Layered::new(SortedMap::from_sorted(entries)),
        }
    }

    fn get(&self, key: &[Value]) -> Positions<'_> {
        Positions::new(self.ix.get(key))
    }

    fn entries(&self) -> Vec<(Vec<Value>, Vec<usize>)> {
        let mut merged: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
        for (key, positions) in self.ix.layers().into_iter().flat_map(SortedMap::entries) {
            merged
                .entry(key.to_vec())
                .or_default()
                .extend(positions.iter());
        }
        merged.into_iter().collect()
    }
}

/// The groups of `tree` whose key starts with `prefix` and whose next
/// component lies in `[low, high]`, in key order; see
/// [`Database::index_walk`]. A prefix holding `NULL` matches nothing.
fn range_groups<'t>(
    tree: &'t SortedMap<Postings>,
    prefix: &'t [Value],
    low: Bound<&'t Value>,
    high: Bound<&'t Value>,
) -> impl Iterator<Item = &'t (Key, Postings)> {
    let live = !prefix.iter().any(Value::is_null);
    let unbounded = matches!((low, high), (Bound::Unbounded, Bound::Unbounded));
    // Every stored key is at least as long as `prefix`, and a shorter
    // vector sorts before all its extensions, so the range starts exactly
    // at the prefix group. Keys in one prefix group ascend by the next
    // component (NULLs first), so the first overshoot ends the walk.
    (tree.from(prefix).iter())
        .take_while(move |(key, _)| {
            let next = key.get(prefix.len());
            live && key.starts_with(prefix)
                && next.is_none_or(|c| c.is_null() || (Bound::Unbounded, high).contains(c))
        })
        // NULL satisfies a bound never, an unconstrained walk always; a
        // prefix covering the whole key is a point probe.
        .filter(move |(key, _)| match key.get(prefix.len()) {
            Some(c) if c.is_null() => unbounded,
            next => next.is_none_or(|c| (low, high).contains(c)),
        })
}

#[derive(Debug, Clone, Default)]
struct TableData {
    rows: RowChunks,
    /// One index per candidate key, parallel to
    /// `TableSchema::candidate_keys()` order.
    key_indexes: Vec<KeyIndex>,
    /// One structure per secondary index, parallel to
    /// `TableSchema::indexes` order.
    secondary: Vec<SecondaryIndex>,
}

/// A catalog together with table instances. Every row admitted through
/// [`Database::insert`] satisfies all declared constraints (shape, type,
/// `CHECK`s, key uniqueness with `=̇` semantics, foreign keys), so
/// instances are always *valid* in the paper's sense.
///
/// Table contents sit behind per-table [`Arc`]s, so `Database::clone` is
/// a *structural-sharing* copy: it duplicates only the catalog and the
/// table map, not the rows. A write on a clone copies the touched
/// table's small state (row count and index overlays) and shares its
/// row chunks and index bases (copy-on-write via [`Arc::make_mut`]) —
/// the primitive the MVCC snapshots of [`crate::snapshot`] are built on.
#[derive(Debug, Clone, Default)]
pub struct Database {
    catalog: Catalog,
    data: BTreeMap<TableName, Arc<TableData>>,
    /// Monotonic schema version; see [`Database::version`].
    version: u64,
}

fn key_tuple(columns: &[usize], row: &[Value]) -> Key {
    columns.iter().map(|&c| row[c].clone()).collect()
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The schema registry.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The monotonic catalog version, bumped by every schema-affecting
    /// mutation (`CREATE TABLE`, `CREATE INDEX`, `truncate`). Compiled
    /// plans reference schema *and* the index set — never row data — so
    /// plain `INSERT`s leave the version unchanged, while `CREATE INDEX`
    /// must bump it so cached full-scan plans re-plan and can pick up the
    /// new access path; the plan cache uses this to decide whether a
    /// cached plan is still valid.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Register a table schema with empty contents.
    ///
    /// Foreign keys are checked structurally here: the referenced table
    /// must already exist (or be this table itself) and the referenced
    /// columns must form a candidate key of it, with matching types.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        for fk in schema.foreign_keys() {
            let parent = if fk.parent == schema.name {
                &schema
            } else {
                self.catalog.table(&fk.parent)?
            };
            let mut parent_positions: Vec<usize> = fk
                .parent_columns
                .iter()
                .map(|c| parent.column_position(c))
                .collect::<Result<_>>()?;
            parent_positions.sort_unstable();
            if !parent
                .candidate_keys()
                .any(|k| k.columns == parent_positions)
            {
                return Err(Error::bind(format!(
                    "foreign key on {} references non-key columns of {}",
                    schema.name, fk.parent
                )));
            }
            for (&child, parent_col) in fk.columns.iter().zip(&fk.parent_columns) {
                let p = parent.column_position(parent_col)?;
                if schema.columns[child].data_type != parent.columns[p].data_type {
                    return Err(Error::bind(format!(
                        "foreign key column {} of {} has a different type than {}.{}",
                        schema.columns[child].name, schema.name, fk.parent, parent_col
                    )));
                }
            }
        }
        let name = schema.name.clone();
        let n_keys = schema.candidate_keys().count();
        self.catalog.create_table(schema)?;
        self.data.insert(
            name,
            Arc::new(TableData {
                rows: RowChunks::default(),
                key_indexes: (0..n_keys).map(|_| Layered::default()).collect(),
                secondary: Vec::new(),
            }),
        );
        self.version += 1;
        Ok(())
    }

    /// Apply a parsed `CREATE [UNIQUE] INDEX`: validate, backfill the
    /// structure from the existing rows, register the metadata and bump
    /// the catalog version (cached plans must re-plan to see the new
    /// access path).
    ///
    /// A unique index declares its column set a candidate key — the new
    /// uniqueness source feeding Algorithm 1 — so backfill rejects the
    /// statement with the *same* violation error a declared key produces
    /// when existing rows already duplicate a key value, and subsequent
    /// `INSERT`s enforce it exactly like a declared `UNIQUE` constraint
    /// (null-as-special-value semantics included).
    pub fn create_index(&mut self, ast: &CreateIndex) -> Result<()> {
        let schema = self.catalog.table(&ast.table)?;
        if let Some(owner) = self.catalog.index_owner(&ast.name) {
            return Err(Error::bind(format!(
                "index {} already exists on table {}",
                ast.name, owner.name
            )));
        }
        let columns: Vec<usize> = ast
            .columns
            .iter()
            .map(|c| schema.column_position(c))
            .collect::<Result<_>>()?;
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].contains(c) {
                return Err(Error::bind(format!(
                    "duplicate column {} in index {}",
                    schema.columns[*c].name, ast.name
                )));
            }
        }
        let def = IndexDef {
            name: ast.name.clone(),
            columns,
            unique: ast.unique,
            ordered: ast.kind == IndexKindAst::BTree,
        };

        // Backfill from the stored rows before mutating anything, so a
        // failed CREATE INDEX leaves the database untouched.
        let data = self
            .data
            .get(&ast.table)
            .ok_or_else(|| Error::UnknownTable(ast.table.to_string()))?;
        let sec = SecondaryIndex::build(def.ordered, &def.columns, data.rows.view());
        let mut sorted = def.columns.clone();
        sorted.sort_unstable();
        let needs_key = def.unique && !schema.candidate_keys().any(|k| k.columns == sorted);
        let mut key_index: BTreeMap<Key, usize> = BTreeMap::new();
        if needs_key {
            for (pos, row) in data.rows.view().iter().enumerate() {
                if key_index.insert(key_tuple(&sorted, row), pos).is_some() {
                    let desc: Vec<String> = sorted
                        .iter()
                        .map(|&i| format!("{}={}", schema.columns[i].name, row[i]))
                        .collect();
                    return Err(Error::ConstraintViolation {
                        table: ast.table.to_string(),
                        message: format!("unique key violation on ({})", desc.join(", ")),
                    });
                }
            }
        }

        let appended = self.catalog.table_mut(&ast.table)?.add_index(def);
        debug_assert_eq!(appended, needs_key);
        let data = Arc::make_mut(self.data.get_mut(&ast.table).expect("checked above"));
        data.secondary.push(sec);
        if needs_key {
            data.key_indexes.push(Layered::new(SortedMap::from_sorted(
                key_index.into_iter().collect(),
            )));
        }
        self.version += 1;
        Ok(())
    }

    /// Positions of the rows whose index key equals `key` (point probe).
    /// A probe containing `NULL` matches nothing: no SQL comparison
    /// predicate is *true* of `NULL`, so a sargable probe cannot reach
    /// null-keyed entries.
    pub fn index_probe(
        &self,
        table: &TableName,
        index: &str,
        key: &[Value],
    ) -> Result<Positions<'_>> {
        let (_, sec) = self.secondary_index(table, index)?;
        if key.iter().any(|v| v.is_null()) {
            return Ok(Positions::default());
        }
        Ok(sec.get(key))
    }

    /// Positions of the rows whose index key starts with `prefix`
    /// (point-bound columns) and whose next component lies in
    /// `[low, high]` — the sargable range-scan primitive. With both
    /// bounds unbounded this is a prefix probe (trailing columns
    /// unconstrained, so null-keyed suffixes *do* match). Range scans
    /// need an ordered index; hash indexes answer point probes only.
    /// Positions come in key order, each key's ascending. The walk is
    /// lazy: it merges the base's and the overlay's groups by key as it
    /// goes (a key in both lists the base's positions first), so a
    /// caller that stops early reads no further.
    pub fn index_walk<'a>(
        &'a self,
        table: &TableName,
        index: &str,
        prefix: &'a [Value],
        low: Bound<&'a Value>,
        high: Bound<&'a Value>,
    ) -> Result<impl Iterator<Item = usize> + 'a> {
        let (def, sec) = self.secondary_index(table, index)?;
        let point = prefix.len() >= def.columns.len() || prefix.iter().any(Value::is_null);
        if !point && !sec.ordered {
            return Err(Error::internal(format!(
                "index {index} is a hash index: prefix and range scans need USING BTREE"
            )));
        }
        let [mut base, mut overlay] =
            (sec.ix.layers()).map(|layer| range_groups(layer, prefix, low, high).peekable());
        let groups = std::iter::from_fn(move || match (base.peek(), overlay.peek()) {
            (Some((b, _)), Some((o, _))) if o < b => overlay.next(),
            (None, _) => overlay.next(),
            _ => base.next(),
        });
        Ok(groups.flat_map(|(_, positions)| positions.iter().copied()))
    }

    /// [`Database::index_walk`], collected.
    pub fn index_range(
        &self,
        table: &TableName,
        index: &str,
        prefix: &[Value],
        low: Bound<&Value>,
        high: Bound<&Value>,
    ) -> Result<Vec<usize>> {
        Ok(self.index_walk(table, index, prefix, low, high)?.collect())
    }

    /// The full contents of a secondary index in canonical key order —
    /// the rebuild-agreement oracle for property tests.
    pub fn index_entries(
        &self,
        table: &TableName,
        index: &str,
    ) -> Result<Vec<(Vec<Value>, Vec<usize>)>> {
        let (_, sec) = self.secondary_index(table, index)?;
        Ok(sec.entries())
    }

    fn secondary_index(
        &self,
        table: &TableName,
        index: &str,
    ) -> Result<(&IndexDef, &SecondaryIndex)> {
        let schema = self.catalog.table(table)?;
        let i = schema
            .indexes
            .iter()
            .position(|ix| ix.name == index)
            .ok_or_else(|| Error::internal(format!("no index {index} on {table}")))?;
        let data = self
            .data
            .get(table)
            .ok_or_else(|| Error::UnknownTable(table.to_string()))?;
        Ok((&schema.indexes[i], &data.secondary[i]))
    }

    /// Insert one row after full validation (shape, checks, keys, FKs).
    pub fn insert(&mut self, table: &TableName, row: Row) -> Result<()> {
        let schema = self.catalog.table(table)?;
        validate::validate_shape(schema, &row)?;
        validate::validate_checks(schema, &row)?;

        // Key uniqueness via the indexes.
        let data = self
            .data
            .get(table)
            .ok_or_else(|| Error::UnknownTable(table.to_string()))?;
        let keys: Vec<_> = schema.candidate_keys().collect();
        let mut tuples: Vec<Key> = Vec::with_capacity(keys.len());
        for (key, index) in keys.iter().zip(&data.key_indexes) {
            let tuple = key_tuple(&key.columns, &row);
            if key_position(index, &tuple).is_some() {
                let desc: Vec<String> = key
                    .columns
                    .iter()
                    .map(|&i| format!("{}={}", schema.columns[i].name, row[i]))
                    .collect();
                return Err(Error::ConstraintViolation {
                    table: table.to_string(),
                    message: format!(
                        "{} key violation on ({})",
                        if key.primary { "primary" } else { "unique" },
                        desc.join(", ")
                    ),
                });
            }
            tuples.push(tuple);
        }

        // Foreign keys: a row with all-non-null FK columns must have a
        // matching parent (SQL's "simple match" lets any-NULL rows pass).
        for fk in schema.foreign_keys() {
            let child_tuple = key_tuple(&fk.columns, &row);
            if child_tuple.iter().any(|v| v.is_null()) {
                continue;
            }
            if !self.parent_exists(&fk.parent, &fk.parent_columns, &child_tuple)? {
                return Err(Error::ConstraintViolation {
                    table: table.to_string(),
                    message: format!(
                        "foreign key violation: no {} row with ({}) = ({})",
                        fk.parent,
                        fk.parent_columns
                            .iter()
                            .map(|c| c.to_string())
                            .collect::<Vec<_>>()
                            .join(", "),
                        child_tuple
                            .iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }

        // Incremental maintenance of the secondary indexes (uniqueness
        // was already enforced above through the registered keys).
        let secondary_tuples: Vec<Key> = schema
            .indexes
            .iter()
            .map(|ix| key_tuple(&ix.columns, &row))
            .collect();
        let data = Arc::make_mut(self.data.get_mut(table).expect("checked above"));
        let pos = data.rows.len();
        for (index, tuple) in data.key_indexes.iter_mut().zip(tuples) {
            index.add(tuple, pos);
        }
        for (sec, tuple) in data.secondary.iter_mut().zip(secondary_tuples) {
            sec.ix.add(tuple, pos);
        }
        data.rows.push(row);
        Ok(())
    }

    /// Does the parent table contain a row whose `parent_columns` equal
    /// `tuple`? Uses the parent's candidate-key index (FKs reference
    /// candidate keys, enforced at `create_table`).
    fn parent_exists(
        &self,
        parent: &TableName,
        parent_columns: &[uniq_types::ColumnName],
        tuple: &[Value],
    ) -> Result<bool> {
        let schema = self.catalog.table(parent)?;
        let data = self
            .data
            .get(parent)
            .ok_or_else(|| Error::UnknownTable(parent.to_string()))?;
        let mut positions: Vec<usize> = parent_columns
            .iter()
            .map(|c| schema.column_position(c))
            .collect::<Result<_>>()?;
        // The index key tuple follows the key's sorted column order;
        // reorder the probe accordingly.
        let mut paired: Vec<(usize, &Value)> = positions.iter().copied().zip(tuple).collect();
        paired.sort_by_key(|(p, _)| *p);
        positions.sort_unstable();
        let key_idx = schema
            .candidate_keys()
            .position(|k| k.columns == positions)
            .ok_or_else(|| Error::internal("FK references a non-key (checked at create)"))?;
        let probe: Vec<Value> = paired.into_iter().map(|(_, v)| v.clone()).collect();
        Ok(key_position(&data.key_indexes[key_idx], &probe).is_some())
    }

    /// Insert one row *without* validation.
    ///
    /// Only for building intentionally adversarial instances in tests
    /// (e.g. demonstrating what would go wrong if a constraint did not
    /// hold). Never used by the optimizer or executor. Key indexes keep
    /// the *first* row for any duplicated key value.
    pub fn insert_unchecked(&mut self, table: &TableName, row: Row) -> Result<()> {
        let schema = self.catalog.table(table)?.clone();
        let data = Arc::make_mut(
            self.data
                .get_mut(table)
                .ok_or_else(|| Error::UnknownTable(table.to_string()))?,
        );
        let pos = data.rows.len();
        for (key, index) in schema.candidate_keys().zip(data.key_indexes.iter_mut()) {
            let tuple = key_tuple(&key.columns, &row);
            if key_position(index, &tuple).is_none() {
                index.add(tuple, pos);
            }
        }
        for (ix, sec) in schema.indexes.iter().zip(data.secondary.iter_mut()) {
            sec.ix.add(key_tuple(&ix.columns, &row), pos);
        }
        data.rows.push(row);
        Ok(())
    }

    /// All rows of a table.
    pub fn rows(&self, table: &TableName) -> Result<TableRows<'_>> {
        self.data
            .get(table)
            .map(|d| d.rows.view())
            .ok_or_else(|| Error::UnknownTable(table.to_string()))
    }

    /// The position of the row whose candidate key equals `key_values`.
    /// `key_columns` must be one of the table's candidate keys (sorted
    /// positions), and `key_values` follows that order.
    pub fn lookup_by_key(
        &self,
        table: &TableName,
        key_columns: &[usize],
        key_values: &[Value],
    ) -> Result<Option<usize>> {
        let schema = self.catalog.table(table)?;
        let data = self
            .data
            .get(table)
            .ok_or_else(|| Error::UnknownTable(table.to_string()))?;
        let key_idx = schema
            .candidate_keys()
            .position(|k| k.columns == key_columns)
            .ok_or_else(|| {
                Error::internal(format!("{table} has no candidate key {key_columns:?}"))
            })?;
        Ok(key_position(&data.key_indexes[key_idx], key_values))
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &TableName) -> Result<usize> {
        self.rows(table).map(|r| r.len())
    }

    /// Do `self` and `other` share the *same* underlying storage for
    /// `table` (same `Arc`, not merely equal contents)? This is the
    /// observable face of copy-on-write cloning: after `let b =
    /// a.clone()`, every table shares storage; after a write to one
    /// table of `b`, only that table's storage diverges (and even then
    /// its row chunks and index bases stay shared). Used by the MVCC
    /// snapshot tests to prove writes clone nothing they did not touch.
    pub fn shares_storage(&self, other: &Database, table: &TableName) -> bool {
        match (self.data.get(table), other.data.get(table)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The rows `newer` appended to `table` since `self`, if that delta
    /// can be extracted soundly:
    ///
    /// * shared storage (`Arc::ptr_eq`) ⇒ an empty run in O(1), no row
    ///   comparison — the pointer-equality fast path for untouched
    ///   tables;
    /// * equal catalog versions with `newer` at least as long ⇒ the
    ///   suffix of `newer`'s rows past `self`'s row count (the rows may
    ///   span chunks). Plain `INSERT`s are the only
    ///   mutation that leaves the version unchanged (`truncate` and all
    ///   DDL bump it), so equal versions guarantee insert-only growth
    ///   and the suffix *is* the delta;
    /// * anything else (version changed, table missing, shrunk rows) ⇒
    ///   `None` — the caller must fall back to a full recompute.
    pub fn table_delta<'a>(&self, newer: &'a Database, table: &TableName) -> Option<TableRows<'a>> {
        let old = self.data.get(table)?;
        let new = newer.data.get(table)?;
        let rows = new.rows.view();
        if Arc::ptr_eq(old, new) {
            return Some(rows.range(rows.len()..));
        }
        if self.version == newer.version && rows.len() >= old.rows.len() {
            return Some(rows.range(old.rows.len()..));
        }
        None
    }

    /// Remove all rows of a table (schema stays).
    pub fn truncate(&mut self, table: &TableName) -> Result<()> {
        self.data
            .get_mut(table)
            .map(Arc::make_mut)
            .map(|d| {
                d.rows = RowChunks::default();
                for idx in &mut d.key_indexes {
                    *idx = Layered::default();
                }
                for sec in &mut d.secondary {
                    sec.ix = Layered::default();
                }
            })
            .ok_or_else(|| Error::UnknownTable(table.to_string()))?;
        self.version += 1;
        Ok(())
    }

    /// Apply a parsed statement: `CREATE TABLE`, `CREATE INDEX` or
    /// `INSERT`. Queries are rejected here — they go through the
    /// planner/executor.
    pub fn apply(&mut self, stmt: &Statement) -> Result<()> {
        match stmt {
            Statement::CreateTable(ct) => self.create_table(TableSchema::from_ast(ct)?),
            Statement::CreateIndex(ci) => self.create_index(ci),
            Statement::Insert(ins) => self.apply_insert(ins),
            Statement::Query(_) => Err(Error::internal(
                "queries are executed by uniq-engine, not Database::apply",
            )),
        }
    }

    /// Apply a parsed `INSERT`, reordering values when an explicit column
    /// list was given and filling unnamed columns with `NULL`.
    pub fn apply_insert(&mut self, ins: &Insert) -> Result<()> {
        let schema = self.catalog.table(&ins.table)?;
        let arity = schema.arity();
        let positions: Option<Vec<usize>> = match &ins.columns {
            None => None,
            Some(cols) => Some(
                cols.iter()
                    .map(|c| schema.column_position(c))
                    .collect::<Result<_>>()?,
            ),
        };
        let table = ins.table.clone();
        for literal_row in &ins.rows {
            let row: Row = match &positions {
                None => {
                    if literal_row.len() != arity {
                        return Err(Error::ConstraintViolation {
                            table: table.to_string(),
                            message: format!(
                                "INSERT supplies {} values for {} columns",
                                literal_row.len(),
                                arity
                            ),
                        });
                    }
                    literal_row.clone()
                }
                Some(pos) => {
                    if literal_row.len() != pos.len() {
                        return Err(Error::ConstraintViolation {
                            table: table.to_string(),
                            message: "INSERT value count does not match column list".into(),
                        });
                    }
                    let mut row = vec![Value::Null; arity];
                    for (&p, v) in pos.iter().zip(literal_row) {
                        row[p] = v.clone();
                    }
                    row
                }
            };
            self.insert(&table, row)?;
        }
        Ok(())
    }

    /// Run a whole DDL/DML script (used by tests and examples).
    pub fn run_script(&mut self, sql: &str) -> Result<()> {
        for stmt in uniq_sql::parse_statements(sql)? {
            self.apply(&stmt)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::CHUNK_ROWS;

    #[test]
    fn script_builds_and_populates() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, B VARCHAR, PRIMARY KEY (A));
             INSERT INTO T VALUES (1, 'x'), (2, 'y');
             INSERT INTO T (B, A) VALUES ('z', 3);",
        )
        .unwrap();
        let rows = db.rows(&"T".into()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], vec![Value::Int(3), Value::str("z")]);
    }

    #[test]
    fn insert_violating_key_fails() {
        let mut db = Database::new();
        db.run_script("CREATE TABLE T (A INTEGER, PRIMARY KEY (A)); INSERT INTO T VALUES (1);")
            .unwrap();
        assert!(db.insert(&"T".into(), vec![Value::Int(1)]).is_err());
        assert_eq!(db.row_count(&"T".into()).unwrap(), 1);
    }

    #[test]
    fn unique_key_null_special_value_via_index() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER NOT NULL, B INTEGER, PRIMARY KEY (A), UNIQUE (B));
             INSERT INTO T VALUES (1, NULL);",
        )
        .unwrap();
        // Second NULL in the UNIQUE column: rejected (=̇ key semantics).
        assert!(db
            .insert(&"T".into(), vec![Value::Int(2), Value::Null])
            .is_err());
        assert!(db
            .insert(&"T".into(), vec![Value::Int(2), Value::Int(9)])
            .is_ok());
    }

    #[test]
    fn missing_columns_fill_with_null() {
        let mut db = Database::new();
        db.run_script("CREATE TABLE T (A INTEGER, B VARCHAR); INSERT INTO T (A) VALUES (1);")
            .unwrap();
        assert_eq!(db.rows(&"T".into()).unwrap()[0][1], Value::Null);
    }

    #[test]
    fn truncate_clears_rows_and_indexes() {
        let mut db = Database::new();
        db.run_script("CREATE TABLE T (A INTEGER, PRIMARY KEY (A)); INSERT INTO T VALUES (1);")
            .unwrap();
        db.truncate(&"T".into()).unwrap();
        assert_eq!(db.row_count(&"T".into()).unwrap(), 0);
        // Key slot freed by truncate.
        db.insert(&"T".into(), vec![Value::Int(1)]).unwrap();
    }

    #[test]
    fn unchecked_insert_bypasses_validation() {
        let mut db = Database::new();
        db.run_script("CREATE TABLE T (A INTEGER, PRIMARY KEY (A)); INSERT INTO T VALUES (1);")
            .unwrap();
        db.insert_unchecked(&"T".into(), vec![Value::Int(1)])
            .unwrap();
        assert_eq!(db.row_count(&"T".into()).unwrap(), 2);
    }

    #[test]
    fn lookup_by_key_uses_index() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, B VARCHAR, PRIMARY KEY (A));
             INSERT INTO T VALUES (1, 'x'), (2, 'y');",
        )
        .unwrap();
        let pos = db
            .lookup_by_key(&"T".into(), &[0], &[Value::Int(2)])
            .unwrap()
            .unwrap();
        assert_eq!(db.rows(&"T".into()).unwrap()[pos][1], Value::str("y"));
        assert!(db
            .lookup_by_key(&"T".into(), &[0], &[Value::Int(99)])
            .unwrap()
            .is_none());
    }

    #[test]
    fn foreign_key_enforced() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE PARENT (K INTEGER, PRIMARY KEY (K));
             CREATE TABLE CHILD (C INTEGER, FK INTEGER,
               PRIMARY KEY (C),
               FOREIGN KEY (FK) REFERENCES PARENT (K));
             INSERT INTO PARENT VALUES (1);",
        )
        .unwrap();
        // Valid reference.
        db.run_script("INSERT INTO CHILD VALUES (10, 1)").unwrap();
        // Dangling reference.
        let err = db
            .run_script("INSERT INTO CHILD VALUES (11, 99)")
            .unwrap_err();
        assert!(err.to_string().contains("foreign key"), "{err}");
        // NULL FK passes (simple match).
        db.run_script("INSERT INTO CHILD VALUES (12, NULL)")
            .unwrap();
    }

    #[test]
    fn foreign_key_must_reference_a_key() {
        let mut db = Database::new();
        db.run_script("CREATE TABLE PARENT (K INTEGER, V INTEGER, PRIMARY KEY (K));")
            .unwrap();
        let err = db
            .run_script("CREATE TABLE CHILD (C INTEGER, FOREIGN KEY (C) REFERENCES PARENT (V));")
            .unwrap_err();
        assert!(err.to_string().contains("non-key"), "{err}");
    }

    #[test]
    fn foreign_key_type_mismatch_rejected() {
        let mut db = Database::new();
        db.run_script("CREATE TABLE PARENT (K INTEGER, PRIMARY KEY (K));")
            .unwrap();
        let err = db
            .run_script("CREATE TABLE CHILD (C VARCHAR, FOREIGN KEY (C) REFERENCES PARENT (K));")
            .unwrap_err();
        assert!(err.to_string().contains("different type"), "{err}");
    }

    #[test]
    fn foreign_key_to_missing_table_rejected() {
        let mut db = Database::new();
        assert!(db
            .run_script("CREATE TABLE CHILD (C INTEGER, FOREIGN KEY (C) REFERENCES NOPE (K));")
            .is_err());
    }

    #[test]
    fn version_tracks_schema_mutations() {
        let mut db = Database::new();
        assert_eq!(db.version(), 0);
        db.run_script("CREATE TABLE T (A INTEGER, PRIMARY KEY (A));")
            .unwrap();
        let v1 = db.version();
        assert!(v1 > 0);
        db.run_script("INSERT INTO T VALUES (1);").unwrap();
        assert_eq!(
            db.version(),
            v1,
            "plans are schema-only; inserts keep them valid"
        );
        db.truncate(&"T".into()).unwrap();
        assert!(db.version() > v1);
    }

    #[test]
    fn create_index_backfills_and_maintains() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, B VARCHAR, PRIMARY KEY (A));
             INSERT INTO T VALUES (1, 'x'), (2, 'y'), (3, 'x');
             CREATE INDEX IDX_B ON T (B);",
        )
        .unwrap();
        let t = "T".into();
        assert_eq!(
            db.index_probe(&t, "IDX_B", &[Value::str("x")]).unwrap(),
            &[0, 2]
        );
        // Incremental maintenance on later inserts.
        db.run_script("INSERT INTO T VALUES (4, 'x');").unwrap();
        assert_eq!(
            db.index_probe(&t, "IDX_B", &[Value::str("x")]).unwrap(),
            &[0, 2, 3]
        );
        assert!(db
            .index_probe(&t, "IDX_B", &[Value::str("z")])
            .unwrap()
            .is_empty());
        // NULL probes match nothing.
        assert!(db
            .index_probe(&t, "IDX_B", &[Value::Null])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unique_index_registers_key_and_enforces() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, B INTEGER, PRIMARY KEY (A));
             INSERT INTO T VALUES (1, 10);
             CREATE UNIQUE INDEX IDX_B ON T (B);",
        )
        .unwrap();
        let t: TableName = "T".into();
        // The index registered a candidate key Algorithm 1 can use.
        let schema = db.catalog().table(&t).unwrap();
        assert_eq!(schema.candidate_keys().count(), 2);
        assert_eq!(
            schema.key_index_name(schema.candidate_keys().nth(1).unwrap()),
            Some("IDX_B")
        );
        // The violation error matches a declared UNIQUE constraint's.
        let err = db
            .insert(&t, vec![Value::Int(2), Value::Int(10)])
            .unwrap_err();
        assert!(
            err.to_string().contains("unique key violation on (B=10)"),
            "{err}"
        );
        // Null-as-special-value: at most one NULL key.
        db.insert(&t, vec![Value::Int(3), Value::Null]).unwrap();
        assert!(db.insert(&t, vec![Value::Int(4), Value::Null]).is_err());
    }

    #[test]
    fn unique_index_backfill_rejects_existing_duplicates() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, B INTEGER, PRIMARY KEY (A));
             INSERT INTO T VALUES (1, 10), (2, 10);",
        )
        .unwrap();
        let err = db
            .run_script("CREATE UNIQUE INDEX IDX_B ON T (B);")
            .unwrap_err();
        assert!(err.to_string().contains("unique key violation"), "{err}");
        // Failed DDL leaves no trace.
        let schema = db.catalog().table(&"T".into()).unwrap();
        assert!(schema.indexes.is_empty());
        assert_eq!(schema.candidate_keys().count(), 1);
        db.insert(&"T".into(), vec![Value::Int(3), Value::Int(10)])
            .unwrap();
    }

    #[test]
    fn index_range_scans_ordered_index() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, B INTEGER, PRIMARY KEY (A));
             INSERT INTO T VALUES (1, 5), (2, 7), (3, 9), (4, NULL), (5, 7);
             CREATE INDEX IDX_B ON T (B);",
        )
        .unwrap();
        let t: TableName = "T".into();
        let range = |low: Bound<&Value>, high: Bound<&Value>| {
            db.index_range(&t, "IDX_B", &[], low, high).unwrap()
        };
        assert_eq!(
            range(
                Bound::Included(&Value::Int(6)),
                Bound::Included(&Value::Int(9))
            ),
            vec![1, 4, 2]
        );
        assert_eq!(
            range(Bound::Excluded(&Value::Int(7)), Bound::Unbounded),
            vec![2]
        );
        assert_eq!(
            range(Bound::Unbounded, Bound::Excluded(&Value::Int(7))),
            vec![0]
        );
        // Bounded scans never reach NULL keys; an unconstrained prefix
        // scan (here: the whole index) does.
        assert_eq!(
            range(Bound::Unbounded, Bound::Unbounded),
            vec![3, 0, 1, 4, 2]
        );
    }

    #[test]
    fn index_walk_merges_both_layers_lazily_in_key_order() {
        let mut db = Database::new();
        let mut script = String::from(
            "CREATE TABLE T (A INTEGER, B INTEGER, PRIMARY KEY (A));
             CREATE INDEX IDX_B ON T (B) USING BTREE;",
        );
        for a in 0..40 {
            script.push_str(&format!("INSERT INTO T VALUES ({a}, {});", a % 7));
        }
        db.run_script(&script).unwrap();
        // Keys that do not sort last, NULL among them, land in the
        // overlay, between and before the base's keys.
        db.run_script("INSERT INTO T VALUES (40, 3), (41, NULL), (42, 0), (43, 9), (44, 3);")
            .unwrap();
        let t: TableName = "T".into();
        let (_, sec) = db.secondary_index(&t, "IDX_B").unwrap();
        let [base, overlay] = sec.ix.layers().map(|layer| layer.entries().len());
        assert!(base > 0 && overlay > 0, "base {base}, overlay {overlay}");
        let unbounded = || db.index_walk(&t, "IDX_B", &[], Bound::Unbounded, Bound::Unbounded);
        let walked: Vec<usize> = unbounded().unwrap().collect();
        let all = db
            .index_range(&t, "IDX_B", &[], Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        assert_eq!(walked, all);
        // Key order (NULL first), each key's positions ascending.
        let rows = db.rows(&t).unwrap();
        let mut want: Vec<usize> = (0..rows.len()).collect();
        want.sort_by(|&i, &j| (&rows[i][1], i).cmp(&(&rows[j][1], j)));
        assert_eq!(walked, want);
        assert_eq!(unbounded().unwrap().take(3).collect::<Vec<_>>(), [41, 0, 7]);
    }

    #[test]
    fn index_prefix_probe_on_composite_index() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, B INTEGER, C INTEGER, PRIMARY KEY (A));
             INSERT INTO T VALUES (1, 7, 1), (2, 7, 5), (3, 8, 1), (4, 7, NULL);
             CREATE INDEX IDX_BC ON T (B, C);",
        )
        .unwrap();
        let t: TableName = "T".into();
        // Prefix probe: B = 7, C unconstrained (NULL C rows match).
        assert_eq!(
            db.index_range(
                &t,
                "IDX_BC",
                &[Value::Int(7)],
                Bound::Unbounded,
                Bound::Unbounded
            )
            .unwrap(),
            vec![3, 0, 1]
        );
        // Prefix + range on the next component.
        assert_eq!(
            db.index_range(
                &t,
                "IDX_BC",
                &[Value::Int(7)],
                Bound::Included(&Value::Int(2)),
                Bound::Unbounded
            )
            .unwrap(),
            vec![1]
        );
    }

    #[test]
    fn hash_index_probes_but_rejects_ranges() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, B INTEGER, PRIMARY KEY (A));
             INSERT INTO T VALUES (1, 5), (2, 7);
             CREATE INDEX IDX_B ON T (B) USING HASH;",
        )
        .unwrap();
        let t: TableName = "T".into();
        assert_eq!(db.index_probe(&t, "IDX_B", &[Value::Int(7)]).unwrap(), &[1]);
        assert!(db
            .index_range(
                &t,
                "IDX_B",
                &[],
                Bound::Included(&Value::Int(5)),
                Bound::Unbounded
            )
            .is_err());
    }

    #[test]
    fn duplicate_index_name_rejected_across_tables() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER); CREATE TABLE U (A INTEGER);
             CREATE INDEX IDX ON T (A);",
        )
        .unwrap();
        let err = db.run_script("CREATE INDEX IDX ON U (A);").unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        assert!(db.run_script("CREATE INDEX IDX2 ON U (A);").is_ok());
    }

    #[test]
    fn create_index_bumps_catalog_version() {
        let mut db = Database::new();
        db.run_script("CREATE TABLE T (A INTEGER);").unwrap();
        let v = db.version();
        db.run_script("CREATE INDEX IDX_A ON T (A);").unwrap();
        assert!(
            db.version() > v,
            "CREATE INDEX must invalidate cached plans"
        );
    }

    #[test]
    fn unique_index_on_existing_key_adds_no_duplicate_key() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, PRIMARY KEY (A));
             INSERT INTO T VALUES (1);
             CREATE UNIQUE INDEX IDX_A ON T (A);",
        )
        .unwrap();
        let schema = db.catalog().table(&"T".into()).unwrap();
        assert_eq!(schema.candidate_keys().count(), 1, "key already declared");
        assert_eq!(schema.indexes.len(), 1);
        // Enforcement still single-sourced through the primary key.
        assert!(db.insert(&"T".into(), vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn index_entries_match_a_from_scratch_rebuild() {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, B VARCHAR, PRIMARY KEY (A));
             CREATE INDEX IDX_B ON T (B);
             INSERT INTO T VALUES (1, 'x'), (2, 'y'), (3, 'x'), (4, NULL);",
        )
        .unwrap();
        let t: TableName = "T".into();
        let mut rebuilt: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
        for (pos, row) in db.rows(&t).unwrap().iter().enumerate() {
            rebuilt.entry(vec![row[1].clone()]).or_default().push(pos);
        }
        let want: Vec<(Vec<Value>, Vec<usize>)> = rebuilt.into_iter().collect();
        assert_eq!(db.index_entries(&t, "IDX_B").unwrap(), want);
    }

    #[test]
    fn bulk_insert_is_fast_enough_with_indexes() {
        // 20k rows with two candidate keys: must be well under a second.
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER NOT NULL, B INTEGER, PRIMARY KEY (A), UNIQUE (B));",
        )
        .unwrap();
        let t = std::time::Instant::now();
        for i in 0..20_000i64 {
            db.insert(&"T".into(), vec![Value::Int(i), Value::Int(i + 1_000_000)])
                .unwrap();
        }
        assert!(
            t.elapsed() < std::time::Duration::from_secs(5),
            "indexed insert too slow: {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn table_delta_extracts_insert_suffixes() {
        let mut old = Database::new();
        old.run_script(
            "CREATE TABLE T (A INTEGER, PRIMARY KEY (A));
             CREATE TABLE U (B INTEGER, PRIMARY KEY (B));
             INSERT INTO T VALUES (1), (2);",
        )
        .unwrap();
        let mut new = old.clone();
        new.run_script("INSERT INTO T VALUES (3), (4);").unwrap();
        // Touched table: the delta is exactly the appended suffix.
        assert_eq!(
            old.table_delta(&new, &"T".into()).unwrap(),
            &[vec![Value::Int(3)], vec![Value::Int(4)]]
        );
        // Untouched table: shared Arc, empty delta without comparing rows.
        assert!(old.shares_storage(&new, &"U".into()));
        assert_eq!(old.table_delta(&new, &"U".into()).unwrap(), &[] as &[Row]);
        // Self-delta is always empty.
        assert_eq!(new.table_delta(&new, &"T".into()).unwrap(), &[] as &[Row]);
    }

    #[test]
    fn keys_and_parents_only_in_the_overlay_are_enforced() {
        let mut base = Database::new();
        base.run_script(
            "CREATE TABLE PARENT (K INTEGER, PRIMARY KEY (K));
             CREATE TABLE CHILD (C INTEGER, FK INTEGER,
               PRIMARY KEY (C),
               FOREIGN KEY (FK) REFERENCES PARENT (K));
             INSERT INTO PARENT VALUES (1);",
        )
        .unwrap();
        // `base` shares every index base, so the new key lands in the
        // clone's overlay.
        let mut db = base.clone();
        db.run_script("INSERT INTO PARENT VALUES (2);").unwrap();
        assert_eq!(db.data["PARENT"].key_indexes[0].overlay_len(), 1);
        let err = db.run_script("INSERT INTO PARENT VALUES (2);").unwrap_err();
        assert!(err.to_string().contains("primary key violation"), "{err}");
        db.run_script("INSERT INTO CHILD VALUES (10, 2);").unwrap();
        let err = db
            .run_script("INSERT INTO CHILD VALUES (11, 3);")
            .unwrap_err();
        assert!(err.to_string().contains("foreign key"), "{err}");
        assert_eq!(
            db.lookup_by_key(&"PARENT".into(), &[0], &[Value::Int(2)])
                .unwrap(),
            Some(1)
        );
        assert!(base
            .run_script("INSERT INTO CHILD VALUES (10, 2);")
            .is_err());
    }

    #[test]
    fn insert_unchecked_keeps_the_first_row_across_base_and_overlay() {
        let mut base = Database::new();
        base.run_script("CREATE TABLE T (A INTEGER, PRIMARY KEY (A));")
            .unwrap();
        let t: TableName = "T".into();
        for a in 0..100 {
            base.insert(&t, vec![Value::Int(a)]).unwrap();
        }
        let mut db = base.clone();
        let key_of = |db: &Database, a: i64| db.lookup_by_key(&t, &[0], &[Value::Int(a)]).unwrap();
        // Key 5 sits in the base, key 200 in the overlay; each gets a
        // second row.
        for a in [5, 200, 200] {
            db.insert_unchecked(&t, vec![Value::Int(a)]).unwrap();
        }
        assert_eq!(db.data[&t].key_indexes[0].overlay_len(), 1);
        assert_eq!((key_of(&db, 5), key_of(&db, 200)), (Some(5), Some(101)));
        // Folding the overlay keeps the first rows.
        let mut a = 1_000;
        while db.data[&t].key_indexes[0].overlay_len() > 0 {
            db.insert_unchecked(&t, vec![Value::Int(a)]).unwrap();
            a += 1;
        }
        assert_eq!((key_of(&db, 5), key_of(&db, 200)), (Some(5), Some(101)));
        assert_eq!(key_of(&base, 200), None);
    }

    #[test]
    fn table_delta_spanning_a_seal_is_the_appended_rows() {
        let mut old = Database::new();
        old.run_script("CREATE TABLE T (A INTEGER, PRIMARY KEY (A));")
            .unwrap();
        let t: TableName = "T".into();
        for a in 0..CHUNK_ROWS as i64 - 3 {
            old.insert(&t, vec![Value::Int(a)]).unwrap();
        }
        let mut new = old.clone();
        let appended: Vec<Row> = (1..=8).map(|a| vec![Value::Int(-a)]).collect();
        for row in &appended {
            new.insert(&t, row.clone()).unwrap();
        }
        assert_eq!(old.table_delta(&new, &t).unwrap(), &appended);
        let rows = new.rows(&t).unwrap();
        assert_eq!(rows.range(..CHUNK_ROWS - 3), old.rows(&t).unwrap());
        assert_eq!(rows.len(), CHUNK_ROWS + 5);
    }

    #[test]
    fn table_delta_refuses_non_insert_histories() {
        let mut old = Database::new();
        old.run_script("CREATE TABLE T (A INTEGER, PRIMARY KEY (A)); INSERT INTO T VALUES (1);")
            .unwrap();
        // truncate bumps the version: a shrunken table is not a delta.
        let mut truncated = old.clone();
        truncated.truncate(&"T".into()).unwrap();
        assert_eq!(old.table_delta(&truncated, &"T".into()), None);
        // DDL bumps the version too, even though T's rows only grew.
        let mut ddl = old.clone();
        ddl.run_script("CREATE TABLE W (C INTEGER); INSERT INTO T VALUES (2);")
            .unwrap();
        assert_eq!(old.table_delta(&ddl, &"T".into()), None);
        // Unknown table on either side.
        assert_eq!(old.table_delta(&ddl, &"MISSING".into()), None);
    }
}
