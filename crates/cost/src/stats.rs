//! The statistics collector.
//!
//! One pass over each table yields, per column, the number of `NULL`s
//! and the number of distinct non-null values. Distinct counting
//! normally maintains a hash set, but a column that is by itself a
//! declared candidate key cannot repeat a non-null value (the catalog
//! enforces it on insert), so its `ndv` short-circuits to the exact
//! `rows − nulls` with no set at all — the declared constraint *is* the
//! statistic.

use std::collections::{BTreeMap, HashSet};
use uniq_catalog::Database;
use uniq_types::{TableName, Value};

/// Statistics for one column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Distinct non-null values.
    pub ndv: u64,
    /// `NULL` occurrences.
    pub nulls: u64,
    /// Whether `ndv` came from a declared single-column candidate key
    /// (exact by constraint, no hash set was built).
    pub from_key: bool,
}

impl ColumnStats {
    /// The size of the column's active domain under `=̇` semantics:
    /// distinct non-null values, plus one bucket for `NULL` if any row
    /// is null (two `NULL`s are `=̇`-equal, so they share a bucket).
    pub fn domain(&self) -> u64 {
        self.ndv + u64::from(self.nulls > 0)
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Stored rows.
    pub rows: u64,
    /// Per-column statistics, indexed by column position.
    pub columns: Vec<ColumnStats>,
}

/// Collected statistics for a whole database.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Statistics {
    tables: BTreeMap<TableName, TableStats>,
    /// The catalog version the statistics were collected against.
    pub catalog_version: u64,
}

impl Statistics {
    /// Scan every table of `db` once and collect statistics.
    pub fn collect(db: &Database) -> Statistics {
        let mut tables = BTreeMap::new();
        for schema in db.catalog().tables() {
            let rows = db.rows(&schema.name).unwrap_or_default();
            let arity = schema.arity();
            // Columns that alone form a candidate key never repeat a
            // non-null value: skip the set and count exactly.
            let keyed: Vec<bool> = (0..arity)
                .map(|c| schema.candidate_keys().any(|k| k.columns == [c]))
                .collect();
            let mut nulls = vec![0u64; arity];
            let mut sets: Vec<HashSet<&Value>> = (0..arity).map(|_| HashSet::new()).collect();
            for row in rows {
                for (c, v) in row.iter().enumerate() {
                    if v.is_null() {
                        nulls[c] += 1;
                    } else if !keyed[c] {
                        sets[c].insert(v);
                    }
                }
            }
            let columns = (0..arity)
                .map(|c| ColumnStats {
                    ndv: if keyed[c] {
                        rows.len() as u64 - nulls[c]
                    } else {
                        sets[c].len() as u64
                    },
                    nulls: nulls[c],
                    from_key: keyed[c],
                })
                .collect();
            tables.insert(
                schema.name.clone(),
                TableStats {
                    rows: rows.len() as u64,
                    columns,
                },
            );
        }
        Statistics {
            tables,
            catalog_version: db.version(),
        }
    }

    /// Statistics for one table, if collected.
    pub fn table(&self, name: &TableName) -> Option<&TableStats> {
        self.tables.get(name)
    }

    /// Statistics for one column, if collected.
    pub fn column(&self, name: &TableName, position: usize) -> Option<&ColumnStats> {
        self.tables.get(name)?.columns.get(position)
    }

    /// Number of tables with statistics.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no statistics were collected.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_database;

    #[test]
    fn figure_1_statistics_are_exact() {
        let db = supplier_database().unwrap();
        let stats = Statistics::collect(&db);
        let sup = stats.table(&"SUPPLIER".into()).unwrap();
        assert_eq!(sup.rows, 5);
        // SNO is the primary key: exact ndv via the constraint shortcut.
        assert_eq!(sup.columns[0].ndv, 5);
        assert!(sup.columns[0].from_key);
        // SNAME has a duplicate ("Acme" twice) → 4 distinct names.
        assert_eq!(sup.columns[1].ndv, 4);
        assert!(!sup.columns[1].from_key);
        let parts = stats.table(&"PARTS".into()).unwrap();
        assert_eq!(parts.rows, 7);
        // COLOR: RED, GREEN, BLUE.
        let color = parts.columns[4];
        assert_eq!(color.ndv, 3);
        assert_eq!(color.nulls, 0);
        // OEM-PNO is a declared single-column candidate key with one
        // NULL: the shortcut counts rows − nulls = 6 exactly, and the
        // NULL claims a domain bucket under =̇.
        let oem = parts.columns[3];
        assert!(oem.from_key);
        assert_eq!(oem.ndv, 6);
        assert_eq!(oem.nulls, 1);
        assert_eq!(oem.domain(), 7);
    }

    #[test]
    fn version_recorded_and_lookup_misses_are_none() {
        let db = supplier_database().unwrap();
        let stats = Statistics::collect(&db);
        assert_eq!(stats.catalog_version, db.version());
        assert!(stats.table(&"NOPE".into()).is_none());
        assert!(stats.column(&"SUPPLIER".into(), 99).is_none());
        assert_eq!(stats.len(), 3);
        assert!(!stats.is_empty());
    }

    #[test]
    fn key_shortcut_matches_exhaustive_count() {
        // Recounting SUPPLIER.SNO exhaustively must agree with the
        // declared-key shortcut.
        let db = supplier_database().unwrap();
        let stats = Statistics::collect(&db);
        let rows = db.rows(&"SUPPLIER".into()).unwrap();
        let exhaustive: HashSet<&Value> = rows
            .iter()
            .map(|r| &r[0])
            .filter(|v| !v.is_null())
            .collect();
        assert_eq!(
            stats.column(&"SUPPLIER".into(), 0).unwrap().ndv,
            exhaustive.len() as u64
        );
    }
}
