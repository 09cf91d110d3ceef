//! MVCC snapshots over copy-on-write [`Database`] values.
//!
//! [`SnapshotStore`] promotes the monotonic catalog `version` and the
//! per-table [`std::sync::Arc`] storage of [`Database`] into real
//! snapshot isolation:
//!
//! * **Readers** call [`SnapshotStore::snapshot`] once at query start
//!   and receive an `Arc<Database>` pinning a consistent catalog +
//!   table + index view for the whole query. No lock is held while the
//!   query executes — a snapshot is just a reference-counted pointer.
//! * **Writers** call [`SnapshotStore::apply`] (or
//!   [`SnapshotStore::run_script`]). A write clones the head database
//!   (structural sharing: only the table map and catalog are copied, no
//!   rows), applies the mutation — inside [`Database`], a touched table
//!   appends into its shared row chunks and copies only its small index
//!   overlays, so a write costs O(Δ), not O(table) — and publishes the
//!   result as the new head. The store
//!   keeps only the head: readers pinned to older snapshots keep them
//!   alive through their own `Arc`s, and a snapshot nobody pins is
//!   freed as soon as a newer one replaces it. Untouched tables are
//!   shared by every live snapshot.
//! * **Atomicity**: a failed statement (constraint violation, unknown
//!   table, …) discards the scratch clone, so the head never exposes a
//!   partially applied write. `run_script` publishes once per script —
//!   a mid-script failure rolls the whole script back.
//!
//! Writers serialize against each other on a dedicated mutex; they
//! never block readers (publishing swaps one `Arc` under a briefly held
//! `RwLock` write lock), and readers never block writers.

use crate::database::Database;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use uniq_sql::Statement;
use uniq_types::Result;

/// A single-writer, many-reader store of copy-on-write database
/// snapshots. See the module docs for the protocol.
#[derive(Debug)]
pub struct SnapshotStore {
    /// The newest published snapshot.
    head: RwLock<Arc<Database>>,
    /// Serializes writers; never held while readers execute.
    write: Mutex<()>,
    /// Snapshots published after the seed.
    published: AtomicU64,
}

impl SnapshotStore {
    /// A store seeded with `db` as the first snapshot.
    pub fn new(db: Database) -> SnapshotStore {
        SnapshotStore {
            head: RwLock::new(Arc::new(db)),
            write: Mutex::new(()),
            published: AtomicU64::new(0),
        }
    }

    /// Pin the current head snapshot. The returned `Arc` stays
    /// consistent (catalog, rows, indexes, versions) no matter what
    /// writers publish afterwards; drop it to release the snapshot.
    pub fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&self.head.read().expect("snapshot head poisoned"))
    }

    /// Number of snapshots published since the seed — one per
    /// successful [`SnapshotStore::apply`] / [`SnapshotStore::run_script`].
    pub fn depth(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Apply one DDL/DML statement copy-on-write and publish the result
    /// as the new head. On error the head is untouched.
    pub fn apply(&self, stmt: &Statement) -> Result<()> {
        self.write_with(|db| db.apply(stmt))
    }

    /// Parse and apply a whole DDL/DML script as one atomic publish: a
    /// failure anywhere leaves the head exactly as it was. Returns the
    /// number of statements applied.
    pub fn run_script(&self, sql: &str) -> Result<usize> {
        let statements = uniq_sql::parse_statements(sql)?;
        let n = statements.len();
        self.write_with(|db| {
            for stmt in &statements {
                db.apply(stmt)?;
            }
            Ok(())
        })?;
        Ok(n)
    }

    /// The writer protocol: clone the head structurally, mutate the
    /// clone, publish on success.
    fn write_with(&self, mutate: impl FnOnce(&mut Database) -> Result<()>) -> Result<()> {
        let _writer = self.write.lock().expect("snapshot writer lock poisoned");
        // Readers may still be pinning the head; clone shares all table
        // storage, so this is O(#tables), not O(rows).
        let mut scratch = (*self.snapshot()).clone();
        mutate(&mut scratch)?;
        let replaced = {
            let mut head = self.head.write().expect("snapshot head poisoned");
            std::mem::replace(&mut *head, Arc::new(scratch))
        };
        self.published.fetch_add(1, Ordering::Relaxed);
        // The old head is freed here, outside the head lock, unless a
        // reader still pins it.
        drop(replaced);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_types::Value;

    fn seeded() -> SnapshotStore {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER, PRIMARY KEY (A));
             CREATE TABLE U (B INTEGER, PRIMARY KEY (B));
             INSERT INTO T VALUES (1), (2);
             INSERT INTO U VALUES (10);",
        )
        .unwrap();
        SnapshotStore::new(db)
    }

    #[test]
    fn pinned_snapshot_never_sees_later_inserts() {
        let store = seeded();
        let pinned = store.snapshot();
        store.run_script("INSERT INTO T VALUES (3);").unwrap();
        assert_eq!(pinned.row_count(&"T".into()).unwrap(), 2);
        assert_eq!(store.snapshot().row_count(&"T".into()).unwrap(), 3);
    }

    #[test]
    fn pinned_snapshot_never_sees_later_ddl() {
        let store = seeded();
        let pinned = store.snapshot();
        let v = pinned.version();
        store
            .run_script("CREATE INDEX IDX_A ON T (A); CREATE TABLE W (C INTEGER);")
            .unwrap();
        assert_eq!(pinned.version(), v, "pinned catalog version is stable");
        assert!(pinned.catalog().table(&"W".into()).is_err());
        assert!(pinned
            .catalog()
            .table(&"T".into())
            .unwrap()
            .indexes
            .is_empty());
        let fresh = store.snapshot();
        assert!(fresh.version() > v);
        assert_eq!(fresh.catalog().table(&"T".into()).unwrap().indexes.len(), 1);
        assert!(fresh.catalog().table(&"W".into()).is_ok());
    }

    #[test]
    fn writes_share_untouched_table_storage() {
        let store = seeded();
        let before = store.snapshot();
        store.run_script("INSERT INTO T VALUES (3);").unwrap();
        let after = store.snapshot();
        assert!(
            before.shares_storage(&after, &"U".into()),
            "a write to T must not clone U's storage"
        );
        assert!(
            !before.shares_storage(&after, &"T".into()),
            "the touched table diverges"
        );
    }

    #[test]
    fn failed_script_publishes_nothing() {
        let store = seeded();
        let before = store.snapshot();
        let err = store
            .run_script("INSERT INTO T VALUES (9); INSERT INTO T VALUES (1);")
            .unwrap_err();
        assert!(err.to_string().contains("key violation"), "{err}");
        let head = store.snapshot();
        assert_eq!(head.row_count(&"T".into()).unwrap(), 2, "rolled back");
        assert!(before.shares_storage(&head, &"T".into()), "head unchanged");
        assert_eq!(store.depth(), 0, "nothing was published");
    }

    #[test]
    fn depth_counts_published_snapshots() {
        let store = seeded();
        assert_eq!(store.depth(), 0);
        store.run_script("INSERT INTO T VALUES (3);").unwrap();
        store
            .run_script("INSERT INTO T VALUES (4); INSERT INTO U VALUES (11);")
            .unwrap();
        assert_eq!(store.depth(), 2, "one publish per script");
    }

    #[test]
    fn concurrent_readers_see_only_whole_writes() {
        // Writers insert pairs atomically (one script = one publish);
        // readers must therefore never observe an odd row count.
        let store = SnapshotStore::new({
            let mut db = Database::new();
            db.run_script("CREATE TABLE T (A INTEGER, PRIMARY KEY (A));")
                .unwrap();
            db
        });
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..50i64 {
                    store
                        .run_script(&format!(
                            "INSERT INTO T VALUES ({}); INSERT INTO T VALUES ({});",
                            2 * i,
                            2 * i + 1
                        ))
                        .unwrap();
                }
            });
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let snap = store.snapshot();
                        let n = snap.row_count(&"T".into()).unwrap();
                        assert_eq!(n % 2, 0, "torn write observed: {n} rows");
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(store.snapshot().row_count(&"T".into()).unwrap(), 100);
        assert_eq!(store.depth(), 50);
    }

    #[test]
    fn a_pinned_snapshot_keeps_no_later_snapshot_alive() {
        let store = seeded();
        let pinned = store.snapshot();
        let mut later = Vec::new();
        for i in 3..13i64 {
            store
                .run_script(&format!("INSERT INTO T VALUES ({i});"))
                .unwrap();
            later.push(Arc::downgrade(&store.snapshot()));
        }
        let (head, replaced) = later.split_last().unwrap();
        assert!(head.upgrade().is_some(), "the store holds its head");
        assert!(
            replaced.iter().all(|weak| weak.upgrade().is_none()),
            "a replaced snapshot nobody pins is freed"
        );
        assert_eq!(store.depth(), 10, "every publish counted");
        assert_eq!(
            pinned.rows(&"T".into()).unwrap(),
            &[vec![Value::Int(1)], vec![Value::Int(2)]]
        );
    }

    #[test]
    fn snapshots_outlive_the_store_head() {
        let store = seeded();
        let pinned = store.snapshot();
        for i in 3..20i64 {
            store
                .run_script(&format!("INSERT INTO T VALUES ({i});"))
                .unwrap();
        }
        // The pinned snapshot still answers point lookups consistently.
        let pos = pinned
            .lookup_by_key(&"T".into(), &[0], &[Value::Int(2)])
            .unwrap()
            .unwrap();
        assert_eq!(pinned.rows(&"T".into()).unwrap()[pos], vec![Value::Int(2)]);
        assert!(pinned
            .lookup_by_key(&"T".into(), &[0], &[Value::Int(12)])
            .unwrap()
            .is_none());
    }
}
