//! MVCC snapshot chain over copy-on-write [`Database`] values.
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
//!   rows), applies the mutation — [`std::sync::Arc::make_mut`] inside
//!   [`Database`] deep-copies exactly the touched tables — and
//!   publishes the result as the new head. Readers pinned to older
//!   snapshots keep them alive through their `Arc`s; untouched tables
//!   are shared by every snapshot in the chain.
//! * **Atomicity**: a failed statement (constraint violation, unknown
//!   table, …) discards the scratch clone, so the head never exposes a
//!   partially applied write. `run_script` publishes once per script —
//!   a mid-script failure rolls the whole script back.
//!
//! Writers serialize against each other on a dedicated mutex; they
//! never block readers (publishing swaps one `Arc` under a briefly held
//! `RwLock` write lock), and readers never block writers.

use crate::database::Database;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use uniq_sql::Statement;
use uniq_types::Result;

/// A single-writer, many-reader chain of copy-on-write database
/// snapshots. See the module docs for the protocol.
#[derive(Debug)]
pub struct SnapshotStore {
    /// The newest published snapshot.
    head: RwLock<Arc<Database>>,
    /// Serializes writers; never held while readers execute.
    write: Mutex<()>,
    /// Snapshots published after the seed (the chain's depth).
    published: AtomicU64,
    /// Retained snapshots, oldest first; the back is always the head.
    /// Garbage-collected on every publish: dead *prefixes* — entries no
    /// reader or subscriber pins anymore — are truncated, so sustained
    /// writes with no pins keep the chain at O(1) length while one
    /// pinned old snapshot keeps exactly its suffix reachable.
    chain: Mutex<VecDeque<Arc<Database>>>,
}

impl SnapshotStore {
    /// A store seeded with `db` as the first snapshot.
    pub fn new(db: Database) -> SnapshotStore {
        let seed = Arc::new(db);
        SnapshotStore {
            head: RwLock::new(Arc::clone(&seed)),
            write: Mutex::new(()),
            published: AtomicU64::new(0),
            chain: Mutex::new(VecDeque::from([seed])),
        }
    }

    /// Pin the current head snapshot. The returned `Arc` stays
    /// consistent (catalog, rows, indexes, versions) no matter what
    /// writers publish afterwards; drop it to release the chain.
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

    /// Number of snapshots the store itself still retains (the GC'd
    /// chain length, head included). Bounded by `1 +` the number of
    /// publishes since the oldest still-pinned snapshot; `1` when
    /// nothing old is pinned.
    pub fn live_chain_len(&self) -> usize {
        self.chain.lock().expect("snapshot chain poisoned").len()
    }

    /// The writer protocol: clone the head structurally, mutate the
    /// clone, publish on success.
    fn write_with(&self, mutate: impl FnOnce(&mut Database) -> Result<()>) -> Result<()> {
        let _writer = self.write.lock().expect("snapshot writer lock poisoned");
        // Readers may still be pinning the head; clone shares all table
        // storage, so this is O(#tables), not O(rows).
        let mut scratch = (*self.snapshot()).clone();
        mutate(&mut scratch)?;
        let published = Arc::new(scratch);
        {
            let mut head = self.head.write().expect("snapshot head poisoned");
            *head = Arc::clone(&published);
        }
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut chain = self.chain.lock().expect("snapshot chain poisoned");
        chain.push_back(published);
        // Truncate the dead prefix: a front entry whose only owner is
        // the chain itself can never be read again (snapshot() only
        // hands out the head). Stop at the first pinned entry — a
        // pinned snapshot must keep reconstruction from it possible.
        while chain.len() > 1 {
            let front = chain.front().expect("non-empty chain");
            if Arc::strong_count(front) > 1 {
                break;
            }
            chain.pop_front();
        }
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
    fn chain_gc_keeps_depth_bounded_under_sustained_writes() {
        let store = seeded();
        assert_eq!(store.live_chain_len(), 1, "seed only");
        for i in 3..203i64 {
            store
                .run_script(&format!("INSERT INTO T VALUES ({i});"))
                .unwrap();
            assert!(
                store.live_chain_len() <= 2,
                "unpinned chain grew to {} after {} writes",
                store.live_chain_len(),
                i - 2
            );
        }
        assert_eq!(store.depth(), 200, "every publish counted");
        assert_eq!(store.live_chain_len(), 1, "only the head survives GC");
    }

    #[test]
    fn pinned_snapshot_holds_its_suffix_until_dropped() {
        let store = seeded();
        let pinned = store.snapshot();
        for i in 3..13i64 {
            store
                .run_script(&format!("INSERT INTO T VALUES ({i});"))
                .unwrap();
        }
        // The pin sits at the front: prefix truncation cannot pass it.
        assert_eq!(store.live_chain_len(), 11, "pin retains its suffix");
        drop(pinned);
        // The next publish collects the whole dead prefix at once.
        store.run_script("INSERT INTO T VALUES (99);").unwrap();
        assert_eq!(store.live_chain_len(), 1, "drop + publish collapses it");
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
