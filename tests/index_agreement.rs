//! Secondary-index agreement and maintenance properties (E19).
//!
//! The full-scan row executor is the oracle: for every statement, the
//! cost-based session over the *same* indexed database — whose plans
//! route sargable selections through `IxScan` and key joins through
//! `IxJoin` — must return the oracle's multiset. Index access paths may
//! only change *how much work* a query costs, never *which rows* it
//! returns.
//!
//! Coverage:
//! * incremental maintenance: after any interleaving of backfill and
//!   `INSERT`s, every index equals a from-scratch rebuild of its table
//!   (`Database::index_entries` is the rebuild-agreement oracle);
//! * a unique index enforces its key with the same violation error a
//!   declared `UNIQUE` constraint produces — at backfill and on insert;
//! * fixed sargable statements plus property tests over random
//!   instances, including post-`INSERT` runs
//!   where the cached plans must serve the new rows through the
//!   *maintained* indexes;
//! * storage shared across snapshots: every snapshot a
//!   [`SnapshotStore`] publishes, pinned or not, answers row, key and
//!   index lookups exactly like a database rebuilt from its own rows,
//!   across row-chunk boundaries and index-overlay folds.

use proptest::prelude::*;
use std::ops::Bound;
use std::sync::Arc;
use uniqueness::catalog::{Database, SnapshotStore, CHUNK_ROWS};
use uniqueness::engine::Session;
use uniqueness::sql::parse_statement;
use uniqueness::types::value::tuple_null_cmp;
use uniqueness::types::{Error, TableName, Value};
use uniqueness::workload::random_instance;
use uniqueness::workload::rng::SplitMix64;

/// The index set built over every random instance: the unique supplier
/// key (ordered), a non-unique city index, a hash-only color index and
/// a composite ordered index matching the `PARTS` primary key.
const INDEX_DDL: &str = "CREATE UNIQUE INDEX IDX_S_SNO ON SUPPLIER (SNO);
     CREATE INDEX IDX_S_CITY ON SUPPLIER (SCITY);
     CREATE INDEX IDX_P_COLOR ON PARTS (COLOR) USING HASH;
     CREATE INDEX IDX_P_SNO_PNO ON PARTS (SNO, PNO);";

/// Sargable shapes: point and range `IxScan`s on unique, non-unique,
/// hash and composite indexes, and `IxJoin`s probing the supplier key.
fn sargable_statements() -> Vec<&'static str> {
    vec![
        "SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 7",
        "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO > 5 AND S.SNO <= 15",
        "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO BETWEEN 3 AND 9",
        "SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto'",
        "SELECT P.PNO FROM PARTS P WHERE P.COLOR = 'RED'",
        "SELECT P.PNAME FROM PARTS P WHERE P.SNO = 3 AND P.PNO >= 2",
        "SELECT P.PNO, S.SNAME FROM PARTS P, SUPPLIER S \
         WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        "SELECT DISTINCT S.SCITY FROM SUPPLIER S, PARTS P \
         WHERE S.SNO = P.SNO AND P.PNO = 1",
        "SELECT S.SNO, P.PNO, A.ANO FROM SUPPLIER S, PARTS P, AGENTS A \
         WHERE S.SNO = P.SNO AND S.SNO = A.SNO AND P.COLOR = 'GREEN'",
        // NULL comparisons match nothing — through an index or not.
        "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = NULL",
    ]
}

fn indexed_instance(seed: u64, suppliers: usize, parts: usize) -> Database {
    let mut db = random_instance(seed, suppliers, parts, suppliers).unwrap();
    db.run_script(INDEX_DDL).unwrap();
    db
}

fn sorted_rows(session: &Session, sql: &str) -> Vec<Vec<Value>> {
    let mut rows = session
        .query(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows;
    rows.sort_by(|a, b| tuple_null_cmp(a, b).unwrap());
    rows
}

/// Rebuild an index's contents from the stored rows, from scratch.
fn rebuilt_entries(db: &Database, table: &str, columns: &[usize]) -> Vec<(Vec<Value>, Vec<usize>)> {
    let mut map: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    for (pos, row) in db.rows(&table.into()).unwrap().iter().enumerate() {
        let key: Vec<Value> = columns.iter().map(|&c| row[c].clone()).collect();
        match map.iter_mut().find(|(k, _)| *k == key) {
            Some((_, positions)) => positions.push(pos),
            None => map.push((key, vec![pos])),
        }
    }
    map.sort_by(|(a, _), (b, _)| tuple_null_cmp(a, b).unwrap());
    map
}

fn assert_indexes_match_rebuild(db: &Database) {
    for (table, index, columns) in [
        ("SUPPLIER", "IDX_S_SNO", vec![0]),
        ("SUPPLIER", "IDX_S_CITY", vec![2]),
        ("PARTS", "IDX_P_COLOR", vec![4]),
        ("PARTS", "IDX_P_SNO_PNO", vec![0, 1]),
    ] {
        let mut live = db.index_entries(&table.into(), index).unwrap();
        for (_, positions) in &mut live {
            positions.sort_unstable();
        }
        live.sort_by(|(a, _), (b, _)| tuple_null_cmp(a, b).unwrap());
        assert_eq!(
            live,
            rebuilt_entries(db, table, &columns),
            "{index} diverged from a from-scratch rebuild"
        );
    }
}

/// A unique index must reject a duplicate insert with the same error a
/// declared `UNIQUE` constraint produces — and reject backfill over
/// already-duplicated data the same way.
#[test]
fn unique_index_violations_match_declared_keys() {
    let declared_err = {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE D (A INTEGER NOT NULL, B INTEGER, \
             PRIMARY KEY (A), UNIQUE (B)); \
             INSERT INTO D VALUES (1, 10);",
        )
        .unwrap();
        db.run_script("INSERT INTO D VALUES (2, 10);").unwrap_err()
    };
    let indexed_err = {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE D (A INTEGER NOT NULL, B INTEGER, PRIMARY KEY (A)); \
             CREATE UNIQUE INDEX IDX_D_B ON D (B); \
             INSERT INTO D VALUES (1, 10);",
        )
        .unwrap();
        db.run_script("INSERT INTO D VALUES (2, 10);").unwrap_err()
    };
    match (&declared_err, &indexed_err) {
        (
            Error::ConstraintViolation {
                table: dt,
                message: dm,
            },
            Error::ConstraintViolation {
                table: it,
                message: im,
            },
        ) => {
            assert_eq!(dt, it);
            assert_eq!(
                dm, im,
                "declared-key and unique-index errors must read the same"
            );
        }
        other => panic!("expected two constraint violations, got {other:?}"),
    }

    // Backfill over duplicate data is the same violation, and a failed
    // CREATE INDEX must leave no half-built index behind.
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE D (A INTEGER NOT NULL, B INTEGER, PRIMARY KEY (A)); \
         INSERT INTO D VALUES (1, 10); INSERT INTO D VALUES (2, 10);",
    )
    .unwrap();
    let ci = parse_statement("CREATE UNIQUE INDEX IDX_D_B ON D (B)").unwrap();
    let uniqueness::sql::Statement::CreateIndex(ci) = ci else {
        panic!("expected CREATE INDEX")
    };
    assert!(matches!(
        db.create_index(&ci),
        Err(Error::ConstraintViolation { .. })
    ));
    assert!(db.index_entries(&"D".into(), "IDX_D_B").is_err());
    db.run_script("INSERT INTO D VALUES (3, 11);").unwrap();
}

/// CI fast lane: a fixed instance agrees on every sargable statement
/// and the maintained indexes match a from-scratch rebuild.
#[test]
fn indexed_plans_agree_on_a_fixed_instance() {
    let db = indexed_instance(42, 15, 40);
    assert_indexes_match_rebuild(&db);
    let oracle = Session::new(db.clone());
    let indexed = Session::new(db).with_cost_based();
    for sql in sargable_statements() {
        assert_eq!(
            sorted_rows(&indexed, sql),
            sorted_rows(&oracle, sql),
            "indexed multiset differs for {sql}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random instances: the cost-based session over the indexed
    /// database returns the full-scan oracle's multiset for every
    /// sargable statement.
    #[test]
    fn indexed_plans_match_the_full_scan_oracle(
        seed in 0u64..1_000,
        suppliers in 5usize..30,
        parts in 5usize..60,
    ) {
        let db = indexed_instance(seed, suppliers, parts);
        let oracle = Session::new(db.clone());
        let indexed = Session::new(db).with_cost_based();
        for sql in sargable_statements() {
            prop_assert_eq!(
                sorted_rows(&indexed, sql),
                sorted_rows(&oracle, sql),
                "seed {} differs for {}", seed, sql
            );
        }
    }

    /// Maintenance: `INSERT`s after the backfill keep every index equal
    /// to a from-scratch rebuild, and cached index plans — compiled
    /// before the insert — serve the new rows through the maintained
    /// index (a plain `INSERT` does not invalidate plans; the index is
    /// simply *live*).
    #[test]
    fn inserts_maintain_indexes_and_cached_plans_see_new_rows(
        seed in 0u64..1_000,
    ) {
        let db = indexed_instance(seed, 10, 20);
        let mut oracle = Session::new(db.clone());
        let mut indexed = Session::new(db).with_cost_based();
        // Compile (and cache) every plan before the mutation.
        for sql in sargable_statements() {
            sorted_rows(&indexed, sql);
        }
        // SNO 21 lies outside the generator's 1..=20 domain, so the
        // inserts can never clash with an existing candidate key.
        // The OEM-PNO 999 lies outside the generator's 100..=120 pool,
        // so neither insert can clash with an existing candidate key.
        let script = "INSERT INTO SUPPLIER VALUES (21, 'Late', 'Toronto', 3, 'Active'); \
                      INSERT INTO PARTS VALUES (21, 1, 'part9', 999, 'RED');";
        oracle.run_script(script).unwrap();
        indexed.run_script(script).unwrap();
        assert_indexes_match_rebuild(&indexed.db);
        for sql in sargable_statements() {
            prop_assert_eq!(
                sorted_rows(&indexed, sql),
                sorted_rows(&oracle, sql),
                "post-INSERT differs for {}", sql
            );
        }
        // The new supplier is reachable through the cached point plan.
        let out = indexed.query("SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 21").unwrap();
        prop_assert_eq!(&out.rows, &vec![vec![Value::str("Late")]]);
    }
}

/// The schema the storage property writes through a [`SnapshotStore`]:
/// a parent `P`, and a child `R` with two declared candidate keys (`B`
/// nullable), a foreign key, a unique index registering a third key
/// `(K, A)`, and ordered, hash and composite secondary indexes.
const STORAGE_DDL: &str = "CREATE TABLE P (K INTEGER NOT NULL, PRIMARY KEY (K));
     CREATE TABLE R (A INTEGER NOT NULL, B INTEGER, C VARCHAR, K INTEGER,
       PRIMARY KEY (A), UNIQUE (B), FOREIGN KEY (K) REFERENCES P (K));
     CREATE UNIQUE INDEX IDX_R_KA ON R (K, A);
     CREATE INDEX IDX_R_C ON R (C);
     CREATE INDEX IDX_R_C_HASH ON R (C) USING HASH;
     CREATE INDEX IDX_R_CB ON R (C, B);";

/// `R`'s candidate keys (sorted column positions) and `R`'s indexes
/// with their columns.
const R_KEYS: [&[usize]; 3] = [&[0], &[1], &[0, 3]];
const R_INDEXES: [(&str, &[usize]); 4] = [
    ("IDX_R_KA", &[3, 0]),
    ("IDX_R_C", &[2]),
    ("IDX_R_C_HASH", &[2]),
    ("IDX_R_CB", &[2, 1]),
];

/// One `INSERT INTO R`: a fresh `A` (or, rarely, a taken one), a fresh
/// `B` or `NULL` (a second `NULL` violates `UNIQUE (B)`), a `C` from a
/// small pool, and a parent that exists, is `NULL`, or (rarely) is
/// missing. A violation fails the whole script.
fn random_r_row(rng: &mut SplitMix64, next: &mut i64, parents: i64) -> String {
    *next += 1;
    let a = if rng.gen_bool(0.02) { 1 } else { *next };
    let b = if rng.gen_bool(0.03) {
        "NULL".to_string()
    } else {
        (10_000 + *next).to_string()
    };
    let c = ["'x'", "'y'", "'z'", "NULL"][rng.gen_range(0..4usize)];
    let k = match rng.gen_range(0..20u32) {
        0 => "NULL".to_string(),
        1 => (parents + 1).to_string(),
        _ => rng.gen_range(1..=parents).to_string(),
    };
    format!("INSERT INTO R VALUES ({a}, {b}, {c}, {k});")
}

/// A database rebuilt from `snap`'s rows: the same schema, every row
/// inserted afresh in order.
fn rebuilt(snap: &Database) -> Database {
    let mut db = Database::new();
    db.run_script(STORAGE_DDL).unwrap();
    for table in ["P", "R"] {
        let name: TableName = table.into();
        for row in snap.rows(&name).unwrap() {
            db.insert(&name, row.clone()).unwrap();
        }
    }
    db
}

/// `snap` answers `rows`, `lookup_by_key`, `index_probe`, `index_range`
/// and `index_entries` exactly like `rebuilt(snap)`.
fn assert_answers_like_a_rebuild(snap: &Database) {
    let want = rebuilt(snap);
    let (p, r): (TableName, TableName) = ("P".into(), "R".into());
    let rows = snap.rows(&r).unwrap();
    assert_eq!(rows, want.rows(&r).unwrap());
    assert_eq!(snap.rows(&p).unwrap(), want.rows(&p).unwrap());
    assert!((0..rows.len()).all(|i| rows[i] == want.rows(&r).unwrap()[i]));
    let tuple = |row: &[Value], columns: &[usize]| -> Vec<Value> {
        columns.iter().map(|&c| row[c].clone()).collect()
    };
    let absent = vec![
        Value::Int(-7),
        Value::Int(-7),
        Value::str("w"),
        Value::Int(-7),
    ];
    let probes: Vec<&[Value]> = rows
        .iter()
        .map(Vec::as_slice)
        .chain([absent.as_slice()])
        .collect();
    for key in R_KEYS {
        for row in &probes {
            let k = tuple(row, key);
            assert_eq!(
                snap.lookup_by_key(&r, key, &k).unwrap(),
                want.lookup_by_key(&r, key, &k).unwrap(),
                "key {key:?} = {k:?}"
            );
        }
    }
    for row in snap.rows(&p).unwrap().iter().chain([&vec![Value::Int(-7)]]) {
        assert_eq!(
            snap.lookup_by_key(&p, &[0], row).unwrap(),
            want.lookup_by_key(&p, &[0], row).unwrap()
        );
    }
    for (index, columns) in R_INDEXES {
        assert_eq!(
            snap.index_entries(&r, index).unwrap(),
            want.index_entries(&r, index).unwrap(),
            "{index}"
        );
        for row in &probes {
            let k = tuple(row, columns);
            assert_eq!(
                snap.index_probe(&r, index, &k).unwrap().to_vec(),
                want.index_probe(&r, index, &k).unwrap().to_vec(),
                "{index} = {k:?}"
            );
        }
    }
    // Ranges: whole ordered indexes, bounded scans on C, and prefix
    // scans of (C, B) with bounds on B.
    let (y, b) = (Value::str("y"), Value::Int(10_000 + rows.len() as i64 / 2));
    let bounds = [
        (Bound::Unbounded, Bound::Unbounded),
        (Bound::Included(&y), Bound::Unbounded),
        (Bound::Unbounded, Bound::Excluded(&y)),
        (Bound::Excluded(&y), Bound::Included(&y)),
    ];
    for (index, prefix) in [
        ("IDX_R_C", vec![]),
        ("IDX_R_CB", vec![]),
        ("IDX_R_KA", vec![]),
    ] {
        for (low, high) in bounds {
            assert_eq!(
                snap.index_range(&r, index, &prefix, low, high).unwrap(),
                want.index_range(&r, index, &prefix, low, high).unwrap(),
                "{index} {low:?}..{high:?}"
            );
        }
    }
    for c in ["x", "z"] {
        let prefix = [Value::str(c)];
        for (low, high) in [
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(&b), Bound::Unbounded),
            (Bound::Unbounded, Bound::Excluded(&b)),
        ] {
            assert_eq!(
                snap.index_range(&r, "IDX_R_CB", &prefix, low, high)
                    .unwrap(),
                want.index_range(&r, "IDX_R_CB", &prefix, low, high)
                    .unwrap(),
                "IDX_R_CB [{c}] {low:?}..{high:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random insert scripts published through a store grow `R` from
    /// below one full chunk to well past it; every write shares the
    /// head's index bases, so its entries go to overlays that fold once
    /// they pass √n. Failing scripts (duplicate keys, missing parents)
    /// publish nothing. Every snapshot kept along the way — pinned
    /// while later writes land — and the head answer exactly like a
    /// rebuild from their own rows.
    #[test]
    fn snapshots_answer_like_a_rebuild_across_seals_and_folds(seed in 0u64..1_000) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut db = Database::new();
        db.run_script(STORAGE_DDL).unwrap();
        let mut parents = 8i64;
        for k in 1..=parents {
            db.run_script(&format!("INSERT INTO P VALUES ({k});")).unwrap();
        }
        let mut next = 0i64;
        let seeded = CHUNK_ROWS - 40;
        while db.row_count(&"R".into()).unwrap() < seeded {
            let _ = db.run_script(&random_r_row(&mut rng, &mut next, parents));
        }
        let store = SnapshotStore::new(db);
        let mut kept: Vec<Arc<Database>> = vec![store.snapshot()];
        while store.snapshot().row_count(&"R".into()).unwrap() < CHUNK_ROWS + 60 {
            let mut script = String::new();
            if rng.gen_bool(0.2) {
                script.push_str(&format!("INSERT INTO P VALUES ({});", parents + 1));
            }
            for _ in 0..rng.gen_range(1..8usize) {
                script.push_str(&random_r_row(&mut rng, &mut next, parents));
            }
            let before = store.snapshot();
            match store.run_script(&script) {
                Ok(_) => parents += i64::from(script.starts_with("INSERT INTO P")),
                Err(_) => prop_assert!(Arc::ptr_eq(&before, &store.snapshot())),
            }
            if rng.gen_bool(0.25) {
                kept.push(store.snapshot());
            }
        }
        kept.push(store.snapshot());
        for snap in &kept {
            assert_answers_like_a_rebuild(snap);
        }
    }
}
