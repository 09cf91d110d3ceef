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
//!   across row-chunk boundaries and index-overlay folds;
//! * the priced access choice on perfbench-shaped data: which blocks
//!   take the encoded access while keeping their index licenses, which
//!   keep the index on the rows access, and that blocks carrying both
//!   licenses answer alike served (encoded), on the row path (index) and
//!   unoptimized, on the loaded data, after an `INSERT`, and on a
//!   snapshot older than the column store (rows access, index).

use proptest::prelude::*;
use std::ops::Bound;
use std::sync::Arc;
use uniqueness::catalog::{Database, SnapshotStore, CHUNK_ROWS};
use uniqueness::core::optimize_output;
use uniqueness::core::pipeline::{Optimizer, OptimizerOptions};
use uniqueness::cost::{plan_output, BlockPlan, OutputOp, PhysNode, PhysicalPlan, PlannerOptions};
use uniqueness::engine::{Session, Statistics};
use uniqueness::plan::{bind_output, HostVars};
use uniqueness::sql::{parse_full_query, parse_statement};
use uniqueness::types::value::tuple_null_cmp;
use uniqueness::types::{Error, TableName, Value};
use uniqueness::workload::rng::SplitMix64;
use uniqueness::workload::{random_instance, scaled_database, ScaleConfig};

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

/// perfbench's index set: the benchmark's `INDEX_DDL` and its
/// join-column indexes.
const PERFBENCH_INDEX_DDL: &str = "CREATE UNIQUE INDEX IDX_S_SNO ON SUPPLIER (SNO);
     CREATE INDEX IDX_P_COLOR ON PARTS (COLOR);
     CREATE INDEX IDX_P_SNO ON PARTS (SNO);
     CREATE INDEX IDX_A_SNO ON AGENTS (SNO);";

/// perfbench's data shape (10 parts and 2 agents per supplier, 30% red)
/// with its index set.
fn perfbench_shaped(suppliers: usize) -> Database {
    let config = ScaleConfig {
        suppliers,
        parts_per_supplier: 10,
        agents_per_supplier: 2,
        ..Default::default()
    };
    let mut db = scaled_database(&config).unwrap();
    db.run_script(PERFBENCH_INDEX_DDL).unwrap();
    db
}

/// perfbench's `analytic` statements 3, 4 and 5: `INTERSECT ALL` and
/// `EXCEPT ALL` over the unselective `COLOR` index, and the `EXISTS`
/// that Corollary 1 makes a join probing `IDX_P_SNO`.
const INDEXED_ANALYTIC: [&str; 3] = [
    "SELECT ALL P.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED' \
     INTERSECT ALL SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
    "SELECT ALL P.SNO FROM PARTS P WHERE P.COLOR = 'RED' \
     EXCEPT ALL SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Hull'",
    "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
     (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
];

/// The plan a session serves `sql` under: rewritten by the relational
/// profile, planned against `stats`.
fn served_plan(db: &Database, stats: &Statistics, sql: &str) -> PhysicalPlan {
    let bound = bind_output(db.catalog(), &parse_full_query(sql).unwrap()).unwrap();
    let (query, _) = optimize_output(&Optimizer::new(OptimizerOptions::relational()), &bound);
    plan_output(&query, Some(stats), PlannerOptions::default())
}

/// Every block of a plan, left to right.
fn blocks(node: &PhysNode) -> Vec<&BlockPlan> {
    match node {
        PhysNode::Block(b) => vec![b],
        PhysNode::SetOp { left, right, .. } => {
            let mut all = blocks(left);
            all.extend(blocks(right));
            all
        }
    }
}

/// On perfbench's data and index set, the blocks of `analytic`
/// statements 3-5 that carry an index operator price the encoded access
/// below it, so they are licensed columnar, and keep their `ixscan` /
/// `ix` licenses for the rows access. Statement 5's probe step renders
/// as the hash join the encoded access runs, with its index marker.
#[test]
fn unselective_index_blocks_are_licensed_columnar_and_keep_their_index_licenses() {
    let db = perfbench_shaped(2_000);
    let stats = Statistics::collect(&db);
    for sql in INDEXED_ANALYTIC {
        let plan = served_plan(&db, &stats, sql);
        let indexed: Vec<&BlockPlan> = (blocks(&plan.root).into_iter())
            .filter(|b| b.ixscan.is_some() || b.joins.iter().any(|j| j.ix.is_some()))
            .collect();
        assert_eq!(indexed.len(), 1, "{sql}: {plan:?}");
        let b = indexed[0];
        let price = b
            .price
            .expect("a covered block with an index operator is priced");
        assert!(price.encoded_ns < price.index_ns, "{sql}: {price:?}");
        assert!(b.columnar, "{sql}");
        let rendered = plan.render(0, None);
        assert!(rendered.contains("exec=columnar"), "{rendered}");
        assert!(!rendered.contains("IxJoin"), "{rendered}");
    }
    let scans = |sql| {
        let plan = served_plan(&db, &stats, sql);
        blocks(&plan.root)[0].ixscan.clone()
    };
    for sql in &INDEXED_ANALYTIC[..2] {
        let ix = scans(sql).expect("the COLOR scan keeps its license");
        assert_eq!(ix.index, "IDX_P_COLOR");
    }
    let plan = served_plan(&db, &stats, INDEXED_ANALYTIC[2]);
    let b = blocks(&plan.root)[0];
    let ix = b.joins[0].ix.as_ref().expect("the probe keeps its license");
    assert_eq!(ix.index, "IDX_P_SNO");
    assert!(!ix.unique);
    assert!(
        plan.render(0, None).contains("ixjoin(IDX_P_SNO) unique=no"),
        "{}",
        plan.render(0, None)
    );
    assert!(plan.ops[b.joins[0].id]
        .label
        .starts_with("HashJoin with Scan PARTS AS P"));
}

/// A unique point lookup prices its one-row probe far below a full
/// encoded scan: it keeps its `ixscan` and gets no columnar license.
#[test]
fn a_unique_point_lookup_keeps_its_index_scan_and_no_columnar_license() {
    let db = perfbench_shaped(2_000);
    let stats = Statistics::collect(&db);
    let plan = served_plan(
        &db,
        &stats,
        "SELECT S.SNO, S.SNAME, S.SCITY FROM SUPPLIER S WHERE S.SNO = 17",
    );
    let b = blocks(&plan.root)[0];
    let ix = b.ixscan.as_ref().expect("unique point probe licensed");
    assert_eq!(ix.index, "IDX_S_SNO");
    assert!(ix.unique);
    assert!(!b.columnar);
    let price = b.price.expect("covered and indexed, so priced");
    assert!(price.index_ns < price.encoded_ns, "{price:?}");
}

/// The `ORDER BY key LIMIT k` early stop is its block's scan: the walk
/// over the licensed index, bounded by the sarg the block's conjuncts
/// give on it, runs on rows and is neither licensed columnar nor priced,
/// under a licensed early-stop `Limit` with no `Sort`. Without the early
/// stop the same block is priced at its whole range and served encoded.
#[test]
fn the_early_stop_block_walks_its_sarg_on_rows_and_is_not_priced() {
    let db = perfbench_shaped(2_000);
    let stats = Statistics::collect(&db);
    let sql = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO <= 17 ORDER BY S.SNO LIMIT 10";
    let plan = served_plan(&db, &stats, sql);
    let b = blocks(&plan.root)[0];
    let walk = b.ixscan.as_ref().expect("the walk is the block's scan");
    assert_eq!(
        (walk.index.as_str(), walk.desc.as_str()),
        ("IDX_S_SNO", "SNO<=17")
    );
    assert!(!b.columnar && b.price.is_none(), "{plan:?}");
    assert!(plan.output.iter().any(|op| matches!(
        op,
        OutputOp::Limit {
            early_stop: Some(index),
            ..
        } if index == "IDX_S_SNO"
    )));
    assert!(!plan
        .output
        .iter()
        .any(|op| matches!(op, OutputOp::Sort { .. })));
    let bound = bind_output(db.catalog(), &parse_full_query(sql).unwrap()).unwrap();
    let off = PlannerOptions {
        early_stop: false,
        ..Default::default()
    };
    let scanned = plan_output(&bound, Some(&stats), off);
    let b = blocks(&scanned.root)[0];
    assert!(b.ixscan.is_some() && b.columnar, "{scanned:?}");
}

/// The early-stop walk reads only the range its own predicate gives on
/// the walked index: on perfbench's data, analyzed and not, each
/// statement reads exactly the rows it returns (`rows_scanned` and
/// `topk_rows_examined`), sorts nothing, probes the index once, and
/// answers like the scan-sort-cut oracle (`with_agg_elision(false)`)
/// and the unoptimized plan, row for row in order. A host variable
/// bound to `NULL` bounds the walk to nothing.
#[test]
fn the_early_stop_walk_reads_only_its_sargs_range() {
    let db = perfbench_shaped(2_000);
    let top = |filter: &str| {
        format!("SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE {filter} ORDER BY S.SNO LIMIT 10")
    };
    let hv = HostVars::new();
    let cases = [
        (top("S.SNO = 5"), hv.clone(), 1),
        (top("S.SNO <= 5"), hv.clone(), 5),
        (top("S.SNO >= 1500"), hv.clone(), 10),
        (top("S.SNO BETWEEN 1990 AND 1995"), hv.clone(), 6),
        (top("S.SNO >= :K"), HostVars::new().with("K", 1500), 10),
        (
            top("S.SNO >= :K"),
            HostVars::new().with("K", Value::Null),
            0,
        ),
    ];
    for session in [
        Session::new(db.clone()),
        Session::new(db.clone()).with_cost_based(),
    ] {
        let oracle = session.clone().with_agg_elision(false);
        for (sql, hv, rows) in &cases {
            let out = session.query_with(sql, hv).unwrap();
            let s = &out.stats;
            assert_eq!(out.rows.len(), *rows, "{sql}");
            assert_eq!(
                (s.rows_scanned, s.topk_rows_examined),
                (*rows as u64, *rows as u64),
                "{sql}: {s:?}"
            );
            assert_eq!(s.sorts, 0, "{sql}: {s:?}");
            assert_eq!(s.ix_probes, u64::from(*rows > 0), "{sql}: {s:?}");
            assert_eq!(out.rows, oracle.query_with(sql, hv).unwrap().rows, "{sql}");
            assert_eq!(
                out.rows,
                session.query_unoptimized(sql, hv).unwrap().rows,
                "{sql}"
            );
        }
        // Shape 7 of perfbench's `oltp` keeps its walk: ten rows, then a stop.
        let out = session.query(&top("S.SNO <= 17")).unwrap();
        let s = &out.stats;
        assert_eq!(
            (out.rows.len(), s.rows_scanned, s.topk_rows_examined),
            (10, 10, 10)
        );
        assert_eq!((s.early_stops, s.probe_steps, s.sorts), (1, 0, 0), "{s:?}");
    }
}

/// EXPLAIN names the access that runs: an analyzed early-stop block
/// whose filter the encoded kernels would cover shows the walk of its
/// index on the scan line, no columnar license, dictionary marker or
/// price, and is served on rows.
#[test]
fn an_early_stop_block_explains_the_walk_it_serves() {
    let session = Session::new(perfbench_shaped(2_000)).with_cost_based();
    let sql = "SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' ORDER BY S.SNO LIMIT 3";
    let text = session.explain(sql).unwrap();
    let scan = text
        .lines()
        .find(|l| l.contains("Scan SUPPLIER AS S"))
        .expect(&text);
    assert!(scan.ends_with(" ixscan(IDX_S_SNO)"), "{text}");
    for marker in ["exec=columnar", "enc=dict", "price("] {
        assert!(!text.contains(marker), "{text}");
    }
    assert!(text.contains("early-stop(IDX_S_SNO)"), "{text}");
    let out = session.query(sql).unwrap();
    assert_eq!(
        (out.rows.len(), out.stats.vector_ops, out.stats.sorts),
        (3, 0, 0),
        "{:?}",
        out.stats
    );
}

/// Sorted rows of one statement served, on the row path and unoptimized,
/// asserted equal; returns the served and row-path counters.
fn agree_three_ways(
    session: &Session,
    sql: &str,
) -> (uniqueness::engine::ExecStats, uniqueness::engine::ExecStats) {
    let hv = HostVars::new();
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort_by(|a, b| tuple_null_cmp(a, b).unwrap());
        rows
    };
    let served = session.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let on_rows = session.query_row_path(sql, &hv).unwrap();
    let oracle = session.query_unoptimized(sql, &hv).unwrap();
    let want = sorted(oracle.rows);
    assert_eq!(sorted(served.rows), want, "served: {sql}");
    assert_eq!(sorted(on_rows.rows), want, "row path: {sql}");
    (served.stats, on_rows.stats)
}

/// Blocks carrying both licenses answer alike served (the encoded
/// access), through `query_row_path` (the rows access with its index)
/// and through `query_unoptimized`: on the loaded data, after an
/// `INSERT` the column store is refreshed across, and on a snapshot
/// older than the store, which cannot read its encodings and takes the
/// rows access with its index.
#[test]
fn blocks_with_both_licenses_agree_served_on_rows_and_unoptimized() {
    let mut session = Session::new(perfbench_shaped(200)).with_cost_based();
    let mut statements: Vec<&str> = INDEXED_ANALYTIC.to_vec();
    statements.push("SELECT P.PNO, P.SNO FROM PARTS P WHERE P.COLOR = 'GREEN' AND P.PNO > 3");
    for sql in &statements {
        let plan = session.explain(sql).unwrap();
        assert!(plan.contains("exec=columnar"), "{plan}");
        assert!(
            plan.contains("ixscan(") || plan.contains("ixjoin("),
            "{plan}"
        );
        let (served, on_rows) = agree_three_ways(&session, sql);
        assert!(served.vector_ops > 0, "{sql}: {served:?}");
        assert!(
            on_rows.ix_probes > 0 && on_rows.vector_ops == 0,
            "{sql}: {on_rows:?}"
        );
    }
    let old = session.db.clone();
    session
        .run_script(
            "INSERT INTO SUPPLIER VALUES (901, 'Late', 'Toronto', 7, 'Active'); \
             INSERT INTO PARTS VALUES (901, 1, 'part1', 9000001, 'RED'); \
             INSERT INTO PARTS VALUES (901, 2, 'part2', 9000002, 'GREEN'); \
             INSERT INTO AGENTS VALUES (901, 1, 'agent1', 'Ottawa');",
        )
        .unwrap();
    for sql in &statements {
        let (served, on_rows) = agree_three_ways(&session, sql);
        assert!(served.vector_ops > 0, "after INSERT, {sql}: {served:?}");
        assert!(on_rows.ix_probes > 0, "after INSERT, {sql}: {on_rows:?}");
    }
    // The same cached plans and the refreshed store, over the snapshot
    // from before the INSERT: every table the blocks read has fewer rows
    // than its encoding.
    let mut stale = session.clone();
    stale.db = old;
    for sql in &statements {
        let (served, _) = agree_three_ways(&stale, sql);
        assert_eq!(served.vector_ops, 0, "stale store, {sql}: {served:?}");
        assert!(served.ix_probes > 0, "stale store, {sql}: {served:?}");
    }
}
