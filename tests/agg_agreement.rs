//! Aggregation / Top-K agreement properties.
//!
//! Over random valid instances of the Figure 1 schema and random
//! `GROUP BY` / aggregate / `ORDER BY` / `LIMIT` queries, every
//! execution configuration must produce the same answer:
//!
//! * the **un-elided row oracle** (`with_agg_elision(false)`):
//!   hash grouping, distinct sets, and full scan-sort-limit, paid in
//!   full;
//! * the **elided row path** (session defaults): proof-gated `GROUP BY`
//!   key elision, `COUNT(DISTINCT)` degradation, and the early-stopping
//!   ordered-index Top-K walk;
//! * the **cost-based columnar and row paths**: an analyzed session's
//!   served answer (covered blocks on the kernels) and the same plan
//!   run with no column store (`Session::query_row_path`).
//!
//! A fixed-seed loop generates early-stop walks: `ORDER BY` an index
//! prefix with a bound on the index's leading column, served analyzed
//! and not, on the row path and unoptimized.
//!
//! Comparisons are multiset comparisons. When a `LIMIT` is generated,
//! the query's `ORDER BY` covers *all* output columns, so the surviving
//! multiset is deterministic and the comparison stays exact; without a
//! `LIMIT` the `ORDER BY` is an arbitrary (possibly empty) subset and
//! row order is ignored. Sortedness of every ordered result is checked
//! against the generated `ORDER BY` spec directly.

use proptest::prelude::*;
use std::collections::HashMap;
use uniqueness::catalog::Row;
use uniqueness::engine::Session;
use uniqueness::plan::HostVars;
use uniqueness::types::Value;
use uniqueness::workload::random_instance;
use uniqueness::workload::rng::SplitMix64;

/// One table's generation vocabulary: alias, all columns, the columns
/// `SUM`/`AVG` may target (`INTEGER`-typed), and an ordered secondary
/// index created on the elided sessions so the Top-K walk can fire.
struct TableGen {
    name: &'static str,
    alias: &'static str,
    cols: &'static [&'static str],
    int_cols: &'static [&'static str],
    index_col: &'static str,
}

const TABLES: &[TableGen] = &[
    TableGen {
        name: "SUPPLIER",
        alias: "S",
        cols: &["SNO", "SNAME", "SCITY", "BUDGET", "STATUS"],
        int_cols: &["SNO", "BUDGET"],
        index_col: "BUDGET",
    },
    TableGen {
        name: "PARTS",
        alias: "P",
        cols: &["SNO", "PNO", "PNAME", "COLOR"],
        int_cols: &["SNO", "PNO"],
        index_col: "PNAME",
    },
    TableGen {
        name: "AGENTS",
        alias: "A",
        cols: &["SNO", "ANO", "ANAME", "ACITY"],
        int_cols: &["SNO", "ANO"],
        index_col: "ACITY",
    },
];

/// A generated query plus the facts the checker needs: output names
/// and the `ORDER BY` spec as (output position, desc) pairs.
struct GenQuery {
    sql: String,
    order_by: Vec<(usize, bool)>,
    limit: Option<u64>,
}

fn pick<'a, T>(rng: &mut SplitMix64, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// Random single-table aggregate (or plain) query with optional
/// `ORDER BY` / `LIMIT` tail. Every output item carries a distinct
/// alias so `ORDER BY` can address any of them by name.
fn gen_query(rng: &mut SplitMix64) -> GenQuery {
    let t = pick(rng, TABLES);
    let mut items: Vec<String> = Vec::new(); // SELECT-list text
    let mut names: Vec<String> = Vec::new(); // output names, for ORDER BY

    if rng.gen_bool(0.7) {
        // Aggregate query: 0–2 grouping columns, then 1–3 aggregates.
        let ngroup = rng.gen_range(0..=2usize);
        let mut group_cols: Vec<&str> = Vec::new();
        while group_cols.len() < ngroup {
            let c = pick(rng, t.cols);
            if !group_cols.contains(c) {
                group_cols.push(c);
            }
        }
        for c in &group_cols {
            items.push(format!("{}.{}", t.alias, c));
            names.push((*c).to_string());
        }
        let naggs = rng.gen_range(1..=3usize);
        for i in 0..naggs {
            let alias = format!("AG{i}");
            let expr = match rng.gen_range(0..7u32) {
                0 => "COUNT(*)".to_string(),
                1 => format!("COUNT({}.{})", t.alias, pick(rng, t.cols)),
                2 => format!("COUNT(DISTINCT {}.{})", t.alias, pick(rng, t.cols)),
                3 => format!("SUM({}.{})", t.alias, pick(rng, t.int_cols)),
                4 => format!("AVG({}.{})", t.alias, pick(rng, t.int_cols)),
                5 => format!("MIN({}.{})", t.alias, pick(rng, t.cols)),
                _ => format!("MAX({}.{})", t.alias, pick(rng, t.cols)),
            };
            items.push(format!("{expr} AS {alias}"));
            names.push(alias);
        }
        if !group_cols.is_empty() {
            let by: Vec<String> = group_cols
                .iter()
                .map(|c| format!("{}.{}", t.alias, c))
                .collect();
            return finish(
                rng,
                t,
                items,
                names,
                &format!(" GROUP BY {}", by.join(", ")),
            );
        }
        finish(rng, t, items, names, "")
    } else {
        // Plain projection: 1–3 columns, ORDER BY / LIMIT tail only.
        let ncols = rng.gen_range(1..=3usize);
        let mut cols: Vec<&str> = Vec::new();
        while cols.len() < ncols {
            let c = pick(rng, t.cols);
            if !cols.contains(c) {
                cols.push(c);
            }
        }
        for c in &cols {
            items.push(format!("{}.{}", t.alias, c));
            names.push((*c).to_string());
        }
        finish(rng, t, items, names, "")
    }
}

/// Attach the WHERE-free body tail: optional `ORDER BY` (all columns
/// when a `LIMIT` follows, so the cut is deterministic) and `LIMIT`.
fn finish(
    rng: &mut SplitMix64,
    t: &TableGen,
    items: Vec<String>,
    names: Vec<String>,
    group_clause: &str,
) -> GenQuery {
    let mut sql = format!(
        "SELECT {} FROM {} {}{}",
        items.join(", "),
        t.name,
        t.alias,
        group_clause
    );
    let limit = rng.gen_bool(0.5).then(|| rng.gen_range(0..=7i64) as u64);
    let mut order_by: Vec<(usize, bool)> = Vec::new();
    if limit.is_some() || rng.gen_bool(0.6) {
        // A permutation of output positions; all of them under LIMIT.
        let mut positions: Vec<usize> = (0..names.len()).collect();
        for i in (1..positions.len()).rev() {
            positions.swap(i, rng.gen_range(0..=(i as i64)) as usize);
        }
        let keep = if limit.is_some() {
            positions.len()
        } else {
            rng.gen_range(1..=(positions.len() as i64)) as usize
        };
        for &p in &positions[..keep] {
            order_by.push((p, rng.gen_bool(0.4)));
        }
    }
    if !order_by.is_empty() {
        let spec: Vec<String> = order_by
            .iter()
            .map(|(p, desc)| format!("{}{}", names[*p], if *desc { " DESC" } else { "" }))
            .collect();
        sql.push_str(&format!(" ORDER BY {}", spec.join(", ")));
    }
    if let Some(k) = limit {
        sql.push_str(&format!(" LIMIT {k}"));
    }
    GenQuery {
        sql,
        order_by,
        limit,
    }
}

fn multiset(rows: &[Row]) -> HashMap<Row, usize> {
    let mut m = HashMap::new();
    for r in rows {
        *m.entry(r.clone()).or_insert(0) += 1;
    }
    m
}

/// Check the rows obey the generated `ORDER BY` spec (engine total
/// order: `NULL` first, via [`Value::null_cmp`]).
fn assert_sorted(rows: &[Row], order_by: &[(usize, bool)], sql: &str) {
    for w in rows.windows(2) {
        for &(p, desc) in order_by {
            let o = w[0][p].null_cmp(&w[1][p]).unwrap();
            let o = if desc { o.reverse() } else { o };
            assert!(o.is_le(), "unsorted at column {p} of {sql}: {w:?}");
            if o.is_lt() {
                break;
            }
        }
    }
}

/// Every session variant that must agree with the oracle, over one
/// shared random instance. Ordered secondary indexes are created so
/// the early-stop license can fire on the elided sessions.
fn sessions(seed: u64) -> (Session, Vec<(&'static str, Session)>) {
    let db = random_instance(seed, 12, 24, 12).unwrap();
    let index_ddl: String = TABLES
        .iter()
        .map(|t| format!("CREATE INDEX IX_{0}_{1} ON {0} ({1});", t.name, t.index_col))
        .collect();
    let mut oracle = Session::new(db.clone()).with_agg_elision(false);
    oracle.run_script(&index_ddl).unwrap();
    let mut variants = vec![
        ("row-elided", Session::new(db.clone())),
        ("cost-based", Session::new(db.clone()).with_cost_based()),
    ];
    for (_, s) in variants.iter_mut() {
        s.run_script(&index_ddl).unwrap();
        // CREATE INDEX bumps the catalog; refresh cost-based statistics.
        if s.statistics().is_some() {
            s.analyze();
        }
    }
    (oracle, variants)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Elided and un-elided plans agree on every execution path.
    #[test]
    fn all_paths_agree_on_random_aggregate_queries(seed in 0u64..1u64 << 48) {
        let (oracle, variants) = sessions(seed);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xA55A);
        for _ in 0..6 {
            let q = gen_query(&mut rng);
            let base = oracle
                .query(&q.sql)
                .unwrap_or_else(|e| panic!("oracle failed on {}: {e}", q.sql));
            assert_sorted(&base.rows, &q.order_by, &q.sql);
            if let Some(k) = q.limit {
                assert!(base.rows.len() as u64 <= k, "{}", q.sql);
            }
            let want = multiset(&base.rows);
            for (tag, s) in &variants {
                let served = s.query(&q.sql);
                let row_path = s.query_row_path(&q.sql, &HostVars::new());
                for (path, got) in [("served", served), ("row path", row_path)] {
                    let got = got
                        .unwrap_or_else(|e| panic!("{tag} {path} failed on {}: {e}", q.sql));
                    assert_eq!(
                        multiset(&got.rows),
                        want,
                        "{tag} {path} disagrees with the oracle on {}",
                        q.sql
                    );
                    assert_sorted(&got.rows, &q.order_by, &q.sql);
                }
            }
        }
    }

    /// The elisions only ever remove work: on every generated query the
    /// elided session's hash + sort effort is bounded by the oracle's.
    #[test]
    fn elision_never_adds_work(seed in 0u64..1u64 << 48) {
        let (oracle, mut variants) = sessions(seed);
        let elided = variants.remove(0).1; // the "row-elided" variant
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5AA5);
        for _ in 0..4 {
            let q = gen_query(&mut rng);
            let base = oracle.query(&q.sql).unwrap();
            let fast = elided.query(&q.sql).unwrap();
            assert!(
                fast.stats.hash_probes <= base.stats.hash_probes,
                "elision added hash work on {}: {} > {}",
                q.sql,
                fast.stats.hash_probes,
                base.stats.hash_probes
            );
            assert!(
                fast.stats.sort_comparisons <= base.stats.sort_comparisons,
                "elision added sort work on {}: {} > {}",
                q.sql,
                fast.stats.sort_comparisons,
                base.stats.sort_comparisons
            );
        }
    }
}

/// Generated early-stop walks over random instances whose walked column
/// holds `NULL`s, under a one- or a two-column ordered index beside an
/// index on another column: `ORDER BY` an ascending index prefix, a
/// bound on the index's leading column (none, a comparison, `BETWEEN`,
/// or a host variable bound to a value or to `NULL`), an optional
/// conjunct on another column, and `LIMIT` 0, 1, 3 or past the table.
/// Served analyzed and unanalyzed and on the row path, the walk sorts
/// nothing and returns the unoptimized plan's sequence of `ORDER BY`
/// keys, and its rows where that order is total.
#[test]
fn generated_early_stop_walks_agree_on_every_path() {
    let ints: Vec<Value> = (0..=6).map(Value::Int).collect();
    let names: Vec<Value> = ["Acme", "B", "Globex", "Initech", "Z"]
        .map(Value::str)
        .to_vec();
    let walks: [(&[&str], &[Value]); 3] = [
        (&["BUDGET"], &ints),
        (&["BUDGET", "SNO"], &ints),
        (&["SNAME", "SNO"], &names),
    ];
    let output = ["SNO", "SNAME", "BUDGET", "SCITY"];
    let others = [
        "S.SCITY = 'Toronto'",
        "S.SNO > 8",
        "S.SNO <> 3",
        "S.SNAME IS NULL",
    ];
    let ops = ["=", "<", "<=", ">", ">="];
    let mut rng = SplitMix64::seed_from_u64(0x3A1C_2028);
    for instance in 0..48 {
        let (columns, values) = walks[instance % walks.len()];
        let mut db = random_instance(rng.next_u64(), 12, 0, 0).unwrap();
        // A second index, which a `SCITY` conjunct's sarg picks, so the
        // walk's own index must still serve the order.
        let ddl = format!(
            "CREATE INDEX IX_WALK ON SUPPLIER ({}); CREATE INDEX IX_CITY ON SUPPLIER (SCITY);",
            columns.join(", ")
        );
        db.run_script(&ddl).unwrap();
        let n = db.rows(&"SUPPLIER".into()).unwrap().len();
        let unanalyzed = Session::new(db.clone());
        let analyzed = Session::new(db).with_cost_based();
        for _ in 0..12 {
            let lead = columns[0];
            let order = &columns[..rng.gen_range(1..=columns.len())];
            let mut hv = HostVars::new();
            let mut filter: Vec<String> = Vec::new();
            let op = *pick(&mut rng, &ops);
            match rng.gen_range(0..4u32) {
                0 => {}
                1 => filter.push(format!("S.{lead} {op} {}", pick(&mut rng, values))),
                2 => {
                    let (lo, hi) = (pick(&mut rng, values), pick(&mut rng, values));
                    filter.push(format!("S.{lead} BETWEEN {lo} AND {hi}"));
                }
                _ => {
                    let v = pick(&mut rng, values).clone();
                    hv.set("V", if rng.gen_bool(0.3) { Value::Null } else { v });
                    filter.push(format!("S.{lead} {op} :V"));
                }
            }
            if rng.gen_bool(0.4) {
                filter.push(pick(&mut rng, &others).to_string());
            }
            let limit = *pick(&mut rng, &[0, 1, 3, n + 1]);
            let sql = format!(
                "SELECT S.{} FROM SUPPLIER S{}{} ORDER BY {} LIMIT {limit}",
                output.join(", S."),
                if filter.is_empty() { "" } else { " WHERE " },
                filter.join(" AND "),
                order.join(", "),
            );
            let at: Vec<usize> = (order.iter())
                .map(|c| output.iter().position(|o| o == c).unwrap())
                .collect();
            let keys = |rows: &[Row]| -> Vec<Row> {
                (rows.iter())
                    .map(|r| at.iter().map(|&p| r[p].clone()).collect())
                    .collect()
            };
            let want = unanalyzed.query_unoptimized(&sql, &hv).unwrap().rows;
            assert!(want.len() <= limit, "{sql}");
            let total = order.contains(&"SNO");
            for (path, got) in [
                ("served analyzed", analyzed.query_with(&sql, &hv)),
                ("served unanalyzed", unanalyzed.query_with(&sql, &hv)),
                ("row path", analyzed.query_row_path(&sql, &hv)),
            ] {
                let got = got.unwrap_or_else(|e| panic!("{path} failed on {sql}: {e}"));
                assert_eq!(keys(&got.rows), keys(&want), "{path}: {sql} {hv:?}");
                if total {
                    assert_eq!(got.rows, want, "{path}: {sql} {hv:?}");
                }
                assert_eq!(got.stats.sorts, 0, "{path} walks: {sql} {:?}", got.stats);
            }
        }
    }
}
