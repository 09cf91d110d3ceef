//! A labelled corpus of `SELECT DISTINCT` queries (experiment E3).
//!
//! §5.1 argues that redundant `DISTINCT`s are common because CASE tools
//! and defensive practitioners emit them indiscriminately. The corpus
//! generator plays that CASE tool: random select-project-join queries
//! over the supplier schema, all marked `DISTINCT`. Each query is then
//! labelled three ways:
//!
//! * does the paper's **Algorithm 1** prove it duplicate-free?
//! * does the **FD-closure test** prove it duplicate-free?
//! * **empirically**: executed (without `DISTINCT`) over a battery of
//!   random valid instances — were duplicate rows ever observed?
//!
//! Soundness demands `proved ⇒ never observed`; the integration suite
//! asserts exactly that over the whole corpus.

use crate::instance::random_instance;
use crate::rng::SplitMix64;
use std::collections::HashMap;
use uniq_core::algorithm1::{algorithm1, Algorithm1Options};
use uniq_core::analysis::unique_projection;
use uniq_engine::Executor;
use uniq_plan::{bind_query, BoundQuery, HostVars};
use uniq_sql::{parse_query, Distinct};
use uniq_types::Result;

/// One corpus entry with its labels.
#[derive(Debug, Clone)]
pub struct CorpusQuery {
    /// The generated SQL (always `SELECT DISTINCT`).
    pub sql: String,
    /// Algorithm 1's verdict.
    pub alg1_unique: bool,
    /// The FD-closure test's verdict.
    pub fd_unique: bool,
    /// Whether executing without `DISTINCT` produced duplicate rows on
    /// any of the test instances.
    pub duplicates_observed: bool,
}

/// Aggregate corpus statistics (the E3 table).
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    /// Queries generated.
    pub total: usize,
    /// Proven duplicate-free by Algorithm 1.
    pub alg1_yes: usize,
    /// Proven duplicate-free by the FD test.
    pub fd_yes: usize,
    /// Queries whose execution showed actual duplicates.
    pub with_duplicates: usize,
    /// Proven-unique queries that showed duplicates (MUST be zero).
    pub unsound: usize,
}

impl CorpusStats {
    /// Tally a corpus.
    pub fn of(queries: &[CorpusQuery]) -> CorpusStats {
        let mut s = CorpusStats {
            total: queries.len(),
            ..Default::default()
        };
        for q in queries {
            if q.alg1_unique {
                s.alg1_yes += 1;
            }
            if q.fd_unique {
                s.fd_yes += 1;
            }
            if q.duplicates_observed {
                s.with_duplicates += 1;
                if q.alg1_unique || q.fd_unique {
                    s.unsound += 1;
                }
            }
        }
        s
    }
}

struct TableInfo {
    name: &'static str,
    alias: &'static str,
    int_cols: &'static [&'static str],
    str_cols: &'static [&'static str],
}

const TABLES: &[TableInfo] = &[
    TableInfo {
        name: "SUPPLIER",
        alias: "S",
        int_cols: &["SNO", "BUDGET"],
        str_cols: &["SNAME", "SCITY", "STATUS"],
    },
    TableInfo {
        name: "PARTS",
        alias: "P",
        int_cols: &["SNO", "PNO", "OEM-PNO"],
        str_cols: &["PNAME", "COLOR"],
    },
    TableInfo {
        name: "AGENTS",
        alias: "A",
        int_cols: &["SNO", "ANO"],
        str_cols: &["ANAME", "ACITY"],
    },
];

fn random_query(rng: &mut SplitMix64) -> String {
    let two_tables = rng.gen_bool(0.6);
    let t1 = &TABLES[rng.gen_range(0..TABLES.len())];
    let t2 = if two_tables {
        loop {
            let t = &TABLES[rng.gen_range(0..TABLES.len())];
            if t.name != t1.name {
                break Some(t);
            }
        }
    } else {
        None
    };

    // Projection: 1–3 random columns across the chosen tables.
    let mut proj: Vec<String> = Vec::new();
    let tables: Vec<&TableInfo> = std::iter::once(t1).chain(t2).collect();
    let n_proj = rng.gen_range(1..=3);
    for _ in 0..n_proj {
        let t = tables[rng.gen_range(0..tables.len())];
        let cols: Vec<&str> = t.int_cols.iter().chain(t.str_cols).copied().collect();
        let c = cols[rng.gen_range(0..cols.len())];
        let item = format!("{}.{}", t.alias, c);
        if !proj.contains(&item) {
            proj.push(item);
        }
    }

    // Predicate: join condition (usually) + 0–3 extra conjuncts.
    let mut conjuncts: Vec<String> = Vec::new();
    if let Some(t2) = t2 {
        if rng.gen_bool(0.9) {
            conjuncts.push(format!("{}.SNO = {}.SNO", t1.alias, t2.alias));
        }
    }
    for _ in 0..rng.gen_range(0..=3) {
        let t = tables[rng.gen_range(0..tables.len())];
        let atom = match rng.gen_range(0..5) {
            0 => {
                let c = t.int_cols[rng.gen_range(0..t.int_cols.len())];
                format!("{}.{} = {}", t.alias, c, rng.gen_range(1..=6))
            }
            1 => {
                let c = t.str_cols[rng.gen_range(0..t.str_cols.len())];
                format!("{}.{} = 'part{}'", t.alias, c, rng.gen_range(1..=3))
            }
            2 => {
                let c = t.int_cols[rng.gen_range(0..t.int_cols.len())];
                let lo = rng.gen_range(1..=3);
                format!("{}.{} BETWEEN {} AND {}", t.alias, c, lo, lo + 2)
            }
            3 => {
                let c = t.int_cols[rng.gen_range(0..t.int_cols.len())];
                format!(
                    "({}.{} = {} OR {}.{} = {})",
                    t.alias,
                    c,
                    rng.gen_range(1..=3),
                    t.alias,
                    c,
                    rng.gen_range(4..=6)
                )
            }
            _ => {
                let c = t.int_cols[rng.gen_range(0..t.int_cols.len())];
                format!("{}.{} IS NOT NULL", t.alias, c)
            }
        };
        conjuncts.push(atom);
    }

    let mut sql = format!(
        "SELECT DISTINCT {} FROM {} {}",
        proj.join(", "),
        t1.name,
        t1.alias
    );
    if let Some(t2) = t2 {
        sql.push_str(&format!(", {} {}", t2.name, t2.alias));
    }
    if !conjuncts.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conjuncts.join(" AND "));
    }
    sql
}

/// Does executing the query (with `DISTINCT` suppressed) on this instance
/// produce duplicate rows?
fn has_duplicates(db: &uniq_catalog::Database, bound: &BoundQuery) -> Result<bool> {
    let mut all = bound.clone();
    if let BoundQuery::Spec(spec) = &mut all {
        spec.distinct = Distinct::All;
    }
    let hv = HostVars::new();
    let mut ex = Executor::new(db, &hv);
    let rows = ex.run(&all)?;
    let mut counts: HashMap<Vec<uniq_types::Value>, usize> = HashMap::new();
    for r in rows {
        let c = counts.entry(r).or_insert(0);
        *c += 1;
        if *c > 1 {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Generate and label a corpus of `n` queries.
///
/// `instances` controls how many random databases each query is executed
/// on for the empirical label.
pub fn generate_corpus(seed: u64, n: usize, instances: usize) -> Result<Vec<CorpusQuery>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let schema_db = uniq_catalog::sample::supplier_schema()?;
    let dbs: Vec<uniq_catalog::Database> = (0..instances)
        .map(|i| random_instance(seed.wrapping_add(i as u64), 12, 24, 12))
        .collect::<Result<_>>()?;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let sql = random_query(&mut rng);
        let ast = parse_query(&sql)?;
        let bound = bind_query(schema_db.catalog(), &ast)?;
        let spec = bound.as_spec().expect("corpus queries are single blocks");
        let alg1 = algorithm1(spec, &Algorithm1Options::default()).unique;
        let fd = unique_projection(spec).unique;
        let mut dups = false;
        for db in &dbs {
            if has_duplicates(db, &bound)? {
                dups = true;
                break;
            }
        }
        out.push(CorpusQuery {
            sql,
            alg1_unique: alg1,
            fd_unique: fd,
            duplicates_observed: dups,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_generates_and_labels() {
        let corpus = generate_corpus(1, 60, 4).unwrap();
        let stats = CorpusStats::of(&corpus);
        assert_eq!(stats.total, 60);
        // The analyses must be sound on every query.
        assert_eq!(stats.unsound, 0, "provably-unique query showed duplicates");
        // The generator must produce a mix of provable and unprovable.
        assert!(stats.fd_yes > 0, "no provably-unique queries generated");
        assert!(
            stats.fd_yes < stats.total,
            "every query provably unique — generator too easy"
        );
        // FD test subsumes Algorithm 1.
        assert!(stats.fd_yes >= stats.alg1_yes);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = generate_corpus(9, 10, 2).unwrap();
        let b = generate_corpus(9, 10, 2).unwrap();
        assert_eq!(
            a.iter().map(|q| &q.sql).collect::<Vec<_>>(),
            b.iter().map(|q| &q.sql).collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplicates_do_get_observed() {
        // Sanity: some generated query must actually duplicate on some
        // instance, otherwise the empirical label is vacuous.
        let corpus = generate_corpus(3, 80, 6).unwrap();
        assert!(
            corpus.iter().any(|q| q.duplicates_observed),
            "no duplicates observed anywhere — instances too small?"
        );
    }
}
