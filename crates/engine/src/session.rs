//! A single-owner engine: parse → bind → optimize → execute in one call.
//!
//! [`Session`] is the API the examples and benchmarks use. It owns a
//! [`Database`], an optimizer configuration and planner options, and
//! serves through the same path as [`SharedEngine`](crate::SharedEngine):
//! each [`Session::query`] returns the rows, the rewrite steps the
//! optimizer applied and the executor's work counters, so callers can see
//! *what* the paper's techniques did and *what they saved*.

use crate::exec::Executor;
use crate::plancache::{CacheStats, PlanCache};
use crate::serve::{elapsed_ns, Analysis, Core};
use crate::stats::{ExecStats, StageTimings};
use std::sync::Arc;
use std::time::Instant;
use uniq_catalog::{Database, Row};
use uniq_core::pipeline::{OptimizerOptions, RewriteTrace};
use uniq_cost::{plan_output, CardReport, PlannerOptions, Statistics};
use uniq_plan::{bind_output, HostVars};
use uniq_sql::{parse_statement, Statement};
use uniq_types::{ColumnName, Error, Result};

/// The result of one query execution.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Output column names (shared with the cached plan).
    pub columns: Arc<[ColumnName]>,
    /// Result rows.
    pub rows: Vec<Row>,
    /// The rewrite trace: steps, per-rule stats, fixpoint shape. On a
    /// plan-cache hit this is the trace recorded at compile time,
    /// shared with the cached plan rather than copied.
    pub trace: Arc<RewriteTrace>,
    /// Executor work counters for this query.
    pub stats: ExecStats,
    /// Wall-clock time spent in each serving stage.
    pub timings: StageTimings,
    /// Whether the plan came from the session's plan cache.
    pub cache_hit: bool,
    /// Per-operator estimated vs. actual cardinalities, when the query
    /// ran under a cost-based physical plan (`None` before `ANALYZE`,
    /// when the fixed plan has no estimates).
    pub cards: Option<CardReport>,
}

/// A database handle with optimizer and planner settings.
///
/// Sessions are `Sync`: `query` takes `&self`, so one session can serve
/// a whole worker pool (see `uniq_workload::driver`). Cloning shares
/// the plan cache (the clones' hits and misses land in the same
/// counters); it is meant for read-only fan-out — running divergent DDL
/// on clones that share a cache is unsupported.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// The database queried by this session. Write through
    /// [`Session::run_script`] to keep the column store current: a
    /// direct change sends covered blocks on the changed tables to the
    /// row path until the next `run_script` or [`Session::analyze`], and
    /// a replacement by an unrelated database needs a new `analyze`.
    pub db: Database,
    /// Rewrite configuration applied before execution.
    pub optimizer: OptimizerOptions,
    /// Physical planner configuration: the fixed plan's methods until
    /// [`Session::analyze`] has collected statistics, the early-stop
    /// license throughout.
    pub planner: PlannerOptions,
    /// Compiled-plan cache consulted by [`Session::query`] /
    /// [`Session::query_with`]; see [`crate::plancache`].
    pub cache: Arc<PlanCache>,
    /// What the last [`Session::analyze`] collected: statistics for the
    /// cost-based planner, the column store (kept current by
    /// [`Session::run_script`]) and the epoch mixed into plan
    /// fingerprints.
    analysis: Analysis,
}

impl Session {
    /// A session over an existing database with default (relational
    /// profile) optimization and a default-capacity plan cache.
    pub fn new(db: Database) -> Session {
        Session {
            db,
            optimizer: OptimizerOptions::relational(),
            planner: PlannerOptions::default(),
            cache: Arc::new(PlanCache::default()),
            analysis: Analysis::default(),
        }
    }

    /// Collect table and column statistics and the dictionary-encoded
    /// column store from the current database contents. Physical
    /// planning is cost-based from then on, and every block the
    /// vectorized kernels cover runs on them. Bumps the statistics
    /// epoch, so plans compiled under older statistics are recompiled
    /// on their next use.
    pub fn analyze(&mut self) {
        let next = Analysis::collect(&self.db);
        self.analysis.advance(next);
    }

    /// [`Session::analyze`] once: cost-based planning, with the columnar
    /// kernels serving every block they cover. The row executor serves
    /// every other block, and every covered block whose encoding does
    /// not match the database (after a direct change to
    /// [`Session::db`]).
    pub fn with_cost_based(mut self) -> Session {
        self.analyze();
        self
    }

    /// The statistics collected by the last [`Session::analyze`], if any.
    pub fn statistics(&self) -> Option<&Statistics> {
        self.analysis.stats.as_deref()
    }

    /// Toggle the uniqueness-powered aggregation / Top-K fast paths:
    /// the proof-gated `GROUP BY` key elision and `COUNT(DISTINCT)`
    /// degradation rewrites, and the early-stopping ordered-index
    /// `ORDER BY … LIMIT k` walk. `with_agg_elision(false)` is the
    /// un-elided oracle the agreement tests and experiment E23 compare
    /// against — same answers, hash/sort work paid in full. Both knobs
    /// are fingerprinted, so elided and un-elided sessions never share
    /// cached plans.
    pub fn with_agg_elision(mut self, on: bool) -> Session {
        self.optimizer.agg_elision = on;
        self.planner.early_stop = on;
        self
    }

    /// Replace the plan cache with one of the given capacity. Capacity
    /// `0` disables caching — the uncached baseline for benchmarks.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Session {
        self.cache = Arc::new(PlanCache::new(capacity));
        self
    }

    /// Snapshot of the plan cache's hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Session over the paper's populated Figure 1 database.
    pub fn sample() -> Result<Session> {
        Ok(Session::new(uniq_catalog::sample::supplier_database()?))
    }

    /// Run DDL/DML statements (`CREATE TABLE` / `CREATE INDEX` /
    /// `INSERT`) as one unit, like [`SharedEngine::execute`]: the script
    /// runs on a structural clone of the database, which replaces it only
    /// if every statement succeeds, so a failing script changes nothing.
    /// The clone shares every table's row chunks and index bases; a table
    /// the script writes appends into the shared chunks and copies only
    /// its index overlays. On success the column store is brought up to the
    /// database by encoding only the new rows and tables. Statistics and
    /// the epoch stay, so cached plans keep serving.
    ///
    /// [`SharedEngine::execute`]: crate::SharedEngine::execute
    pub fn run_script(&mut self, sql: &str) -> Result<()> {
        let mut scratch = self.db.clone();
        scratch.run_script(sql)?;
        self.db = scratch;
        self.analysis.refresh(&self.db);
        Ok(())
    }

    fn core(&self) -> Core<'_> {
        Core {
            db: &self.db,
            cache: &self.cache,
            optimizer: self.optimizer,
            planner: self.planner,
            analysis: &self.analysis,
        }
    }

    /// Parse, bind, optimize and execute a query with no host variables.
    pub fn query(&self, sql: &str) -> Result<QueryOutput> {
        self.query_with(sql, &HostVars::new())
    }

    /// Parse, bind, optimize and execute a query with host variables.
    ///
    /// The serving path: parse → canonical fingerprint → plan-cache
    /// probe → (on a miss) bind + optimize + insert → execute. Cache
    /// hits skip binding and the whole rewrite pipeline; host-variable
    /// *values* are applied at execution, so one cached plan serves
    /// every binding of the same text.
    pub fn query_with(&self, sql: &str, hostvars: &HostVars) -> Result<QueryOutput> {
        self.core().query(sql, hostvars)
    }

    /// [`Session::query_with`] with no column store attached: the same
    /// cached plan, run by the row executor. The columnar license is
    /// not a promise, so every block takes the row pipeline the kernels
    /// fall back to — the baseline the kernels are measured against.
    pub fn query_row_path(&self, sql: &str, hostvars: &HostVars) -> Result<QueryOutput> {
        let analysis = Analysis {
            columns: None,
            ..self.analysis.clone()
        };
        Core {
            analysis: &analysis,
            ..self.core()
        }
        .query(sql, hostvars)
    }

    /// `EXPLAIN`: render the rewrite trace (rule, theorem, per-rule
    /// timing) and the one physical plan `sql` runs. Before
    /// [`Session::analyze`] that is a `Physical plan` section of
    /// operator labels, and the query is not executed. After it, a
    /// `Cost-based plan` section shows estimated and actual rows per
    /// operator; the actuals come from running the plan once (`act=?`
    /// when the query needs host variables, which `EXPLAIN` does not
    /// bind).
    ///
    /// Follows the same serving path as [`Session::query`]: a plan-cache
    /// hit explains the cached plan with the trace recorded when it was
    /// compiled; a miss compiles (and caches) the plan first. Both paths
    /// produce the same trace sections.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let core = self.core();
        Ok(core.explain(&core.prepare(sql)?))
    }

    /// Execute without any rewriting, under the fixed plan with the
    /// early-stopping Top-K path off (baseline for experiments: every
    /// hash op and sort comparison the elisions avoid is paid here in
    /// full).
    pub fn query_unoptimized(&self, sql: &str, hostvars: &HostVars) -> Result<QueryOutput> {
        let mut timings = StageTimings::new();
        let t = Instant::now();
        let stmt = parse_statement(sql)?;
        let Statement::Query(ast) = stmt else {
            return Err(Error::internal("not a query"));
        };
        timings.parse_ns = elapsed_ns(t);
        let t = Instant::now();
        let bound = bind_output(self.db.catalog(), &ast)?;
        timings.bind_ns = elapsed_ns(t);
        let t = Instant::now();
        let options = PlannerOptions {
            early_stop: false,
            ..self.planner
        };
        let plan = plan_output(&bound, None, options);
        let mut executor = Executor::new(&self.db, hostvars);
        let rows = executor.run_output(&bound, &plan)?;
        timings.execute_ns = elapsed_ns(t);
        Ok(QueryOutput {
            columns: bound.output_names().into(),
            rows,
            trace: Arc::default(),
            stats: executor.stats,
            timings,
            cache_hit: false,
            cards: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use uniq_types::Value;

    fn multiset(rows: &[Row]) -> HashMap<Row, usize> {
        let mut m = HashMap::new();
        for r in rows {
            *m.entry(r.clone()).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn optimized_and_unoptimized_agree_on_example_1() {
        let s = Session::sample().unwrap();
        let sql = "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let opt = s.query(sql).unwrap();
        let base = s.query_unoptimized(sql, &HostVars::new()).unwrap();
        assert_eq!(multiset(&opt.rows), multiset(&base.rows));
        assert_eq!(opt.trace.steps.len(), 1);
        // The optimized run performs no sort at all.
        assert_eq!(opt.stats.sorts, 0);
        assert!(base.stats.sorts > 0);
    }

    #[test]
    fn example_2_still_sorts() {
        let s = Session::sample().unwrap();
        let out = s
            .query(
                "SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
                 WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            )
            .unwrap();
        assert!(out.trace.steps.is_empty());
        assert!(out.stats.sorts > 0);
        // Acme appears twice as a name but rows differ by PNO — and the
        // two Acme suppliers both supply part 10 as 'bolt', which IS a
        // duplicate that must collapse.
        let bolt_rows: Vec<_> = out
            .rows
            .iter()
            .filter(|r| r[0] == Value::str("Acme") && r[1] == Value::Int(10))
            .collect();
        assert_eq!(bolt_rows.len(), 1, "duplicate (Acme, 10, bolt) collapsed");
    }

    #[test]
    fn ddl_through_session() {
        let mut s = Session::new(Database::new());
        s.run_script("CREATE TABLE T (A INTEGER, PRIMARY KEY (A)); INSERT INTO T VALUES (1);")
            .unwrap();
        let out = s.query("SELECT A FROM T").unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(1)]]);
        assert_eq!(out.columns[..], [ColumnName::new("A")]);
    }

    #[test]
    fn query_rejects_ddl() {
        let s = Session::sample().unwrap();
        assert!(s.query("CREATE TABLE X (A INTEGER)").is_err());
    }

    #[test]
    fn host_vars_flow_through() {
        let s = Session::sample().unwrap();
        let hv = HostVars::new().with("CITY", "Toronto");
        let out = s
            .query_with("SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = :CITY", &hv)
            .unwrap();
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn repeated_query_hits_the_plan_cache() {
        let s = Session::sample().unwrap();
        let sql = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let first = s.query(sql).unwrap();
        assert!(!first.cache_hit);
        assert!(first.timings.bind_ns > 0 && first.timings.optimize_ns > 0);
        let second = s.query(sql).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.timings.bind_ns, 0, "hits skip binding");
        assert_eq!(
            second.timings.optimize_ns, 0,
            "hits skip the rewrite pipeline"
        );
        assert_eq!(first.rows, second.rows);
        assert_eq!(first.trace, second.trace, "rewrite trace preserved on hits");
        let stats = s.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn textual_noise_shares_one_plan() {
        let s = Session::sample().unwrap();
        assert!(!s.query("SELECT S.SNO FROM SUPPLIER S").unwrap().cache_hit);
        // Different whitespace, same canonical print → same fingerprint.
        assert!(
            s.query("SELECT  S.SNO  FROM  SUPPLIER  S")
                .unwrap()
                .cache_hit
        );
    }

    #[test]
    fn hostvar_bindings_share_one_plan() {
        let s = Session::sample().unwrap();
        let sql = "SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = :CITY";
        let a = s
            .query_with(sql, &HostVars::new().with("CITY", "Toronto"))
            .unwrap();
        let b = s
            .query_with(sql, &HostVars::new().with("CITY", "Chicago"))
            .unwrap();
        assert!(!a.cache_hit);
        assert!(
            b.cache_hit,
            "values bind at execution, so the plan is shared"
        );
        assert_ne!(a.rows, b.rows, "each binding still sees its own result");
    }

    #[test]
    fn ddl_invalidates_cached_plans() {
        let mut s = Session::sample().unwrap();
        let sql = "SELECT S.SNO FROM SUPPLIER S";
        s.query(sql).unwrap();
        assert!(s.query(sql).unwrap().cache_hit);
        s.run_script("CREATE TABLE Z (A INTEGER, PRIMARY KEY (A));")
            .unwrap();
        let after = s.query(sql).unwrap();
        assert!(!after.cache_hit, "schema change must invalidate the plan");
        assert_eq!(s.cache_stats().invalidations, 1);
        assert!(s.query(sql).unwrap().cache_hit, "recompiled plan re-cached");
    }

    #[test]
    fn create_index_replans_cached_queries_onto_the_index() {
        let mut s = Session::sample().unwrap().with_cost_based();
        let sql = "SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 3";
        let before = s.query(sql).unwrap();
        assert_eq!(before.stats.ix_probes, 0, "no index exists yet");
        assert!(s.query(sql).unwrap().cache_hit);
        s.run_script("CREATE UNIQUE INDEX IDX_S_SNO ON SUPPLIER (SNO);")
            .unwrap();
        let after = s.query(sql).unwrap();
        assert!(!after.cache_hit, "CREATE INDEX must force a re-plan");
        assert_eq!(after.rows, before.rows);
        assert_eq!(after.stats.ix_probes, 1, "re-plan adopted the index");
        assert_eq!(after.stats.rows_scanned, 1, "one-row unique lookup");
        assert!(s.explain(sql).unwrap().contains("ixscan(IDX_S_SNO"));
    }

    #[test]
    fn cached_index_plan_sees_rows_inserted_later() {
        // INSERT maintains secondary indexes but leaves the catalog
        // version alone, so the cached IxScan plan keeps serving — and
        // must find the new row through the live index.
        let mut s = Session::sample().unwrap().with_cost_based();
        s.run_script("CREATE INDEX IDX_S_NAME ON SUPPLIER (SNAME);")
            .unwrap();
        let sql = "SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME = 'Carver'";
        assert_eq!(s.query(sql).unwrap().rows.len(), 0);
        s.run_script("INSERT INTO SUPPLIER VALUES (9, 'Carver', 'Toronto', 100, 'Active');")
            .unwrap();
        let out = s.query(sql).unwrap();
        assert!(out.cache_hit, "plain INSERT does not invalidate plans");
        assert_eq!(out.rows, vec![vec![Value::Int(9)]]);
        assert!(out.stats.ix_probes >= 1, "served through the index");
    }

    #[test]
    fn different_optimizer_options_do_not_share_plans() {
        let relational = Session::sample().unwrap();
        let mut navigational = relational.clone(); // shares the cache
        navigational.optimizer = OptimizerOptions::navigational();
        let sql = "SELECT DISTINCT S.SNO FROM SUPPLIER S";
        relational.query(sql).unwrap();
        let out = navigational.query(sql).unwrap();
        assert!(!out.cache_hit, "configurations must not share plans");
    }

    #[test]
    fn disabled_cache_never_hits() {
        let s = Session::sample().unwrap().with_cache_capacity(0);
        let sql = "SELECT S.SNO FROM SUPPLIER S";
        s.query(sql).unwrap();
        assert!(!s.query(sql).unwrap().cache_hit);
        assert_eq!(s.cache_stats().hits, 0);
    }

    #[test]
    fn explain_shows_trace_on_miss_and_hit() {
        let s = Session::sample().unwrap();
        let sql = "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let miss = s.explain(sql).unwrap();
        assert!(miss.starts_with("Plan: compiled"), "{miss}");
        assert!(miss.contains("distinct-removal [Theorem 1]"), "{miss}");
        assert!(miss.contains("Rule stats"), "{miss}");
        assert!(miss.contains("Physical plan:"), "{miss}");
        let hit = s.explain(sql).unwrap();
        assert!(hit.starts_with("Plan: cached"), "{hit}");
        // The cached path shows the very trace recorded at compile time.
        assert_eq!(
            miss.trim_start_matches("Plan: compiled"),
            hit.trim_start_matches("Plan: cached")
        );
        // EXPLAIN compiles (and caches) on a miss, so a subsequent query
        // is served from the cache.
        assert!(s.query(sql).unwrap().cache_hit);
    }

    #[test]
    fn explain_rejects_ddl() {
        let s = Session::sample().unwrap();
        assert!(s.explain("CREATE TABLE X (A INTEGER)").is_err());
    }

    #[test]
    fn cost_based_rows_match_static_execution() {
        let s = Session::sample().unwrap();
        let c = s.clone().with_cost_based();
        for sql in [
            "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
            "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A",
            "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
             INTERSECT SELECT ALL A.SNO FROM AGENTS A",
            "SELECT DISTINCT P.COLOR FROM PARTS P, SUPPLIER S, AGENTS A \
             WHERE S.SNO = P.SNO AND S.SNO = A.SNO",
        ] {
            let stat = s.query(sql).unwrap();
            let cost = c.query(sql).unwrap();
            assert_eq!(
                multiset(&stat.rows),
                multiset(&cost.rows),
                "cost-based result diverged for {sql}"
            );
            assert!(stat.cards.is_none());
            let cards = cost.cards.expect("cost-based run reports cardinalities");
            assert!(!cards.rows.is_empty());
            assert!(cards.max_q_error() >= 1.0);
        }
    }

    #[test]
    fn cost_based_cache_hits_keep_reporting_cards() {
        let s = Session::sample().unwrap().with_cost_based();
        let sql = "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
        assert!(s.query(sql).unwrap().cards.is_some());
        let hit = s.query(sql).unwrap();
        assert!(hit.cache_hit);
        assert!(hit.cards.is_some(), "cached physical plan still measured");
    }

    #[test]
    fn analyze_invalidates_cost_based_plans() {
        let mut s = Session::sample().unwrap().with_cost_based();
        let sql = "SELECT S.SNO FROM SUPPLIER S";
        s.query(sql).unwrap();
        assert!(s.query(sql).unwrap().cache_hit);
        // New statistics epoch → new fingerprint → plans recompiled.
        s.analyze();
        assert!(!s.query(sql).unwrap().cache_hit);
    }

    #[test]
    fn static_and_cost_based_sessions_do_not_share_plans() {
        let s = Session::sample().unwrap();
        let mut c = s.clone(); // shares the cache
        c.analyze();
        let sql = "SELECT S.SNO FROM SUPPLIER S";
        s.query(sql).unwrap();
        assert!(!c.query(sql).unwrap().cache_hit);
    }

    #[test]
    fn exec_options_separate_cached_plans() {
        let sort = Session::sample().unwrap();
        let mut hash = sort.clone(); // shares the cache
        hash.planner.distinct = uniq_cost::DistinctMethod::Hash;
        let sql = "SELECT DISTINCT S.SNO FROM SUPPLIER S";
        sort.query(sql).unwrap();
        assert!(!hash.query(sql).unwrap().cache_hit);
    }

    #[test]
    fn explain_shows_est_and_act_when_cost_based() {
        let s = Session::sample().unwrap().with_cost_based();
        let sql = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let out = s.explain(sql).unwrap();
        assert!(out.contains("Cost-based plan (est/act rows):"), "{out}");
        let section = out.split("Cost-based plan (est/act rows):").nth(1).unwrap();
        for line in section.lines().filter(|l| !l.trim().is_empty()) {
            assert!(line.contains("est="), "{line}");
            assert!(line.contains("act="), "{line}");
        }
        assert!(!section.contains("act=?"), "actuals were measured: {out}");
        // An unanalyzed session's EXPLAIN has no cost section.
        let plain = Session::sample().unwrap().explain(sql).unwrap();
        assert!(!plain.contains("Cost-based plan"), "{plain}");
    }

    #[test]
    fn explain_hostvar_query_renders_unmeasured_actuals() {
        let s = Session::sample().unwrap().with_cost_based();
        let out = s
            .explain("SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = :CITY")
            .unwrap();
        assert!(out.contains("Cost-based plan (est/act rows):"), "{out}");
        assert!(out.contains("act=?"), "unbound host variable: {out}");
    }

    #[test]
    fn columnar_rows_match_static_execution() {
        let s = Session::sample().unwrap();
        let c = s.clone().with_cost_based();
        for sql in [
            // Covered: keyed joins, literal filters, DISTINCT.
            "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S \
             WHERE P.SNO = S.SNO AND P.COLOR = 'RED'",
            "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'Toronto'",
            "SELECT P.PNO, S.SCITY, A.ACITY FROM PARTS P, SUPPLIER S, AGENTS A \
             WHERE P.SNO = S.SNO AND S.SNO = A.SNO AND P.COLOR = 'RED'",
            // Uncovered shapes exercise the row fallback.
            "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1 OR S.SNO = 2",
            "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
            "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A",
            // Set operations run rowwise over columnar block outputs.
            "SELECT S.SNO FROM SUPPLIER S INTERSECT SELECT A.SNO FROM AGENTS A",
        ] {
            let stat = s.query(sql).unwrap();
            let col = c.query(sql).unwrap();
            assert_eq!(
                multiset(&stat.rows),
                multiset(&col.rows),
                "columnar result diverged for {sql}"
            );
        }
    }

    #[test]
    fn columnar_session_counts_vector_ops_not_scans() {
        let c = Session::sample().unwrap().with_cost_based();
        let out = c
            .query(
                "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S \
                 WHERE P.SNO = S.SNO AND P.COLOR = 'RED'",
            )
            .unwrap();
        assert!(out.stats.vector_ops > 0, "{:?}", out.stats);
        assert_eq!(out.stats.rows_scanned, 0, "no row-at-a-time scan");
        assert_eq!(
            out.stats.materialized_rows,
            out.rows.len() as u64,
            "only the final output is materialized"
        );
        // The key-covered SUPPLIER join runs on the direct-index kernel:
        // a join-only query performs zero hash probes (DISTINCT would
        // add its own, so probe without it).
        let joined = c
            .query(
                "SELECT P.PNO, S.SCITY FROM PARTS P, SUPPLIER S \
                 WHERE P.SNO = S.SNO AND P.COLOR = 'RED'",
            )
            .unwrap();
        assert_eq!(joined.stats.hash_probes, 0, "{:?}", joined.stats);
        assert!(joined.stats.probe_steps > 0, "{:?}", joined.stats);
        // An unanalyzed session never touches the vectorized kernels.
        let s = Session::sample().unwrap();
        let plain = s.query("SELECT S.SNO FROM SUPPLIER S").unwrap();
        assert_eq!(plain.stats.vector_ops, 0);
    }

    #[test]
    fn column_store_stays_current_across_inserts() {
        let mut c = Session::sample().unwrap().with_cost_based();
        let sql = "SELECT P.PNO, S.SCITY FROM PARTS P, SUPPLIER S \
                   WHERE P.SNO = S.SNO AND P.COLOR = 'RED'";
        assert!(c.query(sql).unwrap().stats.vector_ops > 0);
        // INSERT leaves the catalog version and the statistics alone, so
        // the cached plan still serves, and the refreshed store holds the
        // new row: the kernels keep running, with no second ANALYZE.
        c.run_script("INSERT INTO PARTS VALUES (4, 15, 'rod', 107, 'RED');")
            .unwrap();
        let fresh = c.query(sql).unwrap();
        assert!(fresh.cache_hit, "plain INSERT does not invalidate plans");
        assert!(fresh.stats.vector_ops > 0, "{:?}", fresh.stats);
        assert_eq!(fresh.stats.rows_scanned, 0, "{:?}", fresh.stats);
        let new_row = vec![Value::Int(15), Value::str("Toronto")];
        assert!(fresh.rows.contains(&new_row), "{:?}", fresh.rows);
        // A change made to the database directly bypasses the refresh:
        // the executor sees the row-count drift and answers from rows,
        // so stale codes are never read.
        c.db.run_script("INSERT INTO PARTS VALUES (4, 16, 'pin', 108, 'RED');")
            .unwrap();
        let stale = c.query(sql).unwrap();
        assert_eq!(stale.stats.vector_ops, 0, "stale store must not serve");
        assert!(stale.stats.rows_scanned > 0);
        let pin = vec![Value::Int(16), Value::str("Toronto")];
        assert!(stale.rows.contains(&pin), "{:?}", stale.rows);
        // The next refresh catches up on both rows.
        c.run_script("").unwrap();
        let caught_up = c.query(sql).unwrap();
        assert!(caught_up.stats.vector_ops > 0);
        assert_eq!(multiset(&stale.rows), multiset(&caught_up.rows));
    }

    /// A covered query on SUPPLIER, and whether it ran on the kernels
    /// without a row-at-a-time scan.
    fn supplier_scan_is_vectorized(s: &Session) -> bool {
        let sql = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'Toronto'";
        let out = s.query(sql).unwrap();
        assert_eq!(out.rows.len(), 2, "{:?}", out.rows);
        out.stats.vector_ops > 0 && out.stats.rows_scanned == 0
    }

    #[test]
    fn create_index_keeps_other_tables_columnar() {
        let mut c = Session::sample().unwrap().with_cost_based();
        assert!(supplier_scan_is_vectorized(&c));
        // DDL bumps the catalog version; the refresh re-stamps the store,
        // so blocks on untouched tables stay on the kernels.
        c.run_script("CREATE INDEX IX_A_CITY ON AGENTS (ACITY);")
            .unwrap();
        assert!(supplier_scan_is_vectorized(&c));
        let explain = c
            .explain("SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = 'Toronto'")
            .unwrap();
        assert!(explain.contains("exec=columnar"), "{explain}");
    }

    #[test]
    fn create_table_keeps_columnar_and_encodes_the_new_table() {
        let mut c = Session::sample().unwrap().with_cost_based();
        c.run_script(
            "CREATE TABLE DEPOT (DNO INTEGER, DCITY VARCHAR, PRIMARY KEY (DNO));
             INSERT INTO DEPOT VALUES (1, 'Toronto'), (2, 'Hull'), (3, 'Toronto');",
        )
        .unwrap();
        assert!(supplier_scan_is_vectorized(&c));
        let out = c
            .query("SELECT D.DNO FROM DEPOT D WHERE D.DCITY = 'Toronto'")
            .unwrap();
        assert_eq!(multiset(&out.rows).len(), 2, "{:?}", out.rows);
        assert!(out.stats.vector_ops > 0, "{:?}", out.stats);
        assert_eq!(out.stats.rows_scanned, 0, "{:?}", out.stats);
    }

    #[test]
    fn new_dictionary_strings_keep_string_comparisons_exact() {
        let mut c = Session::sample().unwrap().with_cost_based();
        // 'Aaron' sorts before every SNAME, 'Hooli' between two, and
        // 'Zed' after all: each re-codes or extends SNAME's dictionary.
        c.run_script(
            "INSERT INTO SUPPLIER VALUES (6, 'Aaron', 'Toronto', 10, 'Active'),
               (7, 'Hooli', 'Chicago', 10, 'Active'), (8, 'Zed', NULL, 10, 'Active');",
        )
        .unwrap();
        for lit in ["Aaron", "Acme", "Hooli", "Initech", "Zed", "Mu"] {
            for op in ["=", "<", ">="] {
                let sql = format!("SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME {op} '{lit}'");
                let got = c.query(&sql).unwrap();
                assert!(got.stats.vector_ops > 0, "{sql}: {:?}", got.stats);
                assert_eq!(got.stats.rows_scanned, 0, "{sql}");
                let want = c.query_unoptimized(&sql, &HostVars::new()).unwrap();
                assert_eq!(multiset(&got.rows), multiset(&want.rows), "{sql}");
            }
        }
    }

    #[test]
    fn row_path_runs_the_same_plan_without_the_kernels() {
        let c = Session::sample().unwrap().with_cost_based();
        let sql = "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S \
                   WHERE P.SNO = S.SNO AND P.COLOR = 'RED'";
        let col = c.query(sql).unwrap();
        let row = c.query_row_path(sql, &HostVars::new()).unwrap();
        assert!(row.cache_hit, "the row path serves the cached plan");
        assert!(col.stats.vector_ops > 0 && row.stats.vector_ops == 0);
        assert!(row.stats.rows_scanned > 0);
        assert_eq!(multiset(&col.rows), multiset(&row.rows));
        assert_eq!(
            col.cards.map(|c| c.rows.len()),
            row.cards.map(|c| c.rows.len())
        );
    }

    #[test]
    fn explain_renders_columnar_markers() {
        let c = Session::sample().unwrap().with_cost_based();
        let out = c
            .explain(
                "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S \
                 WHERE P.SNO = S.SNO AND P.COLOR = 'RED'",
            )
            .unwrap();
        assert!(out.contains("exec=columnar"), "{out}");
        assert!(out.contains("enc=dict"), "{out}");
        let plain = c
            .explain("SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1 OR S.SNO = 2")
            .unwrap();
        assert!(!plain.contains("exec=columnar"), "{plain}");
        assert!(!plain.contains("enc=dict"), "{plain}");
    }

    #[test]
    fn rewritten_intersect_matches_baseline() {
        let s = Session::sample().unwrap();
        let sql = "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
                   INTERSECT \
                   SELECT ALL A.SNO FROM AGENTS A \
                   WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'";
        let opt = s.query(sql).unwrap();
        let base = s.query_unoptimized(sql, &HostVars::new()).unwrap();
        assert!(!opt.trace.steps.is_empty());
        assert_eq!(multiset(&opt.rows), multiset(&base.rows));
        assert_eq!(opt.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn group_by_round_trip_matches_unoptimized() {
        let s = Session::sample().unwrap();
        let sql = "SELECT S.SCITY, COUNT(*) AS N, SUM(S.BUDGET) AS B \
                   FROM SUPPLIER S GROUP BY S.SCITY ORDER BY S.SCITY";
        let opt = s.query(sql).unwrap();
        let base = s.query_unoptimized(sql, &HostVars::new()).unwrap();
        assert_eq!(opt.rows, base.rows, "ORDER BY pins the row order");
        assert_eq!(
            opt.rows,
            vec![
                vec![Value::str("Chicago"), Value::Int(2), Value::Int(2000)],
                vec![Value::str("New York"), Value::Int(1), Value::Int(500)],
                vec![Value::str("Toronto"), Value::Int(2), Value::Int(1300)],
            ]
        );
        let names: Vec<String> = opt.columns.iter().map(|c| c.to_string()).collect();
        assert_eq!(names, ["SCITY", "N", "B"]);
    }

    #[test]
    fn key_covered_group_by_skips_every_hash_op() {
        let s = Session::sample().unwrap();
        let sql = "SELECT S.SNO, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SNO";
        let opt = s.query(sql).unwrap();
        assert_eq!(opt.rows.len(), 5, "one group per key value");
        assert!(opt.rows.iter().all(|r| r[1] == Value::Int(1)));
        assert!(
            opt.trace
                .steps
                .iter()
                .any(|st| st.rule == "group-by-key-elision"),
            "elision must be proof-carrying: {:?}",
            opt.trace.steps
        );
        assert_eq!(opt.stats.hash_probes, 0, "elided grouping hashes nothing");
        let base = s.query_unoptimized(sql, &HostVars::new()).unwrap();
        assert_eq!(multiset(&opt.rows), multiset(&base.rows));
        assert!(
            base.stats.hash_probes >= 5,
            "the naive plan pays one probe per row: {:?}",
            base.stats
        );
    }

    #[test]
    fn count_distinct_over_a_key_degrades_to_plain_count() {
        let s = Session::sample().unwrap();
        let sql = "SELECT COUNT(DISTINCT S.SNO) AS N FROM SUPPLIER S";
        let opt = s.query(sql).unwrap();
        assert_eq!(opt.rows, vec![vec![Value::Int(5)]]);
        assert!(
            opt.trace
                .steps
                .iter()
                .any(|st| st.rule == "count-distinct-elision"),
            "{:?}",
            opt.trace.steps
        );
        let base = s.query_unoptimized(sql, &HostVars::new()).unwrap();
        assert_eq!(opt.rows, base.rows);
        assert!(
            base.stats.hash_probes > opt.stats.hash_probes,
            "naive COUNT(DISTINCT) pays distinct-set probes: {:?} vs {:?}",
            base.stats,
            opt.stats
        );
    }

    #[test]
    fn order_by_index_prefix_limit_stops_early() {
        let mut s = Session::sample().unwrap();
        s.run_script("CREATE INDEX IDX_S_BUDGET ON SUPPLIER (BUDGET);")
            .unwrap();
        let sql = "SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET LIMIT 2";
        let opt = s.query(sql).unwrap();
        assert_eq!(
            opt.rows,
            vec![
                vec![Value::Int(5), Value::Int(0)],
                vec![Value::Int(4), Value::Int(300)],
            ]
        );
        assert_eq!(opt.stats.early_stops, 1, "{:?}", opt.stats);
        assert_eq!(opt.stats.sorts, 0, "the index serves the order");
        assert_eq!(opt.stats.topk_rows_examined, 2, "stopped after k rows");
        // The un-elided oracle scans and sorts everything, same answer.
        let oracle = s.clone().with_agg_elision(false);
        let base = oracle.query(sql).unwrap();
        assert_eq!(base.rows, opt.rows);
        assert_eq!(base.stats.early_stops, 0);
        assert!(base.stats.sorts >= 1, "{:?}", base.stats);
        assert!(base.stats.rows_scanned >= 5, "full scan under the sort");
        // LIMIT 0: the walk stops before its first row.
        let zero = "SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET LIMIT 0";
        let opt = s.query(zero).unwrap();
        assert!(opt.rows.is_empty(), "{:?}", opt.rows);
        assert_eq!(opt.stats.topk_rows_examined, 0, "{:?}", opt.stats);
        assert_eq!(opt.rows, oracle.query(zero).unwrap().rows);
    }

    #[test]
    fn explain_marks_early_stop_and_absorbs_the_sort() {
        let mut s = Session::sample().unwrap();
        s.run_script("CREATE INDEX IDX_S_BUDGET ON SUPPLIER (BUDGET);")
            .unwrap();
        let sql = "SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET LIMIT 2";
        let on = s.explain(sql).unwrap();
        assert!(on.contains("Limit 2 early-stop(IDX_S_BUDGET)"), "{on}");
        assert!(!on.contains("Sort ["), "the index serves the order: {on}");
        let off = s.clone().with_agg_elision(false);
        let plain = off.explain(sql).unwrap();
        assert!(plain.contains("Limit 2\n"), "{plain}");
        assert!(plain.contains("Sort [BUDGET]"), "{plain}");
        assert!(!plain.contains("early-stop"), "{plain}");
    }

    #[test]
    fn analyzed_oracle_sorts_and_claims_no_early_stop() {
        let mut s = Session::sample().unwrap();
        s.run_script("CREATE INDEX IDX_S_BUDGET ON SUPPLIER (BUDGET);")
            .unwrap();
        let oracle = s.with_agg_elision(false).with_cost_based();
        let sql = "SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET LIMIT 2";
        let out = oracle.query(sql).unwrap();
        assert_eq!((out.stats.sorts, out.stats.early_stops), (1, 0));
        let cards = out.cards.expect("cost-based run reports cardinalities");
        assert!(
            cards.rows.iter().any(|r| r.op == "Sort [BUDGET]"),
            "{cards:?}"
        );
        let text = oracle.explain(sql).unwrap();
        let section = text
            .split("Cost-based plan (est/act rows):")
            .nth(1)
            .expect("cost section present");
        assert!(section.contains("Sort [BUDGET]"), "{text}");
        assert!(!section.contains("early-stop"), "{text}");
    }

    #[test]
    fn early_stopped_top_k_reports_the_rows_its_scan_emitted() {
        let mut s = Session::sample().unwrap();
        s.run_script("CREATE INDEX IDX_S_BUDGET ON SUPPLIER (BUDGET);")
            .unwrap();
        s.analyze();
        let sql = "SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET LIMIT 2";
        assert_eq!(s.query(sql).unwrap().stats.early_stops, 1);
        let text = s.explain(sql).unwrap();
        assert!(text.contains("early-stop(IDX_S_BUDGET)"), "{text}");
        assert!(!text.contains("act=0"), "{text}");
        for op in ["Project [S.SNO, S.BUDGET]", "Scan SUPPLIER AS S"] {
            let line = text.lines().find(|l| l.contains(op)).expect(&text);
            assert!(line.contains("act=2"), "{text}");
        }
    }

    #[test]
    fn explain_labels_each_join_step_as_it_runs() {
        let s = Session::sample().unwrap();
        // A keyless step is a cross product whose build side is read
        // once: 5 + 5 rows scanned, where a nested loop would read 30.
        let sql = "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A";
        let text = s.explain(sql).unwrap();
        assert!(text.contains("CrossJoin with Scan AGENTS AS A"), "{text}");
        assert!(!text.contains("NestedLoop"), "{text}");
        assert_eq!(s.query(sql).unwrap().stats.rows_scanned, 10);
        // AGENTS has no key to SUPPLIER, so only PARTS joins by hash.
        let sql = "SELECT S.SNO, A.ANO, P.PNO FROM SUPPLIER S, AGENTS A, PARTS P \
                   WHERE A.SNO = P.SNO AND S.SNO = P.SNO";
        let text = s.explain(sql).unwrap();
        let hash_lines = text.matches("HashJoin").count() as u64;
        assert_eq!(hash_lines, s.query(sql).unwrap().stats.hash_joins, "{text}");
        assert!(text.contains("CrossJoin with Scan AGENTS AS A"), "{text}");
    }

    #[test]
    fn explain_prints_exactly_one_plan_section() {
        let s = Session::sample().unwrap();
        let sql = "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A WHERE S.SNO = A.SNO";
        let before = s.explain(sql).unwrap();
        assert!(before.contains("Physical plan:"), "{before}");
        assert!(!before.contains("Cost-based plan"), "{before}");
        assert!(!before.contains("est="), "a fixed plan has no estimates");
        let after = s.with_cost_based().explain(sql).unwrap();
        assert!(after.contains("Cost-based plan (est/act rows):"), "{after}");
        assert!(!after.contains("Physical plan:"), "{after}");
    }

    #[test]
    fn elided_and_unelided_sessions_do_not_share_plans() {
        let s = Session::sample().unwrap();
        let oracle = s.clone().with_agg_elision(false); // shares the cache
        let sql = "SELECT S.SNO, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SNO";
        assert!(!s.query(sql).unwrap().cache_hit);
        assert!(
            !oracle.query(sql).unwrap().cache_hit,
            "an elided plan must never serve the oracle session"
        );
        assert!(s.query(sql).unwrap().cache_hit, "each keeps its own entry");
        assert!(oracle.query(sql).unwrap().cache_hit);
    }

    #[test]
    fn cost_based_explain_annotates_output_operators() {
        let s = Session::sample().unwrap().with_cost_based();
        let sql = "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S \
                   GROUP BY S.SCITY ORDER BY N DESC LIMIT 2";
        let out = s.explain(sql).unwrap();
        let section = out
            .split("Cost-based plan (est/act rows):")
            .nth(1)
            .expect("cost section present");
        for needle in ["Aggregate [SCITY, COUNT(*)]", "Sort [N DESC]", "Limit 2"] {
            let line = section
                .lines()
                .find(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("missing {needle} in {section}"));
            assert!(line.contains("est="), "{line}");
            assert!(line.contains("act="), "{line}");
        }
    }

    #[test]
    fn columnar_aggregates_match_the_row_path() {
        let s = Session::sample().unwrap();
        let c = s.clone().with_cost_based();
        for sql in [
            "SELECT S.SCITY, COUNT(*) AS N, MAX(S.BUDGET) AS M \
             FROM SUPPLIER S GROUP BY S.SCITY",
            "SELECT P.COLOR, COUNT(DISTINCT P.PNAME) AS N \
             FROM PARTS P GROUP BY P.COLOR",
            "SELECT AVG(S.BUDGET) AS A, MIN(S.SNO) AS LO FROM SUPPLIER S",
        ] {
            let row = s.query(sql).unwrap();
            let col = c.query(sql).unwrap();
            assert_eq!(multiset(&row.rows), multiset(&col.rows), "{sql}");
        }
    }
}
