//! The one serving path behind [`Session`](crate::Session) and
//! [`SharedEngine`](crate::SharedEngine): compile once (parse →
//! canonical fingerprint → plan-cache probe → on a miss bind, optimize,
//! plan and insert), execute the cached plan, and `EXPLAIN` it. The
//! callers differ only in the database they hand to [`Core`]: a
//! session's own, or the snapshot a shared engine pinned for one query
//! or one maintenance round of its subscriptions, whose views compile
//! and run whole queries here too. Every query runs a [`PhysicalPlan`]:
//! the cost-based plan once `ANALYZE` has run, the fixed plan of the
//! [`PlannerOptions`] until then.

use crate::columnar::ColumnStore;
use crate::exec::Executor;
use crate::explain::render_trace;
use crate::plancache::{options_tag, CachedPlan, PlanCache};
use crate::session::QueryOutput;
use crate::stats::{ExecStats, StageTimings};
use std::sync::Arc;
use std::time::Instant;
use uniq_catalog::{Database, Row};
use uniq_core::optimize_output;
use uniq_core::pipeline::{Optimizer, OptimizerOptions};
use uniq_cost::{plan_output, PhysicalPlan, PlannerOptions, Statistics};
use uniq_plan::{bind_output, BoundOutput, HostVars};
use uniq_sql::{parse_statement, Statement};
use uniq_types::{Error, Result};

/// What `ANALYZE` collected, as one value: the statistics, the column
/// store and the epoch mixed into plan fingerprints, so plans chosen
/// under older statistics are recompiled. Writes keep the column store
/// current ([`Analysis::refresh`]); the statistics and the epoch stay
/// until the next `ANALYZE`, so cached plans keep serving.
#[derive(Debug, Clone, Default)]
pub(crate) struct Analysis {
    pub stats: Option<Arc<Statistics>>,
    pub columns: Option<Arc<ColumnStore>>,
    pub epoch: u64,
}

impl Analysis {
    /// Collect statistics and the column store from `db`.
    pub fn collect(db: &Database) -> Analysis {
        Analysis {
            stats: Some(Arc::new(Statistics::collect(db))),
            columns: Some(Arc::new(ColumnStore::build(db))),
            epoch: 0,
        }
    }

    /// Replace this analysis with `next`, one epoch on.
    pub fn advance(&mut self, next: Analysis) {
        *self = Analysis {
            epoch: self.epoch + 1,
            ..next
        };
    }

    /// Bring the column store up to `db` after a write, encoding only
    /// the new rows and tables (see [`ColumnStore::refresh`]). The store
    /// is copied first only while a running query still shares it.
    /// Before the first `ANALYZE` there is no store to refresh.
    pub fn refresh(&mut self, db: &Database) {
        if let Some(columns) = &mut self.columns {
            Arc::make_mut(columns).refresh(db);
        }
    }
}

/// Everything one query is served from.
pub(crate) struct Core<'a> {
    pub db: &'a Database,
    pub cache: &'a PlanCache,
    pub optimizer: OptimizerOptions,
    pub planner: PlannerOptions,
    pub analysis: &'a Analysis,
}

/// A plan fetched from the cache or compiled into it, the canonical
/// text it is keyed on, and the parse, bind and optimize times (the
/// latter two zero on a hit).
pub(crate) struct Prepared {
    pub plan: Arc<CachedPlan>,
    pub canonical: String,
    pub cache_hit: bool,
    pub timings: StageTimings,
}

pub(crate) fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Core<'_> {
    /// Parse → canonical fingerprint → cache probe → (on a miss) bind +
    /// optimize + plan + insert. Host-variable *values* are applied at
    /// execution, so one plan serves every binding of the same text.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let mut timings = StageTimings::new();
        let t = Instant::now();
        let Statement::Query(ast) = parse_statement(sql)? else {
            return Err(Error::internal("expected a query; run DDL/DML as a script"));
        };
        let canonical = ast.to_string();
        timings.parse_ns = elapsed_ns(t);

        let epoch = self.analysis.epoch;
        let tag = options_tag(&self.optimizer, &self.planner, epoch);
        let fingerprint = PlanCache::fingerprint(&canonical, tag);
        let version = self.db.version();
        if let Some(plan) = self.cache.get(fingerprint, &canonical, version) {
            return Ok(Prepared {
                plan,
                canonical,
                cache_hit: true,
                timings,
            });
        }

        let t = Instant::now();
        let bound = bind_output(self.db.catalog(), &ast)?;
        timings.bind_ns = elapsed_ns(t);

        let t = Instant::now();
        let (query, trace) = optimize_output(&Optimizer::new(self.optimizer), &bound);
        let physical = Arc::new(self.plan(&query));
        timings.optimize_ns = elapsed_ns(t);

        let plan = CachedPlan {
            columns: query.output_names().into(),
            query,
            trace: Arc::new(trace),
            physical,
        };
        let plan = self.cache.insert(fingerprint, &canonical, version, plan);
        Ok(Prepared {
            plan,
            canonical,
            cache_hit: false,
            timings,
        })
    }

    /// The physical plan of `query`: cost-based with the analysis's
    /// statistics when there are any, the fixed plan otherwise.
    pub fn plan(&self, query: &BoundOutput) -> PhysicalPlan {
        plan_output(query, self.analysis.stats.as_deref(), self.planner)
    }

    /// Run `query` under `physical` against this core's database with
    /// the analysis's column store attached, adding its work to `stats`:
    /// the one way a whole query runs, for a read, for `EXPLAIN`'s actual
    /// rows and for a subscribed view's materializations. Returns the
    /// rows and each operator's actual output count.
    pub fn run(
        &self,
        query: &BoundOutput,
        physical: &PhysicalPlan,
        hostvars: &HostVars,
        stats: &mut ExecStats,
    ) -> Result<(Vec<Row>, Vec<u64>)> {
        let columns = self.analysis.columns.as_deref();
        let mut executor = Executor::new(self.db, hostvars).with_columns(columns);
        let rows = executor.run_output(query, physical);
        stats.merge(&executor.stats);
        Ok((rows?, executor.actuals))
    }

    /// Prepare `sql` and execute its plan with `hostvars`.
    pub fn query(&self, sql: &str, hostvars: &HostVars) -> Result<QueryOutput> {
        let mut prepared = self.prepare(sql)?;
        let plan = &prepared.plan;
        let physical = &plan.physical;
        let t = Instant::now();
        let mut stats = ExecStats::new();
        let (rows, actuals) = self.run(&plan.query, physical, hostvars, &mut stats)?;
        prepared.timings.execute_ns = elapsed_ns(t);
        let cards = physical.estimated.then(|| physical.card_report(&actuals));
        Ok(QueryOutput {
            columns: Arc::clone(&plan.columns),
            rows,
            trace: Arc::clone(&plan.trace),
            stats,
            timings: prepared.timings,
            cache_hit: prepared.cache_hit,
            cards,
        })
    }

    /// `EXPLAIN` a prepared plan: whether it was cached, the rewrite
    /// trace recorded when it was compiled, and the one physical plan
    /// the query runs. Before `ANALYZE` that is a `Physical plan` section
    /// of labels, and the query is not executed. After it, a `Cost-based
    /// plan` section shows estimated and actual rows per operator; the
    /// actuals come from running the plan once. `EXPLAIN` binds no host
    /// variables, so a query that needs them renders `act=?` instead.
    pub fn explain(&self, prepared: &Prepared) -> String {
        let plan = &prepared.plan;
        let physical = &plan.physical;
        let status = if prepared.cache_hit {
            "cached"
        } else {
            "compiled"
        };
        let mut text = format!("Plan: {status}\n{}", render_trace(&plan.trace));
        if physical.estimated {
            let ran = self.run(
                &plan.query,
                physical,
                &HostVars::new(),
                &mut ExecStats::new(),
            );
            let actuals = ran.ok().map(|(_, actuals)| actuals);
            text.push_str("Cost-based plan (est/act rows):\n");
            text.push_str(&physical.render(1, actuals.as_deref()));
        } else {
            text.push_str("Physical plan:\n");
            text.push_str(&physical.render(1, None));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use crate::{Session, SharedEngine};
    use uniq_plan::HostVars;

    /// A key join with DISTINCT, an EXISTS, an INTERSECT, a grouped
    /// Top-K and a host-variable query over the sample database.
    const CORPUS: [&str; 5] = [
        "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S \
         WHERE P.SNO = S.SNO AND P.COLOR = 'RED'",
        "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
         (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
        "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
         INTERSECT SELECT ALL A.SNO FROM AGENTS A",
        "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S \
         GROUP BY S.SCITY ORDER BY N DESC LIMIT 2",
        "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SCITY = :CITY",
    ];

    /// `EXPLAIN` with the time column of the rule stats masked: the last
    /// `/`-separated field of every line under the `Rule stats` header.
    fn mask_rule_times(text: &str) -> String {
        let mut in_rule_stats = false;
        let mut out = String::new();
        for line in text.lines() {
            if in_rule_stats && line.starts_with("  ") {
                let cut = line.rfind('/').map_or(line.len(), |i| i + 1);
                out.push_str(&line[..cut]);
                out.push_str("<time>");
            } else {
                in_rule_stats = line.starts_with("Rule stats");
                out.push_str(line);
            }
            out.push('\n');
        }
        out
    }

    /// The drift guard: a `Session` and a `SharedEngine` with equal
    /// options answer, count, estimate, cache and explain identically —
    /// before `ANALYZE`, after it (the columnar kernels licensed), and
    /// after a write that the column store was refreshed across, followed
    /// by a script that fails on a duplicate key and so writes nothing
    /// on either, not even the row before the duplicate.
    #[test]
    fn session_and_shared_engine_serve_identically() {
        let hostvars = HostVars::new().with("CITY", "Toronto");
        let write = "INSERT INTO PARTS VALUES (4, 15, 'rod', 107, 'RED');";
        // Supplier 5 has no part, so the first row would change the
        // EXISTS query's answer; the second repeats its key.
        let failing = "INSERT INTO PARTS VALUES (5, 16, 'cog', 108, 'RED'); \
                       INSERT INTO PARTS VALUES (5, 16, 'cog', 109, 'RED');";
        for state in ["unanalyzed", "analyzed", "written"] {
            let mut session = Session::sample().unwrap();
            let engine = SharedEngine::sample().unwrap();
            if state != "unanalyzed" {
                session.analyze();
                engine.analyze();
            }
            if state == "written" {
                session.run_script(write).unwrap();
                engine.execute(write).unwrap();
                assert!(session.run_script(failing).is_err());
                assert!(engine.execute(failing).is_err());
            }
            let mut vector_ops = 0;
            for sql in CORPUS {
                for run in 0..2 {
                    let a = session.query_with(sql, &hostvars).unwrap();
                    let b = engine.query_with(sql, &hostvars).unwrap();
                    let at = format!("{state} run {run}: {sql}");
                    assert_eq!(a.rows, b.rows, "{at}");
                    assert_eq!(a.stats, b.stats, "{at}");
                    assert_eq!(a.cards, b.cards, "{at}");
                    assert_eq!((a.cache_hit, b.cache_hit), (run == 1, run == 1), "{at}");
                    vector_ops += b.stats.vector_ops;
                }
                let a = mask_rule_times(&session.explain(sql).unwrap());
                let b = mask_rule_times(&engine.explain(sql).unwrap());
                assert_eq!(a, b, "{state}: {sql}");
                assert_eq!(
                    a.contains("Cost-based plan (est/act rows):"),
                    state != "unanalyzed",
                    "{a}"
                );
            }
            assert_eq!(vector_ops > 0, state != "unanalyzed", "{state}");
        }
    }
}
