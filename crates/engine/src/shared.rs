//! Multi-client serving: queries over MVCC snapshots with one shared
//! plan cache.
//!
//! [`Session`](crate::Session) owns its [`Database`] — good for a
//! single-threaded driver, useless for a daemon where writers and
//! readers interleave. [`SharedEngine`] replaces the owned database
//! with a [`SnapshotStore`] and serves through the same path as
//! `Session`, so both run the same plans and print the same `EXPLAIN`:
//!
//! * every query pins the head snapshot **once** at query start and
//!   executes against that `Arc<Database>` — a consistent catalog +
//!   rows + indexes + statistics view, with no lock held while the
//!   query runs;
//! * DDL/DML goes through [`SharedEngine::execute`], which publishes a
//!   new snapshot copy-on-write (see [`uniq_catalog::snapshot`]);
//! * all connections share one process-wide sharded [`PlanCache`]. The
//!   fingerprint already covers the catalog version and the options
//!   tag, so a plan compiled by one connection serves every other —
//!   and `CREATE TABLE` / `CREATE INDEX` invalidate lazily exactly as
//!   in the single-session engine. Plain `INSERT` leaves the catalog
//!   version alone, so cached plans keep serving across snapshots; the
//!   executor re-verifies index (and column-store) freshness against
//!   the pinned snapshot on every run;
//! * after every publish the column store is brought up to the new head
//!   (see [`ColumnStore::refresh`](crate::ColumnStore::refresh)), so the
//!   columnar kernels keep serving through writes. A query pinned to an
//!   older snapshot sees a store that does not match it and runs on rows.
//!
//! Per-connection state — a connection's own query counter, its
//! subscriptions — belongs to the server, not to the engine.

use crate::ivm::{self, MaintainOutcome, MaintenanceMode, MaterializedView, ViewDelta};
use crate::plancache::{CacheStats, PlanCache};
use crate::serve::{Analysis, Core};
use crate::session::QueryOutput;
use crate::stats::ExecStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use uniq_catalog::{Database, Row, SnapshotStore};
use uniq_core::pipeline::OptimizerOptions;
use uniq_cost::PlannerOptions;
use uniq_plan::HostVars;
use uniq_proof::ProofStatus;
use uniq_types::{ColumnName, Result};

/// The callback a subscriber registers: called with the subscription id
/// and each non-empty [`ViewDelta`] after a publish. Returning `false`
/// drops the subscription (a slow or vanished consumer must never stall
/// maintenance for everyone else).
pub type SubscriptionSink = Box<dyn Fn(u64, &ViewDelta) -> bool + Send + Sync>;

/// What [`SharedEngine::subscribe`] hands back: the subscription id,
/// the view's header + initial contents, and the tier/license the
/// maintenance engine granted.
pub struct Subscription {
    /// Registry id (pass to [`SharedEngine::unsubscribe`]).
    pub id: u64,
    /// Output column names.
    pub columns: Vec<ColumnName>,
    /// The view's initial contents, canonically sorted.
    pub rows: Vec<Row>,
    /// The maintenance tier in force.
    pub mode: MaintenanceMode,
    /// The proof that granted (or refused) the refcount-free tier.
    pub license: ProofStatus,
}

struct SubEntry {
    id: u64,
    view: MaterializedView,
    sink: SubscriptionSink,
}

impl SubEntry {
    /// Advance the view to `head`, the database `core` serves, and push
    /// its delta, counting into `stats`. Returns whether the
    /// subscription stays registered.
    fn maintain(
        &mut self,
        core: &Core,
        head: &Arc<Database>,
        stats: &mut SubscriptionStats,
    ) -> bool {
        // A maintenance error (e.g. a snapshot pair that is not
        // insert-only) is never fatal: rebuild.
        let outcome = self
            .view
            .maintain(core, head)
            .unwrap_or(MaintainOutcome::NeedsRebuild);
        let delta = match outcome {
            MaintainOutcome::Unchanged => return true,
            MaintainOutcome::Delta { delta, work } => {
                stats.delta_rows += work.delta_rows;
                stats.view_updates += work.view_updates;
                // What a per-publish full recompute would have scanned,
                // minus what delta maintenance touched. A recompute
                // round is that full recompute, so it saves nothing.
                if self.view.mode() != MaintenanceMode::Recompute {
                    let naive: u64 = (self.view.tables().iter())
                        .map(|t| head.row_count(t).unwrap_or(0) as u64)
                        .sum();
                    let touched = work.rows_scanned + work.delta_rows + work.probe_steps;
                    stats.rows_saved += naive.saturating_sub(touched);
                }
                delta
            }
            MaintainOutcome::NeedsRebuild => {
                let before = self.view.rows();
                // A view whose SQL no longer binds (table dropped by a
                // future DDL form) is dropped.
                let Ok(rebuilt) = MaterializedView::new(core, head, self.view.sql()) else {
                    return false;
                };
                self.view = rebuilt;
                let delta = ivm::diff_rows(before, self.view.rows());
                stats.view_updates += delta.len() as u64;
                delta
            }
        };
        if delta.is_empty() {
            return true;
        }
        stats.deltas_pushed += 1;
        (self.sink)(self.id, &delta)
    }
}

#[derive(Default)]
struct SubState {
    entries: Vec<SubEntry>,
    next_id: u64,
    /// Cumulative counters; `active` is filled in when reported.
    stats: SubscriptionStats,
}

/// Subscription counters for the stats report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriptionStats {
    /// Currently registered subscriptions.
    pub active: u64,
    /// Non-empty deltas pushed to sinks.
    pub deltas_pushed: u64,
    /// Base-table delta rows consumed by maintenance.
    pub delta_rows: u64,
    /// View rows changed (insertions + deletions) across all rounds.
    pub view_updates: u64,
    /// Cumulative base rows a per-publish full recompute would have
    /// scanned minus what delta maintenance actually touched, over the
    /// set and counting tiers' rounds. A recompute round is such a full
    /// recompute and adds nothing, whichever access it ran on.
    pub rows_saved: u64,
    /// Subscriptions dropped because their sink refused a delta, or
    /// because maintaining the view or calling its sink panicked.
    pub dropped: u64,
}

/// A process-wide engine: MVCC snapshot store + shared plan cache +
/// one fixed optimizer/planner configuration for every connection.
#[derive(Debug)]
pub struct SharedEngine {
    store: SnapshotStore,
    cache: Arc<PlanCache>,
    /// Rewrite configuration (identical for all connections, so plans
    /// are shareable by construction).
    pub optimizer: OptimizerOptions,
    /// Physical planner configuration; planning turns cost-based once
    /// [`SharedEngine::analyze`] has collected statistics.
    pub planner: PlannerOptions,
    /// What the last [`SharedEngine::analyze`] collected, read once per
    /// query; every publish refreshes its column store.
    analysis: RwLock<Analysis>,
    queries: AtomicU64,
    subs: Mutex<SubState>,
}

impl std::fmt::Debug for SubState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubState")
            .field("entries", &self.entries.len())
            .field("next_id", &self.next_id)
            .finish()
    }
}

/// One counter row of a [`SharedEngine`] stats report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Plan-cache counters, process-wide.
    pub cache: CacheStats,
    /// Snapshots published since the engine started: one per successful
    /// write, whether or not any of them is still alive.
    pub snapshot_depth: u64,
    /// Query requests across all connections, failed ones included
    /// (`EXPLAIN` is not counted).
    pub queries_total: u64,
    /// Statistics epoch (0 = never analyzed).
    pub stats_epoch: u64,
    /// Subscription / incremental-view-maintenance counters.
    pub subs: SubscriptionStats,
}

impl SharedEngine {
    /// An engine seeded with `db`, default relational optimization and a
    /// default-capacity shared plan cache.
    pub fn new(db: Database) -> SharedEngine {
        SharedEngine {
            store: SnapshotStore::new(db),
            cache: Arc::new(PlanCache::default()),
            optimizer: OptimizerOptions::relational(),
            planner: PlannerOptions::default(),
            analysis: RwLock::new(Analysis::default()),
            queries: AtomicU64::new(0),
            subs: Mutex::new(SubState::default()),
        }
    }

    /// Engine over the paper's populated Figure 1 database.
    pub fn sample() -> Result<SharedEngine> {
        Ok(SharedEngine::new(uniq_catalog::sample::supplier_database()?))
    }

    /// The snapshot store (for tests and admission logic).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Pin the current head snapshot.
    pub fn snapshot(&self) -> Arc<Database> {
        self.store.snapshot()
    }

    /// Apply a DDL/DML script copy-on-write and publish one new
    /// snapshot (atomic: a failure publishes nothing), bring the column
    /// store up to it, then run one incremental maintenance round so
    /// every subscription sees the write. Returns the number of
    /// statements applied.
    pub fn execute(&self, sql: &str) -> Result<usize> {
        let applied = self.store.run_script(sql)?;
        self.refresh_columns();
        self.maintain_subscriptions();
        Ok(applied)
    }

    /// Collect statistics and the column store from the current head
    /// snapshot and bump the statistics epoch. Cost-based physical
    /// planning, with the columnar kernels on every block they cover,
    /// is active from the next query on; plans compiled under older
    /// statistics are recompiled lazily (the epoch is part of the
    /// fingerprint). Subscriptions are left as they are: neither a tier
    /// license nor a delta plan reads statistics, and a recompute round
    /// reads the view's text through the plan cache, so from the next
    /// write on it runs the plan a client read of that text runs.
    pub fn analyze(&self) {
        let next = Analysis::collect(&self.snapshot());
        let mut analysis = self
            .analysis
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        analysis.advance(next);
        // Writes published while the store was built move it on.
        analysis.refresh(&self.snapshot());
    }

    /// Bring the column store up to the head snapshot. The head is
    /// pinned under the `analysis` write lock, so concurrent writers
    /// refresh in turn, each from a head no older than the last: the
    /// store only moves forward. A refresh cut short by a panic leaves
    /// tables missing or the old catalog stamp, which the executor's
    /// freshness check turns into row-path runs, so the poisoned lock is
    /// recovered.
    fn refresh_columns(&self) {
        let mut analysis = self
            .analysis
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        analysis.refresh(&self.snapshot());
    }

    /// The subscription registry. A panic while it was held (none is
    /// expected: view maintenance and sinks run under `catch_unwind`)
    /// does not disable it: every update outside those calls leaves the
    /// registry valid, so the poisoned lock is recovered.
    fn subs(&self) -> MutexGuard<'_, SubState> {
        self.subs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counter snapshot for the `Stats` frame.
    pub fn stats(&self) -> EngineStats {
        let subs = {
            let s = self.subs();
            SubscriptionStats {
                active: s.entries.len() as u64,
                ..s.stats
            }
        };
        EngineStats {
            cache: self.cache.stats(),
            snapshot_depth: self.store.depth(),
            queries_total: self.queries.load(Ordering::Relaxed),
            stats_epoch: self.analysis().epoch,
            subs,
        }
    }

    fn analysis(&self) -> Analysis {
        self.analysis
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Run `f` on the serving path over the head snapshot, pinned ONCE:
    /// cache validity, binding, physical planning and execution all see
    /// this version. `f` also gets the snapshot itself.
    fn pinned<T>(&self, f: impl FnOnce(&Core, &Arc<Database>) -> T) -> T {
        let snap = self.snapshot();
        let analysis = self.analysis();
        let core = Core {
            db: &snap,
            cache: &self.cache,
            optimizer: self.optimizer,
            planner: self.planner,
            analysis: &analysis,
        };
        f(&core, &snap)
    }

    /// Register `sql` as a live subscription: the query is compiled
    /// through the shared plan cache, licensed (set tier only with
    /// Algorithm 1 + proof-checker certificates), materialized against
    /// the head snapshot on the serving path, and from then on
    /// maintained incrementally after every publish. `sink` receives
    /// each non-empty delta; returning `false` unsubscribes.
    pub fn subscribe(&self, sql: &str, sink: SubscriptionSink) -> Result<Subscription> {
        let build = |core: &Core, head: &Arc<Database>| MaterializedView::new(core, head, sql);
        let mut view = self.pinned(build)?;
        let mut subs = self.subs();
        // A write published and maintained since the view was built never
        // reached it: catch it up to the head while no maintenance round
        // can run, rebuilding it if DDL intervened.
        match self.pinned(|core, head| view.maintain(core, head)) {
            Ok(MaintainOutcome::NeedsRebuild) | Err(_) => view = self.pinned(build)?,
            Ok(_) => {}
        }
        subs.next_id += 1;
        let id = subs.next_id;
        let reply = Subscription {
            id,
            columns: view.columns().to_vec(),
            rows: view.rows(),
            mode: view.mode(),
            license: view.license().clone(),
        };
        subs.entries.push(SubEntry { id, view, sink });
        Ok(reply)
    }

    /// Remove a subscription. Returns whether the id was registered.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut subs = self.subs();
        let before = subs.entries.len();
        subs.entries.retain(|e| e.id != id);
        subs.entries.len() != before
    }

    /// A registered view's current contents (tests and tooling).
    pub fn subscription_rows(&self, id: u64) -> Option<Vec<Row>> {
        self.subs()
            .entries
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.view.rows())
    }

    /// A registered view's cumulative maintenance work.
    pub fn subscription_work(&self, id: u64) -> Option<ExecStats> {
        self.subs()
            .entries
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.view.work())
    }

    /// One maintenance round: advance every registered view from its
    /// base snapshot to the current head and push non-empty deltas.
    /// Views the catalog moved under (DDL) are rebuilt — recompiled and
    /// re-licensed against the live catalog — and the reconciliation
    /// delta is pushed. A sink that refuses a delta drops its
    /// subscription on the spot, and so does a panic while maintaining a
    /// view or calling its sink: the other subscriptions and every later
    /// write go on.
    fn maintain_subscriptions(&self) {
        self.pinned(|core, head| {
            let mut subs = self.subs();
            let SubState { entries, stats, .. } = &mut *subs;
            let before = entries.len();
            entries.retain_mut(|entry| {
                catch_unwind(AssertUnwindSafe(|| entry.maintain(core, head, stats)))
                    .unwrap_or(false)
            });
            stats.dropped += (before - entries.len()) as u64;
        })
    }

    /// Parse, plan (through the shared cache) and execute `sql` against
    /// a snapshot pinned at entry. The serving path is
    /// [`Session::query_with`](crate::Session::query_with)'s; the only
    /// difference is *which* database the plan runs on — always the
    /// snapshot pinned here, never a moving head.
    pub fn query_with(&self, sql: &str, hostvars: &HostVars) -> Result<QueryOutput> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.pinned(|core, _| core.query(sql, hostvars))
    }

    /// [`SharedEngine::query_with`] with no host variables.
    pub fn query(&self, sql: &str) -> Result<QueryOutput> {
        self.query_with(sql, &HostVars::new())
    }

    /// `EXPLAIN` against a pinned snapshot, through the shared cache:
    /// the text [`Session::explain`](crate::Session::explain) prints,
    /// plus a subscription section when the query is a live view.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.pinned(|core, _| {
            let prepared = core.prepare(sql)?;
            Ok(core.explain(&prepared) + &self.subscription_note(&prepared.canonical))
        })
    }

    /// A trailing `EXPLAIN` section when the query text is also a live
    /// subscription: tier, license marker, and the view's cumulative
    /// `delta_rows` / `view_updates` counters.
    fn subscription_note(&self, canonical: &str) -> String {
        self.subs()
            .entries
            .iter()
            .find(|e| e.view.sql() == canonical)
            .map(|e| {
                let work = e.view.work();
                format!(
                    "\nSubscription: id={} mode={} proof={} delta_rows={} view_updates={}",
                    e.id,
                    e.view.mode().tag(),
                    e.view.license().marker(),
                    work.delta_rows,
                    work.view_updates,
                )
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use uniq_types::Value;

    #[test]
    fn queries_run_against_a_pinned_snapshot() {
        let engine = SharedEngine::sample().unwrap();
        let before = engine.query("SELECT S.SNO FROM SUPPLIER S").unwrap();
        engine
            .execute("INSERT INTO SUPPLIER VALUES (9, 'Carver', 'Toronto', 100, 'Active');")
            .unwrap();
        let after = engine.query("SELECT S.SNO FROM SUPPLIER S").unwrap();
        assert_eq!(after.rows.len(), before.rows.len() + 1);
        assert!(after.cache_hit, "INSERT must not invalidate the plan");
    }

    #[test]
    fn two_sessions_share_one_plan_cache() {
        let engine = Arc::new(SharedEngine::sample().unwrap());
        let a = Arc::clone(&engine);
        let b = Arc::clone(&engine);
        let sql = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        assert!(!a.query(sql).unwrap().cache_hit);
        assert!(
            b.query(sql).unwrap().cache_hit,
            "plan compiled by one connection serves the other"
        );
        let stats = engine.stats();
        assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
        assert!(stats.cache.hit_rate() > 0.0);
        assert_eq!(stats.queries_total, 2);
    }

    #[test]
    fn ddl_invalidates_shared_plans_for_everyone() {
        let engine = Arc::new(SharedEngine::sample().unwrap());
        let reader = Arc::clone(&engine);
        let writer = Arc::clone(&engine);
        let sql = "SELECT S.SNO FROM SUPPLIER S";
        reader.query(sql).unwrap();
        assert!(reader.query(sql).unwrap().cache_hit);
        writer
            .execute("CREATE TABLE Z (A INTEGER, PRIMARY KEY (A));")
            .unwrap();
        assert!(
            !reader.query(sql).unwrap().cache_hit,
            "schema change invalidates across connections"
        );
    }

    #[test]
    fn analyze_activates_cost_based_planning() {
        let engine = SharedEngine::sample().unwrap();
        let sql = "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
        assert!(engine.query(sql).unwrap().cards.is_none());
        engine.analyze();
        let out = engine.query(sql).unwrap();
        assert!(!out.cache_hit, "epoch bump recompiles the plan");
        assert!(out.cards.is_some(), "physical planning is active");
        assert_eq!(engine.stats().stats_epoch, 1);
    }

    #[test]
    fn failed_writes_leave_the_head_serving() {
        let engine = SharedEngine::sample().unwrap();
        let err = engine
            .execute("INSERT INTO SUPPLIER VALUES (1, 'Dup', 'Toronto', 1, 'Active');")
            .unwrap_err();
        assert!(err.to_string().contains("key violation"), "{err}");
        assert_eq!(
            engine
                .query("SELECT S.SNO FROM SUPPLIER S")
                .unwrap()
                .rows
                .len(),
            5,
            "head unchanged after the failed insert"
        );
    }

    #[test]
    fn concurrent_readers_and_writer_agree() {
        let engine = Arc::new(SharedEngine::sample().unwrap());
        std::thread::scope(|scope| {
            let w = Arc::clone(&engine);
            let writer = scope.spawn(move || {
                for i in 0..30i64 {
                    w.execute(&format!(
                        "INSERT INTO SUPPLIER VALUES ({}, 'W{}', 'Toronto', 1, 'Active');",
                        100 + i,
                        i
                    ))
                    .unwrap();
                }
            });
            for _ in 0..4 {
                let session = Arc::clone(&engine);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let out = session
                            .query("SELECT S.SNO, S.SNAME FROM SUPPLIER S")
                            .unwrap();
                        assert!(out.rows.len() >= 5 && out.rows.len() <= 35);
                        // Within one query, the snapshot is consistent:
                        // every row has both columns bound.
                        assert!(out.rows.iter().all(|r| r.len() == 2));
                    }
                });
            }
            writer.join().unwrap();
        });
        let fin = engine.query("SELECT S.SNO FROM SUPPLIER S").unwrap();
        assert_eq!(fin.rows.len(), 35);
        assert_eq!(engine.stats().snapshot_depth, 30);
    }

    #[test]
    fn explain_over_shared_engine_shows_proofs() {
        let engine = SharedEngine::sample().unwrap();
        let out = engine
            .explain(
                "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
                 WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            )
            .unwrap();
        assert!(out.starts_with("Plan: compiled"), "{out}");
        assert!(out.contains("distinct-removal"), "{out}");
        assert!(out.contains("proof=✓"), "{out}");
    }

    fn collecting_sink() -> (SubscriptionSink, Arc<Mutex<Vec<ViewDelta>>>) {
        let log: Arc<Mutex<Vec<ViewDelta>>> = Arc::new(Mutex::new(Vec::new()));
        let writer = Arc::clone(&log);
        let sink: SubscriptionSink = Box::new(move |_, delta| {
            writer.lock().unwrap().push(delta.clone());
            true
        });
        (sink, log)
    }

    #[test]
    fn subscriptions_receive_deltas_after_writes() {
        let engine = SharedEngine::sample().unwrap();
        let (sink, log) = collecting_sink();
        let sub = engine
            .subscribe(
                "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
                sink,
            )
            .unwrap();
        assert_eq!(sub.mode, MaintenanceMode::Set);
        assert!(sub.license.is_proved());
        assert_eq!(
            sub.columns,
            vec!["SNO".into(), "PNO".into()] as Vec<ColumnName>
        );
        let initial = sub.rows.len();
        engine
            .execute("INSERT INTO PARTS VALUES (2, 77, 'gasket', 150, 'RED');")
            .unwrap();
        let deltas = log.lock().unwrap().clone();
        assert_eq!(deltas.len(), 1, "one publish, one push");
        assert_eq!(
            deltas[0].inserted,
            vec![vec![Value::Int(2), Value::Int(77)]]
        );
        assert_eq!(engine.subscription_rows(sub.id).unwrap().len(), initial + 1);
        let stats = engine.stats().subs;
        assert_eq!(stats.active, 1);
        assert_eq!(stats.deltas_pushed, 1);
        assert!(stats.delta_rows >= 1);
        assert!(stats.view_updates >= 1);
        assert!(engine.unsubscribe(sub.id));
        assert!(!engine.unsubscribe(sub.id), "already gone");
        assert_eq!(engine.stats().subs.active, 0);
    }

    #[test]
    fn aggregate_subscriptions_recompute_and_diff() {
        let engine = SharedEngine::sample().unwrap();
        let (sink, log) = collecting_sink();
        let sub = engine
            .subscribe(
                "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SCITY",
                sink,
            )
            .unwrap();
        assert_eq!(sub.mode, MaintenanceMode::Recompute);
        assert!(
            !sub.license.is_proved(),
            "the obstruction is honest, not a proof"
        );
        assert_eq!(sub.rows.len(), 3, "three cities in the seed data");
        engine
            .execute("INSERT INTO SUPPLIER VALUES (9, 'Niner', 'Toronto', 50, 'Active');")
            .unwrap();
        // The insert *replaces* Toronto's count row — one delete plus
        // one insert, the shape insert-only delta plans cannot express.
        let deltas = log.lock().unwrap().clone();
        assert_eq!(deltas.len(), 1, "one publish, one push");
        assert_eq!(
            deltas[0].deleted,
            vec![vec![Value::str("Toronto"), Value::Int(2)]]
        );
        assert_eq!(
            deltas[0].inserted,
            vec![vec![Value::str("Toronto"), Value::Int(3)]]
        );
        let rows = engine.subscription_rows(sub.id).unwrap();
        assert!(rows.contains(&vec![Value::str("Toronto"), Value::Int(3)]));
    }

    #[test]
    fn ddl_rebuilds_views_and_analyze_leaves_them_serving() {
        let engine = SharedEngine::sample().unwrap();
        let (sink, log) = collecting_sink();
        let sub = engine
            .subscribe("SELECT DISTINCT S.SNO FROM SUPPLIER S", sink)
            .unwrap();
        // DDL bumps the catalog version: the view must be rebuilt, and
        // a rebuild with unchanged contents pushes nothing.
        engine
            .execute("CREATE TABLE Z (A INTEGER, PRIMARY KEY (A));")
            .unwrap();
        assert!(log.lock().unwrap().is_empty(), "no spurious delta");
        // The rebuilt view still maintains incrementally.
        engine
            .execute("INSERT INTO SUPPLIER VALUES (9, 'Nine', 'Toronto', 1, 'Active');")
            .unwrap();
        assert_eq!(log.lock().unwrap().len(), 1);
        engine.analyze();
        engine
            .execute("INSERT INTO SUPPLIER VALUES (10, 'Ten', 'Chicago', 1, 'Active');")
            .unwrap();
        assert_eq!(log.lock().unwrap().len(), 2, "stale view still serves");
        assert_eq!(
            engine.subscription_rows(sub.id).unwrap().len(),
            7,
            "5 seed + 2 inserted suppliers"
        );
    }

    #[test]
    fn after_analyze_an_aggregate_view_recomputes_on_the_served_plan() {
        let engine = SharedEngine::sample().unwrap();
        let sql = "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO GROUP BY S.SCITY";
        let (sink, log) = collecting_sink();
        let sub = engine.subscribe(sql, sink).unwrap();
        assert_eq!(sub.mode, MaintenanceMode::Recompute);
        engine.analyze();
        assert!(log.lock().unwrap().is_empty(), "ANALYZE pushes no delta");
        let before = engine.subscription_work(sub.id).unwrap();
        engine
            .execute("INSERT INTO PARTS VALUES (2, 77, 'gasket', 150, 'RED');")
            .unwrap();
        // The round read the view's text as a client would: the
        // cost-based plan on the encoded columns, not a rebuilt view on
        // the fixed rows plan.
        let after = engine.subscription_work(sub.id).unwrap();
        assert!(after.vector_ops > before.vector_ops, "{after:?}");
        assert_eq!(after.rows_scanned, before.rows_scanned, "{after:?}");
        assert_eq!(log.lock().unwrap().len(), 1, "one publish, one push");
        let want = sorted(engine.query(sql).unwrap().rows);
        assert_eq!(engine.subscription_rows(sub.id).unwrap(), want);
    }

    #[test]
    fn a_recompute_round_saves_no_rows_on_the_encoded_access() {
        let engine = SharedEngine::sample().unwrap();
        engine.analyze();
        let sql = "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S \
                   WHERE S.SCITY >= 'D' GROUP BY S.SCITY";
        let sub = engine.subscribe(sql, Box::new(|_, _| true)).unwrap();
        for sno in 9..12 {
            engine
                .execute(&format!(
                    "INSERT INTO SUPPLIER VALUES ({sno}, 'W', 'Toronto', 1, 'Active');"
                ))
                .unwrap();
        }
        // The rounds read every SUPPLIER row as codes and booked no row
        // scanned, yet a recompute round is the full recompute the
        // counter compares against.
        let work = engine.subscription_work(sub.id).unwrap();
        assert!(work.vector_ops > 0 && work.rows_scanned == 0, "{work:?}");
        let stats = engine.stats().subs;
        assert_eq!((stats.deltas_pushed, stats.rows_saved), (3, 0), "{stats:?}");
    }

    #[test]
    fn refusing_sink_drops_the_subscription() {
        let engine = SharedEngine::sample().unwrap();
        let sink: SubscriptionSink = Box::new(|_, _| false);
        engine
            .subscribe("SELECT DISTINCT S.SNO FROM SUPPLIER S", sink)
            .unwrap();
        assert_eq!(engine.stats().subs.active, 1);
        engine
            .execute("INSERT INTO SUPPLIER VALUES (9, 'Nine', 'Toronto', 1, 'Active');")
            .unwrap();
        let stats = engine.stats().subs;
        assert_eq!(stats.active, 0, "refused delta unsubscribes");
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn explain_surfaces_the_subscription_license() {
        let engine = SharedEngine::sample().unwrap();
        let sql = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
        let sink: SubscriptionSink = Box::new(|_, _| true);
        engine.subscribe(sql, sink).unwrap();
        engine
            .execute("INSERT INTO PARTS VALUES (3, 88, 'pin', 151, 'BLUE');")
            .unwrap();
        let text = engine.explain(sql).unwrap();
        assert!(
            text.contains("Subscription: id=1 mode=set proof=✓"),
            "{text}"
        );
        assert!(text.contains("delta_rows=1"), "{text}");
        assert!(text.contains("view_updates=1"), "{text}");
    }

    #[test]
    fn maintenance_work_scales_with_delta_not_table() {
        let engine = SharedEngine::sample().unwrap();
        let (sink, _log) = collecting_sink();
        let sub = engine
            .subscribe(
                "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
                sink,
            )
            .unwrap();
        let after_init = engine.subscription_work(sub.id).unwrap();
        engine
            .execute("INSERT INTO PARTS VALUES (4, 60, 'rod', 152, 'RED');")
            .unwrap();
        let after_round = engine.subscription_work(sub.id).unwrap();
        assert_eq!(after_round.delta_rows - after_init.delta_rows, 1);
        assert_eq!(
            after_round.rows_scanned, after_init.rows_scanned,
            "key-probe round scans no table"
        );
        assert!(engine.stats().subs.rows_saved > 0);
    }

    #[test]
    fn views_subscribed_during_writes_see_every_write() {
        // A writer inserts while the main thread subscribes: every view,
        // whenever it registered, must end equal to a fresh query.
        let sql = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
        let mut stale = 0;
        for _ in 0..20 {
            let engine = SharedEngine::sample().unwrap();
            let ids: Vec<u64> = std::thread::scope(|scope| {
                scope.spawn(|| {
                    for p in 100..120 {
                        let part = format!("INSERT INTO PARTS VALUES (1, {p}, 'w', {p}0, 'RED');");
                        engine.execute(&part).unwrap();
                    }
                });
                (0..20)
                    .map(|_| engine.subscribe(sql, Box::new(|_, _| true)).unwrap().id)
                    .collect()
            });
            let want = sorted(engine.query(sql).unwrap().rows);
            stale += (ids.iter())
                .filter(|&&id| engine.subscription_rows(id).unwrap() != want)
                .count();
        }
        assert_eq!(stale, 0, "views that missed a write");
    }

    #[test]
    fn hostvars_bind_per_execution_on_the_shared_path() {
        let s = SharedEngine::sample().unwrap();
        let sql = "SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = :CITY";
        let a = s
            .query_with(sql, &HostVars::new().with("CITY", "Toronto"))
            .unwrap();
        let b = s
            .query_with(sql, &HostVars::new().with("CITY", "Chicago"))
            .unwrap();
        assert!(!a.cache_hit && b.cache_hit);
        assert_ne!(a.rows, b.rows);
        assert!(a.rows.contains(&vec![Value::Int(1)]));
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort();
        rows
    }

    #[test]
    fn columnar_runs_when_the_planner_licenses_it() {
        let engine = SharedEngine::sample().unwrap();
        engine.analyze();
        let sql = "SELECT P.PNO, S.SCITY FROM PARTS P, SUPPLIER S \
                   WHERE P.SNO = S.SNO AND P.COLOR = 'RED'";
        let col = engine.query(sql).unwrap();
        assert!(col.stats.vector_ops > 0, "{:?}", col.stats);
        assert_eq!(col.stats.rows_scanned, 0, "no row-at-a-time scan");
        let row = SharedEngine::sample().unwrap().query(sql).unwrap();
        assert_eq!(row.stats.vector_ops, 0, "an unanalyzed engine runs rows");
        assert_eq!(sorted(col.rows), sorted(row.rows));
        // INSERT leaves the catalog version alone, so the cached plan
        // still serves, and the publish refreshed the store: the kernels
        // see the new row with no second ANALYZE.
        engine
            .execute("INSERT INTO PARTS VALUES (4, 15, 'rod', 107, 'RED');")
            .unwrap();
        let fresh = engine.query(sql).unwrap();
        assert!(fresh.cache_hit);
        assert!(fresh.stats.vector_ops > 0, "{:?}", fresh.stats);
        assert_eq!(fresh.stats.rows_scanned, 0, "{:?}", fresh.stats);
        let new_row = vec![Value::Int(15), Value::str("Toronto")];
        assert!(fresh.rows.contains(&new_row), "{:?}", fresh.rows);
        // DDL on another table re-stamps the store instead of staling it.
        engine
            .execute("CREATE INDEX IX_A_CITY ON AGENTS (ACITY);")
            .unwrap();
        let after_ddl = engine.query(sql).unwrap();
        assert!(!after_ddl.cache_hit, "DDL recompiles");
        assert!(after_ddl.stats.vector_ops > 0, "{:?}", after_ddl.stats);
        assert_eq!(after_ddl.stats.rows_scanned, 0);
        assert_eq!(sorted(after_ddl.rows), sorted(fresh.rows));
    }

    #[test]
    fn a_snapshot_older_than_the_store_runs_on_rows() {
        let engine = SharedEngine::sample().unwrap();
        engine.analyze();
        let sql = "SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto'";
        let old = engine.snapshot();
        engine
            .execute("INSERT INTO SUPPLIER VALUES (9, 'Nine', 'Toronto', 1, 'Active');")
            .unwrap();
        // A reader still pinned to the old snapshot must not read codes
        // for a row it cannot see.
        let analysis = engine.analysis();
        let core = Core {
            db: &old,
            cache: &engine.cache,
            optimizer: engine.optimizer,
            planner: engine.planner,
            analysis: &analysis,
        };
        let out = core.query(sql, &HostVars::new()).unwrap();
        assert_eq!(out.stats.vector_ops, 0, "{:?}", out.stats);
        assert_eq!(
            sorted(out.rows),
            vec![vec![Value::Int(1)], vec![Value::Int(4)]]
        );
        let head = engine.query(sql).unwrap();
        assert!(head.stats.vector_ops > 0, "{:?}", head.stats);
        assert_eq!(head.rows.len(), 3);
    }

    #[test]
    fn concurrent_readers_of_a_covered_aggregate_see_published_states() {
        let engine = Arc::new(SharedEngine::sample().unwrap());
        engine.analyze();
        let sql = "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S \
                   WHERE S.SCITY >= 'D' GROUP BY S.SCITY";
        const WRITES: usize = 24;
        let script = |i: usize| {
            let city = ["Toronto", "New York", "Chicago"][i % 3];
            format!(
                "INSERT INTO SUPPLIER VALUES ({}, 'W{i}', '{city}', 1, 'Active');",
                100 + i
            )
        };
        // The oracle's answer at every state the writer will publish.
        let mut oracle = Session::sample().unwrap();
        let mut published = Vec::with_capacity(WRITES + 1);
        for i in 0..=WRITES {
            let out = oracle.query_unoptimized(sql, &HostVars::new()).unwrap();
            published.push(sorted(out.rows));
            if i < WRITES {
                oracle.run_script(&script(i)).unwrap();
            }
        }
        let vectorized = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..WRITES {
                    engine.execute(&script(i)).unwrap();
                }
            });
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..40 {
                        let out = engine.query(sql).unwrap();
                        if out.stats.vector_ops > 0 {
                            vectorized.fetch_add(1, Ordering::Relaxed);
                        }
                        let rows = sorted(out.rows);
                        assert!(published.contains(&rows), "unpublished answer {rows:?}");
                    }
                });
            }
            writer.join().unwrap();
        });
        let last = engine.query(sql).unwrap();
        assert!(last.stats.vector_ops > 0, "{:?}", last.stats);
        assert_eq!(sorted(last.rows), published[WRITES]);
        assert!(vectorized.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn a_panicking_sink_drops_only_its_subscription() {
        let engine = SharedEngine::sample().unwrap();
        engine.analyze();
        let sql = "SELECT DISTINCT S.SNO FROM SUPPLIER S";
        let panicking: SubscriptionSink = Box::new(|_, _| panic!("sink failure"));
        engine.subscribe(sql, panicking).unwrap();
        let (sink, log) = collecting_sink();
        engine.subscribe(sql, sink).unwrap();
        engine
            .execute("INSERT INTO SUPPLIER VALUES (9, 'Nine', 'Toronto', 1, 'Active');")
            .unwrap();
        let stats = engine.stats().subs;
        assert_eq!((stats.active, stats.dropped), (1, 1), "{stats:?}");
        assert_eq!(log.lock().unwrap().len(), 1, "the other view got its delta");
        // Later writes, stats and deltas all still work.
        engine
            .execute("INSERT INTO SUPPLIER VALUES (10, 'Ten', 'Chicago', 1, 'Active');")
            .unwrap();
        assert_eq!(engine.stats().subs.active, 1);
        let deltas = log.lock().unwrap().clone();
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[1].inserted, vec![vec![Value::Int(10)]]);
        let out = engine.query("SELECT S.SNO FROM SUPPLIER S").unwrap();
        assert_eq!(out.rows.len(), 7);
    }
}
