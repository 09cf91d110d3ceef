//! A multiset query executor for the paper's algebra (§2.2).
//!
//! The executor evaluates bound queries against a
//! [`uniq_catalog::Database`] with exactly the semantics the paper's
//! theorems assume:
//!
//! * `WHERE` filters are **false-interpreted** three-valued predicates
//!   (`⌊·⌋`): a row qualifies only when the condition is definitely true.
//! * `SELECT DISTINCT`, `INTERSECT [ALL]` and `EXCEPT [ALL]` compare
//!   tuples with the null-aware `=̇` (`NULL =̇ NULL` is *true*), via
//!   sort-based duplicate elimination by default — the expensive sort
//!   whose avoidance motivates the whole paper — with a hash-based
//!   alternative for ablation.
//! * `INTERSECT ALL` emits `min(j,k)` copies, `EXCEPT ALL` emits
//!   `max(j−k, 0)`, per the SQL2 definitions quoted in §2.2.
//! * `EXISTS` subqueries run correlated with first-match early exit —
//!   the property §6 exploits on navigational systems.
//!
//! Joins run as hash equi-joins when an equality conjunct links two
//! tables (the "alternate join methods" an optimizer buys by rewriting a
//! subquery to a join, §5.2), falling back to nested loops. Every
//! operator maintains [`stats::ExecStats`] counters so experiments can
//! report *work* (rows scanned, comparisons, probes) as well as time.
//!
//! The [`columnar`] module adds a vectorized execution path over
//! dictionary-encoded column storage for the block shapes the cost
//! planner proves covered; the row executor above remains the default
//! and the correctness oracle it is property-tested against. The
//! [`agg`] module supplies the aggregation / `ORDER BY` / `LIMIT`
//! output stage over either path, with the uniqueness elisions
//! (key-covered `GROUP BY`, `COUNT(DISTINCT)` degradation, early-stop
//! Top-K) that experiment E23 measures.

pub mod agg;
pub mod columnar;
pub mod exec;
pub mod explain;
mod hasher;
pub mod ivm;
pub mod plancache;
mod serve;
pub mod session;
pub mod setops;
pub mod shared;
pub mod stats;

pub use columnar::{ColumnData, ColumnStore, TableColumns};
pub use exec::Executor;
pub use explain::render_trace;
pub use ivm::{MaintenanceMode, ViewDelta};
pub use plancache::{CacheStats, CachedPlan, PlanCache};
pub use session::{QueryOutput, Session};
pub use shared::{EngineStats, SharedEngine, Subscription, SubscriptionSink, SubscriptionStats};
pub use stats::{ExecStats, StageTimings};
pub use uniq_cost::{
    CardReport, DistinctMethod, JoinMethod, PhysicalPlan, PlannerOptions, QErrorStats, Statistics,
};
