//! Cost model and physical planning.
//!
//! The paper's Algorithm 1 produces *free information* — provable
//! duplicate-freeness and key coverage — that the executor can exploit
//! beyond rewrite-time `DISTINCT` removal. This crate turns that
//! information into numbers:
//!
//! * [`stats`] — a statistics collector over a
//!   [`Database`](uniq_catalog::Database): per-table row counts and
//!   per-column distinct-value/null counts, with declared single-column
//!   candidate keys short-circuiting to exact `ndv = rows − nulls`
//!   without building a hash set.
//! * [`estimate`] — a cardinality estimator for bound query blocks:
//!   Type-1 (`col = const`) and Type-2 (`col = col`) conjunct
//!   selectivities, join output estimates, and *uniqueness-derived hard
//!   upper bounds* (a block Algorithm 1 / the FD test proves
//!   duplicate-free emits at most the product of its projected columns'
//!   domains; a join whose keys cover a candidate key of the inner table
//!   emits at most the outer side).
//! * [`planner`] — the physical planner, the one place physical
//!   choices are made. With statistics it chooses per node: hash vs.
//!   sort distinct, hash vs. nested-loop join, and join input ordering
//!   by estimated size. Without them it builds the fixed plan: `FROM`
//!   order and the [`PlannerOptions`] methods everywhere.
//! * [`physical`] — the physical-plan IR the executor consumes, with an
//!   operator registry carrying estimates so `EXPLAIN` can print
//!   `est=… act=…` per operator.
//! * [`price`] — the one choice priced in nanoseconds: a covered block
//!   with an index operator runs on the encoded access or on the rows
//!   access with its index, whichever the checked-in per-unit prices
//!   make cheaper.
//! * [`sarg`] — sargability analysis matching `WHERE` conjuncts to
//!   secondary indexes: the planner derives an [`IndexSarg`] for an
//!   `IxScan` and an [`IndexProbe`] for an `IxJoin` step, and the plan
//!   carries them to the executor, which runs them as planned.
//! * [`card`] — per-operator estimated-vs-actual reports and q-error
//!   aggregation for batch runs.
//!
//! Every other cost is expressed in the executor's own work units
//! (`rows_scanned`, `sort_comparisons`, `hash_probes`), so "cheaper by
//! the model" is falsifiable against `ExecStats` — experiment E16 does
//! exactly that. The access choice's prices are checked against wall
//! clock by experiment E24.

pub mod card;
pub mod estimate;
pub mod physical;
pub mod planner;
pub mod price;
pub mod sarg;
pub mod stats;

pub use card::{CardReport, CardRow, QErrorStats};
pub use estimate::Estimator;
pub use physical::{
    AccessPrices, BlockPlan, DistinctMethod, DistinctStep, JoinMethod, JoinStep, OpId, OpInfo,
    OutputOp, PhysNode, PhysicalPlan,
};
pub use planner::{plan_delta, plan_output, plan_query, PlannerOptions};
pub use sarg::{IndexProbe, IndexSarg, ProbeSource};
pub use stats::{ColumnStats, Statistics, TableStats};
