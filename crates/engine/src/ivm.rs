//! Incremental view maintenance over MVCC snapshots — the paper's
//! uniqueness analysis cashed in as an *update-time* optimization.
//!
//! A subscribed query is compiled once through the shared plan cache,
//! like any read, and kept materialized between snapshots. Every run of
//! a whole query a view needs goes through the one serving path
//! (`serve::Core`): the set tier's initial rows run the view's cached
//! plan, each counting-tier block's `SELECT ALL` multiset is planned
//! with the analysis's statistics when there are any, and a recompute
//! round is a read of the view's text, served from the plan cache. Once
//! `ANALYZE` has run, each runs the cost-based plan with the column
//! store attached, exactly as a client read of the same text does.
//!
//! What this module adds is only what uniqueness buys at update time:
//! the tier license, each tier's state and the delta terms. When the
//! store publishes a new head, `MaterializedView::maintain` extracts
//! per-table insert deltas ([`Database::table_delta`]: untouched tables
//! cost one pointer comparison) and evaluates only the *delta* of the
//! query — the telescoping sum
//!
//! ```text
//! ΔQ = Σᵢ Q(T₁ⁿᵉʷ, …, Tᵢ₋₁ⁿᵉʷ, ΔTᵢ, Tᵢ₊₁ᵒˡᵈ, …, Tₙᵒˡᵈ)
//! ```
//!
//! so per-write work scales with `|Δ|`, not table size. Each term ΔQᵢ of
//! a block is planned once per view ([`plan_delta`]) and runs on the
//! executor's block pipeline, where every `FROM` position reads a slice
//! of the head snapshot's rows: position `i` the rows the write
//! appended, positions before it the whole table, positions after it
//! the old prefix. The delta scan is booked as `delta_rows`. A join step
//! probes a secondary index or a declared candidate key its equalities
//! cover (through a key, each delta row matches at most one row) and
//! runs the planner's join method otherwise. Neither a license nor a
//! delta plan reads statistics, so `ANALYZE` leaves a view as it is.
//! Three tiers, in decreasing strength of what the catalog lets us
//! prove:
//!
//! * **Set** (refcount-free fast path): licensed only when Algorithm 1
//!   (`unique_projection`) *and* the U-semiring checker
//!   ([`uniq_proof::check_equiv`]) certify the block duplicate-free.
//!   With every result multiplicity 0/1, the state is a plain
//!   [`HashSet`] — no reference counts — and each delta derivation is
//!   a genuinely new view row. The [`ProofStatus`] that granted the
//!   license is recorded on the view.
//! * **Counting** (honest fallback): subquery-free blocks and set
//!   operations keep signed multiplicity maps per node;
//!   `INTERSECT`/`EXCEPT`/`UNION` deltas difference the SQL2
//!   `output_count` across the child update, which is how an
//!   insert-only base can still *delete* view rows under `EXCEPT`.
//! * **Recompute**: anything with subqueries (possibly non-monotone) or
//!   output clauses re-runs the query and diffs multisets — correct by
//!   construction, with the full cost booked to the view's counters.
//!
//! License-not-promise: the tier is chosen at subscribe time but
//! re-verified on every round — a catalog version change (DDL,
//! `TRUNCATE`) makes `maintain` demand a rebuild instead of trusting
//! the stale proof, and the executor re-checks a delta plan's index or
//! key probe against the *live* catalog, as it does every index probe.

use crate::exec::Executor;
use crate::plancache::CachedPlan;
use crate::serve::Core;
use crate::setops::output_count;
use crate::stats::ExecStats;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use uniq_catalog::{Database, Row};
use uniq_core::analysis::unique_projection;
use uniq_cost::{plan_delta, BlockPlan, PlannerOptions};
use uniq_plan::{BoundExpr, BoundOutput, BoundQuery, BoundSpec, HostVars};
use uniq_proof::{check_equiv, ProofStatus};
use uniq_sql::{Distinct, SetOp};
use uniq_types::{ColumnName, Error, Result, TableName};

/// One maintenance round's net effect on a view, rows sorted in
/// `Value`'s canonical order so pushed frames are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewDelta {
    /// Rows that entered the view (with multiplicity, for `ALL` views).
    pub inserted: Vec<Row>,
    /// Rows that left the view — non-empty only for `EXCEPT` shapes
    /// and subquery fallbacks; insert-only bases cannot shrink a
    /// monotone query.
    pub deleted: Vec<Row>,
}

impl ViewDelta {
    /// No net change?
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }

    /// Total rows changed (insertions plus deletions).
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }
}

/// Which maintenance tier a view runs on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// Refcount-free `HashSet` state; requires the 0/1-multiplicity
    /// license from Algorithm 1 + the proof checker.
    Set,
    /// Signed multiplicity maps per query node.
    Counting,
    /// Full re-evaluation + multiset diff.
    Recompute,
}

impl MaintenanceMode {
    /// Lowercase tag for wire frames and EXPLAIN.
    pub fn tag(&self) -> &'static str {
        match self {
            MaintenanceMode::Set => "set",
            MaintenanceMode::Counting => "counting",
            MaintenanceMode::Recompute => "recompute",
        }
    }
}

/// What `MaterializedView::maintain` decided about one publish.
#[derive(Debug)]
pub(crate) enum MaintainOutcome {
    /// The head is the view's base (or shares every table): no work.
    Unchanged,
    /// Delta maintenance ran; the delta may still be empty (filtered
    /// inserts). `work` is this round's cost alone.
    Delta {
        /// Net view change.
        delta: ViewDelta,
        /// Counters for this round only (also merged into the view).
        work: ExecStats,
    },
    /// The catalog changed under the view — the license and the bound
    /// tree are stale. The owner must re-bind, re-license and rebuild.
    NeedsRebuild,
}

/// The per-node incremental state of a counting-tier view.
#[derive(Debug)]
enum NodeState {
    /// A block: multiset of *pre-distinct* projected rows. The
    /// node's output applies the block's own `DISTINCT` on top.
    Spec {
        distinct: Distinct,
        terms: DeltaTerms,
        counts: HashMap<Row, i64>,
    },
    /// A set operation over two child states, caching each child's
    /// output multiset so `output_count` can be differenced.
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<NodeState>,
        right: Box<NodeState>,
        lcounts: HashMap<Row, i64>,
        rcounts: HashMap<Row, i64>,
    },
}

/// A subscribed query kept incrementally materialized. It keeps no plan
/// or executor of its own for a whole query: it holds its plan-cache
/// entry, and every whole-query run goes through the serving path.
#[derive(Debug)]
pub(crate) struct MaterializedView {
    /// Canonical SQL: the subscribe key, and the text a recompute round
    /// reads and a rebuild compiles.
    sql: String,
    /// The view's plan-cache entry: its output columns, and the optimized
    /// query (body plus aggregation / `ORDER BY` / `LIMIT` clauses)
    /// whose body the delta tiers interpret. The delta tiers require a
    /// plain body; anything with output clauses runs on the recompute
    /// tier.
    plan: Arc<CachedPlan>,
    mode: MaintenanceMode,
    /// The proof that granted the tier: `Proved` on the set fast path,
    /// `PropertyTested` (with the obstruction) on the fallbacks.
    license: ProofStatus,
    state: ViewState,
    /// The snapshot the state is consistent with.
    base: Arc<Database>,
    /// Cumulative maintenance work since subscribe.
    stats: ExecStats,
}

#[derive(Debug)]
enum ViewState {
    Set(HashSet<Row>, DeltaTerms),
    Counting(NodeState),
    Full(HashMap<Row, i64>),
}

/// Expand a signed multiset into its non-negative rows.
fn expand(counts: &HashMap<Row, i64>) -> Vec<Row> {
    (counts.iter())
        .flat_map(|(row, &n)| std::iter::repeat_n(row.clone(), n.max(0) as usize))
        .collect()
}

/// Diff `after − before` as a signed multiset.
fn multiset_diff(before: &HashMap<Row, i64>, after: &HashMap<Row, i64>) -> HashMap<Row, i64> {
    let mut delta: HashMap<Row, i64> = HashMap::new();
    for (row, &n) in after {
        let change = n - before.get(row).copied().unwrap_or(0);
        if change != 0 {
            delta.insert(row.clone(), change);
        }
    }
    for (row, &n) in before {
        if !after.contains_key(row) && n != 0 {
            delta.insert(row.clone(), -n);
        }
    }
    delta
}

/// Turn a signed output delta into a [`ViewDelta`], each side sorted in
/// `Value`'s canonical total order (refines `=̇`).
fn signed_to_delta(signed: HashMap<Row, i64>) -> ViewDelta {
    let mut delta = ViewDelta::default();
    for (row, n) in signed {
        let side = if n > 0 {
            &mut delta.inserted
        } else {
            &mut delta.deleted
        };
        side.extend(std::iter::repeat_n(row, n.unsigned_abs() as usize));
    }
    delta.inserted.sort();
    delta.deleted.sort();
    delta
}

/// Multiset-diff two row collections into a [`ViewDelta`] (used when a
/// view is rebuilt after DDL and the old/new states must be reconciled
/// for subscribers).
pub(crate) fn diff_rows(before: Vec<Row>, after: Vec<Row>) -> ViewDelta {
    signed_to_delta(multiset_diff(&count_rows(before), &count_rows(after)))
}

fn count_rows(rows: Vec<Row>) -> HashMap<Row, i64> {
    let mut counts: HashMap<Row, i64> = HashMap::new();
    for row in rows {
        *counts.entry(row).or_insert(0) += 1;
    }
    counts
}

/// Does any predicate in the tree contain a subquery? Subqueries make
/// the query potentially non-monotone (`NOT EXISTS`), and their
/// evaluation consults whole tables — both disqualify delta tiers.
fn query_has_subquery(query: &BoundQuery) -> bool {
    match query {
        BoundQuery::Spec(spec) => spec.predicate.as_ref().is_some_and(|p| p.has_subquery()),
        BoundQuery::SetOp { left, right, .. } => {
            query_has_subquery(left) || query_has_subquery(right)
        }
    }
}

/// Every base table the query reads, tree-wide — `FROM` lists *and*
/// predicate subqueries (a `NOT EXISTS` view changes when the inner
/// table grows, even though it is not in any `FROM`). Duplicates kept:
/// self-joins read the table once per occurrence.
pub fn base_tables(query: &BoundQuery) -> Vec<TableName> {
    fn expr(e: &BoundExpr, out: &mut Vec<TableName>) {
        match e {
            BoundExpr::Exists { subquery, .. } | BoundExpr::InSubquery { subquery, .. } => {
                spec(subquery, out)
            }
            BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
                expr(a, out);
                expr(b, out);
            }
            BoundExpr::Not(a) => expr(a, out),
            _ => {}
        }
    }
    fn spec(s: &BoundSpec, out: &mut Vec<TableName>) {
        for ft in &s.from {
            out.push(ft.schema.name.clone());
        }
        if let Some(p) = &s.predicate {
            expr(p, out);
        }
    }
    fn go(query: &BoundQuery, out: &mut Vec<TableName>) {
        match query {
            BoundQuery::Spec(s) => spec(s, out),
            BoundQuery::SetOp { left, right, .. } => {
                go(left, out);
                go(right, out);
            }
        }
    }
    let mut out = Vec::new();
    go(query, &mut out);
    out
}

/// Decide the maintenance tier for an optimized query, returning the
/// mode together with the [`ProofStatus`] that justifies it.
///
/// The set fast path demands *both* certificates: Algorithm 1's FD
/// closure must cover a candidate key of every table (so the block is
/// duplicate-free), and the symbolic checker must prove
/// `π_Dist(block) ≡ π_All(block)` from the schema axioms. Either one
/// alone falling short downgrades to counting — the license is a
/// theorem or it is not granted.
///
/// Aggregation / `ORDER BY` / `LIMIT` outputs route to the honest
/// recompute tier: an insert can *change* an existing aggregate row
/// (not just add one), which the insert-only delta operators cannot
/// express. Incremental aggregate maintenance (differencing per-group
/// partial states) is a ROADMAP follow-up.
pub fn license_view(query: &BoundOutput) -> (MaintenanceMode, ProofStatus) {
    if query.as_plain().is_none() {
        return (
            MaintenanceMode::Recompute,
            ProofStatus::PropertyTested {
                reason: "aggregate/order/limit output: recompute maintenance".into(),
            },
        );
    }
    license_body(&query.body)
}

/// [`license_view`] for a plain query body.
fn license_body(query: &BoundQuery) -> (MaintenanceMode, ProofStatus) {
    if query_has_subquery(query) {
        return (
            MaintenanceMode::Recompute,
            ProofStatus::PropertyTested {
                reason: "subquery in predicate: delta evaluation unavailable".into(),
            },
        );
    }
    if let BoundQuery::Spec(spec) = query {
        let report = unique_projection(spec);
        if report.unique {
            let mut as_distinct = (**spec).clone();
            as_distinct.distinct = Distinct::Distinct;
            let mut as_all = (**spec).clone();
            as_all.distinct = Distinct::All;
            let verdict = check_equiv(
                &BoundQuery::Spec(Box::new(as_distinct)),
                &BoundQuery::Spec(Box::new(as_all)),
            );
            if verdict.is_proved() {
                return (MaintenanceMode::Set, verdict.into_status());
            }
            return (
                MaintenanceMode::Counting,
                verdict.into_status(), // honest: Algorithm 1 said yes, the checker could not
            );
        }
        return (
            MaintenanceMode::Counting,
            ProofStatus::PropertyTested {
                reason: report.reason,
            },
        );
    }
    (
        MaintenanceMode::Counting,
        ProofStatus::PropertyTested {
            reason: "set operation: counting maintenance".into(),
        },
    )
}

impl NodeState {
    /// Materialize the initial state bottom-up from `core`'s database,
    /// each block as a query `core` plans and runs.
    fn init(query: &BoundQuery, core: &Core, stats: &mut ExecStats) -> Result<NodeState> {
        match query {
            BoundQuery::Spec(spec) => {
                // The node tracks the *pre-distinct* multiset; its
                // output applies the block's DISTINCT on read.
                let terms = DeltaTerms::new(spec, core.planner);
                let as_all = BoundOutput::plain(BoundQuery::Spec(Box::new(terms.spec.clone())));
                let plan = core.plan(&as_all);
                let (rows, _) = core.run(&as_all, &plan, &HostVars::new(), stats)?;
                Ok(NodeState::Spec {
                    distinct: spec.distinct,
                    terms,
                    counts: count_rows(rows),
                })
            }
            BoundQuery::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let lstate = NodeState::init(left, core, stats)?;
                let rstate = NodeState::init(right, core, stats)?;
                let lcounts = lstate.output();
                let rcounts = rstate.output();
                Ok(NodeState::SetOp {
                    op: *op,
                    all: *all,
                    left: Box::new(lstate),
                    right: Box::new(rstate),
                    lcounts,
                    rcounts,
                })
            }
        }
    }

    /// The node's current output multiset.
    fn output(&self) -> HashMap<Row, i64> {
        match self {
            NodeState::Spec {
                distinct, counts, ..
            } => match distinct {
                Distinct::All => counts.clone(),
                Distinct::Distinct => counts
                    .iter()
                    .filter(|(_, &n)| n > 0)
                    .map(|(row, _)| (row.clone(), 1))
                    .collect(),
            },
            NodeState::SetOp {
                op,
                all,
                lcounts,
                rcounts,
                ..
            } => {
                let mut out = HashMap::new();
                for row in lcounts.keys().chain(rcounts.keys()) {
                    if out.contains_key(row) {
                        continue;
                    }
                    let j = lcounts.get(row).copied().unwrap_or(0).max(0) as usize;
                    let k = rcounts.get(row).copied().unwrap_or(0).max(0) as usize;
                    let n = output_count(*op, *all, j, k);
                    if n > 0 {
                        out.insert(row.clone(), n as i64);
                    }
                }
                out
            }
        }
    }

    /// Apply one publish's base deltas, updating internal counts and
    /// returning the signed *output* delta of this node.
    fn delta(
        &mut self,
        old: &Database,
        new: &Database,
        stats: &mut ExecStats,
    ) -> Result<HashMap<Row, i64>> {
        match self {
            NodeState::Spec {
                distinct,
                terms,
                counts,
            } => {
                let mut out: HashMap<Row, i64> = HashMap::new();
                for row in terms.eval(old, new, stats)? {
                    let n = counts.entry(row.clone()).or_insert(0);
                    *n += 1;
                    // A subquery-free block is monotone: derivations
                    // only ever add. DISTINCT emits on the 0→1 edge.
                    let emits = match distinct {
                        Distinct::All => 1,
                        Distinct::Distinct => i64::from(*n == 1),
                    };
                    if emits > 0 {
                        *out.entry(row).or_insert(0) += emits;
                    }
                }
                Ok(out)
            }
            NodeState::SetOp {
                op,
                all,
                left,
                right,
                lcounts,
                rcounts,
            } => {
                let ldelta = left.delta(old, new, stats)?;
                let rdelta = right.delta(old, new, stats)?;
                let mut out: HashMap<Row, i64> = HashMap::new();
                for row in ldelta.keys().chain(rdelta.keys()) {
                    if out.contains_key(row) {
                        continue;
                    }
                    let j0 = lcounts.get(row).copied().unwrap_or(0);
                    let k0 = rcounts.get(row).copied().unwrap_or(0);
                    let j1 = j0 + ldelta.get(row).copied().unwrap_or(0);
                    let k1 = k0 + rdelta.get(row).copied().unwrap_or(0);
                    let before = output_count(*op, *all, j0.max(0) as usize, k0.max(0) as usize);
                    let after = output_count(*op, *all, j1.max(0) as usize, k1.max(0) as usize);
                    let change = after as i64 - before as i64;
                    if change != 0 {
                        out.insert(row.clone(), change);
                    }
                }
                for (row, d) in ldelta {
                    *lcounts.entry(row).or_insert(0) += d;
                }
                for (row, d) in rdelta {
                    *rcounts.entry(row).or_insert(0) += d;
                }
                Ok(out)
            }
        }
    }
}

/// A block's delta terms, each planned once by [`plan_delta`]: term `i`
/// is the summand ΔQᵢ whose `FROM` position `i` reads the rows a publish
/// appended.
#[derive(Debug)]
struct DeltaTerms {
    /// The block without its `DISTINCT`: the terms yield derivations.
    spec: BoundSpec,
    plans: Vec<BlockPlan>,
}

impl DeltaTerms {
    fn new(spec: &BoundSpec, planner: PlannerOptions) -> DeltaTerms {
        let mut spec = spec.clone();
        spec.distinct = Distinct::All;
        let plans = (0..spec.from.len())
            .map(|i| plan_delta(&spec, i, planner))
            .collect();
        DeltaTerms { spec, plans }
    }

    /// The new derivations of the block's projected rows between two
    /// adjacent snapshots. Term `i` runs when position `i`'s table grew;
    /// positions before `i` read the whole new table, positions after it
    /// the old one, which [`Database::table_delta`] guarantees is a
    /// prefix of the new. So no derivation is counted twice.
    fn eval(&self, old: &Database, new: &Database, stats: &mut ExecStats) -> Result<Vec<Row>> {
        // Each position's rows in `new` and its row count in `old`.
        let mut tables = Vec::with_capacity(self.plans.len());
        for ft in &self.spec.from {
            let rows = new.rows(&ft.schema.name)?;
            let delta = (old.table_delta(new, &ft.schema.name))
                .ok_or_else(|| Error::internal("snapshot pair is not insert-only"))?;
            tables.push((rows, rows.len() - delta.len()));
        }
        let hostvars = HostVars::new();
        let mut executor = Executor::new(new, &hostvars);
        let mut out = Vec::new();
        for (i, plan) in self.plans.iter().enumerate() {
            let (rows, old_len) = tables[i];
            if rows.len() == old_len {
                continue; // nothing appended: the term is empty
            }
            let slices: Vec<_> = (tables.iter().enumerate())
                .map(|(t, &(rows, old_len))| match t.cmp(&i) {
                    Ordering::Less => rows,
                    Ordering::Equal => rows.range(old_len..),
                    Ordering::Greater => rows.range(..old_len),
                })
                .collect();
            out.extend(executor.block_rows(&self.spec, plan, Some(&slices))?);
        }
        stats.merge(&executor.stats);
        Ok(out)
    }
}

impl MaterializedView {
    /// Compile `sql` through `core`'s plan cache, pick its maintenance
    /// tier and materialize it against `base`, the database `core`
    /// serves.
    pub fn new(core: &Core, base: &Arc<Database>, sql: &str) -> Result<MaterializedView> {
        let prepared = core.prepare(sql)?;
        let plan = prepared.plan;
        let (mode, license) = license_view(&plan.query);
        let query = &plan.query;
        let mut stats = ExecStats::new();
        // The delta tiers are only ever granted for plain outputs, so
        // they may read `query.body` as the whole query.
        let state = match mode {
            MaintenanceMode::Set => {
                let spec = (query.body.as_spec())
                    .ok_or_else(|| Error::internal("set-tier view must be a single block"))?;
                let (rows, _) = core.run(query, &plan.physical, &HostVars::new(), &mut stats)?;
                ViewState::Set(
                    rows.into_iter().collect(),
                    DeltaTerms::new(spec, core.planner),
                )
            }
            MaintenanceMode::Counting => {
                ViewState::Counting(NodeState::init(&query.body, core, &mut stats)?)
            }
            MaintenanceMode::Recompute => {
                let (rows, _) = core.run(query, &plan.physical, &HostVars::new(), &mut stats)?;
                ViewState::Full(count_rows(rows))
            }
        };
        Ok(MaterializedView {
            sql: prepared.canonical,
            plan,
            mode,
            license,
            state,
            base: Arc::clone(base),
            stats,
        })
    }

    /// The canonical SQL this view materializes.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Output column names.
    pub fn columns(&self) -> &[ColumnName] {
        &self.plan.columns
    }

    /// The maintenance tier in force.
    pub fn mode(&self) -> MaintenanceMode {
        self.mode
    }

    /// The proof that granted (or refused) the refcount-free tier.
    pub fn license(&self) -> &ProofStatus {
        &self.license
    }

    /// Cumulative maintenance work since subscribe (initial
    /// materialization included).
    pub fn work(&self) -> ExecStats {
        self.stats
    }

    /// Every base table the view reads (subquery tables included).
    pub fn tables(&self) -> Vec<TableName> {
        base_tables(&self.plan.query.body)
    }

    /// The view's current contents as a multiset, canonically sorted.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = match &self.state {
            ViewState::Set(rows, _) => rows.iter().cloned().collect(),
            ViewState::Counting(node) => expand(&node.output()),
            ViewState::Full(counts) => expand(counts),
        };
        rows.sort();
        rows
    }

    /// Advance the view from its base snapshot to `head`, the database
    /// `core` serves, returning the net change. O(1) when every table is
    /// untouched; O(|Δ|) on the delta tiers; a recompute round reads the
    /// view's text through `core`; a catalog version change demands a
    /// rebuild instead (the bound tree and its license no longer
    /// describe the head).
    pub fn maintain(&mut self, core: &Core, head: &Arc<Database>) -> Result<MaintainOutcome> {
        if Arc::ptr_eq(&self.base, head) {
            return Ok(MaintainOutcome::Unchanged);
        }
        if self.base.version() != head.version() {
            return Ok(MaintainOutcome::NeedsRebuild);
        }
        // Pointer-equality fast path: every table untouched ⇒ no work.
        if (self.tables().iter()).all(|t| self.base.shares_storage(head, t)) {
            self.base = Arc::clone(head);
            return Ok(MaintainOutcome::Unchanged);
        }
        let mut work = ExecStats::new();
        let delta = match &mut self.state {
            ViewState::Set(rows, terms) => {
                let mut inserted = Vec::new();
                for row in terms.eval(&self.base, head, &mut work)? {
                    // Under a valid 0/1 license every new derivation is
                    // a new view row; a collision would mean the proof
                    // was wrong, so it is surfaced loudly in debug.
                    let fresh = rows.insert(row.clone());
                    debug_assert!(fresh, "0/1-multiplicity license violated for {row:?}");
                    if fresh {
                        inserted.push(row);
                    }
                }
                inserted.sort();
                ViewDelta {
                    inserted,
                    deleted: Vec::new(),
                }
            }
            ViewState::Counting(node) => {
                let signed = node.delta(&self.base, head, &mut work)?;
                signed_to_delta(signed)
            }
            ViewState::Full(counts) => {
                let out = core.query(&self.sql, &HostVars::new())?;
                work.merge(&out.stats);
                let after = count_rows(out.rows);
                let signed = multiset_diff(counts, &after);
                *counts = after;
                signed_to_delta(signed)
            }
        };
        work.view_updates += delta.len() as u64;
        self.stats.merge(&work);
        self.base = Arc::clone(head);
        Ok(MaintainOutcome::Delta { delta, work })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plancache::PlanCache;
    use crate::serve::Analysis;
    use uniq_core::pipeline::OptimizerOptions;
    use uniq_types::Value;

    /// Run `f` on an unanalyzed serving path over `db` with a fresh plan
    /// cache and `optimizer`'s rewrites.
    fn serving<T>(db: &Database, optimizer: OptimizerOptions, f: impl FnOnce(&Core) -> T) -> T {
        let cache = PlanCache::default();
        f(&Core {
            db,
            cache: &cache,
            optimizer,
            planner: PlannerOptions::default(),
            analysis: &Analysis::default(),
        })
    }

    fn view_with(db: &Arc<Database>, sql: &str, optimizer: OptimizerOptions) -> MaterializedView {
        serving(db, optimizer, |core| MaterializedView::new(core, db, sql)).unwrap()
    }

    fn view(db: &Arc<Database>, sql: &str) -> MaterializedView {
        view_with(db, sql, OptimizerOptions::relational())
    }

    /// One maintenance round of `v` to `head`.
    fn maintain(v: &mut MaterializedView, head: &Arc<Database>) -> MaintainOutcome {
        serving(head, OptimizerOptions::relational(), |core| {
            v.maintain(core, head)
        })
        .unwrap()
    }

    fn sample() -> Arc<Database> {
        Arc::new(uniq_catalog::sample::supplier_database().unwrap())
    }

    fn advance(db: &Arc<Database>, script: &str) -> Arc<Database> {
        let mut next = (**db).clone();
        next.run_script(script).unwrap();
        Arc::new(next)
    }

    fn oracle(db: &Database, sql: &str) -> Vec<Row> {
        let out = serving(db, OptimizerOptions::relational(), |core| {
            core.query(sql, &HostVars::new())
        });
        let mut rows = out.unwrap().rows;
        rows.sort();
        rows
    }

    #[test]
    fn key_covered_join_gets_the_set_license() {
        let db = sample();
        let v = view(
            &db,
            "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
        );
        assert_eq!(v.mode(), MaintenanceMode::Set);
        assert!(v.license().is_proved(), "license is a theorem");
        assert_eq!(v.license().marker(), "✓");
    }

    #[test]
    fn non_unique_projection_falls_back_to_counting() {
        let db = sample();
        let v = view(&db, "SELECT S.SCITY FROM SUPPLIER S");
        assert_eq!(v.mode(), MaintenanceMode::Counting);
        assert!(!v.license().is_proved());
    }

    #[test]
    fn subqueries_force_recompute() {
        let db = sample();
        let v = view(
            &db,
            "SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS \
             (SELECT P.PNO FROM PARTS P WHERE P.SNO = S.SNO)",
        );
        assert_eq!(v.mode(), MaintenanceMode::Recompute);
    }

    #[test]
    fn set_tier_maintains_by_key_probe() {
        let db = sample();
        let sql = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
        let mut v = view(&db, sql);
        let before = v.rows();
        let head = advance(
            &db,
            "INSERT INTO PARTS VALUES (1, 77, 'gasket', 120, 'RED');",
        );
        let MaintainOutcome::Delta { delta, work } = maintain(&mut v, &head) else {
            panic!("expected a delta");
        };
        assert_eq!(delta.inserted, vec![vec![Value::Int(1), Value::Int(77)]]);
        assert!(delta.deleted.is_empty());
        assert_eq!(work.delta_rows, 1, "one delta row consumed");
        assert!(work.probe_steps >= 1, "supplier side probed by key");
        assert_eq!(
            work.rows_scanned, 0,
            "no table scan on the key-probe path: {work:?}"
        );
        assert!(before.len() + 1 == v.rows().len());
        assert_eq!(v.rows(), oracle(&head, sql));
    }

    #[test]
    fn delta_terms_probe_a_covering_index() {
        // A SUPPLIER insert joins PARTS through IDX_P_SNO on both delta
        // tiers instead of scanning PARTS.
        let db = advance(&sample(), "CREATE INDEX IDX_P_SNO ON PARTS (SNO);");
        let head = advance(
            &db,
            "INSERT INTO SUPPLIER VALUES (9, 'Nine', 'Toronto', 1, 'Active');",
        );
        for (mode, sql) in [
            (
                MaintenanceMode::Set,
                "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
            ),
            (
                MaintenanceMode::Counting,
                "SELECT DISTINCT P.COLOR, S.SCITY FROM PARTS P, SUPPLIER S WHERE P.SNO = S.SNO",
            ),
        ] {
            let mut v = view(&db, sql);
            assert_eq!(v.mode(), mode, "{sql}");
            let MaintainOutcome::Delta { work, .. } = maintain(&mut v, &head) else {
                panic!("expected a delta round");
            };
            assert!(work.ix_probes >= 1, "{sql}: {work:?}");
            assert_eq!(work.rows_scanned, 0, "{sql}: {work:?}");
            assert_eq!(v.rows(), oracle(&head, sql), "{sql}");
        }
    }

    #[test]
    fn null_delta_keys_join_nothing_and_book_no_probe() {
        // R joins K through K's nullable UNIQUE key A, which holds a NULL.
        let db = advance(
            &sample(),
            "CREATE TABLE K (A INTEGER, B INTEGER, UNIQUE (A));
             CREATE TABLE R (X INTEGER, Y INTEGER);
             INSERT INTO K VALUES (1, 10), (NULL, 20);
             INSERT INTO R VALUES (1, 5), (NULL, 6);",
        );
        let sql = "SELECT R.Y, K.B FROM R R, K K WHERE R.X = K.A";
        let mut v = view(&db, sql);
        let head = advance(&db, "INSERT INTO R VALUES (NULL, 7);");
        let MaintainOutcome::Delta { delta, work } = maintain(&mut v, &head) else {
            panic!("expected a delta round");
        };
        assert!(delta.is_empty(), "NULL = NULL is not true: {delta:?}");
        let booked = (work.delta_rows, work.ix_probes, work.probe_steps);
        assert_eq!(booked, (1, 0, 0), "{work:?}");
        assert_eq!(v.rows(), oracle(&head, sql));
        // A non-NULL key probes the declared key once.
        let head = advance(&head, "INSERT INTO R VALUES (1, 8);");
        let MaintainOutcome::Delta { delta, work } = maintain(&mut v, &head) else {
            panic!("expected a delta round");
        };
        assert_eq!(delta.inserted, vec![vec![Value::Int(8), Value::Int(10)]]);
        let booked = (work.ix_probes, work.probe_steps, work.rows_scanned);
        assert_eq!(booked, (1, 1, 0), "{work:?}");
        assert_eq!(v.rows(), oracle(&head, sql));
    }

    #[test]
    fn untouched_tables_cost_one_pointer_compare() {
        let db = sample();
        let sql = "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";
        let mut v = view(&db, sql);
        // AGENTS is not in the view: its insert must be a no-op round.
        let head = advance(&db, "INSERT INTO AGENTS VALUES (1, 9, 'Zed', 'Ottawa');");
        assert!(matches!(
            maintain(&mut v, &head),
            MaintainOutcome::Unchanged
        ));
        assert_eq!(v.base.version(), head.version());
    }

    #[test]
    fn ddl_demands_a_rebuild() {
        let db = sample();
        let mut v = view(&db, "SELECT DISTINCT S.SNO FROM SUPPLIER S");
        let head = advance(&db, "CREATE TABLE Z (A INTEGER, PRIMARY KEY (A));");
        assert!(matches!(
            maintain(&mut v, &head),
            MaintainOutcome::NeedsRebuild
        ));
    }

    #[test]
    fn counting_tier_tracks_distinct_transitions() {
        let db = sample();
        let sql = "SELECT DISTINCT S.SNAME FROM SUPPLIER S";
        let mut v = view(&db, sql);
        assert_eq!(v.mode(), MaintenanceMode::Counting);
        // A third 'Acme': no new distinct name.
        let head = advance(
            &db,
            "INSERT INTO SUPPLIER VALUES (9, 'Acme', 'Toronto', 1, 'Active');",
        );
        let MaintainOutcome::Delta { delta, .. } = maintain(&mut v, &head) else {
            panic!("expected a delta round");
        };
        assert!(delta.is_empty(), "duplicate name adds nothing: {delta:?}");
        // A genuinely new name crosses the 0→1 edge.
        let head2 = advance(
            &head,
            "INSERT INTO SUPPLIER VALUES (10, 'Zeta', 'Chicago', 1, 'Active');",
        );
        let MaintainOutcome::Delta { delta, .. } = maintain(&mut v, &head2) else {
            panic!("expected a delta round");
        };
        assert_eq!(delta.inserted, vec![vec![Value::Str("Zeta".into())]]);
        assert_eq!(v.rows(), oracle(&head2, sql));
    }

    #[test]
    fn except_view_can_delete_under_insert_only_bases() {
        let db = sample();
        let sql = "SELECT S.SNO FROM SUPPLIER S EXCEPT SELECT P.SNO FROM PARTS P";
        // Compile without rewrites: the rewrite pipeline may turn EXCEPT
        // into an anti-join subquery (Recompute tier); the raw set-op
        // tree exercises the counting delta operators.
        let mut v = view_with(&db, sql, OptimizerOptions::disabled());
        assert_eq!(v.mode(), MaintenanceMode::Counting);
        let survivors = v.rows();
        assert!(!survivors.is_empty(), "some supplier ships nothing");
        let lone = survivors[0][0].clone();
        let Value::Int(sno) = lone else { panic!() };
        let head = advance(
            &db,
            &format!("INSERT INTO PARTS VALUES ({sno}, 90, 'new', 121, 'BLUE');"),
        );
        let MaintainOutcome::Delta { delta, .. } = maintain(&mut v, &head) else {
            panic!("expected a delta round");
        };
        assert_eq!(delta.deleted, vec![vec![Value::Int(sno)]]);
        assert_eq!(v.rows(), oracle(&head, sql));
    }

    #[test]
    fn aggregate_views_route_to_recompute_and_diff_honestly() {
        let db = sample();
        let sql = "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SCITY";
        let mut v = view(&db, sql);
        assert_eq!(v.mode(), MaintenanceMode::Recompute);
        assert!(!v.license().is_proved());
        let ProofStatus::PropertyTested { reason } = v.license() else {
            panic!("expected the recompute obstruction");
        };
        assert!(reason.contains("aggregate/order/limit"), "{reason}");
        let before = v.rows();
        let head = advance(
            &db,
            "INSERT INTO SUPPLIER VALUES (9, 'Nine', 'Toronto', 1, 'Active');",
        );
        let MaintainOutcome::Delta { delta, .. } = maintain(&mut v, &head) else {
            panic!("expected a delta round");
        };
        // Toronto's count row is *replaced*: one delete + one insert —
        // the shape the insert-only delta tiers cannot express.
        assert_eq!(delta.deleted.len(), 1, "{delta:?}");
        assert_eq!(delta.inserted.len(), 1, "{delta:?}");
        assert_ne!(v.rows(), before);
        assert_eq!(v.rows(), oracle(&head, sql));
    }

    #[test]
    fn recompute_tier_agrees_with_oracle() {
        let db = sample();
        let sql = "SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS \
                   (SELECT P.PNO FROM PARTS P WHERE P.SNO = S.SNO)";
        let mut v = view(&db, sql);
        let head = advance(&db, "INSERT INTO PARTS VALUES (5, 91, 'new', 122, 'BLUE');");
        match maintain(&mut v, &head) {
            MaintainOutcome::Delta { .. } | MaintainOutcome::Unchanged => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(v.rows(), oracle(&head, sql));
    }

    #[test]
    fn self_join_deltas_telescope_without_double_counting() {
        let db = sample();
        // Pairs of parts shipped by the same supplier (self-join).
        let sql = "SELECT P.PNO, Q.PNO FROM PARTS P, PARTS Q \
                   WHERE P.SNO = Q.SNO AND P.PNO < Q.PNO";
        let mut v = view(&db, sql);
        let head = advance(
            &db,
            "INSERT INTO PARTS VALUES (1, 78, 'bolt', 123, 'RED'); \
             INSERT INTO PARTS VALUES (1, 79, 'nut', 124, 'BLUE');",
        );
        let MaintainOutcome::Delta { .. } = maintain(&mut v, &head) else {
            panic!("expected a delta round");
        };
        assert_eq!(v.rows(), oracle(&head, sql));
    }
}
