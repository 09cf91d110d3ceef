//! The executor. It runs [`PhysicalPlan`]s and makes no physical
//! choice of its own: join order, join and distinct methods, index
//! access and the early stop all come from the plan.
//!
//! Every planned block runs through one pipeline. A bound block
//! `π_d[A](σ[C](T0 × T1 × …))` executes left-deep over the `FROM`
//! tables in the plan's join order and carries tuples of row ids: one
//! `u32` per placed table, in plan order, stored flat. Each top-level
//! conjunct of `C` is assigned to the earliest pipeline position at
//! which every table it references is placed. The pipeline reads the
//! block's tables through one of two access methods, chosen per block:
//!
//! * **encoded** — the column store's encodings, when the plan licenses
//!   the block, the store is fresh and every conjunct compiles (see
//!   [`crate::columnar`]). Scans and build sides are vectorized
//!   filters, join keys are dictionary codes or integers, `DISTINCT`
//!   and grouping hash code words, and only output rows are decoded;
//! * **rows** — the stored rows, otherwise. The scan may go through a
//!   planned index; a join step probes an index, re-scans the table
//!   (nested loop), hashes borrowed values or forms a cross product;
//!   every conjunct is evaluated on the rows the tuple's ids point to,
//!   and only output rows are copied. This access is the reference the
//!   agreement suites check the encoded one against.
//!
//! A hash step keys on the equality conjuncts linking the new table to
//! the placed ones (`NULL` join keys excluded on both sides, per
//! `WHERE`-clause `=` semantics). Conjuncts over the new table alone
//! filter its build side; the rest run on the joined tuples.
//!
//! Subquery blocks have no plan node. They run as nested loops through
//! `Executor::enumerate`, over borrowed rows, and see the enclosing
//! blocks' tuples by reference. `EXISTS` stops at its first match — the
//! behaviour §6's navigational arguments rely on.
//!
//! The same pipeline evaluates the delta terms of incremental view
//! maintenance ([`crate::ivm`]). A delta term runs on the rows access
//! under a plan from [`uniq_cost::plan_delta`], and each `FROM` position
//! reads a slice of the head snapshot's rows instead of the whole table:
//! the first position the rows a write appended, scanned and booked as
//! `delta_rows` rather than `rows_scanned`, the others a prefix of their
//! stored rows. An index or candidate-key probe drops positions past the
//! end of its step's slice. Only delta terms probe declared candidate
//! keys ([`Database::lookup_by_key`]); other plans probe secondary
//! indexes alone.

use crate::agg::aggregate;
use crate::columnar::{ColumnStore, Encoded};
use crate::hasher::HashMap;
use crate::setops::{combine_setop, distinct};
use crate::stats::{ExecStats, JoinMethod};
use std::hash::Hash;
use uniq_catalog::{Database, Positions, Row, TableRows};
use uniq_cost::{
    find_index_probe, find_index_sarg, BlockPlan, JoinStep, Justification, OutputOp, PhysNode,
    PhysicalPlan, PlannerOptions, ProbeSource,
};
use uniq_plan::{
    AttrRef, BScalar, BoundAgg, BoundExpr, BoundOutput, BoundQuery, BoundSpec, FromTable, HostVars,
};
use uniq_sql::CmpOp;
use uniq_types::{Error, Result, Tri, Value};

/// Executes bound queries against a database.
pub struct Executor<'a> {
    db: &'a Database,
    hostvars: &'a HostVars,
    /// Columnar encodings of the database, once `ANALYZE` has built them
    /// (see [`crate::columnar::ColumnStore`]). Blocks the planner marked
    /// columnar read them when the store is fresh; every other block,
    /// and every run without a store, reads the stored rows.
    columns: Option<&'a ColumnStore>,
    /// Work counters, accumulated across the whole run.
    pub stats: ExecStats,
    /// Measured per-operator output cardinalities of the last run,
    /// indexed by the plan's [`OpId`](uniq_cost::OpId)s.
    pub(crate) actuals: Vec<u64>,
}

/// A block's output: the encoded access keeps its row-id tuples until a
/// consumer decodes them; the rows access has projected its rows.
enum Block<'a> {
    Encoded(Encoded<'a>, Vec<u32>),
    Rows(Vec<Row>),
}

impl<'a> Executor<'a> {
    /// A fresh executor.
    pub fn new(db: &'a Database, hostvars: &'a HostVars) -> Executor<'a> {
        Executor {
            db,
            hostvars,
            columns: None,
            stats: ExecStats::new(),
            actuals: Vec::new(),
        }
    }

    /// Attach a columnar store for this run. Only blocks whose
    /// [`BlockPlan::columnar`] flag is set consult it, and only after
    /// the store proves fresh against the live database.
    pub fn with_columns(mut self, columns: Option<&'a ColumnStore>) -> Executor<'a> {
        self.columns = columns;
        self
    }

    /// Execute a query under its default fixed plan (the planner's
    /// choice without statistics, for default [`PlannerOptions`]),
    /// returning its result rows.
    pub fn run(&mut self, query: &BoundQuery) -> Result<Vec<Row>> {
        let plan = uniq_cost::plan_query(query, None, PlannerOptions::default());
        self.run_with_plan(query, &plan)
    }

    /// Execute a query under `plan`, recording each operator's actual
    /// output cardinality. A plan that does not mirror the query's shape
    /// is an internal error.
    pub fn run_with_plan(&mut self, query: &BoundQuery, plan: &PhysicalPlan) -> Result<Vec<Row>> {
        self.actuals = vec![0; plan.ops.len()];
        let rows = self.exec_query(query, &plan.root)?;
        self.stats.rows_output += rows.len() as u64;
        Ok(rows)
    }

    /// Execute a full query — body plus aggregation / `ORDER BY` /
    /// `LIMIT` output clauses — under `plan`, recording the actual
    /// cardinalities of its [`OutputOp`]s too.
    ///
    /// An `ORDER BY key-prefix LIMIT k` whose plan carries a live
    /// early-stop license walks the ordered index and stops after `k`
    /// emitted rows (booking `early_stops` / `topk_rows_examined`).
    /// Otherwise the body runs, an aggregate groups it — on code words
    /// under the encoded access, with the proof-elided zero-hash
    /// one-pass where licensed — and the rows are sorted (engine total
    /// order, `NULL`s first) and cut.
    pub fn run_output(&mut self, output: &BoundOutput, plan: &PhysicalPlan) -> Result<Vec<Row>> {
        if let Some(plain) = output.as_plain() {
            return self.run_with_plan(plain, plan);
        }
        self.actuals = vec![0; plan.ops.len()];

        if let Some(rows) = self.early_stop_topk(output, plan)? {
            self.record_output(plan, |op| matches!(op, OutputOp::Limit { .. }), rows.len());
            self.stats.rows_output += rows.len() as u64;
            return Ok(rows);
        }

        let mut rows = match &output.agg {
            Some(agg) => {
                let body = match (output.body.as_spec(), &plan.root) {
                    (Some(spec), PhysNode::Block(bp)) => self.block(spec, bp, None)?,
                    _ => Block::Rows(self.exec_query(&output.body, &plan.root)?),
                };
                self.aggregate(agg, body)?
            }
            None => self.exec_query(&output.body, &plan.root)?,
        };
        self.record_output(plan, |op| matches!(op, OutputOp::Agg { .. }), rows.len());

        if !output.order_by.is_empty() {
            self.sort_rows(&mut rows, &output.order_by)?;
            self.record_output(plan, |op| matches!(op, OutputOp::Sort { .. }), rows.len());
        }

        if let Some(k) = output.limit {
            rows.truncate(k.min(usize::MAX as u64) as usize);
            self.record_output(plan, |op| matches!(op, OutputOp::Limit { .. }), rows.len());
        }

        self.stats.rows_output += rows.len() as u64;
        Ok(rows)
    }

    /// Serve `ORDER BY key-prefix LIMIT k` by walking the ordered index
    /// the plan's `Limit` licenses, in canonical key order (`NULL`s
    /// first — exactly the engine's sort order), and stopping as soon as
    /// `k` rows pass the residual filter. `Ok(None)` means the plan
    /// grants no license or it no longer holds against the live
    /// catalog: the caller scans, sorts and truncates instead, so a
    /// dropped index costs speed, never rows.
    fn early_stop_topk(
        &mut self,
        output: &BoundOutput,
        plan: &PhysicalPlan,
    ) -> Result<Option<Vec<Row>>> {
        let index = plan.output.iter().find_map(|op| match op {
            OutputOp::Limit {
                early_stop: Some(license),
                ..
            } => license.index(),
            _ => None,
        });
        let (Some(k), Some(index), Some(spec), PhysNode::Block(bp)) =
            (output.limit, index, output.body.as_spec(), &plan.root)
        else {
            return Ok(None);
        };
        let table = &spec.from[0];
        if !plan_matches(bp, spec) || !self.index_fresh(table, index) {
            return Ok(None);
        }
        let db = self.db;
        let unbounded = std::ops::Bound::Unbounded;
        let mut ids = db.index_walk(&table.schema.name, index, &[], unbounded, unbounded)?;
        self.stats.ix_probes += 1;
        let rows = Rows::new(db, spec, &bp.order, None)?;
        let mut out: Vec<Row> = Vec::new();
        let mut examined = 0u64;
        for r in ids.by_ref() {
            let tuple = [r as u32];
            examined += 1;
            self.stats.rows_scanned += 1;
            if let Some(pred) = &spec.predicate {
                if self.eval(pred, &rows.scope(&tuple, None))? != Tri::True {
                    continue;
                }
            }
            out.push(rows.project(spec, &tuple)?);
            if out.len() as u64 >= k {
                break;
            }
        }
        self.stats.topk_rows_examined += examined;
        if ids.next().is_some() {
            self.stats.early_stops += 1;
        }
        // The scan stopped at the k-th row it emitted, so the scan and
        // the projection emitted exactly the rows returned.
        self.record(bp.scan, out.len());
        self.record(bp.project, out.len());
        Ok(Some(out))
    }

    /// Stable sort by the output positions in `order` under the engine
    /// total order (`NULL`s first), booking sort work like the
    /// duplicate-elimination sorts do.
    fn sort_rows(&mut self, rows: &mut [Row], order: &[(usize, bool)]) -> Result<()> {
        self.stats.sorts += 1;
        self.stats.rows_sorted += rows.len() as u64;
        let mut cmps = 0u64;
        let mut err = None;
        rows.sort_by(|a, b| {
            cmps += 1;
            for &(p, desc) in order {
                match a[p].null_cmp(&b[p]) {
                    Ok(std::cmp::Ordering::Equal) => continue,
                    Ok(o) => return if desc { o.reverse() } else { o },
                    Err(e) => {
                        err.get_or_insert(e);
                        return std::cmp::Ordering::Equal;
                    }
                }
            }
            std::cmp::Ordering::Equal
        });
        self.stats.sort_comparisons += cmps;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn record(&mut self, id: usize, count: usize) {
        if let Some(slot) = self.actuals.get_mut(id) {
            *slot = count as u64;
        }
    }

    /// Record `count` on the plan's output operator that `kind` selects,
    /// if it has one.
    fn record_output(&mut self, plan: &PhysicalPlan, kind: fn(&OutputOp) -> bool, count: usize) {
        if let Some(op) = plan.output.iter().find(|op| kind(op)) {
            self.record(op.id(), count);
        }
    }

    fn exec_query(&mut self, query: &BoundQuery, node: &PhysNode) -> Result<Vec<Row>> {
        match (query, node) {
            (BoundQuery::Spec(spec), PhysNode::Block(bp)) => self.block_rows(spec, bp, None),
            (
                BoundQuery::SetOp {
                    op,
                    all,
                    left,
                    right,
                },
                PhysNode::SetOp {
                    method,
                    id,
                    left: l_node,
                    right: r_node,
                },
            ) => {
                let l = self.exec_query(left, l_node)?;
                let r = self.exec_query(right, r_node)?;
                let out = combine_setop(*op, *all, l, r, *method, &mut self.stats)?;
                self.record(*id, out.len());
                Ok(out)
            }
            _ => Err(plan_mismatch()),
        }
    }

    /// Group a body's output. Hash grouping keys on code words under the
    /// encoded access and on borrowed values otherwise.
    fn aggregate(&mut self, agg: &BoundAgg, body: Block<'_>) -> Result<Vec<Row>> {
        match body {
            Block::Encoded(enc, ids) => enc.aggregate(agg, &ids, &mut self.stats),
            Block::Rows(rows) => aggregate(
                agg,
                rows.len(),
                |t| &rows[t][..agg.group_count],
                |t, p| rows[t][p].clone(),
                |t, p| non_null(&rows[t][p]).cloned(),
                &mut self.stats,
            ),
        }
    }

    // --- the block pipeline ------------------------------------------------

    /// [`Executor::block`]'s output rows, decoded. With `slices` the block
    /// is a delta term planned by [`uniq_cost::plan_delta`]: `FROM`
    /// position `t` reads `slices[t]`, a prefix of its stored rows,
    /// except the plan's first position, which reads the rows a write
    /// appended and books them as `delta_rows`.
    pub(crate) fn block_rows(
        &mut self,
        spec: &BoundSpec,
        bp: &BlockPlan,
        slices: Option<&[TableRows<'a>]>,
    ) -> Result<Vec<Row>> {
        Ok(match self.block(spec, bp, slices)? {
            Block::Encoded(enc, ids) => enc.materialize(&ids, &mut self.stats),
            Block::Rows(rows) => rows,
        })
    }

    /// Run one planned block: the scan, each join step, the projection
    /// and `DISTINCT`, through the encoded access when the block's
    /// license, the store and its conjuncts allow it, through the stored
    /// rows otherwise. The choice is made before any counter moves.
    /// `slices` makes the block a delta term (see [`Executor::block_rows`]).
    fn block(
        &mut self,
        spec: &BoundSpec,
        bp: &BlockPlan,
        slices: Option<&[TableRows<'a>]>,
    ) -> Result<Block<'a>> {
        if !plan_matches(bp, spec) {
            return Err(plan_mismatch());
        }
        let rows = Rows::new(self.db, spec, &bp.order, slices)?;
        let levels = planned_levels(spec, &rows.attrs);
        let encoded = match self.columns {
            Some(store) if bp.columnar => {
                Encoded::compile(store, self.db, spec, bp, &levels, &rows.attrs)?
            }
            _ => None,
        };

        let mut ids = match &encoded {
            Some(enc) => enc.scan(&mut self.stats),
            None => self.scan(spec, bp, &rows, &levels[0])?,
        };
        self.record(bp.scan, ids.len());
        for (k, step) in (1..).zip(&bp.joins) {
            ids = match &encoded {
                Some(enc) => enc.join(k, step.unique, &ids, &mut self.stats)?,
                None => self.join(spec, &rows, k, bp.order[k], step, &levels[k], &ids)?,
            };
            self.record(step.id, ids.len() / (k + 1));
        }
        let stride = bp.order.len();
        self.record(bp.project, ids.len() / stride);

        // Duplicate elimination: on code words under the encoded access,
        // by the plan's method on projected rows under the rows access.
        // Blocks the optimizer proved duplicate-free carry no step.
        match encoded {
            Some(enc) => {
                if let Some(d) = bp.distinct {
                    ids = enc.distinct(ids, &mut self.stats);
                    self.record(d.id, ids.len() / stride);
                }
                Ok(Block::Encoded(enc, ids))
            }
            None => {
                let mut out = (ids.chunks_exact(stride))
                    .map(|tuple| rows.project(spec, tuple))
                    .collect::<Result<Vec<Row>>>()?;
                if let Some(d) = bp.distinct {
                    out = distinct(out, d.method, &mut self.stats)?;
                    self.record(d.id, out.len());
                }
                Ok(Block::Rows(out))
            }
        }
    }

    /// The rows access's scan: the planned index scan while its license
    /// holds, every stored row otherwise. The level's conjuncts filter
    /// either way; the index only narrows which rows are visited.
    fn scan(
        &mut self,
        spec: &BoundSpec,
        bp: &BlockPlan,
        rows: &Rows<'_>,
        conjuncts: &[&BoundExpr],
    ) -> Result<Vec<u32>> {
        let candidates = match &bp.ixscan {
            Some(info) => self.ix_scan(spec, bp.order[0], conjuncts, info)?,
            None => None,
        };
        let n = candidates.as_ref().map_or(rows.tables[0].len(), Vec::len);
        let mut out = Vec::new();
        for i in 0..n {
            let r = candidates.as_ref().map_or(i, |c| c[i]);
            if rows.delta {
                self.stats.delta_rows += 1;
            } else {
                self.stats.rows_scanned += 1;
            }
            self.extend(rows, &mut out, &[], r as u32, conjuncts)?;
        }
        Ok(out)
    }

    /// One join step of the rows access: join table `t`, at pipeline
    /// position `k`, onto `tuples`. A planned index or key probe runs
    /// while its license holds; otherwise the step's method does. Every
    /// conjunct of the level holds on each tuple emitted.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &mut self,
        spec: &BoundSpec,
        rows: &Rows<'a>,
        k: usize,
        t: usize,
        step: &JoinStep,
        conjuncts: &[&BoundExpr],
        tuples: &[u32],
    ) -> Result<Vec<u32>> {
        let table = &spec.from[t];
        let name = &table.schema.name;
        let placed = |idx: usize| rows.attrs[idx].0 < k;
        let new_rows = rows.tables[k];
        let mut out = Vec::new();
        // The plan names the index or key, but the probe key is
        // re-derived here and checked against the live catalog; on any
        // disagreement the step runs its planned method instead. Only a
        // delta term probes declared keys.
        let probe = step.ix.as_ref().and_then(|info| {
            find_index_probe(spec, t, conjuncts, &placed, rows.delta).filter(|p| {
                let fresh = match &p.key {
                    Some(key) => (self.db.catalog().table(name).ok())
                        .is_some_and(|live| live.candidate_keys().any(|k| &k.columns == key)),
                    None => self.index_fresh(table, &p.index),
                };
                Some(p.index.as_str()) == info.index() && fresh
            })
        });
        if let Some(p) = probe {
            // One probe per tuple, key assembled from placed attributes
            // and constants; a unique target costs exactly one step.
            // Positions past the end of the slice the step reads are
            // rows this tuple may not see.
            let db = self.db;
            'probe: for tuple in tuples.chunks_exact(k) {
                let scope = rows.scope(tuple, None);
                let mut key = Vec::with_capacity(p.sources.len());
                for src in &p.sources {
                    let v = match src {
                        ProbeSource::Outer(idx) => scope.attr(*idx)?,
                        ProbeSource::Const(s) => scalar(self.hostvars, s, &scope)?,
                    };
                    if v.is_null() {
                        continue 'probe; // `=` never matches NULL
                    }
                    key.push(v.clone());
                }
                self.stats.ix_probes += 1;
                let hit;
                let positions: Positions = match &p.key {
                    Some(columns) => {
                        hit = db.lookup_by_key(name, columns, &key)?;
                        hit.as_slice().into()
                    }
                    None => db.index_probe(name, &p.index, &key)?,
                };
                self.stats.probe_steps += if p.unique {
                    1
                } else {
                    positions.len() as u64 + 1
                };
                for r in positions.iter().filter(|&r| r < new_rows.len()) {
                    self.extend(rows, &mut out, tuple, r as u32, conjuncts)?;
                }
            }
            return Ok(out);
        }
        if step.method == JoinMethod::NestedLoop {
            // Re-scan the table once per tuple.
            for tuple in tuples.chunks_exact(k) {
                for r in 0..new_rows.len() {
                    self.stats.rows_scanned += 1;
                    self.extend(rows, &mut out, tuple, r as u32, conjuncts)?;
                }
            }
            return Ok(out);
        }

        // Hash step. Equalities linking a placed attribute to the new
        // table are keys, as (placed slot and column, new column).
        let range = table.attr_range();
        let mut keys = Vec::new();
        let mut own = Vec::new();
        let mut residual = Vec::new();
        for &c in conjuncts {
            if let Some((built, new)) = c.equi_join_key(&range, placed) {
                keys.push((rows.attrs[built], new - range.start));
                continue;
            }
            let mut only_new = true;
            c.visit_attrs(&mut |depth, a| {
                if a.up == depth && !range.contains(&a.idx) {
                    only_new = false;
                }
            });
            // Conjuncts with subqueries always go residual: their
            // evaluation may consult any bound attribute.
            if only_new && !c.has_subquery() {
                own.push(c);
            } else {
                residual.push(c);
            }
        }
        // Build side: the new table's rows that pass its own conjuncts
        // (evaluated with only its slot bound).
        let mut alone = vec![u32::MAX; k + 1];
        let mut build = Vec::new();
        for r in 0..new_rows.len() as u32 {
            self.stats.rows_scanned += 1;
            alone[k] = r;
            if self.keep(&own, &rows.scope(&alone, None))? {
                build.push(r);
            }
        }
        if keys.is_empty() {
            // Cross product with the build side.
            for tuple in tuples.chunks_exact(k) {
                for &b in &build {
                    self.extend(rows, &mut out, tuple, b, &residual)?;
                }
            }
            return Ok(out);
        }
        self.stats.hash_joins += 1;
        let (probes, steps) = hash_join(
            tuples,
            k,
            &build,
            |r| {
                let row = &new_rows[r as usize];
                keys.iter().map(|&(_, col)| non_null(&row[col])).collect()
            },
            |tuple| {
                let cell =
                    |(slot, col): (usize, usize)| &rows.tables[slot][tuple[slot] as usize][col];
                let key: Option<Vec<_>> = keys.iter().map(|&(at, _)| non_null(cell(at))).collect();
                key.map_or(Probe::Null, Probe::Key)
            },
            false,
            |tuple, m| self.extend(rows, &mut out, tuple, m, &residual),
        )?;
        self.stats.hash_probes += probes;
        self.stats.probe_steps += steps;
        Ok(out)
    }

    /// Append `tuple` extended by row `r` to `out` when every conjunct
    /// holds on it.
    fn extend(
        &mut self,
        rows: &Rows<'_>,
        out: &mut Vec<u32>,
        tuple: &[u32],
        r: u32,
        conjuncts: &[&BoundExpr],
    ) -> Result<()> {
        let at = out.len();
        out.extend_from_slice(tuple);
        out.push(r);
        if !self.keep(conjuncts, &rows.scope(&out[at..], None))? {
            out.truncate(at);
        }
        Ok(())
    }

    /// Do all `conjuncts` hold on `scope`, false-interpreted (`⌊P⌋`)?
    /// Stops at the first that does not.
    fn keep(&mut self, conjuncts: &[&BoundExpr], scope: &Scope<'_>) -> Result<bool> {
        for c in conjuncts {
            if !self.eval(c, scope)?.false_interpreted() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // --- nested-loop enumeration ---------------------------------------

    /// Nested loops over a subquery block's `FROM` tables in order,
    /// calling `on` with each tuple that passes its conjuncts until `on`
    /// returns `true`. `outer` is the enclosing block's tuple.
    fn enumerate(
        &mut self,
        spec: &BoundSpec,
        outer: &Scope<'_>,
        on: &mut impl FnMut(&Scope<'_>) -> Result<bool>,
    ) -> Result<()> {
        if spec.from.is_empty() {
            return Err(Error::internal("block with empty FROM clause"));
        }
        let order: Vec<usize> = (0..spec.from.len()).collect();
        let rows = Rows::new(self.db, spec, &order, None)?;
        let levels = planned_levels(spec, &rows.attrs);
        let mut ids = vec![0; order.len()];
        self.enumerate_level(&rows, &levels, 0, &mut ids, outer, on)?;
        Ok(())
    }

    /// Level `level` of [`Executor::enumerate`]; `true` once `on` stops.
    fn enumerate_level(
        &mut self,
        rows: &Rows<'_>,
        levels: &[Vec<&BoundExpr>],
        level: usize,
        ids: &mut [u32],
        outer: &Scope<'_>,
        on: &mut impl FnMut(&Scope<'_>) -> Result<bool>,
    ) -> Result<bool> {
        let Some(table) = rows.tables.get(level) else {
            return on(&rows.scope(ids, Some(outer)));
        };
        for r in 0..table.len() {
            self.stats.rows_scanned += 1;
            ids[level] = r as u32;
            if self.keep(&levels[level], &rows.scope(&ids[..=level], Some(outer)))?
                && self.enumerate_level(rows, levels, level + 1, ids, outer, on)?
            {
                return Ok(true);
            }
        }
        Ok(false)
    }

    // --- index access paths ----------------------------------------------

    /// Does the live catalog still carry exactly the index definition
    /// this spec was bound (and planned) against? Guards every planned
    /// index access: a cached plan can outlive a table re-creation.
    fn index_fresh(&self, table: &FromTable, index: &str) -> bool {
        let planned = table.schema.index(index);
        let live = self
            .db
            .catalog()
            .table(&table.schema.name)
            .ok()
            .and_then(|s| s.index(index));
        planned.is_some() && planned == live
    }

    /// The positions a planned secondary index serves a block's scan
    /// from.
    ///
    /// The plan's [`Justification::IndexAccess`] is a license, not a
    /// promise: the sarg is re-derived from the spec and checked against
    /// the live catalog before any probe. `Ok(None)` means the license
    /// no longer holds — the caller scans every row, so a dropped or
    /// re-shaped index costs speed, never rows.
    fn ix_scan(
        &mut self,
        spec: &BoundSpec,
        t: usize,
        conjuncts: &[&BoundExpr],
        info: &Justification,
    ) -> Result<Option<Vec<usize>>> {
        let Some(sarg) = find_index_sarg(spec, t, conjuncts) else {
            return Ok(None);
        };
        let table = &spec.from[t];
        if Some(sarg.index.as_str()) != info.index() || !self.index_fresh(table, &sarg.index) {
            return Ok(None);
        }
        let Some(def) = table.schema.index(&sarg.index) else {
            return Ok(None);
        };
        let full_point = sarg.full_point(def);
        let unique = sarg.unique;

        // Resolve the probe scalars (host variables bind now). A NULL
        // component never satisfies `=` or a range bound: empty scan.
        let constant = |s: &BScalar| scalar(self.hostvars, s, &Scope::EMPTY).cloned();
        let mut prefix = Vec::with_capacity(sarg.prefix.len());
        for s in &sarg.prefix {
            let v = constant(s)?;
            if v.is_null() {
                return Ok(Some(Vec::new()));
            }
            prefix.push(v);
        }
        let resolve_bound = |s: &Option<(BScalar, bool)>| -> Result<_> {
            Ok(match s {
                Some((s, inc)) => {
                    let v = constant(s)?;
                    if v.is_null() {
                        None // `col >= NULL` is unknown for every row
                    } else {
                        Some((v, *inc))
                    }
                }
                None => None,
            })
        };
        let low = resolve_bound(&sarg.low)?;
        let high = resolve_bound(&sarg.high)?;
        if (sarg.low.is_some() && low.is_none()) || (sarg.high.is_some() && high.is_none()) {
            return Ok(Some(Vec::new()));
        }
        fn as_bound(b: &Option<(Value, bool)>) -> std::ops::Bound<&Value> {
            match b {
                Some((v, true)) => std::ops::Bound::Included(v),
                Some((v, false)) => std::ops::Bound::Excluded(v),
                None => std::ops::Bound::Unbounded,
            }
        }

        let db = self.db;
        let name = &table.schema.name;
        let positions: Vec<usize> = if full_point {
            db.index_probe(name, &sarg.index, &prefix)?.to_vec()
        } else {
            db.index_range(name, &sarg.index, &prefix, as_bound(&low), as_bound(&high))?
        };
        self.stats.ix_probes += 1;
        // A unique fully-bound probe is a guaranteed one-row lookup:
        // exactly one probe step. Anything else walks its postings.
        self.stats.probe_steps += if unique {
            1
        } else {
            positions.len() as u64 + 1
        };
        Ok(Some(positions))
    }

    // --- expression evaluation -------------------------------------------

    /// Evaluate a predicate under three-valued logic on `scope`.
    fn eval(&mut self, e: &BoundExpr, scope: &Scope<'_>) -> Result<Tri> {
        let hv = self.hostvars;
        match e {
            BoundExpr::Cmp { op, left, right } => {
                cmp_tri(*op, scalar(hv, left, scope)?, scalar(hv, right, scope)?)
            }
            BoundExpr::Between {
                scalar: s,
                low,
                high,
                negated,
            } => {
                let v = scalar(hv, s, scope)?;
                let lo = cmp_tri(CmpOp::Ge, v, scalar(hv, low, scope)?)?;
                let t = lo.and(cmp_tri(CmpOp::Le, v, scalar(hv, high, scope)?)?);
                Ok(if *negated { t.not() } else { t })
            }
            BoundExpr::InList {
                scalar: s,
                list,
                negated,
            } => {
                let v = scalar(hv, s, scope)?;
                let mut t = Tri::False;
                for item in list {
                    t = t.or(cmp_tri(CmpOp::Eq, v, scalar(hv, item, scope)?)?);
                }
                Ok(if *negated { t.not() } else { t })
            }
            BoundExpr::IsNull { scalar: s, negated } => {
                Ok(Tri::from_bool(scalar(hv, s, scope)?.is_null() != *negated))
            }
            BoundExpr::Exists { negated, subquery } => {
                self.stats.subquery_evals += 1;
                // First-match early exit: one row decides.
                let mut found = false;
                self.enumerate(subquery, scope, &mut |_| {
                    found = true;
                    Ok(true)
                })?;
                Ok(Tri::from_bool(found != *negated))
            }
            BoundExpr::InSubquery {
                scalar: s,
                subquery,
                negated,
            } => {
                self.stats.subquery_evals += 1;
                let v = scalar(hv, s, scope)?;
                let attr = subquery.projection[0].attr;
                // SQL IN semantics: true if any comparison is true;
                // otherwise unknown if any comparison is unknown (or the
                // tested value is NULL and the set is non-empty); false
                // otherwise (including the empty set). The whole block is
                // enumerated; its DISTINCT, if any, is not evaluated: it
                // cannot change the outcome of an IN test.
                let mut t = Tri::False;
                self.enumerate(subquery, scope, &mut |inner| {
                    if t != Tri::True {
                        t = t.or(cmp_tri(CmpOp::Eq, v, inner.attr(attr)?)?);
                    }
                    Ok(false)
                })?;
                Ok(if *negated { t.not() } else { t })
            }
            BoundExpr::And(a, b) => {
                // Short-circuit: false dominates regardless of the other
                // operand (including unknown).
                let l = self.eval(a, scope)?;
                if l == Tri::False {
                    return Ok(Tri::False);
                }
                Ok(l.and(self.eval(b, scope)?))
            }
            BoundExpr::Or(a, b) => {
                let l = self.eval(a, scope)?;
                if l == Tri::True {
                    return Ok(Tri::True);
                }
                Ok(l.or(self.eval(b, scope)?))
            }
            BoundExpr::Not(a) => Ok(self.eval(a, scope)?.not()),
        }
    }
}

/// The stored rows a block reads, by tuple slot, and where each of its
/// attributes lives: `attrs[idx]` is (tuple slot, table-local column).
struct Rows<'r> {
    tables: Vec<TableRows<'r>>,
    attrs: Vec<(usize, usize)>,
    /// A delta term: slot 0 reads appended rows, and join steps may
    /// probe declared keys.
    delta: bool,
}

impl<'r> Rows<'r> {
    /// `spec`'s tables laid out in `order`: their stored rows, or, in a
    /// delta term, `FROM` position `t`'s slice `slices[t]`.
    fn new(
        db: &'r Database,
        spec: &BoundSpec,
        order: &[usize],
        slices: Option<&[TableRows<'r>]>,
    ) -> Result<Rows<'r>> {
        let mut slot = vec![0; spec.from.len()];
        for (k, &t) in order.iter().enumerate() {
            slot[t] = k;
        }
        let mut attrs = vec![(0, 0); spec.product_arity()];
        for (t, ft) in spec.from.iter().enumerate() {
            for (c, a) in ft.attr_range().enumerate() {
                attrs[a] = (slot[t], c);
            }
        }
        let tables = (order.iter())
            .map(|&t| match slices {
                Some(slices) => Ok(slices[t]),
                None => db.rows(&spec.from[t].schema.name),
            })
            .collect::<Result<_>>()?;
        Ok(Rows {
            tables,
            attrs,
            delta: slices.is_some(),
        })
    }

    /// The tuple `ids` as an evaluation scope.
    fn scope<'s>(&'s self, ids: &'s [u32], outer: Option<&'s Scope<'s>>) -> Scope<'s> {
        Scope {
            tables: &self.tables,
            attrs: &self.attrs,
            ids,
            outer,
        }
    }

    /// The block's output row for one tuple: each projected attribute
    /// copied out of its stored row.
    fn project(&self, spec: &BoundSpec, tuple: &[u32]) -> Result<Row> {
        let scope = self.scope(tuple, None);
        (spec.projection.iter())
            .map(|p| scope.attr(p.attr).cloned())
            .collect()
    }
}

/// The tuple an expression is evaluated on: one row id per placed table,
/// each naming a borrowed stored row, with the enclosing block's tuple
/// reachable by reference for correlated attributes.
#[derive(Clone, Copy)]
struct Scope<'s> {
    /// Stored rows by tuple slot.
    tables: &'s [TableRows<'s>],
    /// Attribute → (tuple slot, table-local column).
    attrs: &'s [(usize, usize)],
    /// The tuple: one row id per placed slot.
    ids: &'s [u32],
    /// The enclosing block's tuple (`AttrRef::up == 1`).
    outer: Option<&'s Scope<'s>>,
}

impl Scope<'static> {
    /// A scope that binds no attribute: constants only.
    const EMPTY: Scope<'static> = Scope {
        tables: &[],
        attrs: &[],
        ids: &[],
        outer: None,
    };
}

impl<'s> Scope<'s> {
    /// This block's attribute `idx`.
    fn attr(&self, idx: usize) -> Result<&'s Value> {
        let &(slot, col) = (self.attrs.get(idx))
            .ok_or_else(|| Error::internal(format!("attr #{idx} out of range")))?;
        (self.ids.get(slot))
            .and_then(|&r| self.tables[slot].get(r as usize))
            .map(|row| &row[col])
            .ok_or_else(|| Error::internal(format!("attr #{idx} is not bound")))
    }

    /// The attribute `a` names, `a.up` blocks out.
    fn value(&self, a: &AttrRef) -> Result<&'s Value> {
        let mut scope = self;
        for _ in 0..a.up {
            scope = scope.outer.ok_or_else(|| {
                Error::internal(format!("correlated ref up={} escapes scope", a.up))
            })?;
        }
        scope.attr(a.idx)
    }
}

/// An operand's value: a literal, a host variable's binding, or an
/// attribute of `scope`.
fn scalar<'v>(hostvars: &'v HostVars, s: &'v BScalar, scope: &Scope<'v>) -> Result<&'v Value> {
    match s {
        BScalar::Literal(v) => Ok(v),
        BScalar::HostVar(h) => hostvars.get(h),
        BScalar::Attr(a) => scope.value(a),
    }
}

/// Three-valued comparison of two values.
fn cmp_tri(op: CmpOp, l: &Value, r: &Value) -> Result<Tri> {
    Ok(match l.sql_cmp(r)? {
        None => Tri::Unknown,
        Some(ord) => Tri::from_bool(match op {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }),
    })
}

/// `v`, unless it is `NULL`: a join key that can match.
fn non_null(v: &Value) -> Option<&Value> {
    (!v.is_null()).then_some(v)
}

/// One tuple's hash-join probe key.
pub(crate) enum Probe<K> {
    /// A `NULL` component: the tuple cannot match under `=`, and books no
    /// probe.
    Null,
    /// A key no build row can hold (a string the build dictionary
    /// lacks): a counted probe that misses.
    Miss,
    /// A key to look up.
    Key(K),
}

/// One hash join, shared by both access methods: hash the `build` row
/// ids on `build_key` (`None`, a `NULL` component, never matches), then
/// probe once per tuple of `tuples` (`stride` ids each) and `emit` the
/// tuple with each matching build row, in build order. A `unique` step
/// books one probe step per hit, any other walks its postings (one step
/// per match, plus one); a miss books one. Returns the (hash probes,
/// probe steps) booked.
///
/// The table holds one slot per distinct key, under the executor's
/// keyed hasher, and every slot's postings lie in one flat vector:
/// counted per slot first, then filled in build order.
pub(crate) fn hash_join<K: Hash + Eq>(
    tuples: &[u32],
    stride: usize,
    build: &[u32],
    build_key: impl Fn(u32) -> Option<K>,
    probe_key: impl Fn(&[u32]) -> Probe<K>,
    unique: bool,
    mut emit: impl FnMut(&[u32], u32) -> Result<()>,
) -> Result<(u64, u64)> {
    const NO_SLOT: u32 = u32::MAX;
    let mut slots: HashMap<K, u32> = HashMap::default();
    let mut counts: Vec<u32> = Vec::new();
    let slot_of: Vec<u32> = (build.iter())
        .map(|&r| {
            let Some(key) = build_key(r) else {
                return NO_SLOT;
            };
            let next = counts.len() as u32;
            let slot = *slots.entry(key).or_insert(next);
            if slot == next {
                counts.push(0);
            }
            counts[slot as usize] += 1;
            slot
        })
        .collect();
    // `starts[s]..starts[s + 1]` is slot `s`'s postings; `counts` turns
    // into each slot's fill cursor.
    let mut starts = Vec::with_capacity(counts.len() + 1);
    let mut end = 0u32;
    for count in &mut counts {
        starts.push(end);
        end += std::mem::replace(count, end);
    }
    starts.push(end);
    let mut postings = vec![0u32; end as usize];
    for (&r, &slot) in build.iter().zip(&slot_of) {
        if slot != NO_SLOT {
            let cursor = &mut counts[slot as usize];
            postings[*cursor as usize] = r;
            *cursor += 1;
        }
    }
    let (mut probes, mut steps) = (0, 0);
    for tuple in tuples.chunks_exact(stride) {
        let slot = match probe_key(tuple) {
            Probe::Null => continue,
            Probe::Miss => None,
            Probe::Key(key) => slots.get(&key),
        };
        probes += 1;
        let Some(&slot) = slot else {
            steps += 1;
            continue;
        };
        let hits = &postings[starts[slot as usize] as usize..starts[slot as usize + 1] as usize];
        steps += if unique { 1 } else { hits.len() as u64 + 1 };
        for &m in hits {
            emit(tuple, m)?;
        }
    }
    Ok((probes, steps))
}

/// Does `bp` describe this block's shape? Guards against running a plan
/// made for a different query.
fn plan_matches(bp: &BlockPlan, spec: &BoundSpec) -> bool {
    let n = spec.from.len();
    let distinct = spec.distinct == uniq_sql::Distinct::Distinct;
    if n == 0 || bp.order.len() != n || bp.joins.len() != n - 1 || bp.distinct.is_some() != distinct
    {
        return false;
    }
    let mut seen = vec![false; n];
    bp.order
        .iter()
        .all(|&t| t < n && !std::mem::replace(&mut seen[t], true))
}

fn plan_mismatch() -> Error {
    Error::internal("physical plan does not match its query")
}

/// Assign each top-level conjunct of `spec` to the earliest pipeline
/// position (tuple slot, per `attrs`) at which every table it references
/// is placed. References from nested subqueries count: they see this
/// block's attributes as correlated outers.
fn planned_levels<'e>(spec: &'e BoundSpec, attrs: &[(usize, usize)]) -> Vec<Vec<&'e BoundExpr>> {
    let mut levels: Vec<Vec<&BoundExpr>> = vec![Vec::new(); spec.from.len()];
    for c in spec.predicate.iter().flat_map(|p| p.conjuncts()) {
        let mut level = 0;
        c.visit_attrs(&mut |depth, a| match attrs.get(a.idx) {
            Some(&(slot, _)) if a.up == depth => level = level.max(slot),
            _ => {}
        });
        levels[level].push(c);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_database;
    use uniq_plan::bind_query;
    use uniq_sql::parse_query;

    fn run_opts(sql: &str, hv: &HostVars, opts: PlannerOptions) -> (Vec<Row>, ExecStats) {
        let db = supplier_database().unwrap();
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let plan = uniq_cost::plan_query(&q, None, opts);
        let mut ex = Executor::new(&db, hv);
        let rows = ex.run_with_plan(&q, &plan).unwrap();
        (rows, ex.stats)
    }

    fn run(sql: &str) -> Vec<Row> {
        run_opts(sql, &HostVars::new(), PlannerOptions::default()).0
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| uniq_types::value::tuple_null_cmp(a, b).unwrap());
        rows
    }

    #[test]
    fn single_table_filter() {
        let rows = run("SELECT S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto'");
        assert_eq!(sorted(rows), vec![vec![Value::Int(1)], vec![Value::Int(4)]]);
    }

    #[test]
    fn join_produces_expected_pairs() {
        let rows = run("SELECT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'");
        assert_eq!(
            sorted(rows),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(10)],
                vec![Value::Int(3), Value::Int(10)],
                vec![Value::Int(3), Value::Int(13)],
            ]
        );
    }

    #[test]
    fn hash_and_nested_loop_agree() {
        let sql = "SELECT S.SNAME, P.PNAME FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let hv = HostVars::new();
        let (h, hs) = run_opts(
            sql,
            &hv,
            PlannerOptions {
                join: JoinMethod::Hash,
                ..Default::default()
            },
        );
        let (n, ns) = run_opts(
            sql,
            &hv,
            PlannerOptions {
                join: JoinMethod::NestedLoop,
                ..Default::default()
            },
        );
        assert_eq!(sorted(h), sorted(n));
        assert!(hs.hash_joins > 0);
        assert_eq!(ns.hash_joins, 0);
        // Hash join scans each table once; nested loop re-scans PARTS.
        assert!(hs.rows_scanned < ns.rows_scanned);
    }

    #[test]
    fn distinct_eliminates_duplicates() {
        let rows = run("SELECT DISTINCT P.COLOR FROM PARTS P");
        assert_eq!(rows.len(), 3); // RED, GREEN, BLUE
    }

    #[test]
    fn where_null_comparison_filters_row() {
        // OEM-PNO = 104 is unknown for the NULL row → filtered out.
        let rows = run("SELECT P.PNO FROM PARTS P WHERE P.OEM-PNO >= 100");
        assert_eq!(rows.len(), 6, "NULL OEM-PNO row must not qualify");
    }

    #[test]
    fn distinct_treats_nulls_as_equal() {
        // Two NULLs collapse under DISTINCT (=̇), unlike WHERE.
        let mut db = supplier_database().unwrap();
        db.run_script("CREATE TABLE N (X INTEGER); INSERT INTO N VALUES (NULL), (NULL), (1);")
            .unwrap();
        let q = bind_query(
            db.catalog(),
            &parse_query("SELECT DISTINCT X FROM N").unwrap(),
        )
        .unwrap();
        let hv = HostVars::new();
        let mut ex = Executor::new(&db, &hv);
        let rows = ex.run(&q).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn host_variables_resolve_at_execution() {
        let hv = HostVars::new().with("SUPPLIER-NO", 3i64);
        let (rows, _) = run_opts(
            "SELECT ALL S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P \
             WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO",
            &hv,
            PlannerOptions::default(),
        );
        assert_eq!(rows.len(), 2); // supplier 3 supplies parts 10 and 13
    }

    #[test]
    fn unbound_host_variable_errors() {
        let db = supplier_database().unwrap();
        let q = bind_query(
            db.catalog(),
            &parse_query("SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :MISSING").unwrap(),
        )
        .unwrap();
        let hv = HostVars::new();
        let mut ex = Executor::new(&db, &hv);
        assert!(matches!(ex.run(&q), Err(Error::UnboundHostVar(_))));
    }

    #[test]
    fn exists_subquery_semijoin() {
        // Example 8's original form: suppliers with at least one red part.
        let rows = run("SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')");
        assert_eq!(
            sorted(rows)
                .iter()
                .map(|r| r[0].clone())
                .collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn not_exists() {
        let rows = run("SELECT S.SNO FROM SUPPLIER S WHERE NOT EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)");
        assert_eq!(sorted(rows), vec![vec![Value::Int(5)]]);
    }

    #[test]
    fn in_subquery_three_valued_semantics() {
        let mut db = supplier_database().unwrap();
        db.run_script(
            "CREATE TABLE L (X INTEGER); INSERT INTO L VALUES (1), (99);
             CREATE TABLE R2 (Y INTEGER); INSERT INTO R2 VALUES (1), (NULL);",
        )
        .unwrap();
        let hv = HostVars::new();
        // X IN (1, NULL): for X=1 → true; for X=99 → unknown (not false!)
        // so NOT IN must ALSO filter X=99 out.
        let q_in = bind_query(
            db.catalog(),
            &parse_query("SELECT X FROM L WHERE X IN (SELECT Y FROM R2)").unwrap(),
        )
        .unwrap();
        let mut ex = Executor::new(&db, &hv);
        assert_eq!(ex.run(&q_in).unwrap(), vec![vec![Value::Int(1)]]);

        let q_not_in = bind_query(
            db.catalog(),
            &parse_query("SELECT X FROM L WHERE X NOT IN (SELECT Y FROM R2)").unwrap(),
        )
        .unwrap();
        let mut ex = Executor::new(&db, &hv);
        assert_eq!(
            ex.run(&q_not_in).unwrap(),
            Vec::<Row>::new(),
            "NOT IN over a set containing NULL yields no rows"
        );
    }

    #[test]
    fn exists_stops_at_first_match() {
        let hv = HostVars::new();
        let (_, stats) = run_opts(
            "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
            &hv,
            PlannerOptions::default(),
        );
        // 5 suppliers scanned + early-exit scans of PARTS (7 rows): if
        // every EXISTS scanned all of PARTS we'd see 5 + 35; early exit
        // must do strictly better.
        assert!(
            stats.rows_scanned < 40,
            "rows_scanned = {}",
            stats.rows_scanned
        );
        assert_eq!(stats.subquery_evals, 5);
    }

    #[test]
    fn cartesian_product_multiplicity() {
        let rows = run("SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A");
        assert_eq!(rows.len(), 25); // 5 × 5
    }

    #[test]
    fn intersect_example_9() {
        // Suppliers in Toronto ∩ suppliers with agents in Ottawa/Hull.
        let rows = run(
            "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
             INTERSECT \
             SELECT ALL A.SNO FROM AGENTS A \
             WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'",
        );
        assert_eq!(sorted(rows), vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn select_all_retains_duplicates() {
        let rows = run("SELECT ALL P.COLOR FROM PARTS P WHERE P.COLOR = 'RED'");
        assert_eq!(rows.len(), 4);
    }

    fn indexed_supplier_db() -> Database {
        let mut db = supplier_database().unwrap();
        db.run_script(
            "CREATE UNIQUE INDEX IDX_S_SNO ON SUPPLIER (SNO);
             CREATE INDEX IDX_P_COLOR ON PARTS (COLOR);",
        )
        .unwrap();
        db
    }

    fn cost_plan(db: &Database, q: &BoundQuery) -> PhysicalPlan {
        let stats = uniq_cost::Statistics::collect(db);
        uniq_cost::plan_query(q, Some(&stats), PlannerOptions::default())
    }

    #[test]
    fn planned_index_paths_agree_with_the_oracle_and_save_work() {
        let db = indexed_supplier_db();
        let sql = "SELECT S.SNAME, P.PNO FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let plan = cost_plan(&db, &q);
        let hv = HostVars::new();
        let mut via_ix = Executor::new(&db, &hv);
        let ix_rows = via_ix.run_with_plan(&q, &plan).unwrap();
        let mut oracle = Executor::new(&db, &hv);
        let expect = oracle.run(&q).unwrap();
        assert_eq!(sorted(ix_rows), sorted(expect));
        // 1 ixscan probe of IDX_P_COLOR + one IxJoin probe per red part.
        assert_eq!(via_ix.stats.ix_probes, 5, "{:?}", via_ix.stats);
        // Unique probes cost exactly one step each; the color postings
        // walk costs its 4 matches + 1.
        assert_eq!(via_ix.stats.probe_steps, 4 + (4 + 1));
        assert!(
            via_ix.stats.rows_scanned < oracle.stats.rows_scanned,
            "index paths must visit fewer rows ({} vs {})",
            via_ix.stats.rows_scanned,
            oracle.stats.rows_scanned
        );
        assert_eq!(via_ix.stats.hash_joins, 0, "no build side at all");
    }

    #[test]
    fn unique_point_ixscan_reads_one_row() {
        let db = indexed_supplier_db();
        let q = bind_query(
            db.catalog(),
            &parse_query("SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 3").unwrap(),
        )
        .unwrap();
        let plan = cost_plan(&db, &q);
        let hv = HostVars::new();
        let mut ex = Executor::new(&db, &hv);
        let rows = ex.run_with_plan(&q, &plan).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(ex.stats.ix_probes, 1);
        assert_eq!(ex.stats.probe_steps, 1, "guaranteed one-row lookup");
        assert_eq!(ex.stats.rows_scanned, 1, "only the matched row is read");
    }

    #[test]
    fn stale_index_license_falls_back_to_the_full_scan() {
        // Bind and plan against an indexed catalog…
        let db = indexed_supplier_db();
        let sql = "SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 3";
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let plan = cost_plan(&db, &q);
        let PhysNode::Block(b) = &plan.root else {
            panic!("expected block")
        };
        assert!(b.ixscan.is_some(), "plan must carry the index license");
        // …then execute against a database without the index: run-time
        // re-verification fails and the full scan answers, correctly.
        let plain = supplier_database().unwrap();
        let hv = HostVars::new();
        let mut ex = Executor::new(&plain, &hv);
        let rows = ex.run_with_plan(&q, &plan).unwrap();
        let mut oracle = Executor::new(&plain, &hv);
        assert_eq!(rows, oracle.run(&q).unwrap());
        assert_eq!(ex.stats.ix_probes, 0, "fallback never touches an index");
        assert_eq!(ex.stats.rows_scanned, 5, "full scan of SUPPLIER");
    }

    #[test]
    fn a_plan_for_another_query_is_an_internal_error() {
        let db = supplier_database().unwrap();
        let bind = |sql: &str| bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let one = bind("SELECT S.SNO FROM SUPPLIER S");
        let two = bind("SELECT S.SNO FROM SUPPLIER S, AGENTS A WHERE S.SNO = A.SNO");
        let plan = uniq_cost::plan_query(&one, None, PlannerOptions::default());
        let hv = HostVars::new();
        let mut ex = Executor::new(&db, &hv);
        let err = ex.run_with_plan(&two, &plan).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
        assert_eq!(ex.stats.rows_scanned, 0, "nothing runs");
    }

    #[test]
    fn host_variable_probes_resolve_at_execution() {
        let db = indexed_supplier_db();
        let q = bind_query(
            db.catalog(),
            &parse_query("SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = :N").unwrap(),
        )
        .unwrap();
        let plan = cost_plan(&db, &q);
        for n in [1i64, 3, 99] {
            let hv = HostVars::new().with("N", n);
            let mut ex = Executor::new(&db, &hv);
            let rows = ex.run_with_plan(&q, &plan).unwrap();
            let mut oracle = Executor::new(&db, &hv);
            assert_eq!(rows, oracle.run(&q).unwrap(), "N = {n}");
            assert_eq!(ex.stats.ix_probes, 1);
        }
    }
}
