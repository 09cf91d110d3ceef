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
//!   the block and the store is fresh (see [`crate::columnar`]). Scans
//!   and build sides are vectorized filters, join keys are code words,
//!   joins, `DISTINCT` and grouping index a dense table by code words
//!   when the key's domain is small and hash them otherwise, and only
//!   output rows are decoded;
//! * **rows** — the stored rows, otherwise. The scan may go through a
//!   planned index; under an early-stop `LIMIT k` that scan is the walk
//!   that hands over the first `k` passing rows in key order, so no
//!   sort runs. A join step probes a planned index, re-scans the table
//!   (nested loop), hashes borrowed values or forms a cross product;
//!   every conjunct is evaluated on the rows the tuple's ids point to,
//!   and only output rows are copied. This access is the reference the
//!   agreement suites check the encoded one against.
//!
//! A hash step keys on the equality conjuncts linking the new table to
//! the placed ones (`NULL` join keys excluded on both sides, per
//! `WHERE`-clause `=` semantics). Conjuncts over the new table alone
//! filter its build side; the rest run on the joined tuples. An index
//! access runs as the plan carries it; the one check before it is that
//! the live catalog still holds the planned index definition (or, for
//! a delta term's key probe, still declares the key), and without it
//! the planned full scan, join method or sort runs instead.
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
use crate::stats::ExecStats;
use std::hash::Hash;
use std::ops::Bound;
use uniq_catalog::{Database, Positions, Row, TableRows};
use uniq_cost::{
    BlockPlan, IndexSarg, JoinMethod, JoinStep, OutputOp, PhysNode, PhysicalPlan, PlannerOptions,
    ProbeSource,
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
    /// output cardinality. The plan must be the one planned for this
    /// query: its index accesses run as planned. A plan that does not
    /// mirror the query's shape is an internal error.
    pub fn run_with_plan(&mut self, query: &BoundQuery, plan: &PhysicalPlan) -> Result<Vec<Row>> {
        self.actuals = vec![0; plan.ops.len()];
        let rows = self.exec_query(query, &plan.root)?;
        self.stats.rows_output += rows.len() as u64;
        Ok(rows)
    }

    /// Execute a full query — body plus aggregation / `ORDER BY` /
    /// `LIMIT` output clauses — under `plan`, the one planned for this
    /// query, recording the actual cardinalities of its [`OutputOp`]s
    /// too.
    ///
    /// The body runs, an aggregate groups it — on code words under the
    /// encoded access, with the proof-elided zero-hash one-pass where
    /// licensed — and the rows are sorted (engine total order, `NULL`s
    /// first) and cut. Under an early-stop `Limit` whose index the live
    /// catalog still holds, the block's scan is the walk over that index
    /// (see [`BlockPlan::ixscan`]): it stops once `k` rows have passed
    /// and hands them over in order, so no sort runs.
    pub fn run_output(&mut self, output: &BoundOutput, plan: &PhysicalPlan) -> Result<Vec<Row>> {
        if let Some(plain) = output.as_plain() {
            return self.run_with_plan(plain, plan);
        }
        self.actuals = vec![0; plan.ops.len()];

        let index = plan.output.iter().find_map(|op| match op {
            OutputOp::Limit { early_stop, .. } => early_stop.as_ref(),
            _ => None,
        });
        let walk = match (output.limit, output.body.as_spec(), index) {
            (Some(k), Some(spec), Some(index)) if self.index_fresh(&spec.from[0], index) => Some(k),
            _ => None,
        };
        let body = match (output.body.as_spec(), &plan.root) {
            (Some(spec), PhysNode::Block(bp)) => self.block(spec, bp, None, walk)?,
            _ => Block::Rows(self.exec_query(&output.body, &plan.root)?),
        };
        let mut rows = match (&output.agg, body) {
            (Some(agg), body) => self.aggregate(agg, body)?,
            (None, Block::Encoded(enc, ids)) => enc.materialize(&ids, &mut self.stats),
            (None, Block::Rows(rows)) => rows,
        };
        self.record_output(plan, |op| matches!(op, OutputOp::Agg { .. }), rows.len());

        if !output.order_by.is_empty() && walk.is_none() {
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

    /// Group a body's output: on code words under the encoded access, on
    /// borrowed values otherwise.
    fn aggregate(&mut self, agg: &BoundAgg, body: Block<'_>) -> Result<Vec<Row>> {
        match body {
            Block::Encoded(enc, ids) => enc.aggregate(agg, &ids, &mut self.stats),
            Block::Rows(rows) => aggregate(agg, &rows.as_slice(), &mut self.stats),
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
        Ok(match self.block(spec, bp, slices, None)? {
            Block::Encoded(enc, ids) => enc.materialize(&ids, &mut self.stats),
            Block::Rows(rows) => rows,
        })
    }

    /// Run one planned block: the scan, each join step, the projection
    /// and `DISTINCT`, through the encoded access when the block's
    /// license holds and the store is fresh, through the stored rows
    /// otherwise. The choice is made before any counter moves.
    /// `slices` makes the block a delta term (see [`Executor::block_rows`]);
    /// `walk` is an early-stop `Limit`'s `k` (see [`Executor::run_output`]).
    fn block(
        &mut self,
        spec: &BoundSpec,
        bp: &BlockPlan,
        slices: Option<&[TableRows<'a>]>,
        walk: Option<u64>,
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
            None => self.scan(spec, bp, &rows, &levels[0], walk)?,
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

    /// The rows access's scan: through the planned index while the live
    /// catalog still holds its definition, over every stored row
    /// otherwise. The level's conjuncts filter either way; the index
    /// only narrows which rows are visited, and under `walk` orders them.
    fn scan(
        &mut self,
        spec: &BoundSpec,
        bp: &BlockPlan,
        rows: &Rows<'_>,
        conjuncts: &[&BoundExpr],
        walk: Option<u64>,
    ) -> Result<Vec<u32>> {
        let table = &spec.from[bp.order[0]];
        let mut out = Vec::new();
        match (bp.ixscan.as_ref()).filter(|sarg| self.index_fresh(table, &sarg.index)) {
            Some(sarg) => self.ix_scan(table, sarg, rows, conjuncts, walk, &mut out)?,
            None => {
                for r in 0..rows.tables[0].len() {
                    self.read(rows, &mut out, r, conjuncts)?;
                }
            }
        }
        Ok(out)
    }

    /// Read row `r` of the scanned table, booking it, and keep it in
    /// `out` when every conjunct holds.
    fn read(
        &mut self,
        rows: &Rows<'_>,
        out: &mut Vec<u32>,
        r: usize,
        conjuncts: &[&BoundExpr],
    ) -> Result<()> {
        if rows.delta {
            self.stats.delta_rows += 1;
        } else {
            self.stats.rows_scanned += 1;
        }
        self.extend(rows, out, &[], r as u32, conjuncts)
    }

    /// One join step of the rows access: join table `t`, at pipeline
    /// position `k`, onto `tuples`. The planned index or key probe runs
    /// while the live catalog still holds that index or declares that
    /// key; otherwise the step's method does. Every conjunct of the level
    /// holds on each tuple emitted.
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
        // Only a delta term probes declared keys.
        let probe = step.ix.as_ref().filter(|p| match &p.key {
            Some(key) => (self.db.catalog().table(name).ok())
                .is_some_and(|live| live.candidate_keys().any(|k| &k.columns == key)),
            None => self.index_fresh(table, &p.index),
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
        let cell = |tuple: &[u32], (slot, col): (usize, usize)| {
            non_null(&rows.tables[slot][tuple[slot] as usize][col])
        };
        let emit = |tuple: &[u32], m| self.extend(rows, &mut out, tuple, m, &residual);
        let (probes, steps) = match keys.as_slice() {
            // One key is the borrowed value itself.
            &[(at, col)] => hash_join(
                tuples,
                k,
                &build,
                |r| non_null(&new_rows[r as usize][col]),
                |tuple| cell(tuple, at).map_or(Probe::Null, Probe::Key),
                false,
                emit,
            )?,
            _ => hash_join(
                tuples,
                k,
                &build,
                |r| {
                    let row = &new_rows[r as usize];
                    keys.iter().map(|&(_, col)| non_null(&row[col])).collect()
                },
                |tuple| {
                    let key: Option<Vec<_>> = keys.iter().map(|&(at, _)| cell(tuple, at)).collect();
                    key.map_or(Probe::Null, Probe::Key)
                },
                false,
                emit,
            )?,
        };
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

    /// Serve a block's scan through its planned index: walk the rows
    /// the sarg's point prefix and bounds select, in key order, reading
    /// each posting in place, into `out` like [`Executor::scan`]. Under
    /// the early stop (`walk` is the `Limit`'s `k`) the walk ends once
    /// `k` rows have passed the conjuncts, and books the rows it examined
    /// (and an early stop when its range went on) instead of probe steps.
    fn ix_scan(
        &mut self,
        table: &FromTable,
        sarg: &IndexSarg,
        rows: &Rows<'_>,
        conjuncts: &[&BoundExpr],
        walk: Option<u64>,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        // Resolve the probe scalars (host variables bind now). A NULL
        // component never satisfies `=` or a range bound: empty scan.
        let constant = |s: &BScalar| scalar(self.hostvars, s, &Scope::EMPTY).cloned();
        let mut prefix = Vec::with_capacity(sarg.prefix.len());
        for s in &sarg.prefix {
            let v = constant(s)?;
            if v.is_null() {
                return Ok(());
            }
            prefix.push(v);
        }
        let bound = |b: &Option<(BScalar, bool)>| -> Result<Option<Bound<Value>>> {
            let Some((s, inclusive)) = b else {
                return Ok(Some(Bound::Unbounded));
            };
            // `col >= NULL` is unknown for every row.
            Ok(match (constant(s)?, inclusive) {
                (v, _) if v.is_null() => None,
                (v, true) => Some(Bound::Included(v)),
                (v, false) => Some(Bound::Excluded(v)),
            })
        };
        let (Some(low), Some(high)) = (bound(&sarg.low)?, bound(&sarg.high)?) else {
            return Ok(());
        };
        // A unique sarg is a fully point-bound probe, a guaranteed one-row
        // lookup costing exactly one probe step; any other walks the
        // index, one step per posting plus one.
        let (db, name) = (self.db, &table.schema.name);
        let positions: Box<dyn Iterator<Item = usize>> = if sarg.unique {
            Box::new(db.index_probe(name, &sarg.index, &prefix)?.iter())
        } else {
            Box::new(db.index_walk(name, &sarg.index, &prefix, low.as_ref(), high.as_ref())?)
        };
        self.stats.ix_probes += 1;
        let mut fetched = 0;
        for r in positions {
            // The walk has its `k` rows and its range goes on.
            if Some(out.len() as u64) == walk {
                self.stats.early_stops += 1;
                break;
            }
            fetched += 1;
            self.read(rows, out, r, conjuncts)?;
        }
        match walk {
            Some(_) => self.stats.topk_rows_examined += fetched,
            None => self.stats.probe_steps += if sarg.unique { 1 } else { fetched + 1 },
        }
        Ok(())
    }

    // --- expression evaluation -------------------------------------------

    /// Evaluate a predicate under three-valued logic on `scope`.
    fn eval(&mut self, e: &BoundExpr, scope: &Scope<'_>) -> Result<Tri> {
        let hv = self.hostvars;
        match e {
            BoundExpr::Cmp { op, left, right } => {
                op.eval(scalar(hv, left, scope)?, scalar(hv, right, scope)?)
            }
            BoundExpr::Between {
                scalar: s,
                low,
                high,
                negated,
            } => {
                let v = scalar(hv, s, scope)?;
                let lo = CmpOp::Ge.eval(v, scalar(hv, low, scope)?)?;
                let t = lo.and(CmpOp::Le.eval(v, scalar(hv, high, scope)?)?);
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
                    t = t.or(CmpOp::Eq.eval(v, scalar(hv, item, scope)?)?);
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
                        t = t.or(CmpOp::Eq.eval(v, inner.attr(attr)?)?);
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

/// A build row whose key holds a `NULL`: it joins nothing.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A join's build side grouped by key slot: slot `s`'s row ids, in
/// build order, are `ids[starts[s]..starts[s + 1]]`. The slots come from
/// a hash map ([`hash_join`]) or, in the encoded access, straight from
/// the key's code words (a dense table, `crate::columnar`), so both
/// probe this one table. Under a proved-unique key each slot holds at
/// most one row.
pub(crate) struct Postings {
    starts: Vec<u32>,
    ids: Vec<u32>,
}

impl Postings {
    /// Group the `build` row ids by `slot_of`, each build row's slot
    /// below `slots` or [`NO_SLOT`]: counted per slot, then filled
    /// back to front so each slot keeps build order.
    pub(crate) fn new(build: &[u32], slot_of: &[u32], slots: usize) -> Postings {
        let mut starts = vec![0u32; slots + 1];
        for &slot in slot_of.iter().filter(|&&s| s != NO_SLOT) {
            starts[slot as usize] += 1;
        }
        // Each slot's end; filling decrements it to the slot's start.
        let mut end = 0;
        for start in &mut starts {
            end += *start;
            *start = end;
        }
        let mut ids = vec![0u32; end as usize];
        for (&r, &slot) in build.iter().zip(slot_of).rev() {
            if slot != NO_SLOT {
                let cursor = &mut starts[slot as usize];
                *cursor -= 1;
                ids[*cursor as usize] = r;
            }
        }
        Postings { starts, ids }
    }

    /// Probe once per tuple of `tuples` (`stride` ids each) at the slot
    /// `slot` gives, and `emit` the tuple with each build row of that
    /// slot, in build order. A `unique` step books one probe step per
    /// probe; any other walks its postings (one step per match, plus
    /// one); a miss books one. Returns the (probes, probe steps) made.
    pub(crate) fn probe(
        &self,
        tuples: &[u32],
        stride: usize,
        slot: impl Fn(&[u32]) -> Probe<u32>,
        unique: bool,
        mut emit: impl FnMut(&[u32], u32) -> Result<()>,
    ) -> Result<(u64, u64)> {
        let (mut probes, mut steps) = (0, 0);
        for tuple in tuples.chunks_exact(stride) {
            let hits = match slot(tuple) {
                Probe::Null => continue,
                Probe::Miss => &[][..],
                Probe::Key(s) => {
                    let s = s as usize;
                    &self.ids[self.starts[s] as usize..self.starts[s + 1] as usize]
                }
            };
            probes += 1;
            steps += if unique { 1 } else { hits.len() as u64 + 1 };
            for &m in hits {
                emit(tuple, m)?;
            }
        }
        Ok((probes, steps))
    }
}

/// The hash join, shared by both access methods for keys without a
/// dense domain: number the `build` row ids' distinct `build_key`s
/// (`None`, a `NULL` component, never matches) in a hash map under the
/// executor's keyed hasher, group them into [`Postings`], then probe
/// once per tuple of `tuples` through the map. Booking as
/// [`Postings::probe`]; returns the (hash probes, probe steps) booked.
pub(crate) fn hash_join<K: Hash + Eq>(
    tuples: &[u32],
    stride: usize,
    build: &[u32],
    build_key: impl Fn(u32) -> Option<K>,
    probe_key: impl Fn(&[u32]) -> Probe<K>,
    unique: bool,
    emit: impl FnMut(&[u32], u32) -> Result<()>,
) -> Result<(u64, u64)> {
    let mut slots: HashMap<K, u32> = HashMap::default();
    let slot_of: Vec<u32> = (build.iter())
        .map(|&r| {
            build_key(r).map_or(NO_SLOT, |key| {
                let next = slots.len() as u32;
                *slots.entry(key).or_insert(next)
            })
        })
        .collect();
    let table = Postings::new(build, &slot_of, slots.len());
    let slot = |tuple: &[u32]| match probe_key(tuple) {
        Probe::Null => Probe::Null,
        Probe::Miss => Probe::Miss,
        Probe::Key(key) => slots.get(&key).map_or(Probe::Miss, |&s| Probe::Key(s)),
    };
    table.probe(tuples, stride, slot, unique, emit)
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
    fn postings_emit_in_probe_order_then_build_order() {
        // Build rows 5, 3, 9 and 4 in slots 1, none (a NULL key), 1 and 0.
        let table = Postings::new(&[5, 3, 9, 4], &[1, NO_SLOT, 1, 0], 2);
        let slot = |tuple: &[u32]| match tuple[0] {
            7 => Probe::Key(1),
            8 => Probe::Key(0),
            9 => Probe::Miss,
            _ => Probe::Null,
        };
        let mut hits = Vec::new();
        let booked = table.probe(&[7, 8, 9, 0], 1, slot, false, |tuple, m| {
            hits.push((tuple[0], m));
            Ok(())
        });
        assert_eq!(hits, vec![(7, 5), (7, 9), (8, 4)]);
        // Two hits + 1, one hit + 1, a miss; a NULL key books nothing.
        assert_eq!(booked.unwrap(), (3, 6));
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
    fn a_probe_whose_index_is_gone_runs_the_planned_join_method() {
        // Planned with IDX_S_SNO alone: PARTS scans in full, SUPPLIER
        // joins in by probing the index…
        let mut db = supplier_database().unwrap();
        db.run_script("CREATE UNIQUE INDEX IDX_S_SNO ON SUPPLIER (SNO);")
            .unwrap();
        let sql = "SELECT P.PNO, S.SNAME FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let plan = cost_plan(&db, &q);
        let PhysNode::Block(b) = &plan.root else {
            panic!("expected block")
        };
        assert!(b.ixscan.is_none() && b.joins[0].ix.is_some(), "{plan:?}");
        assert_eq!(b.joins[0].method, JoinMethod::Hash);
        // …then run on a database without it: the step hashes instead.
        let plain = supplier_database().unwrap();
        let hv = HostVars::new();
        let mut ex = Executor::new(&plain, &hv);
        let rows = ex.run_with_plan(&q, &plan).unwrap();
        let mut oracle = Executor::new(&plain, &hv);
        assert_eq!(sorted(rows), sorted(oracle.run(&q).unwrap()));
        assert_eq!(ex.stats.ix_probes, 0, "{:?}", ex.stats);
        assert_eq!(ex.stats.hash_joins, 1, "the planned hash join runs");
    }

    #[test]
    fn an_index_of_the_same_name_over_other_columns_is_not_probed() {
        // Both index names are kept, over other columns: the live
        // definitions differ from the planned ones, so neither the scan
        // nor the join step probes.
        let db = indexed_supplier_db();
        let sql = "SELECT P.PNO, S.SNAME FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        let plan = cost_plan(&db, &q);
        let PhysNode::Block(b) = &plan.root else {
            panic!("expected block")
        };
        assert!(b.ixscan.is_some() && b.joins[0].ix.is_some(), "{plan:?}");
        let mut other = supplier_database().unwrap();
        other
            .run_script(
                "CREATE INDEX IDX_S_SNO ON SUPPLIER (SNAME);
                 CREATE INDEX IDX_P_COLOR ON PARTS (PNAME);",
            )
            .unwrap();
        let hv = HostVars::new();
        let mut ex = Executor::new(&other, &hv);
        let rows = ex.run_with_plan(&q, &plan).unwrap();
        let mut oracle = Executor::new(&other, &hv);
        assert_eq!(sorted(rows), sorted(oracle.run(&q).unwrap()));
        assert_eq!(ex.stats.ix_probes, 0, "{:?}", ex.stats);
        assert_eq!(b.joins[0].method, JoinMethod::Hash);
        assert_eq!(ex.stats.hash_joins, 1, "the planned hash join runs");
    }

    #[test]
    fn an_early_stop_whose_index_is_gone_scans_sorts_and_cuts() {
        let mut db = supplier_database().unwrap();
        db.run_script("CREATE INDEX IDX_S_BUDGET ON SUPPLIER (BUDGET);")
            .unwrap();
        let sql = "SELECT S.SNO, S.BUDGET FROM SUPPLIER S ORDER BY S.BUDGET LIMIT 2";
        let output =
            uniq_plan::bind_output(db.catalog(), &uniq_sql::parse_full_query(sql).unwrap())
                .unwrap();
        let plan = uniq_cost::plan_output(&output, None, PlannerOptions::default());
        let licensed = |op: &OutputOp| {
            matches!(
                op,
                OutputOp::Limit {
                    early_stop: Some(_),
                    ..
                }
            )
        };
        assert!(plan.output.iter().any(licensed), "{plan:?}");
        let hv = HostVars::new();
        let mut walk = Executor::new(&db, &hv);
        let walked = walk.run_output(&output, &plan).unwrap();
        assert_eq!(walk.stats.early_stops, 1, "{:?}", walk.stats);
        // The same plan on a database without the index: scan, sort, cut.
        let plain = supplier_database().unwrap();
        let mut ex = Executor::new(&plain, &hv);
        let rows = ex.run_output(&output, &plan).unwrap();
        assert_eq!(rows, walked);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(5), Value::Int(0)],
                vec![Value::Int(4), Value::Int(300)],
            ]
        );
        assert_eq!(ex.stats.early_stops, 0, "{:?}", ex.stats);
        assert_eq!((ex.stats.ix_probes, ex.stats.sorts), (0, 1));
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
