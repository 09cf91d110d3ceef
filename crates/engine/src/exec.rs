//! The block executor. It runs [`PhysicalPlan`]s and makes no physical
//! choice of its own: join order, join and distinct methods, index
//! access and the early stop all come from the plan.
//!
//! A bound block `π_d[A](σ[C](T0 × T1 × …))` executes as a left-deep
//! pipeline over the `FROM` tables in the plan's join order. Each
//! top-level conjunct of `C` is assigned to the earliest pipeline
//! position at which all the attributes it references are bound, so
//! selections are pushed down as far as the conjunct structure allows.
//! A hash step builds on the equality conjuncts linking the new table to
//! the bound ones (`NULL` join keys excluded on both sides, per
//! `WHERE`-clause `=` semantics) and is a cross product when there are
//! none; a nested-loop step re-scans the table per partial tuple.
//!
//! Subquery blocks have no plan node. They run as nested loops through
//! `Executor::enumerate`, `EXISTS` with a row limit of one —
//! first-match early exit, the behaviour §6's navigational arguments
//! rely on.

use crate::setops::{combine_setop, distinct};
use crate::stats::{ExecStats, JoinMethod};
use std::collections::HashMap;
use uniq_catalog::{Database, Row};
use uniq_cost::{
    find_index_probe, find_index_sarg, BlockPlan, IndexProbe, Justification, OutputOp, PhysNode,
    PhysicalPlan, PlannerOptions, ProbeSource,
};
use uniq_plan::{
    AttrRef, BScalar, BoundExpr, BoundOutput, BoundQuery, BoundSpec, FromTable, HostVars,
};
use uniq_sql::CmpOp;
use uniq_types::{Error, Result, Tri, Value};

/// Executes bound queries against a database.
pub struct Executor<'a> {
    pub(crate) db: &'a Database,
    pub(crate) hostvars: &'a HostVars,
    /// Columnar encodings of the database, once `ANALYZE` has built them
    /// (see [`crate::columnar::ColumnStore`]). Blocks the planner marked
    /// columnar execute on the vectorized kernels when the store is
    /// fresh; everything else (and every run without a store) uses the
    /// row pipeline below, which remains the oracle.
    columns: Option<&'a crate::columnar::ColumnStore>,
    /// Work counters, accumulated across the whole run.
    pub stats: ExecStats,
    /// Per-operator output counts, parallel to the physical plan's
    /// operator registry.
    actuals: Vec<u64>,
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
    pub fn with_columns(
        mut self,
        columns: Option<&'a crate::columnar::ColumnStore>,
    ) -> Executor<'a> {
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
    /// output cardinality (see [`Executor::actuals`]). A plan that does
    /// not mirror the query's shape is an internal error.
    pub fn run_with_plan(&mut self, query: &BoundQuery, plan: &PhysicalPlan) -> Result<Vec<Row>> {
        self.actuals = vec![0; plan.ops.len()];
        let rows = self.exec_query(query, &[], &plan.root)?;
        self.stats.rows_output += rows.len() as u64;
        Ok(rows)
    }

    /// Execute a full query — body plus aggregation / `ORDER BY` /
    /// `LIMIT` output clauses — under `plan`, recording the actual
    /// cardinalities of its [`OutputOp`]s too.
    ///
    /// Fast paths, in order:
    ///
    /// 1. **Early-stop Top-K** — when the plan's `Limit` carries an
    ///    early-stop license whose index is still live, walk the
    ///    ordered index and stop after `k` emitted rows (books
    ///    `early_stops` / `topk_rows_examined`).
    /// 2. **Columnar aggregation** — an aggregate over a block the
    ///    planner marked columnar groups on dictionary codes without
    ///    materializing body rows.
    /// 3. **Row aggregation** — hash grouping, or the proof-elided
    ///    zero-hash one-pass.
    ///
    /// Then sort (engine total order, `NULL`s first) and limit.
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

        let mut rows = None;
        if let Some(agg) = &output.agg {
            // Columnar aggregate: dictionary-coded group keys, no body
            // materialization. Same coverage gate as the plain path.
            if let (Some(spec), Some(store), PhysNode::Block(bp)) =
                (output.body.as_spec(), self.columns, &plan.root)
            {
                if bp.columnar && plan_matches(bp, spec) {
                    rows = crate::columnar::exec_block_agg(self, store, spec, bp, agg)?;
                }
            }
            if rows.is_none() {
                let body = self.exec_query(&output.body, &[], &plan.root)?;
                rows = Some(crate::agg::aggregate_rows(agg, body, &mut self.stats)?);
            }
        }
        let mut rows = match rows {
            Some(r) => r,
            None => self.exec_query(&output.body, &[], &plan.root)?,
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
        let ids = db.index_range(
            &table.schema.name,
            index,
            &[],
            std::ops::Bound::Unbounded,
            std::ops::Bound::Unbounded,
        )?;
        self.stats.ix_probes += 1;
        let all = db.rows(&table.schema.name)?;
        let mut out: Vec<Row> = Vec::new();
        let mut examined = 0u64;
        for &r in &ids {
            let tuple = &all[r];
            examined += 1;
            self.stats.rows_scanned += 1;
            if let Some(pred) = &spec.predicate {
                if self.eval(pred, &[], tuple)? != Tri::True {
                    continue;
                }
            }
            out.push(project(spec, tuple));
            if out.len() as u64 >= k {
                break;
            }
        }
        self.stats.topk_rows_examined += examined;
        if (examined as usize) < ids.len() {
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

    /// Measured per-operator output cardinalities of the last run,
    /// indexed by the plan's [`OpId`](uniq_cost::OpId)s.
    pub fn actuals(&self) -> &[u64] {
        &self.actuals
    }

    pub(crate) fn record(&mut self, id: usize, count: usize) {
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

    fn exec_query(
        &mut self,
        query: &BoundQuery,
        outer: &[Vec<Value>],
        node: &PhysNode,
    ) -> Result<Vec<Row>> {
        match (query, node) {
            (BoundQuery::Spec(spec), PhysNode::Block(bp)) => self.exec_spec(spec, outer, bp),
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
                let l = self.exec_query(left, outer, l_node)?;
                let r = self.exec_query(right, outer, r_node)?;
                let out = combine_setop(*op, *all, l, r, *method, &mut self.stats)?;
                self.record(*id, out.len());
                Ok(out)
            }
            _ => Err(plan_mismatch()),
        }
    }

    fn exec_spec(
        &mut self,
        spec: &BoundSpec,
        outer: &[Vec<Value>],
        bp: &BlockPlan,
    ) -> Result<Vec<Row>> {
        if !plan_matches(bp, spec) {
            return Err(plan_mismatch());
        }
        // Columnar fast path: only for top-level blocks the planner
        // marked columnar, and only when the store covers the block and
        // is fresh — `exec_block` returning `None` means "not covered",
        // and the row pipeline below handles the block as always.
        if let Some(store) = self.columns {
            if bp.columnar && outer.is_empty() {
                if let Some(rows) = crate::columnar::exec_block(self, store, spec, bp)? {
                    return Ok(rows);
                }
            }
        }
        let product = self.block_rows_planned(spec, outer, bp)?;
        // Consuming the product frees each tuple once it is projected.
        let mut rows: Vec<Row> = product.into_iter().map(|t| project(spec, &t)).collect();
        self.record(bp.project, rows.len());
        if let Some(d) = bp.distinct {
            rows = distinct(rows, d.method, &mut self.stats)?;
            self.record(d.id, rows.len());
        }
        Ok(rows)
    }

    // --- nested-loop enumeration ---------------------------------------

    /// Nested loops over a subquery block's `FROM` tables in order,
    /// collecting up to `limit` full-arity tuples that pass its
    /// conjuncts.
    fn enumerate(
        &mut self,
        spec: &BoundSpec,
        outer: &[Vec<Value>],
        limit: Option<usize>,
        out: &mut Vec<Row>,
    ) -> Result<()> {
        if spec.from.is_empty() {
            return Err(Error::internal("block with empty FROM clause"));
        }
        let order: Vec<usize> = (0..spec.from.len()).collect();
        let levels = planned_levels(spec, &order);
        let mut scratch = vec![Value::Null; spec.product_arity()];
        self.enumerate_level(spec, outer, &levels, 0, &mut scratch, limit, out)
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_level(
        &mut self,
        spec: &BoundSpec,
        outer: &[Vec<Value>],
        levels: &[Vec<&BoundExpr>],
        level: usize,
        scratch: &mut Vec<Value>,
        limit: Option<usize>,
        out: &mut Vec<Row>,
    ) -> Result<()> {
        if level == spec.from.len() {
            out.push(scratch.clone());
            return Ok(());
        }
        let table = &spec.from[level];
        let db = self.db;
        let rows = db.rows(&table.schema.name)?;
        let offset = table.offset;
        'rows: for row in rows {
            if limit.is_some_and(|l| out.len() >= l) {
                return Ok(());
            }
            self.stats.rows_scanned += 1;
            scratch[offset..offset + row.len()].clone_from_slice(row);
            for conjunct in &levels[level] {
                let t = self.eval(conjunct, outer, scratch)?;
                if !t.false_interpreted() {
                    continue 'rows;
                }
            }
            self.enumerate_level(spec, outer, levels, level + 1, scratch, limit, out)?;
        }
        Ok(())
    }

    // --- hash join step ----------------------------------------------------

    /// One hash join step: join `table` onto `partials` using this
    /// level's conjuncts. Equality conjuncts linking an
    /// already-bound attribute (per `is_placed`) to the new table become
    /// hash keys; conjuncts touching only the new table filter its build
    /// side; the rest run as residual filters over the combined tuples.
    /// Without any key the step degrades to a Cartesian product with the
    /// (still filtered, still materialized-once) build side.
    fn hash_step(
        &mut self,
        table: &FromTable,
        outer: &[Vec<Value>],
        partials: Vec<Row>,
        conjuncts: &[&BoundExpr],
        arity: usize,
        is_placed: &dyn Fn(usize) -> bool,
    ) -> Result<Vec<Row>> {
        let range = table.attr_range();
        let mut self_conj = Vec::new();
        let mut join_keys = Vec::new();
        let mut residual = Vec::new();
        for &c in conjuncts {
            if let Some(key) = equi_join_key(c, &range, is_placed) {
                join_keys.push(key);
                continue;
            }
            let mut only_new = true;
            visit_attr_refs(c, &mut |depth, a| {
                if a.up == depth && !range.contains(&a.idx) {
                    only_new = false;
                }
            });
            // Conjuncts with subqueries always go residual: their
            // evaluation may consult any bound attribute.
            if only_new && !contains_subquery(c) {
                self_conj.push(c);
            } else {
                residual.push(c);
            }
        }

        // Build side: filtered rows of the new table, placed into an
        // otherwise-null scratch (self_conj only touches new attrs).
        let mut build: Vec<Row> = Vec::new();
        {
            let db = self.db;
            let rows = db.rows(&table.schema.name)?;
            let mut scratch = vec![Value::Null; arity];
            'rows: for row in rows {
                self.stats.rows_scanned += 1;
                scratch[range.start..range.end].clone_from_slice(row);
                for c in &self_conj {
                    if !self.eval(c, outer, &scratch)?.false_interpreted() {
                        continue 'rows;
                    }
                }
                build.push(row.clone());
            }
        }

        let mut next: Vec<Row> = Vec::new();
        if join_keys.is_empty() {
            // Cartesian with the build side.
            for partial in &partials {
                for row in &build {
                    let mut tuple = partial.clone();
                    tuple[range.start..range.end].clone_from_slice(row);
                    next.push(tuple);
                }
            }
        } else {
            self.stats.hash_joins += 1;
            // Hash the build side on its key columns; NULL keys never
            // match under WHERE `=` and are excluded.
            let mut table_map: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            'build: for (i, row) in build.iter().enumerate() {
                let mut key = Vec::with_capacity(join_keys.len());
                for &(_, new_attr) in &join_keys {
                    let v = &row[new_attr - range.start];
                    if v.is_null() {
                        continue 'build;
                    }
                    key.push(v.clone());
                }
                table_map.entry(key).or_default().push(i);
            }
            'probe: for partial in &partials {
                let mut key = Vec::with_capacity(join_keys.len());
                for &(built_attr, _) in &join_keys {
                    let v = &partial[built_attr];
                    if v.is_null() {
                        continue 'probe;
                    }
                    key.push(v.clone());
                }
                self.stats.hash_probes += 1;
                match table_map.get(&key) {
                    Some(matches) => {
                        // Chained bucket: one step per entry plus the
                        // end-of-chain check.
                        self.stats.probe_steps += matches.len() as u64 + 1;
                        for &i in matches {
                            let mut tuple = partial.clone();
                            tuple[range.start..range.end].clone_from_slice(&build[i]);
                            next.push(tuple);
                        }
                    }
                    None => self.stats.probe_steps += 1,
                }
            }
        }

        // Residual conjuncts.
        if !residual.is_empty() {
            let mut filtered = Vec::with_capacity(next.len());
            'tuples: for tuple in next {
                for c in &residual {
                    if !self.eval(c, outer, &tuple)?.false_interpreted() {
                        continue 'tuples;
                    }
                }
                filtered.push(tuple);
            }
            next = filtered;
        }
        Ok(next)
    }

    // --- planned pipeline -------------------------------------------------

    /// Execute a block following its [`BlockPlan`]: the planner's join
    /// input order, its per-step join methods and index licenses, and
    /// per-operator actual-output recording.
    fn block_rows_planned(
        &mut self,
        spec: &BoundSpec,
        outer: &[Vec<Value>],
        bp: &BlockPlan,
    ) -> Result<Vec<Row>> {
        let arity = spec.product_arity();
        let levels = planned_levels(spec, &bp.order);

        // First table of the planned order: filtered scan.
        let t0 = &spec.from[bp.order[0]];
        // Planned index access path: re-derive the sarg and serve the
        // scan from the index when the license still holds.
        let ix_rows = match &bp.ixscan {
            Some(info) => self.ix_scan(spec, bp.order[0], &levels[0], info, outer)?,
            None => None,
        };
        let mut partials: Vec<Row>;
        if let Some(rows) = ix_rows {
            partials = rows;
        } else {
            partials = Vec::new();
            let db = self.db;
            let rows = db.rows(&t0.schema.name)?;
            let mut scratch = vec![Value::Null; arity];
            'rows: for row in rows {
                self.stats.rows_scanned += 1;
                scratch[t0.offset..t0.offset + row.len()].clone_from_slice(row);
                for c in &levels[0] {
                    if !self.eval(c, outer, &scratch)?.false_interpreted() {
                        continue 'rows;
                    }
                }
                partials.push(scratch.clone());
            }
        }
        self.record(bp.scan, partials.len());

        let mut placed: Vec<std::ops::Range<usize>> = vec![t0.attr_range()];
        for (k, &t) in bp.order.iter().enumerate().skip(1) {
            let step = &bp.joins[k - 1];
            let table = &spec.from[t];
            let range = table.attr_range();
            // Planned index-nested-loop probe: the plan names the index,
            // but the probe key is re-derived here and checked against
            // the live catalog — on any disagreement the step falls
            // back to its planned join method below.
            let probe = match &step.ix {
                Some(info) => find_index_probe(spec, t, &levels[k], &|idx| {
                    placed.iter().any(|r| r.contains(&idx))
                })
                .filter(|p| {
                    Some(p.index.as_str()) == info.index() && self.index_fresh(table, &p.index)
                }),
                None => None,
            };
            if let Some(p) = probe {
                partials = self.ix_join_step(table, outer, partials, &levels[k], &p)?;
                placed.push(range);
                self.record(step.id, partials.len());
                continue;
            }
            match step.method {
                JoinMethod::NestedLoop => {
                    // Re-scan the table once per outer partial; every
                    // conjunct of this level runs on the combined tuple.
                    let db = self.db;
                    let rows = db.rows(&table.schema.name)?;
                    let mut next = Vec::new();
                    for partial in &partials {
                        'rows: for row in rows {
                            self.stats.rows_scanned += 1;
                            let mut tuple = partial.clone();
                            tuple[range.start..range.end].clone_from_slice(row);
                            for c in &levels[k] {
                                if !self.eval(c, outer, &tuple)?.false_interpreted() {
                                    continue 'rows;
                                }
                            }
                            next.push(tuple);
                        }
                    }
                    partials = next;
                }
                JoinMethod::Hash => {
                    partials =
                        self.hash_step(table, outer, partials, &levels[k], arity, &|idx| {
                            placed.iter().any(|r| r.contains(&idx))
                        })?;
                }
            }
            placed.push(range);
            self.record(step.id, partials.len());
        }
        Ok(partials)
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

    /// Serve a block's initial scan through a planned secondary index.
    ///
    /// The plan's [`Justification::IndexAccess`] is a license, not a
    /// promise: the sarg
    /// is re-derived from the spec and checked against the live catalog
    /// before any probe. `Ok(None)` means the license no longer holds —
    /// the caller runs the ordinary full filtered scan, so a dropped or
    /// re-shaped index costs speed, never rows. Every conjunct of the
    /// level is still evaluated over the returned rows; the index only
    /// narrows which rows are visited.
    fn ix_scan(
        &mut self,
        spec: &BoundSpec,
        t: usize,
        conjuncts: &[&BoundExpr],
        info: &Justification,
        outer: &[Vec<Value>],
    ) -> Result<Option<Vec<Row>>> {
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
        let mut prefix = Vec::with_capacity(sarg.prefix.len());
        for s in &sarg.prefix {
            let v = self.scalar(s, outer, &[])?;
            if v.is_null() {
                return Ok(Some(Vec::new()));
            }
            prefix.push(v);
        }
        let resolve_bound = |s: &Option<(uniq_plan::BScalar, bool)>| -> Result<_> {
            Ok(match s {
                Some((s, inc)) => {
                    let v = self.scalar(s, outer, &[])?;
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

        let rows = db.rows(name)?;
        let mut scratch = vec![Value::Null; spec.product_arity()];
        let mut out = Vec::new();
        'rows: for &p in &positions {
            let row = &rows[p];
            self.stats.rows_scanned += 1;
            scratch[table.offset..table.offset + row.len()].clone_from_slice(row);
            for c in conjuncts {
                if !self.eval(c, outer, &scratch)?.false_interpreted() {
                    continue 'rows;
                }
            }
            out.push(scratch.clone());
        }
        Ok(Some(out))
    }

    /// One index-nested-loop join step: probe the named index once per
    /// outer partial — key assembled from already-bound attributes and
    /// constants — and join the matched rows. The probed table is never
    /// scanned and no hash table is built; a unique index makes every
    /// probe a guaranteed one-row lookup costing exactly one probe
    /// step. All level conjuncts are re-evaluated over the combined
    /// tuples, so the probe can only skip work, never change results.
    fn ix_join_step(
        &mut self,
        table: &FromTable,
        outer: &[Vec<Value>],
        partials: Vec<Row>,
        conjuncts: &[&BoundExpr],
        probe: &IndexProbe,
    ) -> Result<Vec<Row>> {
        let range = table.attr_range();
        let db = self.db;
        let name = &table.schema.name;
        let rows = db.rows(name)?;
        let mut next = Vec::new();
        'probe: for partial in &partials {
            let mut key = Vec::with_capacity(probe.sources.len());
            for src in &probe.sources {
                let v = match src {
                    ProbeSource::Outer(idx) => partial[*idx].clone(),
                    ProbeSource::Const(s) => self.scalar(s, outer, partial)?,
                };
                if v.is_null() {
                    continue 'probe; // `=` never matches NULL
                }
                key.push(v);
            }
            self.stats.ix_probes += 1;
            let positions = db.index_probe(name, &probe.index, &key)?;
            self.stats.probe_steps += if probe.unique {
                1
            } else {
                positions.len() as u64 + 1
            };
            'matches: for &p in positions {
                let row = &rows[p];
                let mut tuple = partial.clone();
                tuple[range.start..range.end].clone_from_slice(row);
                for c in conjuncts {
                    if !self.eval(c, outer, &tuple)?.false_interpreted() {
                        continue 'matches;
                    }
                }
                next.push(tuple);
            }
        }
        Ok(next)
    }

    // --- expression evaluation -------------------------------------------

    fn resolve<'v>(
        &self,
        a: &AttrRef,
        outer: &'v [Vec<Value>],
        current: &'v [Value],
    ) -> Result<&'v Value> {
        if a.up == 0 {
            current
                .get(a.idx)
                .ok_or_else(|| Error::internal(format!("attr #{} out of range", a.idx)))
        } else {
            let scope = outer
                .len()
                .checked_sub(a.up)
                .and_then(|i| outer.get(i))
                .ok_or_else(|| {
                    Error::internal(format!("correlated ref up={} escapes scope", a.up))
                })?;
            scope
                .get(a.idx)
                .ok_or_else(|| Error::internal(format!("outer attr #{} out of range", a.idx)))
        }
    }

    fn scalar(&self, s: &BScalar, outer: &[Vec<Value>], current: &[Value]) -> Result<Value> {
        Ok(match s {
            BScalar::Literal(v) => v.clone(),
            BScalar::HostVar(h) => self.hostvars.get(h)?.clone(),
            BScalar::Attr(a) => self.resolve(a, outer, current)?.clone(),
        })
    }

    /// Evaluate a predicate under three-valued logic.
    pub(crate) fn eval(
        &mut self,
        e: &BoundExpr,
        outer: &[Vec<Value>],
        current: &[Value],
    ) -> Result<Tri> {
        match e {
            BoundExpr::Cmp { op, left, right } => {
                let l = self.scalar(left, outer, current)?;
                let r = self.scalar(right, outer, current)?;
                cmp_tri(*op, &l, &r)
            }
            BoundExpr::Between {
                scalar,
                low,
                high,
                negated,
            } => {
                let v = self.scalar(scalar, outer, current)?;
                let lo = self.scalar(low, outer, current)?;
                let hi = self.scalar(high, outer, current)?;
                let t = cmp_tri(CmpOp::Ge, &v, &lo)?.and(cmp_tri(CmpOp::Le, &v, &hi)?);
                Ok(if *negated { t.not() } else { t })
            }
            BoundExpr::InList {
                scalar,
                list,
                negated,
            } => {
                let v = self.scalar(scalar, outer, current)?;
                let mut t = Tri::False;
                for item in list {
                    let i = self.scalar(item, outer, current)?;
                    t = t.or(cmp_tri(CmpOp::Eq, &v, &i)?);
                }
                Ok(if *negated { t.not() } else { t })
            }
            BoundExpr::IsNull { scalar, negated } => {
                let v = self.scalar(scalar, outer, current)?;
                Ok(Tri::from_bool(v.is_null() != *negated))
            }
            BoundExpr::Exists { negated, subquery } => {
                self.stats.subquery_evals += 1;
                let mut scopes: Vec<Vec<Value>> = outer.to_vec();
                scopes.push(current.to_vec());
                // First-match early exit: one row decides.
                let mut found = Vec::new();
                self.enumerate(subquery, &scopes, Some(1), &mut found)?;
                Ok(Tri::from_bool(found.is_empty() == *negated))
            }
            BoundExpr::InSubquery {
                scalar,
                subquery,
                negated,
            } => {
                self.stats.subquery_evals += 1;
                let v = self.scalar(scalar, outer, current)?;
                let mut scopes: Vec<Vec<Value>> = outer.to_vec();
                scopes.push(current.to_vec());
                // The block's DISTINCT, if any, is not evaluated: it
                // cannot change the outcome of an IN test.
                let mut tuples = Vec::new();
                self.enumerate(subquery, &scopes, None, &mut tuples)?;
                let attr = subquery.projection[0].attr;
                // SQL IN semantics: true if any comparison is true;
                // otherwise unknown if any comparison is unknown (or the
                // tested value is NULL and the set is non-empty); false
                // otherwise (including the empty set).
                let mut t = Tri::False;
                for tuple in &tuples {
                    t = t.or(cmp_tri(CmpOp::Eq, &v, &tuple[attr])?);
                    if t == Tri::True {
                        break;
                    }
                }
                Ok(if *negated { t.not() } else { t })
            }
            BoundExpr::And(a, b) => {
                // Short-circuit: false dominates regardless of the other
                // operand (including unknown).
                let l = self.eval(a, outer, current)?;
                if l == Tri::False {
                    return Ok(Tri::False);
                }
                Ok(l.and(self.eval(b, outer, current)?))
            }
            BoundExpr::Or(a, b) => {
                let l = self.eval(a, outer, current)?;
                if l == Tri::True {
                    return Ok(Tri::True);
                }
                Ok(l.or(self.eval(b, outer, current)?))
            }
            BoundExpr::Not(a) => Ok(self.eval(a, outer, current)?.not()),
        }
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

/// Is this conjunct `built_attr = new_attr` (either direction) linking an
/// already-bound attribute (per `is_placed`) to the table occupying
/// `range`? (Shared with the columnar kernels, which resolve the same
/// keys against encoded columns.)
pub(crate) fn equi_join_key(
    c: &BoundExpr,
    range: &std::ops::Range<usize>,
    is_placed: &dyn Fn(usize) -> bool,
) -> Option<(usize, usize)> {
    let BoundExpr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    let (a, b) = match (left, right) {
        (BScalar::Attr(a), BScalar::Attr(b)) if a.is_local() && b.is_local() => (a.idx, b.idx),
        _ => return None,
    };
    match (range.contains(&a), range.contains(&b)) {
        (false, true) if is_placed(a) => Some((a, b)),
        (true, false) if is_placed(b) => Some((b, a)),
        _ => None,
    }
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

/// The block's output row for one full-arity tuple.
pub(crate) fn project(spec: &BoundSpec, tuple: &[Value]) -> Row {
    spec.projection
        .iter()
        .map(|p| tuple[p.attr].clone())
        .collect()
}

fn plan_mismatch() -> Error {
    Error::internal("physical plan does not match its query")
}

pub(crate) fn contains_subquery(e: &BoundExpr) -> bool {
    match e {
        BoundExpr::Exists { .. } | BoundExpr::InSubquery { .. } => true,
        BoundExpr::And(a, b) | BoundExpr::Or(a, b) => contains_subquery(a) || contains_subquery(b),
        BoundExpr::Not(a) => contains_subquery(a),
        _ => false,
    }
}

/// Assign each top-level conjunct of `spec` to the earliest position of
/// the planned join `order` at which every table it references is bound
/// (references from nested subqueries included — they see this block's
/// attributes as correlated outers). Shared by the row executor's
/// planned pipeline and the columnar kernels.
pub(crate) fn planned_levels<'e>(spec: &'e BoundSpec, order: &[usize]) -> Vec<Vec<&'e BoundExpr>> {
    let mut pos = vec![0usize; spec.from.len()];
    for (k, &t) in order.iter().enumerate() {
        pos[t] = k;
    }
    let mut levels: Vec<Vec<&BoundExpr>> = vec![Vec::new(); spec.from.len()];
    if let Some(pred) = &spec.predicate {
        for c in pred.conjuncts() {
            let mut level = 0usize;
            visit_attr_refs(c, &mut |depth, a| {
                if a.up == depth {
                    let owner = spec
                        .from
                        .iter()
                        .position(|ft| ft.attr_range().contains(&a.idx));
                    if let Some(at) = owner {
                        level = level.max(pos[at]);
                    }
                }
            });
            levels[level].push(c);
        }
    }
    levels
}

/// Visit every attribute reference in `e` with its subquery depth
/// (plumbing shared with `uniq-core`'s rewrites, duplicated here to
/// keep the engine independent of the optimizer's internals).
pub(crate) fn visit_attr_refs(e: &BoundExpr, f: &mut impl FnMut(usize, &AttrRef)) {
    fn go(e: &BoundExpr, depth: usize, f: &mut impl FnMut(usize, &AttrRef)) {
        let mut scalar = |s: &BScalar| {
            if let BScalar::Attr(a) = s {
                f(depth, a);
            }
        };
        match e {
            BoundExpr::Cmp { left, right, .. } => {
                scalar(left);
                scalar(right);
            }
            BoundExpr::Between {
                scalar: s,
                low,
                high,
                ..
            } => {
                scalar(s);
                scalar(low);
                scalar(high);
            }
            BoundExpr::InList {
                scalar: s, list, ..
            } => {
                scalar(s);
                for item in list {
                    scalar(item);
                }
            }
            BoundExpr::IsNull { scalar: s, .. } => scalar(s),
            BoundExpr::Exists { subquery, .. } => {
                if let Some(p) = &subquery.predicate {
                    go(p, depth + 1, f);
                }
            }
            BoundExpr::InSubquery {
                scalar: s,
                subquery,
                ..
            } => {
                scalar(s);
                if let Some(p) = &subquery.predicate {
                    go(p, depth + 1, f);
                }
            }
            BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
                go(a, depth, f);
                go(b, depth, f);
            }
            BoundExpr::Not(a) => go(a, depth, f),
        }
    }
    go(e, 0, f);
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
