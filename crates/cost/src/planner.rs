//! The physical planner: the one place physical choices are made. The
//! executor runs whatever [`PhysicalPlan`] this module hands it.
//!
//! With collected [`Statistics`] the planner is cost-based. For every
//! query block it chooses a join input order (greedy: start from the
//! smallest filtered table, then repeatedly add the table minimizing the
//! estimated intermediate size) and, per pipeline step, a physical
//! method. These costs are expressed in the executor's own counters so
//! the model is falsifiable:
//!
//! * a nested-loop step re-scans its table once per outer partial →
//!   `outer × rows` scans;
//! * a hash step scans its table once to build and probes once per
//!   outer partial → `rows + outer`;
//! * a cross step (no equality keys) materializes the build side once →
//!   `rows` scans;
//! * an index probe step costs one probe per outer partial plus the rows
//!   it emits, and an index scan is taken when it reads fewer rows than
//!   the full scan;
//! * sort-based duplicate elimination costs `n·log₂n` comparisons,
//!   hash-based costs `n` probes.
//!
//! One choice is priced in nanoseconds instead ([`crate::price`]): the
//! access of a block the encoded kernels cover. Without an index
//! operator such a block is licensed columnar. With one, the rows access
//! through the index and the encoded access over the same join order are
//! both priced from the block's estimates, the license goes to the
//! cheaper, and both prices are kept on the plan for `EXPLAIN`. The index
//! licenses stay either way: they are the rows access's plan.
//!
//! Two provable caps tighten the estimates: a join whose equality keys
//! cover a candidate key of the incoming table emits at most the outer
//! side (each outer partial matches at most one row), and a block
//! proved duplicate-free by Algorithm 1 / the FD test emits at most the
//! product of its projected columns' active domains, each table's share
//! capped at its row count ([`Estimator::unique_output_bound`]).
//!
//! Without statistics (before `ANALYZE`) the planner builds the *fixed*
//! plan: the `FROM` order, [`PlannerOptions::join`] on every join step,
//! [`PlannerOptions::distinct`] for every `DISTINCT` and set operation,
//! and no index or columnar license. A fixed plan carries no estimates
//! ([`PhysicalPlan::estimated`] is false).

use crate::estimate::Estimator;
use crate::physical::{
    AccessPrices, BlockPlan, DistinctMethod, DistinctStep, JoinMethod, JoinStep, OpId, OpInfo,
    OutputOp, PhysNode, PhysicalPlan,
};
use crate::price::{encoded_price, rows_price, Fetch, Step};
use crate::stats::Statistics;
use std::collections::BTreeSet;
use uniq_plan::{BScalar, BoundAggItem, BoundExpr, BoundOutput, BoundQuery, BoundSpec};
use uniq_sql::{CmpOp, SetOp};

/// Session-level planner configuration: the three physical knobs.
///
/// The columnar license is not among them: a cost-based plan licenses
/// each block the vectorized kernels cover, unless the block's index
/// operators are priced cheaper (see [`BlockPlan::columnar`]), and fixed
/// plans never carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlannerOptions {
    /// The join method of every step of a fixed plan. The cost-based
    /// planner chooses per step instead.
    pub join: JoinMethod,
    /// The duplicate-elimination method of every `DISTINCT` and set
    /// operation of a fixed plan. The cost-based planner chooses per
    /// node instead.
    pub distinct: DistinctMethod,
    /// Grant the `ORDER BY key-prefix LIMIT k` early-stop license (see
    /// [`OutputOp::Limit`]), with or without statistics. Off = always
    /// scan, sort and cut: the oracle the early-stopping path is tested
    /// against, and the E23 baseline.
    pub early_stop: bool,
}

impl Default for PlannerOptions {
    fn default() -> PlannerOptions {
        PlannerOptions {
            join: JoinMethod::default(),
            distinct: DistinctMethod::default(),
            early_stop: true,
        }
    }
}

/// Plan a bound (typically optimizer-rewritten) query: cost-based
/// against `stats`, or the fixed plan when there are none.
pub fn plan_query(
    query: &BoundQuery,
    stats: Option<&Statistics>,
    options: PlannerOptions,
) -> PhysicalPlan {
    let mut planner = Planner::new(stats, options);
    let (root, _) = planner.plan_node(query);
    planner.finish(root, Vec::new())
}

/// Plan a full (optimizer-rewritten) query — body plus aggregation /
/// `ORDER BY` / `LIMIT` output operators — cost-based against `stats`,
/// or the fixed plan when there are none.
///
/// Output-operator estimates carry the uniqueness-derived hard bounds:
/// an aggregate can emit at most `min(input, Π dom(group col))` groups
/// — and *exactly* its input when the grouping was proof-elided (every
/// row is its own group); a limit emits at most `k`. When
/// [`PlannerOptions::early_stop`] is set and the `ORDER BY` columns are
/// an ascending prefix of an ordered index on a plain single-table
/// block, the sort is dropped entirely and the limit carries an
/// early-stop license: the executor walks the index in order and stops
/// after `k` emitted rows.
pub fn plan_output(
    output: &BoundOutput,
    stats: Option<&Statistics>,
    options: PlannerOptions,
) -> PhysicalPlan {
    let early_stop = early_stop_license(output).filter(|_| options.early_stop);
    let mut planner = Planner::new(stats, options);
    planner.walk = early_stop.as_ref().and(output.limit).map(|k| k as f64);
    let (root, body_est) = planner.plan_node(&output.body);
    let mut est = body_est;
    let mut out_ops: Vec<OutputOp> = Vec::new();

    if let Some(agg) = &output.agg {
        // Group-count hard bound: the distinct group tuples cannot
        // exceed the product of the grouping columns' active domains.
        // A proof-elided grouping emits exactly its input; an empty
        // group set produces the one global group even on empty input.
        est = if agg.group_count == 0 {
            1.0
        } else if agg.group_elided {
            body_est
        } else {
            let dom = planner
                .est
                .zip(output.body.as_spec())
                .map(|(estimator, spec)| {
                    (0..agg.group_count)
                        .map(|p| estimator.attr_domain(spec, spec.projection[p].attr))
                        .product::<f64>()
                })
                .unwrap_or(f64::INFINITY);
            body_est.min(dom)
        };
        let cols: Vec<String> = agg
            .items
            .iter()
            .map(|item| agg_item_label(output, item))
            .collect();
        let id = planner.op(format!("Aggregate [{}]", cols.join(", ")), est);
        out_ops.push(OutputOp::Agg {
            id,
            group_elided: agg.group_elided,
            count_distinct_elided: agg.count_distinct_elided,
        });
    }

    if !output.order_by.is_empty() && early_stop.is_none() {
        let names = output.output_names();
        let cols: Vec<String> = output
            .order_by
            .iter()
            .map(|(p, desc)| format!("{}{}", names[*p], if *desc { " DESC" } else { "" }))
            .collect();
        let id = planner.op(format!("Sort [{}]", cols.join(", ")), est);
        out_ops.push(OutputOp::Sort { id });
    }

    if let Some(k) = output.limit {
        est = est.min(k as f64);
        let id = planner.op(format!("Limit {k}"), est);
        out_ops.push(OutputOp::Limit { id, early_stop });
    }

    planner.finish(root, out_ops)
}

/// Plan the delta term ΔQᵢ of a block that incremental view maintenance
/// evaluates: `FROM` position `i`, which reads the rows a write
/// appended, first, then the other positions in `FROM` order. A step
/// probes when the equalities linking its table to the placed ones,
/// plus constants, cover a secondary index or a declared candidate key
/// (unique targets first; each outer tuple then matches at most one
/// row); otherwise it runs [`PlannerOptions::join`]. The plan has no
/// `DISTINCT`, no columnar license and no estimates. Only delta plans
/// probe declared keys: the executor re-derives a probe the same way.
pub fn plan_delta(spec: &BoundSpec, i: usize, options: PlannerOptions) -> BlockPlan {
    Planner::new(None, options).fixed_block(spec, Some(i))
}

/// Display label of one aggregate output item, e.g. `SNO`,
/// `COUNT(DISTINCT S.SNO)`, `SUM(P.WEIGHT)`, `COUNT(*)`.
fn agg_item_label(output: &BoundOutput, item: &BoundAggItem) -> String {
    match item {
        BoundAggItem::Group { name, .. } => name.to_string(),
        BoundAggItem::Agg {
            func,
            distinct,
            arg,
            ..
        } => {
            let arg_s = match (arg, output.body.as_spec()) {
                (Some(p), Some(spec)) => spec.attr_name(spec.projection[*p].attr),
                (None, _) => "*".into(),
                (Some(_), None) => "?".into(),
            };
            format!(
                "{}({}{arg_s})",
                func.name(),
                if *distinct { "DISTINCT " } else { "" }
            )
        }
    }
}

/// License the `ORDER BY key-prefix LIMIT k` early stop: the output is
/// a plain (no aggregate, `SELECT ALL`) single-table block, every
/// `ORDER BY` column is ascending, and the ordered columns form a
/// prefix of an ordered (B-tree) index's column list — walking that
/// index in canonical order (`NULL`s first, matching the engine's total
/// order) yields rows already sorted, so the scan may stop as soon as
/// `k` rows pass the residual filter.
fn early_stop_license(output: &BoundOutput) -> Option<uniq_proof::Justification> {
    output.limit?;
    if output.agg.is_some() || output.order_by.is_empty() {
        return None;
    }
    let spec = output.body.as_spec()?;
    if spec.distinct != uniq_sql::Distinct::All || spec.from.len() != 1 {
        return None;
    }
    if output.order_by.iter().any(|(_, desc)| *desc) {
        return None;
    }
    let table = &spec.from[0];
    let range = table.attr_range();
    let mut cols = Vec::new();
    for (p, _) in &output.order_by {
        let attr = spec.projection.get(*p)?.attr;
        if !range.contains(&attr) {
            return None;
        }
        cols.push(attr - range.start);
    }
    table.schema.indexes.iter().find_map(|def| {
        (def.ordered && def.columns.len() >= cols.len() && def.columns[..cols.len()] == cols[..])
            .then(|| {
                let desc: Vec<&str> = cols
                    .iter()
                    .map(|&c| table.schema.columns[c].name.as_str())
                    .collect();
                uniq_proof::Justification::ix_scan(&def.name, def.unique, desc.join(","))
            })
    })
}

struct Planner<'a> {
    /// `None` builds the fixed plan.
    est: Option<Estimator<'a>>,
    ops: Vec<OpInfo>,
    options: PlannerOptions,
    /// The `Limit`'s `k` of an early-stop output: its block's rows
    /// access walks the ordered index for at most `k` rows, which is
    /// what its price reads.
    walk: Option<f64>,
}

impl<'a> Planner<'a> {
    fn new(stats: Option<&'a Statistics>, options: PlannerOptions) -> Planner<'a> {
        Planner {
            est: stats.map(Estimator::new),
            ops: Vec::new(),
            options,
            walk: None,
        }
    }

    fn finish(self, root: PhysNode, output: Vec<OutputOp>) -> PhysicalPlan {
        PhysicalPlan {
            root,
            output,
            ops: self.ops,
            estimated: self.est.is_some(),
        }
    }

    fn op(&mut self, label: String, est: f64) -> OpId {
        let id = self.ops.len();
        self.ops.push(OpInfo {
            label,
            est: est.min(u64::MAX as f64).ceil() as u64,
        });
        id
    }

    fn plan_node(&mut self, query: &BoundQuery) -> (PhysNode, f64) {
        match query {
            BoundQuery::Spec(spec) => {
                let (block, est) = match self.est {
                    Some(estimator) => self.plan_block(estimator, spec),
                    None => (self.fixed_block(spec, None), 0.0),
                };
                (PhysNode::Block(block), est)
            }
            BoundQuery::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let (l, l_est) = self.plan_node(left);
                let (r, r_est) = self.plan_node(right);
                let mut est = match op {
                    SetOp::Union => l_est + r_est,
                    // INTERSECT [ALL] emits min(j,k) copies per tuple.
                    SetOp::Intersect => l_est.min(r_est),
                    // EXCEPT [ALL] emits at most the left input.
                    SetOp::Except => l_est,
                };
                // UNION-aware hard cap: a distinct set operation can
                // never emit more than its merged output domains admit,
                // whatever the operand estimates say.
                if let Some(bound) = self.est.and_then(|e| e.query_hard_bound(query)) {
                    est = est.min(bound);
                }
                let concat = *op == SetOp::Union && *all;
                // Hash counting costs n probes; sort-merge costs about
                // n·log₂n comparisons — hash wins beyond tiny inputs.
                let n = l_est + r_est;
                let method = if self.est.is_none() {
                    self.options.distinct
                } else if concat || sort_cost(n) <= n {
                    DistinctMethod::Sort
                } else {
                    DistinctMethod::Hash
                };
                let name = match op {
                    SetOp::Intersect => "Intersect",
                    SetOp::Except => "Except",
                    SetOp::Union => "Union",
                };
                let strategy = if concat {
                    "concat"
                } else {
                    match method {
                        DistinctMethod::Sort => "sort-merge",
                        DistinctMethod::Hash => "hash-count",
                    }
                };
                let label = format!("{name}{} [{strategy}]", if *all { "All" } else { "" });
                let id = self.op(label, est);
                (
                    PhysNode::SetOp {
                        method,
                        id,
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                    est,
                )
            }
        }
    }

    /// The fixed plan of a block: the `FROM` order,
    /// [`PlannerOptions::join`] on every step and
    /// [`PlannerOptions::distinct`] for `DISTINCT`, with no index or
    /// columnar license. The plan of delta term `delta` (see
    /// [`plan_delta`]) starts at that position, has no `DISTINCT` and
    /// probes on every step whose equalities cover an index or a key.
    fn fixed_block(&mut self, spec: &BoundSpec, delta: Option<usize>) -> BlockPlan {
        let method = self.options.join;
        let first = delta.unwrap_or(0);
        let order: Vec<usize> = std::iter::once(first)
            .chain((0..spec.from.len()).filter(|&t| t != first))
            .collect();
        let conjuncts: Vec<&BoundExpr> = (spec.predicate.iter())
            .flat_map(|p| p.conjuncts())
            .collect();
        let joins = (1..order.len())
            .map(|k| {
                let t = order[k];
                let placed = |idx| spec.table_of(idx).is_some_and(|o| order[..k].contains(&o));
                // The executor keys a hash step on the equalities between
                // this table and the tables before it; without one the
                // step is a cross product.
                let range = spec.from[t].attr_range();
                let has_keys =
                    (conjuncts.iter()).any(|c| c.equi_join_key(&range, placed).is_some());
                let probe = delta.and_then(|_| {
                    // The step's level: the conjuncts its table completes.
                    let level: Vec<&BoundExpr> = (conjuncts.iter().copied())
                        .filter(|c| {
                            let owners = owner_tables(spec, c);
                            owners.contains(&t) && owners.iter().all(|o| order[..=k].contains(o))
                        })
                        .collect();
                    crate::sarg::find_index_probe(spec, t, &level, &placed, true)
                });
                let kind = join_kind(method, has_keys, probe.is_some());
                JoinStep {
                    method,
                    id: self.join_op(spec, t, kind, 0.0),
                    unique: false,
                    ix: probe.map(|p| uniq_proof::Justification::ix_join(p.index, p.unique)),
                }
            })
            .collect();
        let scan = self.scan_op(spec, order[0], "", 0.0);
        let distinct = (delta.is_none() && spec.distinct == uniq_sql::Distinct::Distinct)
            .then_some((self.options.distinct, 0.0));
        let (project, distinct) = self.output_ops(spec, 0.0, distinct);
        BlockPlan {
            order,
            scan,
            joins,
            project,
            distinct,
            columnar: false,
            ixscan: None,
            price: None,
        }
    }

    /// Register the operator of the join step introducing `FROM`
    /// position `t`, labelled with the kind of step that runs.
    fn join_op(&mut self, spec: &BoundSpec, t: usize, kind: &str, est: f64) -> OpId {
        let table = &spec.from[t];
        let label = format!(
            "{kind} with Scan {} AS {}",
            table.schema.name, table.binding
        );
        self.op(label, est)
    }

    /// Register the initial scan of `FROM` position `t`.
    fn scan_op(&mut self, spec: &BoundSpec, t: usize, marker: &str, est: f64) -> OpId {
        let table = &spec.from[t];
        let label = format!("Scan {} AS {}{marker}", table.schema.name, table.binding);
        self.op(label, est)
    }

    /// Register a block's projection and, when `distinct` names a method
    /// and estimate, its duplicate elimination.
    fn output_ops(
        &mut self,
        spec: &BoundSpec,
        est: f64,
        distinct: Option<(DistinctMethod, f64)>,
    ) -> (OpId, Option<DistinctStep>) {
        let cols: Vec<String> = spec
            .projection
            .iter()
            .map(|p| spec.attr_name(p.attr))
            .collect();
        let project = self.op(format!("Project [{}]", cols.join(", ")), est);
        let distinct = distinct.map(|(method, d_est)| {
            let label = match method {
                DistinctMethod::Sort => "SortDistinct",
                DistinctMethod::Hash => "HashDistinct",
            };
            DistinctStep {
                method,
                id: self.op(label.to_string(), d_est),
            }
        });
        (project, distinct)
    }

    /// The cost-based plan of a block.
    ///
    /// The join order and each step's method follow the work-unit rules
    /// in the module docs. A block the encoded kernels cover is licensed
    /// columnar when no index operator was chosen for it; when one was,
    /// both accesses are priced in nanoseconds ([`crate::price`]) and the
    /// license goes to the encoded access exactly when it is the cheaper.
    /// The index licenses stay on the plan either way: they are the rows
    /// access's choice, for `query_row_path` and a stale column store.
    fn plan_block(&mut self, est: Estimator, spec: &BoundSpec) -> (BlockPlan, f64) {
        let n = spec.from.len();
        let conjuncts: Vec<&BoundExpr> = spec
            .predicate
            .as_ref()
            .map(|p| p.conjuncts())
            .unwrap_or_default();
        let owners: Vec<BTreeSet<usize>> =
            conjuncts.iter().map(|c| owner_tables(spec, c)).collect();
        let raw: Vec<f64> = spec
            .from
            .iter()
            .map(|t| est.table_rows(&t.schema.name))
            .collect();
        let own = |t: usize| {
            let mine = |o: &&BTreeSet<usize>| o.iter().all(|&x| x == t);
            owners.iter().filter(mine).count()
        };
        let filtered = |t: usize| filtered_rows(est, spec, t, &conjuncts, &owners, raw[t]);

        // Greedy join ordering: start from the smallest filtered table.
        let first = (0..n)
            .min_by(|&a, &b| filtered(a).total_cmp(&filtered(b)))
            .expect("block with empty FROM clause");
        let mut order = vec![first];
        let mut placed: BTreeSet<usize> = BTreeSet::from([first]);
        let mut applied = vec![false; conjuncts.len()];
        let mut cur = filtered(first);
        for (i, o) in owners.iter().enumerate() {
            if o.iter().all(|t| placed.contains(t)) {
                applied[i] = true;
            }
        }

        // Columnar coverage: every conjunct must compile to a code-range
        // or code-equality kernel, and every join step chosen below must
        // be a keyed hash join (the columnar executor has no nested-loop
        // or cross kernel). Tracked alongside the greedy loop so the
        // verdict reflects the order actually chosen; the verdict never
        // feeds back into order or method, so a plan is the same whether
        // or not a column store serves it.
        let mut covered = conjuncts.iter().all(|c| columnar_conjunct(spec, c));

        // Each join step's choices and its estimates for the access
        // prices; its operator is registered once the access is chosen.
        struct Chosen {
            method: JoinMethod,
            has_keys: bool,
            unique: bool,
            est: f64,
            ix: Option<uniq_proof::Justification>,
            step: Step,
        }
        let mut steps: Vec<Chosen> = Vec::new();
        while placed.len() < n {
            // Choose the table minimizing the estimated step output.
            let (next, step_est, has_keys, key_covered) = (0..n)
                .filter(|t| !placed.contains(t))
                .map(|t| {
                    let (step, keys, covered) = step_estimate(
                        est, spec, t, &placed, &conjuncts, &owners, &applied, cur, raw[t],
                    );
                    (t, step, keys, covered)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("unplaced table exists");

            // Method choice in executor work units.
            let nl_cost = cur * raw[next];
            let hash_cost = if has_keys {
                raw[next] + cur
            } else {
                // Cross step: build side scanned once, no probes.
                raw[next]
            };
            // Prefer hash unless nested loops are cheaper by a clear
            // margin (2×) — under-estimated outer cardinalities make
            // nested loops catastrophically wrong, hash merely slower.
            let method = if 2.0 * nl_cost <= hash_cost {
                JoinMethod::NestedLoop
            } else {
                JoinMethod::Hash
            };
            // Index-nested-loop probe: one index probe per outer partial
            // plus the emitted rows, no build pass at all. Preferred
            // over a hash join whenever the build cost dominates (the
            // probed table never gets scanned), and promoted to a
            // guaranteed one-row lookup when the index is unique.
            let step_conjuncts: Vec<&BoundExpr> = conjuncts
                .iter()
                .zip(&owners)
                .zip(&applied)
                .filter(|((_, o), done)| {
                    !**done && o.iter().all(|x| placed.contains(x) || *x == next)
                })
                .map(|((c, _), _)| *c)
                .collect();
            let probe = crate::sarg::find_index_probe(
                spec,
                next,
                &step_conjuncts,
                &|idx| spec.table_of(idx).is_some_and(|t| placed.contains(&t)),
                false,
            );
            let mut step_est = step_est;
            if probe.as_ref().is_some_and(|p| p.unique) {
                // Each probe of a unique index matches at most one row.
                step_est = step_est.min(cur);
            }
            let ix_cost = cur + step_est;
            let probe = probe.filter(|_| ix_cost < hash_cost && ix_cost < nl_cost);
            let fetch = probe.as_ref().map(|p| {
                let columns =
                    (spec.from[next].schema.index(&p.index)).map_or(&[][..], |def| &def.columns);
                let sel = consumed_selectivity(est, spec, next, &step_conjuncts, columns, None);
                let rows = cur * raw[next] * sel;
                Fetch {
                    rows: if p.unique { rows.min(cur) } else { rows },
                    unique: p.unique,
                }
            });
            steps.push(Chosen {
                method,
                has_keys,
                unique: key_covered && method == JoinMethod::Hash,
                est: step_est,
                ix: probe.map(|p| uniq_proof::Justification::ix_join(&p.index, p.unique)),
                step: Step {
                    rows: raw[next],
                    filters: own(next),
                    kept: filtered(next),
                    input: cur,
                    index: fetch,
                },
            });
            covered = covered && has_keys && method == JoinMethod::Hash;
            placed.insert(next);
            order.push(next);
            cur = step_est;
            for (i, o) in owners.iter().enumerate() {
                if !applied[i] && o.iter().all(|t| placed.contains(t)) {
                    applied[i] = true;
                }
            }
        }

        // Uniqueness-derived hard cap on the block output.
        let mut out_est = cur;
        if let Some(bound) = est.unique_output_bound(spec) {
            out_est = out_est.min(bound);
        }

        let t0 = &spec.from[order[0]];
        let mut scan_est = filtered(order[0]);
        // Sargable index on the first table: serve the scan by a point
        // probe / range scan instead of reading every row. A unique
        // fully-bound probe returns at most one row — a hard bound the
        // estimate adopts — and any index access is licensed only when
        // it beats the full scan's work.
        let scan_conjuncts: Vec<&BoundExpr> = conjuncts
            .iter()
            .zip(&owners)
            .filter(|(_, o)| o.iter().all(|&x| x == order[0]))
            .map(|(c, _)| *c)
            .collect();
        let mut ixscan = None;
        let mut scan_fetch = None;
        if let Some(s) = crate::sarg::find_index_sarg(spec, order[0], &scan_conjuncts) {
            if s.unique {
                scan_est = scan_est.min(1.0);
            }
            if scan_est + 1.0 < raw[order[0]] {
                ixscan = Some(uniq_proof::Justification::ix_scan(
                    &s.index, s.unique, &s.desc,
                ));
                let columns = t0
                    .schema
                    .index(&s.index)
                    .map_or(&[][..], |def| &def.columns);
                let points = &columns[..s.prefix.len().min(columns.len())];
                let range = (columns.get(s.prefix.len()).copied())
                    .filter(|_| s.low.is_some() || s.high.is_some());
                let sel = consumed_selectivity(est, spec, order[0], &scan_conjuncts, points, range);
                let rows = raw[order[0]] * sel;
                scan_fetch = Some(Fetch {
                    rows: if s.unique { rows.min(1.0) } else { rows },
                    unique: s.unique,
                });
            }
        }

        let distinct = (spec.distinct == uniq_sql::Distinct::Distinct).then(|| {
            let method = if sort_cost(out_est) <= out_est {
                DistinctMethod::Sort
            } else {
                DistinctMethod::Hash
            };
            // Distinct output can never exceed the projected domains.
            (method, out_est.min(est.projection_domain(spec)))
        });
        let materialized = distinct.map_or(out_est, |(_, d)| d);

        // The access: a covered block without an index operator runs
        // encoded; with one, the cheaper of the two prices wins.
        let indexed = ixscan.is_some() || steps.iter().any(|c| c.ix.is_some());
        let price = (covered && indexed).then(|| {
            // An early-stop walk reads at most the limit's rows.
            let walk = self.walk.unwrap_or(f64::INFINITY);
            let scan = Step {
                rows: raw[order[0]],
                filters: own(order[0]),
                kept: scan_est,
                input: 0.0,
                index: scan_fetch.map(|f| Fetch {
                    rows: f.rows.min(walk),
                    ..f
                }),
            };
            let priced: Vec<Step> = std::iter::once(scan)
                .chain(steps.iter().map(|c| c.step))
                .collect();
            AccessPrices {
                encoded_ns: encoded_price(&priced, materialized).ceil() as u64,
                index_ns: rows_price(&priced, out_est.min(walk)).ceil() as u64,
            }
        });
        let columnar = covered && price.is_none_or(|p| p.encoded_ns < p.index_ns);

        let joins: Vec<JoinStep> = (steps.into_iter().zip(&order[1..]))
            .map(|(c, &t)| {
                // The encoded access keys every step on its own table.
                let kind = join_kind(c.method, c.has_keys, c.ix.is_some() && !columnar);
                JoinStep {
                    method: c.method,
                    id: self.join_op(spec, t, kind, c.est),
                    unique: c.unique,
                    ix: c.ix,
                }
            })
            .collect();
        // Columnar scans over a table with string columns read
        // dictionary codes, not the strings themselves.
        let enc = if columnar
            && t0
                .schema
                .columns
                .iter()
                .any(|c| c.data_type == uniq_types::DataType::Str)
        {
            " enc=dict"
        } else {
            ""
        };
        let scan = self.scan_op(spec, order[0], enc, scan_est);
        let (project, distinct) = self.output_ops(spec, out_est, distinct);

        let final_est = distinct
            .map(|d| self.ops[d.id].est as f64)
            .unwrap_or(out_est);
        (
            BlockPlan {
                order,
                scan,
                joins,
                project,
                distinct,
                columnar,
                ixscan,
                price,
            },
            final_est,
        )
    }
}

/// The label of a join step: the kind of step the executor runs.
fn join_kind(method: JoinMethod, has_keys: bool, use_ix: bool) -> &'static str {
    match (use_ix, method, has_keys) {
        (true, _, _) => "IxJoin",
        (false, JoinMethod::NestedLoop, _) => "NestedLoop",
        (false, JoinMethod::Hash, true) => "HashJoin",
        (false, JoinMethod::Hash, false) => "CrossJoin",
    }
}

/// Estimated rows of table `t` after its table-local conjuncts.
fn filtered_rows(
    est: Estimator,
    spec: &BoundSpec,
    t: usize,
    conjuncts: &[&BoundExpr],
    owners: &[BTreeSet<usize>],
    raw: f64,
) -> f64 {
    let sel: f64 = conjuncts
        .iter()
        .zip(owners)
        .filter(|(_, o)| o.iter().all(|&x| x == t))
        .map(|(c, _)| est.selectivity(spec, c))
        .product();
    raw * sel
}

/// Estimated output of joining `t` onto the current prefix, plus
/// whether the newly applicable conjuncts contain equality keys usable
/// by a hash join and whether those keys cover a candidate key of `t`
/// (licensing the unique-key kernel and the outer-side cardinality cap).
#[allow(clippy::too_many_arguments)]
fn step_estimate(
    est: Estimator,
    spec: &BoundSpec,
    t: usize,
    placed: &BTreeSet<usize>,
    conjuncts: &[&BoundExpr],
    owners: &[BTreeSet<usize>],
    applied: &[bool],
    cur: f64,
    raw: f64,
) -> (f64, bool, bool) {
    let range = spec.from[t].attr_range();
    let mut out = cur * raw;
    let mut key_columns: BTreeSet<usize> = BTreeSet::new();
    for ((c, o), done) in conjuncts.iter().zip(owners).zip(applied) {
        if *done || !o.iter().all(|x| placed.contains(x) || *x == t) {
            continue;
        }
        out *= est.selectivity(spec, c);
        if let Some((_, new_attr)) = c.equi_join_key(&range, |idx| {
            spec.table_of(idx).is_some_and(|t| placed.contains(&t))
        }) {
            key_columns.insert(new_attr - range.start);
        }
    }
    // Key coverage: each outer partial matches at most one row of a
    // table whose candidate key the join keys cover.
    let covered = spec.from[t]
        .schema
        .candidate_keys()
        .any(|k| k.columns.iter().all(|c| key_columns.contains(c)));
    if covered {
        out = out.min(cur);
    }
    (out, !key_columns.is_empty(), covered)
}

/// `n·log₂n` — the comparison cost of sorting `n` rows.
fn sort_cost(n: f64) -> f64 {
    if n <= 1.0 {
        0.0
    } else {
        n * n.log2()
    }
}

/// Selectivity of the conjuncts an index access on table `t` consumes:
/// equalities on its `points` columns (to a constant or, for a probe, a
/// placed table's attribute) and range comparisons on its `range`
/// column. The access hands back the rows these select; the block's
/// other conjuncts filter them afterwards.
fn consumed_selectivity(
    est: Estimator,
    spec: &BoundSpec,
    t: usize,
    conjuncts: &[&BoundExpr],
    points: &[usize],
    range: Option<usize>,
) -> f64 {
    (conjuncts.iter())
        .filter(|c| match constrained_column(spec, t, c) {
            Some((col, true)) => points.contains(&col),
            Some((col, false)) => Some(col) == range,
            None => false,
        })
        .map(|c| est.selectivity(spec, c))
        .product()
}

/// The column of table `t` (table-local position) a conjunct compares
/// with a value from outside the table, and whether by equality: `col op
/// scalar` with `op` not `<>`, or a non-negated `BETWEEN`.
fn constrained_column(spec: &BoundSpec, t: usize, c: &BoundExpr) -> Option<(usize, bool)> {
    let range = spec.from[t].attr_range();
    let local = |s: &BScalar| match s {
        BScalar::Attr(a) if a.is_local() && range.contains(&a.idx) => Some(a.idx - range.start),
        _ => None,
    };
    match c {
        BoundExpr::Cmp { op, left, right } if *op != CmpOp::Ne => {
            match (local(left), local(right)) {
                (Some(col), None) | (None, Some(col)) => Some((col, *op == CmpOp::Eq)),
                _ => None,
            }
        }
        BoundExpr::Between {
            scalar,
            negated: false,
            ..
        } => Some((local(scalar)?, false)),
        _ => None,
    }
}

/// The set of `FROM` positions a conjunct references at its own block
/// level, including references made from inside nested subqueries
/// (which see the block's attributes as correlated outers).
fn owner_tables(spec: &BoundSpec, conjunct: &BoundExpr) -> BTreeSet<usize> {
    let mut owners = BTreeSet::new();
    conjunct.visit_attrs(&mut |depth, a| {
        if a.up == depth {
            if let Some(t) = spec.table_of(a.idx) {
                owners.insert(t);
            }
        }
    });
    owners
}

/// Whether a conjunct is covered by the columnar kernels: a comparison
/// between a local attribute and a type-matching literal (any operator —
/// sorted dictionaries make every comparison a code-range test, and a
/// `NULL` literal compiles to the empty range), or a local equality
/// between attributes of two different tables (a hash/direct-index join
/// key). Everything else — `OR`, `BETWEEN`, `IN`, subqueries,
/// same-table column comparisons — runs on the row executor.
fn columnar_conjunct(spec: &BoundSpec, c: &BoundExpr) -> bool {
    let BoundExpr::Cmp { op, left, right } = c else {
        return false;
    };
    match (left, right) {
        (BScalar::Attr(a), BScalar::Attr(b)) if a.is_local() && b.is_local() => {
            let (ta, tb) = (spec.table_of(a.idx), spec.table_of(b.idx));
            *op == CmpOp::Eq && ta.is_some() && tb.is_some() && ta != tb
        }
        (BScalar::Attr(a), BScalar::Literal(v)) | (BScalar::Literal(v), BScalar::Attr(a))
            if a.is_local() =>
        {
            let Some(t) = spec.table_of(a.idx) else {
                return false;
            };
            let col = a.idx - spec.from[t].attr_range().start;
            let dt = spec.from[t].schema.columns[col].data_type;
            match v.data_type() {
                None => true, // NULL literal: compiles to the empty range.
                Some(lit) => {
                    lit == dt && matches!(dt, uniq_types::DataType::Int | uniq_types::DataType::Str)
                }
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_database;
    use uniq_plan::bind_query;
    use uniq_sql::parse_query;

    fn plan(sql: &str) -> (PhysicalPlan, BoundQuery) {
        let db = supplier_database().unwrap();
        let stats = Statistics::collect(&db);
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        (plan_query(&q, Some(&stats), PlannerOptions::default()), q)
    }

    fn block(p: &PhysicalPlan) -> &BlockPlan {
        match &p.root {
            PhysNode::Block(b) => b,
            PhysNode::SetOp { .. } => panic!("expected block"),
        }
    }

    #[test]
    fn filtered_table_is_scanned_first() {
        // PARTS filtered by COLOR='RED' (7 × 1/3 ≈ 2.3) is smaller than
        // SUPPLIER (5): the planner reorders the join to scan PARTS
        // first even though it is written second.
        let (p, _) = plan(
            "SELECT S.SNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let b = block(&p);
        assert_eq!(b.order, vec![1, 0], "PARTS first, then SUPPLIER");
        assert_eq!(b.joins.len(), 1);
        assert_eq!(b.joins[0].method, JoinMethod::Hash);
        assert!(p.ops[b.joins[0].id]
            .label
            .contains("HashJoin with Scan SUPPLIER"));
    }

    #[test]
    fn key_covered_join_capped_by_outer_side() {
        // Joining PARTS onto SUPPLIER by SUPPLIER's primary key: each
        // part matches at most one supplier, so the join estimate is
        // capped at the PARTS side.
        let (p, _) = plan(
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let b = block(&p);
        let join_est = p.ops[b.joins[0].id].est;
        let scan_est = p.ops[b.scan].est;
        assert!(
            join_est <= scan_est,
            "join est {join_est} must not exceed outer est {scan_est}"
        );
    }

    #[test]
    fn unique_block_output_capped_by_domain_product() {
        // Projecting the SUPPLIER key → provably unique → est capped by
        // the key's domain (5 suppliers), and exact here.
        let (p, _) = plan("SELECT DISTINCT S.SNO FROM SUPPLIER S");
        let b = block(&p);
        assert_eq!(p.ops[b.project].est, 5);
        let d = b.distinct.unwrap();
        assert_eq!(p.ops[d.id].est, 5);
    }

    #[test]
    fn cross_join_labelled_and_hash_materialized() {
        let (p, _) = plan("SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A");
        let b = block(&p);
        assert_eq!(b.joins[0].method, JoinMethod::Hash);
        assert!(
            p.ops[b.joins[0].id].label.contains("CrossJoin"),
            "{:?}",
            p.ops
        );
        assert_eq!(p.ops[b.joins[0].id].est, 25);
    }

    #[test]
    fn distinct_method_scales_with_estimate() {
        // 5×5 cross product of 25 rows: hashing (25 probes) beats
        // sorting (25·log₂25 ≈ 116 comparisons).
        let (p, _) = plan("SELECT DISTINCT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A");
        let b = block(&p);
        assert_eq!(b.distinct.unwrap().method, DistinctMethod::Hash);
        // A tiny single-table block keeps the sort default.
        let (p2, _) = plan("SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 3");
        let b2 = block(&p2);
        assert_eq!(b2.distinct.unwrap().method, DistinctMethod::Sort);
    }

    #[test]
    fn setop_nodes_get_method_and_estimate() {
        let (p, _) = plan("SELECT S.SNO FROM SUPPLIER S INTERSECT SELECT A.SNO FROM AGENTS A");
        let PhysNode::SetOp { method, id, .. } = &p.root else {
            panic!("expected setop root");
        };
        assert_eq!(*method, DistinctMethod::Hash);
        assert!(p.ops[*id].label.contains("Intersect [hash-count]"));
        // INTERSECT emits at most the smaller side (5 rows each way),
        // tightened by the hard domain cap: a distinct intersection over
        // SNO can emit at most min(dom) = 4 distinct values.
        assert_eq!(p.ops[*id].est, 4);
    }

    #[test]
    fn union_estimate_is_capped_by_the_merged_domains() {
        // Operand estimates sum to 10 (5 suppliers + 5 agents), but a
        // distinct UNION over the city columns can emit at most
        // dom(SCITY) + dom(ACITY) = 3 + 4 = 7 rows — the Chen–Schneider
        // hard bound is strictly tighter than the additive estimate.
        let (p, _) = plan("SELECT S.SCITY FROM SUPPLIER S UNION SELECT A.ACITY FROM AGENTS A");
        let PhysNode::SetOp { id, .. } = &p.root else {
            panic!("expected setop root");
        };
        assert_eq!(p.ops[*id].est, 7);
        // UNION ALL has no dedup: the additive estimate stands.
        let (p2, _) = plan("SELECT S.SCITY FROM SUPPLIER S UNION ALL SELECT A.ACITY FROM AGENTS A");
        let PhysNode::SetOp { id: id2, .. } = &p2.root else {
            panic!("expected setop root");
        };
        assert_eq!(p2.ops[*id2].est, 10);
    }

    #[test]
    fn empty_outer_estimate_turns_join_into_nested_loop() {
        // `S.SNO = NULL` never matches → outer estimate 0 → nested
        // loops cost 0 scans, cheaper than building a hash table.
        let (p, _) = plan(
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = NULL AND S.SNO = P.SNO",
        );
        let b = block(&p);
        assert_eq!(b.order[0], 0, "empty SUPPLIER side first");
        assert_eq!(b.joins[0].method, JoinMethod::NestedLoop);
    }

    #[test]
    fn key_covered_hash_join_is_marked_unique() {
        // SUPPLIER joins in by its full primary key → unique kernel.
        let (p, _) = plan(
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let b = block(&p);
        assert_eq!(b.joins[0].method, JoinMethod::Hash);
        assert!(b.joins[0].unique, "PK-covered join must be unique");
        // Joining on the non-key COLOR column must not be.
        let (p2, _) = plan("SELECT P.PNO FROM PARTS P, PARTS Q WHERE P.COLOR = Q.COLOR");
        let b2 = block(&p2);
        assert!(!b2.joins[0].unique, "COLOR covers no candidate key");
    }

    #[test]
    fn covered_blocks_are_licensed_columnar() {
        let sql = "SELECT S.SNO FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let (p, q) = plan(sql);
        let b = block(&p);
        assert!(b.columnar, "keyed hash join + str literal is covered");
        // PARTS scans first and carries string columns → dict marker.
        assert!(
            p.ops[b.scan].label.contains("Scan PARTS AS P enc=dict"),
            "{:?}",
            p.ops
        );
        assert!(p.render(0, None).contains("exec=columnar"));
        // The fixed plan (no statistics) never carries the license.
        let p2 = plan_query(&q, None, PlannerOptions::default());
        let b2 = block(&p2);
        assert!(!b2.columnar);
        assert!(!p2.ops[b2.scan].label.contains("enc=dict"), "{:?}", p2.ops);
    }

    #[test]
    fn uncovered_shapes_stay_on_the_row_path() {
        for sql in [
            // OR is not a conjunct the kernels compile.
            "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 1 OR S.SNO = 2",
            // BETWEEN never reaches the predicate compiler.
            "SELECT S.SNO FROM SUPPLIER S WHERE S.SNO BETWEEN 1 AND 3",
            // Keyless cross join: no columnar cross kernel.
            "SELECT S.SNO, A.ANO FROM SUPPLIER S, AGENTS A",
            // Empty outer flips the step to nested loops.
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = NULL AND S.SNO = P.SNO",
            // Subqueries are row-executor territory.
            "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
             (SELECT P.PNO FROM PARTS P WHERE P.SNO = S.SNO)",
            // Same-table column comparison is not a join key.
            "SELECT P.PNO FROM PARTS P WHERE P.PNO = P.SNO",
        ] {
            let (p, _) = plan(sql);
            let b = block(&p);
            assert!(!b.columnar, "{sql} must not be columnar");
            assert!(!p.render(0, None).contains("exec=columnar"), "{sql}");
        }
        // A NULL-literal comparison compiles (to the empty range) and
        // keeps the block columnar when it is the only predicate.
        let (p, _) = plan("SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME = NULL");
        assert!(block(&p).columnar, "NULL literal compiles to Never");
    }

    fn indexed_supplier_db() -> uniq_catalog::Database {
        let mut db = supplier_database().unwrap();
        db.run_script(
            "CREATE UNIQUE INDEX IDX_S_SNO ON SUPPLIER (SNO);
             CREATE INDEX IDX_P_COLOR ON PARTS (COLOR);",
        )
        .unwrap();
        db
    }

    fn plan_on(db: &uniq_catalog::Database, sql: &str) -> PhysicalPlan {
        let stats = Statistics::collect(db);
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        plan_query(&q, Some(&stats), PlannerOptions::default())
    }

    #[test]
    fn sargable_point_scan_becomes_an_ixscan_with_the_hard_bound() {
        let db = indexed_supplier_db();
        let p = plan_on(&db, "SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = 3");
        let b = block(&p);
        let ix = b.ixscan.as_ref().expect("unique point probe licensed");
        assert_eq!(ix.index(), Some("IDX_S_SNO"));
        assert!(ix.is_unique_index());
        assert_eq!(
            p.ops[b.scan].est, 1,
            "unique probe estimate is the hard bound 1"
        );
        assert!(p.render(0, None).contains("ixscan(IDX_S_SNO, SNO=3)"));
        // Without a sargable conjunct the scan stays full.
        let p2 = plan_on(&db, "SELECT S.SNAME FROM SUPPLIER S");
        assert!(block(&p2).ixscan.is_none());
    }

    #[test]
    fn key_join_prefers_the_index_probe_when_build_cost_dominates() {
        let db = indexed_supplier_db();
        let p = plan_on(
            &db,
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        let b = block(&p);
        // PARTS (filtered smaller) scans first; SUPPLIER joins in by a
        // probe of its unique index instead of building a hash table.
        assert_eq!(b.order[0], 1, "PARTS first");
        let ix = b.joins[0].ix.as_ref().expect("index probe licensed");
        assert_eq!(ix.index(), Some("IDX_S_SNO"));
        assert!(ix.is_unique_index());
        assert!(p.ops[b.joins[0].id]
            .label
            .contains("IxJoin with Scan SUPPLIER"));
        assert!(p.render(0, None).contains("ixjoin(IDX_S_SNO) unique=yes"));
        // The same query without indexes keeps the hash join.
        let plain = supplier_database().unwrap();
        let p2 = plan_on(
            &plain,
            "SELECT P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
        );
        assert!(block(&p2).joins[0].ix.is_none());
    }

    #[test]
    fn fixed_plans_keep_from_order_and_the_forced_methods() {
        let db = indexed_supplier_db();
        let fixed = |sql: &str, options: PlannerOptions| {
            let ast = uniq_sql::parse_full_query(sql).unwrap();
            let q = uniq_plan::bind_output(db.catalog(), &ast).unwrap();
            plan_output(&q, None, options)
        };
        // The cost-based plan scans the filtered PARTS first and probes
        // IDX_S_SNO; the fixed plan keeps FROM order and licenses nothing.
        let sql = "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P \
                   WHERE S.SNO = P.SNO AND P.COLOR = 'RED'";
        let options = PlannerOptions {
            join: JoinMethod::NestedLoop,
            distinct: DistinctMethod::Hash,
            early_stop: true,
        };
        let p = fixed(sql, options);
        let b = block(&p);
        assert!(!p.estimated);
        assert_eq!(b.order, vec![0, 1]);
        assert_eq!(b.joins[0].method, JoinMethod::NestedLoop);
        assert!(b.joins[0].ix.is_none() && b.ixscan.is_none() && !b.columnar);
        assert_eq!(b.distinct.unwrap().method, DistinctMethod::Hash);
        assert!(p.ops.iter().all(|op| op.est == 0), "{:?}", p.ops);
        // The early-stop license follows the option, statistics or not.
        let top_k = "SELECT S.SNO FROM SUPPLIER S ORDER BY S.SNO LIMIT 2";
        let licensed = |p: &PhysicalPlan| {
            p.output.iter().any(|op| {
                matches!(
                    op,
                    OutputOp::Limit {
                        early_stop: Some(_),
                        ..
                    }
                )
            })
        };
        assert!(licensed(&fixed(top_k, PlannerOptions::default())));
        let off = PlannerOptions {
            early_stop: false,
            ..Default::default()
        };
        let p = fixed(top_k, off);
        assert!(!licensed(&p));
        assert!(p
            .output
            .iter()
            .any(|op| matches!(op, OutputOp::Sort { .. })));
    }

    #[test]
    fn every_operator_has_a_registry_slot() {
        let (p, _) = plan(
            "SELECT DISTINCT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO \
             UNION SELECT A.SNO FROM AGENTS A",
        );
        // ops: scan+join+project+distinct (block 1) + scan+project
        // (block 2) + setop.
        assert_eq!(p.ops.len(), 7);
        let rendered = p.render(0, None);
        assert_eq!(rendered.lines().count(), 7);
        assert!(rendered.lines().all(|l| l.contains("est=")), "{rendered}");
    }
}
