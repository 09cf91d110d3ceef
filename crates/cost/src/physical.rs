//! The physical-plan IR the executor consumes.
//!
//! Every query runs under a [`PhysicalPlan`], built by
//! [`crate::planner`], which is the only place physical choices are
//! made. A plan mirrors the shape of the optimized
//! [`BoundQuery`](uniq_plan::BoundQuery) it was planned for — one
//! [`BlockPlan`] per query block, one [`PhysNode::SetOp`] per set
//! operation — and records the planner's per-node choices: join input
//! order, hash vs. nested-loop per join, hash vs. sort per duplicate
//! elimination, and each index access, which the executor runs as
//! planned. Every operator owns a slot in the flat [`OpInfo`]
//! registry carrying its display label and estimated output
//! cardinality; the executor fills a parallel `actuals` array, which is
//! how `EXPLAIN` prints `est=… act=…` per operator and how q-error is
//! measured. A fixed plan, built without statistics, has no estimates
//! and renders its labels only.
//!
//! The method enums live here so the planner can be expressed without
//! depending on the executor.

use crate::sarg::{IndexProbe, IndexSarg};

/// How duplicate elimination is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistinctMethod {
    /// Sort the result and collapse adjacent `=̇`-equal runs — the
    /// strategy whose cost the paper's §1 calls "expensive". Default.
    #[default]
    Sort,
    /// Hash-set elimination (ablation; see experiment E12).
    Hash,
}

/// How multi-table blocks are joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JoinMethod {
    /// Build/probe hash tables on available equality conjuncts, falling
    /// back to nested loops when none apply. Default.
    #[default]
    Hash,
    /// Pure nested loops (the naive strategy subquery rewrites avoid).
    NestedLoop,
}

/// Index of an operator in [`PhysicalPlan::ops`].
pub type OpId = usize;

/// Registry entry for one physical operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpInfo {
    /// Display label, e.g. `HashJoin with Scan PARTS AS P`.
    pub label: String,
    /// Estimated output rows.
    pub est: u64,
}

/// One pipeline join step (the table it introduces is
/// `order[position + 1]` of the owning [`BlockPlan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// Physical join strategy for this step (the fallback when the
    /// index that `ix` probes is no longer live).
    pub method: JoinMethod,
    /// Operator slot.
    pub id: OpId,
    /// The step's equality keys cover a candidate key of the incoming
    /// table, so each outer partial matches at most one row — the
    /// columnar executor may use its unique-key kernels (a direct-index
    /// table on a single key, one probe step per probe otherwise).
    pub unique: bool,
    /// Probe a secondary index (or, in a delta term, a declared
    /// candidate key) per outer partial instead of building a hash
    /// table, when the planner found one covering the join keys and
    /// build cost dominates. The executor runs this probe as planned
    /// while the live catalog still holds the planned index definition
    /// or key, and [`JoinStep::method`] otherwise. It is the rows
    /// access's choice: it stays on the plan when the block is licensed
    /// columnar, for `query_row_path` and for a stale column store, and
    /// the encoded access, which keys every step on its own dense or
    /// hashed table, ignores it (the step is then labelled `HashJoin`,
    /// with its `ixjoin(…)` marker).
    pub ix: Option<IndexProbe>,
}

/// The duplicate-elimination step of a `SELECT DISTINCT` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistinctStep {
    /// Physical duplicate-elimination strategy.
    pub method: DistinctMethod,
    /// Operator slot.
    pub id: OpId,
}

/// Physical choices for one query block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    /// Execution order as positions into the block's `FROM` list:
    /// `order[0]` is scanned first, each later entry joins in turn.
    pub order: Vec<usize>,
    /// Operator slot of the initial filtered scan (`order[0]`).
    pub scan: OpId,
    /// Join steps, parallel to `order[1..]`.
    pub joins: Vec<JoinStep>,
    /// Operator slot of the projection (block output).
    pub project: OpId,
    /// Duplicate elimination, when the block is `SELECT DISTINCT`.
    pub distinct: Option<DistinctStep>,
    /// The planner proved every conjunct and join step of this block is
    /// covered by the vectorized columnar kernels, so the executor may
    /// run it on dictionary codes with late materialization (rendered
    /// as `exec=columnar` on the scan line). A cost-based plan sets it on
    /// each covered block without an index operator, and on a covered
    /// block with one exactly when the encoded access is the cheaper of
    /// the two priced in [`BlockPlan::price`]; fixed plans never set it.
    /// This flag is the one decision of coverage: the executor re-checks
    /// only that the column store is fresh for the database, and reads
    /// the stored rows when it is missing or stale — the flag is a
    /// license, not a promise. A licensed block the kernels cannot
    /// compile is an internal error.
    pub columnar: bool,
    /// Serve the initial scan through a secondary index instead of a
    /// full table scan (rendered as `ixscan(name, sarg)` on the scan
    /// line). The executor runs this sarg as planned while the live
    /// catalog still holds the planned index definition, and scans
    /// every row otherwise. A *unique*, fully point-bound index makes
    /// the scan estimate the hard bound 1, not a guess. Like
    /// [`JoinStep::ix`], it is the rows access's choice.
    pub ixscan: Option<IndexSarg>,
    /// Both accesses' estimated times, when the planner priced them: on
    /// a covered block with an index operator (rendered as
    /// `price(enc=… ix=…)` on the scan line). `None` on every other
    /// block.
    pub price: Option<AccessPrices>,
}

/// The estimated time of a block on each access (see
/// [`crate::price`]), in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessPrices {
    /// The encoded access: full vectorized scans and keyed steps.
    pub encoded_ns: u64,
    /// The rows access with the block's index operators.
    pub index_ns: u64,
}

/// `ns` as a time with two significant digits: `0.41ms`, `2.9ms`,
/// `12ms`, or in µs below 0.1 ms (`35µs`, `0.18µs`).
fn fmt_ns(ns: u64) -> String {
    let (value, unit) = if ns >= 100_000 {
        (ns as f64 / 1e6, "ms")
    } else {
        (ns as f64 / 1e3, "µs")
    };
    let digits = if value >= 10.0 {
        0
    } else if value >= 1.0 {
        1
    } else {
        2
    };
    format!("{value:.digits$}{unit}")
}

/// A node of the physical plan, structurally parallel to the bound
/// query.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysNode {
    /// A planned query block.
    Block(Box<BlockPlan>),
    /// A planned set operation.
    SetOp {
        /// Strategy for the duplicate/counting pass.
        method: DistinctMethod,
        /// Operator slot.
        id: OpId,
        /// Left input plan.
        left: Box<PhysNode>,
        /// Right input plan.
        right: Box<PhysNode>,
    },
}

/// An output-shaping operator applied above the plan root: aggregation,
/// ordering, or a row cut. Stored in execution order (the aggregate
/// consumes the body first, the limit cuts last); rendered top-down in
/// reverse, above the body tree.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputOp {
    /// `GROUP BY` + aggregate evaluation over the body rows.
    Agg {
        /// Operator slot.
        id: OpId,
        /// Proof-gated: the grouping columns were proved duplicate-free
        /// over the body, so every row is its own group — the executor
        /// skips the hash aggregate and computes aggregates per row in
        /// one pass (rendered as ` group-elided`).
        group_elided: bool,
        /// Proof-gated: at least one `COUNT(DISTINCT e)` was degraded
        /// to `COUNT(e)` because `(group keys, e)` was proved
        /// duplicate-free (rendered as ` count-distinct-elided`).
        count_distinct_elided: bool,
    },
    /// `ORDER BY` sort over the output rows. Absent when an early-stop
    /// license on the [`OutputOp::Limit`] serves the order from an
    /// ordered index instead.
    Sort {
        /// Operator slot.
        id: OpId,
    },
    /// `LIMIT k` row cut.
    Limit {
        /// Operator slot.
        id: OpId,
        /// The ordered (B-tree) index whose columns the `ORDER BY`
        /// columns are an ascending prefix of, on the block's single
        /// table: the executor walks it in order and **stops after k
        /// emitted rows** instead of materializing and sorting the full
        /// table (rendered as ` early-stop(index)`). When the live
        /// catalog no longer holds the planned index definition, the
        /// executor scans, sorts and cuts instead.
        early_stop: Option<String>,
    },
}

impl OutputOp {
    /// The operator's slot in [`PhysicalPlan::ops`].
    pub fn id(&self) -> OpId {
        match self {
            OutputOp::Agg { id, .. } | OutputOp::Sort { id } | OutputOp::Limit { id, .. } => *id,
        }
    }
}

/// A complete physical plan: the choice tree plus the operator registry.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Root of the plan tree.
    pub root: PhysNode,
    /// Output-shaping operators above the root, in execution order
    /// (empty for a plain `SELECT` without `ORDER BY`/`LIMIT`).
    pub output: Vec<OutputOp>,
    /// Flat operator registry, indexed by [`OpId`].
    pub ops: Vec<OpInfo>,
    /// Planned against statistics, so every [`OpInfo::est`] is an
    /// estimate. False for a fixed plan, whose `est` fields are zero.
    pub estimated: bool,
}

impl PhysicalPlan {
    /// Render the plan as an indented tree, one operator per line. An
    /// estimated plan annotates each line `est=… act=…` (`act=?` when no
    /// actuals are supplied, e.g. the query needs host variables that
    /// EXPLAIN cannot bind); a fixed plan prints its labels only.
    pub fn render(&self, depth: usize, actuals: Option<&[u64]>) -> String {
        let mut out = String::new();
        let mut depth = depth;
        // Output operators top-down: the last-applied (limit) first.
        for op in self.output.iter().rev() {
            let suffix = match op {
                OutputOp::Agg {
                    group_elided,
                    count_distinct_elided,
                    ..
                } => {
                    let mut s = String::new();
                    if *group_elided {
                        s.push_str(" group-elided");
                    }
                    if *count_distinct_elided {
                        s.push_str(" count-distinct-elided");
                    }
                    s
                }
                OutputOp::Sort { .. } => String::new(),
                OutputOp::Limit { early_stop, .. } => match early_stop {
                    Some(index) => format!(" early-stop({index})"),
                    None => String::new(),
                },
            };
            self.line(op.id(), depth, actuals, &suffix, &mut out);
            depth += 1;
        }
        self.render_node(&self.root, depth, actuals, &mut out);
        out
    }

    fn line(
        &self,
        id: OpId,
        depth: usize,
        actuals: Option<&[u64]>,
        suffix: &str,
        out: &mut String,
    ) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let op = &self.ops[id];
        out.push_str(&op.label);
        if self.estimated {
            let act = actuals
                .and_then(|a| a.get(id))
                .map_or("?".into(), u64::to_string);
            out.push_str(&format!(" est={} act={act}", op.est));
        }
        out.push_str(suffix);
        out.push('\n');
    }

    fn render_node(
        &self,
        node: &PhysNode,
        depth: usize,
        actuals: Option<&[u64]>,
        out: &mut String,
    ) {
        match node {
            PhysNode::Block(block) => {
                let mut depth = depth;
                if let Some(d) = &block.distinct {
                    self.line(d.id, depth, actuals, "", out);
                    depth += 1;
                }
                self.line(block.project, depth, actuals, "", out);
                // Pipeline steps, deepest-first: the last join on top,
                // the initial scan at the bottom.
                for step in block.joins.iter().rev() {
                    let suffix = match &step.ix {
                        Some(ix) => format!(
                            " ixjoin({}) unique={}",
                            ix.index,
                            if ix.unique { "yes" } else { "no" }
                        ),
                        None => String::new(),
                    };
                    self.line(step.id, depth + 1, actuals, &suffix, out);
                }
                let mut suffix = String::new();
                if let Some(ix) = &block.ixscan {
                    suffix.push_str(&format!(" ixscan({}, {})", ix.index, ix.desc));
                }
                if block.columnar {
                    suffix.push_str(" exec=columnar");
                }
                if let Some(p) = &block.price {
                    suffix.push_str(&format!(
                        " price(enc={} ix={})",
                        fmt_ns(p.encoded_ns),
                        fmt_ns(p.index_ns)
                    ));
                }
                self.line(block.scan, depth + 1, actuals, &suffix, out);
            }
            PhysNode::SetOp {
                id, left, right, ..
            } => {
                self.line(*id, depth, actuals, "", out);
                self.render_node(left, depth + 1, actuals, out);
                self.render_node(right, depth + 1, actuals, out);
            }
        }
    }

    /// Pair every operator's estimate with the executor's measured
    /// actual (see `Executor::actuals`).
    pub fn card_report(&self, actuals: &[u64]) -> crate::card::CardReport {
        crate::card::CardReport {
            rows: self
                .ops
                .iter()
                .enumerate()
                .map(|(id, op)| crate::card::CardRow {
                    op: op.label.clone(),
                    est: op.est,
                    act: actuals.get(id).copied().unwrap_or(0),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_premises() {
        assert_eq!(DistinctMethod::default(), DistinctMethod::Sort);
        assert_eq!(JoinMethod::default(), JoinMethod::Hash);
    }

    fn tiny_plan() -> PhysicalPlan {
        PhysicalPlan {
            root: PhysNode::Block(Box::new(BlockPlan {
                order: vec![0, 1],
                scan: 0,
                joins: vec![JoinStep {
                    method: JoinMethod::Hash,
                    id: 1,
                    unique: true,
                    ix: None,
                }],
                project: 2,
                distinct: Some(DistinctStep {
                    method: DistinctMethod::Hash,
                    id: 3,
                }),
                columnar: false,
                ixscan: None,
                price: None,
            })),
            output: Vec::new(),
            estimated: true,
            ops: vec![
                OpInfo {
                    label: "Scan SUPPLIER AS S".into(),
                    est: 5,
                },
                OpInfo {
                    label: "HashJoin with Scan PARTS AS P".into(),
                    est: 7,
                },
                OpInfo {
                    label: "Project [S.SNO]".into(),
                    est: 7,
                },
                OpInfo {
                    label: "HashDistinct".into(),
                    est: 4,
                },
            ],
        }
    }

    #[test]
    fn render_annotates_every_operator() {
        let plan = tiny_plan();
        let with = plan.render(0, Some(&[5, 6, 6, 4]));
        for needle in [
            "HashDistinct est=4 act=4",
            "Project [S.SNO] est=7 act=6",
            "HashJoin with Scan PARTS AS P est=7 act=6",
            "Scan SUPPLIER AS S est=5 act=5",
        ] {
            assert!(with.contains(needle), "{with}");
        }
        // Distinct on top, scan at the bottom, indentation increasing.
        let lines: Vec<&str> = with.lines().collect();
        assert!(lines[0].starts_with("HashDistinct"));
        assert!(lines[3].trim_start().starts_with("Scan SUPPLIER"));
        let without = plan.render(1, None);
        assert!(
            without.contains("Scan SUPPLIER AS S est=5 act=?"),
            "{without}"
        );
        assert!(without.starts_with("  "), "base depth indents");
    }

    #[test]
    fn columnar_blocks_render_the_exec_marker() {
        let mut plan = tiny_plan();
        let rendered = plan.render(0, None);
        assert!(!rendered.contains("exec=columnar"), "{rendered}");
        if let PhysNode::Block(b) = &mut plan.root {
            b.columnar = true;
        }
        let rendered = plan.render(0, Some(&[5, 6, 6, 4]));
        assert!(
            rendered.contains("Scan SUPPLIER AS S est=5 act=5 exec=columnar"),
            "{rendered}"
        );
    }

    fn probe(index: &str, unique: bool) -> IndexProbe {
        IndexProbe {
            index: index.into(),
            unique,
            sources: Vec::new(),
            key: None,
        }
    }

    #[test]
    fn index_operators_render_their_markers() {
        let mut plan = tiny_plan();
        if let PhysNode::Block(b) = &mut plan.root {
            b.ixscan = Some(IndexSarg {
                index: "IDX_SNO".into(),
                unique: true,
                prefix: Vec::new(),
                low: None,
                high: None,
                desc: "SNO=3".into(),
            });
            b.joins[0].ix = Some(probe("IDX_PARTS", true));
        }
        let rendered = plan.render(0, None);
        assert!(
            rendered.contains("Scan SUPPLIER AS S est=5 act=? ixscan(IDX_SNO, SNO=3)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("ixjoin(IDX_PARTS) unique=yes"),
            "{rendered}"
        );
    }

    #[test]
    fn priced_blocks_render_both_prices_on_the_scan_line() {
        let mut plan = tiny_plan();
        if let PhysNode::Block(b) = &mut plan.root {
            b.columnar = true;
            b.joins[0].ix = Some(probe("IDX_PARTS", false));
            b.price = Some(AccessPrices {
                encoded_ns: 410_000,
                index_ns: 2_940_000,
            });
        }
        let rendered = plan.render(0, None);
        assert!(
            rendered.contains(
                "Scan SUPPLIER AS S est=5 act=? exec=columnar price(enc=0.41ms ix=2.9ms)"
            ),
            "{rendered}"
        );
        assert!(
            rendered
                .contains("HashJoin with Scan PARTS AS P est=7 act=? ixjoin(IDX_PARTS) unique=no"),
            "{rendered}"
        );
        assert_eq!(rendered.matches("price(").count(), 1, "{rendered}");
        for (ns, text) in [
            (140, "0.14µs"),
            (35_200, "35µs"),
            (9_400, "9.4µs"),
            (100_000, "0.10ms"),
            (12_400_000, "12ms"),
        ] {
            assert_eq!(fmt_ns(ns), text);
        }
    }

    #[test]
    fn output_operators_render_above_the_body_with_their_markers() {
        let mut plan = tiny_plan();
        plan.ops.push(OpInfo {
            label: "Aggregate [S.SNO, COUNT(*)]".into(),
            est: 4,
        });
        plan.ops.push(OpInfo {
            label: "Sort [S.SNO]".into(),
            est: 4,
        });
        plan.ops.push(OpInfo {
            label: "Limit 2".into(),
            est: 2,
        });
        plan.output = vec![
            OutputOp::Agg {
                id: 4,
                group_elided: true,
                count_distinct_elided: true,
            },
            OutputOp::Sort { id: 5 },
            OutputOp::Limit {
                id: 6,
                early_stop: None,
            },
        ];
        let rendered = plan.render(0, None);
        let lines: Vec<&str> = rendered.lines().collect();
        // Limit on top, then sort, then the aggregate, then the body.
        assert!(lines[0].starts_with("Limit 2"), "{rendered}");
        assert!(
            lines[1].trim_start().starts_with("Sort [S.SNO]"),
            "{rendered}"
        );
        assert!(
            lines[2]
                .trim_start()
                .starts_with("Aggregate [S.SNO, COUNT(*)]"),
            "{rendered}"
        );
        assert!(
            lines[2].contains("group-elided") && lines[2].contains("count-distinct-elided"),
            "{rendered}"
        );
        assert!(
            lines[3].trim_start().starts_with("HashDistinct"),
            "{rendered}"
        );
        // An early-stop license renders its index on the limit line.
        plan.output = vec![OutputOp::Limit {
            id: 6,
            early_stop: Some("IDX_SNO".into()),
        }];
        let rendered = plan.render(0, None);
        assert!(
            rendered.contains("Limit 2 est=2 act=? early-stop(IDX_SNO)"),
            "{rendered}"
        );
    }

    #[test]
    fn fixed_plans_render_labels_only() {
        let mut plan = tiny_plan();
        plan.estimated = false;
        let rendered = plan.render(0, Some(&[5, 6, 6, 4]));
        assert_eq!(
            rendered,
            "HashDistinct\n  Project [S.SNO]\n    HashJoin with Scan PARTS AS P\n    \
             Scan SUPPLIER AS S\n"
        );
    }

    #[test]
    fn card_report_pairs_est_with_act() {
        let plan = tiny_plan();
        let report = plan.card_report(&[5, 6, 6, 4]);
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.rows[1].est, 7);
        assert_eq!(report.rows[1].act, 6);
    }
}
