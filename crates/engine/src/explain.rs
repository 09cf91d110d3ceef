//! `EXPLAIN`-style rendering of the physical strategy the executor will
//! use for a bound query.
//!
//! The executor's physical decisions are deterministic functions of the
//! bound query and [`ExecOptions`] (conjunct assignment, equi-join
//! detection, distinct method), so the plan can be rendered without
//! executing. The same helper functions drive both, keeping the
//! explanation honest.

use crate::exec::ExecOptions;
use crate::stats::{DistinctMethod, JoinMethod};
use uniq_core::pipeline::RewriteTrace;
use uniq_plan::{BScalar, BoundExpr, BoundOutput, BoundQuery, BoundSpec};
use uniq_sql::{CmpOp, Distinct, SetOp};

/// Render the physical plan as an indented tree, one operator per line.
pub fn explain(query: &BoundQuery, opts: &ExecOptions) -> String {
    let mut out = String::new();
    explain_query(query, opts, 0, &mut out);
    out
}

/// Render a [`RewriteTrace`]: the ordered steps (rule, licensing
/// theorem, before/after SQL) followed by the per-rule counters. This is
/// the front half of `EXPLAIN` output — what the optimizer did and what
/// it cost — shown identically for freshly compiled and cached plans.
pub fn render_trace(trace: &RewriteTrace) -> String {
    let mut out = String::new();
    if trace.steps.is_empty() {
        out.push_str(&format!(
            "Rewrites: none ({} pass(es), {} uniqueness test(s) computed)\n",
            trace.passes, trace.uniqueness_tests_computed
        ));
    } else {
        out.push_str(&format!(
            "Rewrites: {} step(s) in {} pass(es), {} uniqueness test(s) computed, {} memoized\n",
            trace.steps.len(),
            trace.passes,
            trace.uniqueness_tests_computed,
            trace.uniqueness_tests_memoized
        ));
        for (i, step) in trace.steps.iter().enumerate() {
            out.push_str(&format!(
                "  {}. {} [{}] proof={}\n",
                i + 1,
                step.rule,
                step.theorem,
                step.proof.marker()
            ));
            out.push_str(&format!("     before: {}\n", step.sql_before));
            out.push_str(&format!("     after:  {}\n", step.sql_after));
            out.push_str(&format!("     why: {}\n", step.why));
        }
    }
    let active: Vec<_> = trace.rule_stats.iter().filter(|s| s.attempts > 0).collect();
    if !active.is_empty() {
        out.push_str("Rule stats (attempts/fires/uniqueness tests/time):\n");
        for s in active {
            out.push_str(&format!(
                "  {}: {}/{}/{}/{}\n",
                s.rule,
                s.attempts,
                s.fires,
                s.uniqueness_tests,
                fmt_ns(s.nanos)
            ));
        }
    }
    out
}

/// Render the full `EXPLAIN`: rewrite trace, then the physical plan for
/// the (already optimized) query — output stage (`Limit` / `Sort` /
/// `Aggregate`, with the uniqueness-elision markers) above the body.
pub fn explain_with_trace(
    trace: &RewriteTrace,
    output: &BoundOutput,
    opts: &ExecOptions,
) -> String {
    let mut out = render_trace(trace);
    out.push_str("Physical plan:\n");
    let mut plan = String::new();
    let depth = explain_output_ops(output, opts, 1, &mut plan);
    explain_query(&output.body, opts, depth, &mut plan);
    out.push_str(&plan);
    out
}

/// Render the output operators above the body, mirroring the decisions
/// [`Executor::run_output`](crate::Executor::run_output) makes: a
/// `Limit` under a re-derivable early-stop license absorbs the `Sort`
/// (the ordered index serves the order), and elided aggregations carry
/// their proof markers. Returns the body's indentation depth.
fn explain_output_ops(
    output: &BoundOutput,
    opts: &ExecOptions,
    mut depth: usize,
    out: &mut String,
) -> usize {
    let license = if opts.early_stop {
        uniq_cost::early_stop_license(output)
    } else {
        None
    };
    if let Some(k) = output.limit {
        indent(out, depth);
        match license.as_ref().and_then(|lic| lic.index()) {
            Some(index) => out.push_str(&format!("Limit {k} early-stop({index})\n")),
            None => out.push_str(&format!("Limit {k}\n")),
        }
        depth += 1;
    }
    if !output.order_by.is_empty() && license.is_none() {
        indent(out, depth);
        let names = output.output_names();
        let cols: Vec<String> = output
            .order_by
            .iter()
            .map(|&(pos, desc)| {
                let name = names
                    .get(pos)
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| format!("#{pos}"));
                if desc {
                    format!("{name} DESC")
                } else {
                    name
                }
            })
            .collect();
        out.push_str(&format!("Sort [{}]\n", cols.join(", ")));
        depth += 1;
    }
    if let Some(agg) = &output.agg {
        indent(out, depth);
        let items: Vec<String> = agg.items.iter().map(|i| i.name().to_string()).collect();
        out.push_str(&format!("Aggregate [{}]", items.join(", ")));
        if agg.group_elided {
            out.push_str(" group-elided");
        }
        if agg.count_distinct_elided {
            out.push_str(" count-distinct-elided");
        }
        out.push('\n');
        depth += 1;
    }
    depth
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn explain_query(q: &BoundQuery, opts: &ExecOptions, depth: usize, out: &mut String) {
    match q {
        BoundQuery::Spec(spec) => explain_spec(spec, opts, depth, out),
        BoundQuery::SetOp {
            op,
            all,
            left,
            right,
        } => {
            indent(out, depth);
            let method = match opts.distinct {
                DistinctMethod::Sort => "sort-merge",
                DistinctMethod::Hash => "hash-count",
            };
            let name = match op {
                SetOp::Intersect => "Intersect",
                SetOp::Except => "Except",
                SetOp::Union => "Union",
            };
            out.push_str(&format!(
                "{name}{} [{method}]\n",
                if *all { "All" } else { "" }
            ));
            explain_query(left, opts, depth + 1, out);
            explain_query(right, opts, depth + 1, out);
        }
    }
}

fn explain_spec(spec: &BoundSpec, opts: &ExecOptions, depth: usize, out: &mut String) {
    if spec.distinct == Distinct::Distinct {
        indent(out, depth);
        out.push_str(match opts.distinct {
            DistinctMethod::Sort => "SortDistinct",
            DistinctMethod::Hash => "HashDistinct",
        });
        out.push('\n');
        return explain_projection(spec, opts, depth + 1, out);
    }
    explain_projection(spec, opts, depth, out);
}

fn explain_projection(spec: &BoundSpec, opts: &ExecOptions, depth: usize, out: &mut String) {
    indent(out, depth);
    let cols: Vec<String> = spec
        .projection
        .iter()
        .map(|p| spec.attr_name(p.attr))
        .collect();
    out.push_str(&format!("Project [{}]\n", cols.join(", ")));
    explain_pipeline(spec, opts, depth + 1, out);
}

fn explain_pipeline(spec: &BoundSpec, opts: &ExecOptions, depth: usize, out: &mut String) {
    // Mirror Executor's conjunct assignment.
    let conjuncts: Vec<&BoundExpr> = spec
        .predicate
        .as_ref()
        .map(|p| p.conjuncts())
        .unwrap_or_default();
    let hash_joins = opts.join == JoinMethod::Hash && spec.from.len() > 1;
    for (level, table) in spec.from.iter().enumerate().rev() {
        indent(out, depth);
        if level == 0 {
            out.push_str(&format!(
                "Scan {} AS {}\n",
                table.schema.name, table.binding
            ));
        } else {
            let range = table.attr_range();
            let has_equi = conjuncts.iter().any(|c| {
                matches!(
                    c,
                    BoundExpr::Cmp {
                        op: CmpOp::Eq,
                        left: BScalar::Attr(a),
                        right: BScalar::Attr(b),
                    } if a.is_local() && b.is_local()
                        && (range.contains(&a.idx) != range.contains(&b.idx))
                )
            });
            let method = if hash_joins && has_equi {
                "HashJoin"
            } else {
                "NestedLoop"
            };
            out.push_str(&format!(
                "{method} with Scan {} AS {}\n",
                table.schema.name, table.binding
            ));
        }
    }
    // Subqueries, rendered beneath their semi-join marker.
    for c in &conjuncts {
        render_subqueries(c, opts, depth, out);
    }
    if let Some(p) = &spec.predicate {
        indent(out, depth);
        let n = p.conjuncts().len();
        out.push_str(&format!("Filter [{n} conjunct(s)]\n"));
    }
}

fn render_subqueries(e: &BoundExpr, opts: &ExecOptions, depth: usize, out: &mut String) {
    match e {
        BoundExpr::Exists { negated, subquery } => {
            indent(out, depth);
            out.push_str(if *negated {
                "AntiSemiJoin (NOT EXISTS, first-match exit)\n"
            } else {
                "SemiJoin (EXISTS, first-match exit)\n"
            });
            explain_spec(subquery, opts, depth + 1, out);
        }
        BoundExpr::InSubquery {
            subquery, negated, ..
        } => {
            indent(out, depth);
            out.push_str(if *negated {
                "InSubquery (NOT IN, three-valued)\n"
            } else {
                "InSubquery (IN, three-valued)\n"
            });
            explain_spec(subquery, opts, depth + 1, out);
        }
        BoundExpr::And(a, b) | BoundExpr::Or(a, b) => {
            render_subqueries(a, opts, depth, out);
            render_subqueries(b, opts, depth, out);
        }
        BoundExpr::Not(a) => render_subqueries(a, opts, depth, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_schema;
    use uniq_plan::bind_query;
    use uniq_sql::parse_query;

    fn plan(sql: &str, opts: ExecOptions) -> String {
        let db = supplier_schema().unwrap();
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        explain(&q, &opts)
    }

    #[test]
    fn distinct_join_plan() {
        let p = plan(
            "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            ExecOptions::default(),
        );
        assert!(p.contains("SortDistinct"), "{p}");
        assert!(p.contains("HashJoin with Scan PARTS AS P"), "{p}");
        assert!(p.contains("Scan SUPPLIER AS S"), "{p}");
        assert!(p.contains("Filter [2 conjunct(s)]"), "{p}");
    }

    #[test]
    fn nested_loop_when_no_equi_join() {
        let p = plan(
            "SELECT S.SNO FROM SUPPLIER S, AGENTS A WHERE S.BUDGET > A.ANO",
            ExecOptions::default(),
        );
        assert!(p.contains("NestedLoop"), "{p}");
        assert!(!p.contains("HashJoin"), "{p}");
    }

    #[test]
    fn exists_renders_semijoin() {
        let p = plan(
            "SELECT S.SNO FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)",
            ExecOptions::default(),
        );
        assert!(p.contains("SemiJoin (EXISTS"), "{p}");
        assert!(p.contains("Scan PARTS AS P"), "{p}");
    }

    #[test]
    fn setop_renders_method() {
        let sort = plan(
            "SELECT S.SNO FROM SUPPLIER S INTERSECT SELECT A.SNO FROM AGENTS A",
            ExecOptions::default(),
        );
        assert!(sort.contains("Intersect [sort-merge]"), "{sort}");
        let hash = plan(
            "SELECT S.SNO FROM SUPPLIER S EXCEPT ALL SELECT A.SNO FROM AGENTS A",
            ExecOptions {
                distinct: DistinctMethod::Hash,
                ..Default::default()
            },
        );
        assert!(hash.contains("ExceptAll [hash-count]"), "{hash}");
    }

    #[test]
    fn trace_rendering_names_rule_theorem_and_timing() {
        let db = supplier_schema().unwrap();
        let q = bind_query(
            db.catalog(),
            &parse_query(
                "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P \
                 WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            )
            .unwrap(),
        )
        .unwrap();
        let outcome = uniq_core::pipeline::Optimizer::new(
            uniq_core::pipeline::OptimizerOptions::relational(),
        )
        .optimize(&q);
        let text = explain_with_trace(
            &outcome.trace,
            &BoundOutput::plain(outcome.query),
            &ExecOptions::default(),
        );
        assert!(
            text.contains("distinct-removal [Theorem 1] proof=✓"),
            "{text}"
        );
        assert!(text.contains("before: SELECT DISTINCT"), "{text}");
        assert!(text.contains("after:  SELECT ALL"), "{text}");
        assert!(text.contains("Rule stats"), "{text}");
        assert!(text.contains("Physical plan:"), "{text}");
        assert!(text.contains("Scan SUPPLIER AS S"), "{text}");
    }

    fn output_plan(sql: &str, opts: ExecOptions) -> String {
        let db = supplier_schema().unwrap();
        let ast = uniq_sql::parse_full_query(sql).unwrap();
        let bound = uniq_plan::bind_output(db.catalog(), &ast).unwrap();
        let optimizer = uniq_core::pipeline::Optimizer::new(
            uniq_core::pipeline::OptimizerOptions::relational(),
        );
        let (output, trace) = uniq_core::optimize_output(&optimizer, &bound);
        explain_with_trace(&trace, &output, &opts)
    }

    #[test]
    fn aggregate_sort_limit_render_above_the_body() {
        let p = output_plan(
            "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S \
             GROUP BY S.SCITY ORDER BY N DESC LIMIT 3",
            ExecOptions::default(),
        );
        let limit = p.find("Limit 3").expect(&p);
        let sort = p.find("Sort [N DESC]").expect(&p);
        let agg = p.find("Aggregate [SCITY, N]").expect(&p);
        let scan = p.find("Scan SUPPLIER AS S").expect(&p);
        assert!(limit < sort && sort < agg && agg < scan, "{p}");
        assert!(!p.contains("group-elided"), "SCITY is no key: {p}");
    }

    #[test]
    fn key_covered_group_by_renders_the_elision_marker() {
        let p = output_plan(
            "SELECT S.SNO, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SNO",
            ExecOptions::default(),
        );
        assert!(p.contains("Aggregate [SNO, N] group-elided"), "{p}");
    }

    #[test]
    fn empty_trace_renders_none() {
        let text = render_trace(&RewriteTrace::default());
        assert!(text.contains("Rewrites: none"), "{text}");
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(50), "50ns");
        assert_eq!(fmt_ns(2_500), "2.5µs");
        assert_eq!(fmt_ns(3_000_000), "3.0ms");
    }

    #[test]
    fn hash_option_off_forces_nested_loops() {
        let p = plan(
            "SELECT S.SNO FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO",
            ExecOptions {
                join: JoinMethod::NestedLoop,
                ..Default::default()
            },
        );
        assert!(p.contains("NestedLoop"), "{p}");
    }
}
