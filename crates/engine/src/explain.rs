//! `EXPLAIN` text for the rewrite trace.
//!
//! An `EXPLAIN` prints what the optimizer did, rendered here, followed
//! by the one physical plan the query runs, rendered by
//! [`PhysicalPlan::render`](uniq_cost::PhysicalPlan::render): labels
//! only before `ANALYZE`, estimated and actual rows per operator after
//! it.

use uniq_core::pipeline::RewriteTrace;

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

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_schema;
    use uniq_cost::{plan_output, plan_query, DistinctMethod, JoinMethod, PlannerOptions};
    use uniq_plan::bind_query;
    use uniq_sql::parse_query;

    /// The plan section an unanalyzed `EXPLAIN` prints for `sql`, bound
    /// without rewriting.
    fn plan(sql: &str, opts: PlannerOptions) -> String {
        let db = supplier_schema().unwrap();
        let q = bind_query(db.catalog(), &parse_query(sql).unwrap()).unwrap();
        plan_query(&q, None, opts).render(0, None)
    }

    #[test]
    fn distinct_join_plan() {
        let p = plan(
            "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            PlannerOptions::default(),
        );
        assert!(p.contains("SortDistinct"), "{p}");
        assert!(p.contains("HashJoin with Scan PARTS AS P"), "{p}");
        assert!(p.contains("Scan SUPPLIER AS S"), "{p}");
        assert!(!p.contains("est="), "a fixed plan has no estimates: {p}");
    }

    #[test]
    fn cross_join_when_no_equi_join() {
        // The hash step has no key, so it runs as a cross product whose
        // build side is scanned once; the comparison filters the pairs.
        let p = plan(
            "SELECT S.SNO FROM SUPPLIER S, AGENTS A WHERE S.BUDGET > A.ANO",
            PlannerOptions::default(),
        );
        assert!(p.contains("CrossJoin with Scan AGENTS AS A"), "{p}");
        assert!(!p.contains("HashJoin") && !p.contains("NestedLoop"), "{p}");
    }

    #[test]
    fn setop_renders_method() {
        let sort = plan(
            "SELECT S.SNO FROM SUPPLIER S INTERSECT SELECT A.SNO FROM AGENTS A",
            PlannerOptions::default(),
        );
        assert!(sort.contains("Intersect [sort-merge]"), "{sort}");
        let hash = plan(
            "SELECT S.SNO FROM SUPPLIER S EXCEPT ALL SELECT A.SNO FROM AGENTS A",
            PlannerOptions {
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
        let text = render_trace(&outcome.trace);
        assert!(
            text.contains("distinct-removal [Theorem 1] proof=✓"),
            "{text}"
        );
        assert!(text.contains("before: SELECT DISTINCT"), "{text}");
        assert!(text.contains("after:  SELECT ALL"), "{text}");
        assert!(text.contains("Rule stats"), "{text}");
    }

    /// The plan section an unanalyzed `EXPLAIN` prints for the
    /// optimized full query `sql`.
    fn output_plan(sql: &str) -> String {
        let db = supplier_schema().unwrap();
        let ast = uniq_sql::parse_full_query(sql).unwrap();
        let bound = uniq_plan::bind_output(db.catalog(), &ast).unwrap();
        let optimizer = uniq_core::pipeline::Optimizer::new(
            uniq_core::pipeline::OptimizerOptions::relational(),
        );
        let (output, _) = uniq_core::optimize_output(&optimizer, &bound);
        plan_output(&output, None, PlannerOptions::default()).render(0, None)
    }

    #[test]
    fn aggregate_sort_limit_render_above_the_body() {
        let p = output_plan(
            "SELECT S.SCITY, COUNT(*) AS N FROM SUPPLIER S \
             GROUP BY S.SCITY ORDER BY N DESC LIMIT 3",
        );
        let limit = p.find("Limit 3").expect(&p);
        let sort = p.find("Sort [N DESC]").expect(&p);
        let agg = p.find("Aggregate [SCITY, COUNT(*)]").expect(&p);
        let scan = p.find("Scan SUPPLIER AS S").expect(&p);
        assert!(limit < sort && sort < agg && agg < scan, "{p}");
        assert!(!p.contains("group-elided"), "SCITY is no key: {p}");
    }

    #[test]
    fn key_covered_group_by_renders_the_elision_marker() {
        let p = output_plan("SELECT S.SNO, COUNT(*) AS N FROM SUPPLIER S GROUP BY S.SNO");
        assert!(p.contains("Aggregate [SNO, COUNT(*)] group-elided"), "{p}");
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
            PlannerOptions {
                join: JoinMethod::NestedLoop,
                ..Default::default()
            },
        );
        assert!(p.contains("NestedLoop with Scan PARTS AS P"), "{p}");
    }
}
