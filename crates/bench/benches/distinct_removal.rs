//! E2/E12 — wall-clock cost of the redundant-DISTINCT sort, and the
//! sort-vs-hash duplicate-elimination ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uniq_bench::{scaled_session, E2_QUERY};
use uniqueness::engine::DistinctMethod;
use uniqueness::plan::HostVars;

fn bench_distinct_removal(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_distinct_removal");
    group.sample_size(20);
    for suppliers in [1_000usize, 10_000] {
        let session = scaled_session(suppliers, 5);
        let hv = HostVars::new();
        group.bench_with_input(
            BenchmarkId::new("with_sort", suppliers),
            &suppliers,
            |b, _| b.iter(|| session.query_unoptimized(E2_QUERY, &hv).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("rewritten", suppliers),
            &suppliers,
            |b, _| b.iter(|| session.query(E2_QUERY).unwrap()),
        );
    }
    group.finish();
}

fn bench_distinct_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_distinct_method");
    group.sample_size(20);
    let sql = "SELECT DISTINCT S.SNAME, P.COLOR FROM SUPPLIER S, PARTS P \
               WHERE S.SNO = P.SNO";
    let hv = HostVars::new();
    for suppliers in [2_000usize, 10_000] {
        for (name, method) in [
            ("sort", DistinctMethod::Sort),
            ("hash", DistinctMethod::Hash),
        ] {
            let mut session = scaled_session(suppliers, 5);
            session.planner.distinct = method;
            group.bench_with_input(BenchmarkId::new(name, suppliers), &suppliers, |b, _| {
                b.iter(|| session.query_unoptimized(sql, &hv).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_distinct_removal, bench_distinct_methods);
criterion_main!(benches);
