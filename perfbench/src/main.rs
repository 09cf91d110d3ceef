//! A client-side benchmark of `uniqd`.
//!
//! ```text
//! perfbench --uniqd PATH --workload oltp|analytic|write_subscribe
//!           --seed N --seconds S --trace 0|1 [--spans DIR]
//! ```
//!
//! `--trace 0` starts the real `uniqd --empty --port 0` seven times in
//! turn; each loads a seeded database over the wire and runs a seventh
//! of `S` seconds of the workload as a closed loop from one thread. Every
//! answer is checked, and each end-to-end metric is the median over the
//! servers of the server's value, scaled to a reference host speed by a
//! yardstick the benchmark owns (see [`yardstick`]). `--trace 1` runs a
//! fixed number of ops of the same sequence over the wire, then
//! in-process untraced, traced and untraced again, and prints the
//! per-layer metrics. Both print, before the result, the host's steal
//! ticks and `uniqd`'s context switches, so a noisy run can be told apart
//! from a regression. The last line of standard output is the result as
//! one JSON object.

mod check;
mod data;
mod ops;
mod procfs;
mod report;
mod trace;
mod wire;
mod yardstick;

use std::path::PathBuf;

use check::{Answer, DeltaPredictor, Oracle, Tally};
use ops::{Plan, Workload, VIEWS};
use report::{median, metric, percentile, result_json, Metric};
use trace::{span_by_op, span_p50_us, Pass};
use wire::{Budget, E2e};
use yardstick::Yardstick;

/// Servers per end-to-end run. Each is set up afresh and runs an equal
/// share of the timed phase; every end-to-end metric is the median over
/// servers, so one server's luck — where its threads landed, how its heap
/// grew — does not set the result.
const SERVERS: usize = 7;

/// Ops in each pass of a traced run. A fixed count, so the exact
/// counters repeat for one seed.
fn trace_ops(workload: Workload) -> usize {
    match workload {
        Workload::Oltp => 8_000,
        Workload::Analytic => 180,
        Workload::WriteSubscribe => 600,
    }
}

struct Args {
    uniqd: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: PathBuf,
}

const USAGE: &str = "usage: perfbench --uniqd PATH --workload oltp|analytic|write_subscribe \
                     --seed N --seconds S --trace 0|1 [--spans DIR]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut uniqd = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = PathBuf::from("perfbench-spans");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--uniqd" => uniqd = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            "--spans" => spans = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        uniqd: uniqd.ok_or_else(|| missing("--uniqd"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        spans,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What every run shares: the data, the plan and the oracle's answers.
struct Prepared {
    data: data::Data,
    plan: Plan,
    expected: Vec<Answer>,
}

fn prepare(workload: Workload, seed: u64, suppliers: usize) -> Result<Prepared, String> {
    let data = data::generate(seed, suppliers)?;
    let plan = Plan::new(workload, seed, data.suppliers);
    let expected = Oracle::new(&data.db).answers(&plan.texts)?;
    Ok(Prepared {
        data,
        plan,
        expected,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let prep = prepare(args.workload, args.seed, data::SUPPLIERS)?;
    eprintln!(
        "perfbench: {} seed {}: {} load statements, {} repeated texts",
        args.workload.name(),
        args.seed,
        prep.data.statements,
        prep.plan.texts.len()
    );
    let steal_before = procfs::host_steal_ticks();
    let (line, tally) = if args.trace {
        traced_run(args, &prep)?
    } else {
        e2e_run(args, &prep)?
    };
    println!(
        "steadiness: host_steal_ticks={}",
        procfs::host_steal_ticks().saturating_sub(steal_before)
    );
    for note in &tally.notes {
        println!("failure: {note}");
    }
    println!(
        "failures: attempted={} failed={} failed_ratio={}",
        tally.attempted,
        tally.failed,
        tally.failed_ratio()
    );
    Ok(line)
}

/// What one server did in an end-to-end pass.
struct Served {
    /// The timed phase.
    e2e: E2e,
    /// Seconds from the first connection to the end of warm-up.
    setup_s: f64,
    /// The host's slowness during the set-up, by the yardstick.
    setup_slowness: f64,
    /// `uniqd`'s peak RSS after the timed phase, MiB.
    peak_rss_mb: f64,
}

/// Set up a fresh server and run one timed phase on it over the wire,
/// then check every answer, the warm-up's included.
fn serve(
    args: &Args,
    prep: &Prepared,
    budget: Budget,
    tally: &mut Tally,
) -> Result<Served, String> {
    let mut stick = Yardstick::start()?;
    let (mut live, warm) = wire::setup(&args.uniqd, &prep.plan, &prep.data.script, &mut stick)?;
    tally.attempted += warm.len() as u64;
    check::check_log(&prep.plan, &prep.data.db, &prep.expected, &warm, tally)?;
    let mut predictor = DeltaPredictor::new(&prep.data.db)?;
    let e2e = wire::run(
        &mut live,
        &prep.plan,
        &mut predictor,
        budget,
        &mut stick,
        tally,
    )?;
    let peak_rss_mb = procfs::peak_rss_mb(live.server.pid())?;
    let views = wire::reconcile_views(&mut live, tally)?;
    let (setup_s, setup_slowness) = (live.setup_s, live.setup_slowness);
    drop(live);

    let oracle = check::check_log(&prep.plan, &prep.data.db, &prep.expected, &e2e.log, tally)?;
    // After the replay the oracle holds the final state: the views'
    // fresh answers must match it too.
    for ((_, sql), got) in VIEWS.iter().zip(&views) {
        tally.check(sql, *got, oracle.answer(sql)?);
    }
    Ok(Served {
        e2e,
        setup_s,
        setup_slowness,
        peak_rss_mb,
    })
}

fn print_classes(e2e: &E2e) {
    let p50 = |v: &[f64]| percentile(v, 0.5);
    println!(
        "e2e: ops={} elapsed_s={:.3} reads={} read_p50_us={:.1} read_p95_us={:.1} \
         adhoc={} adhoc_p50_us={:.1} writes={} write_p50_us={:.1} notify_p50_us={:.1}",
        e2e.ops,
        e2e.elapsed_s,
        e2e.read_us.len(),
        p50(&e2e.read_us),
        percentile(&e2e.read_us, 0.95),
        e2e.adhoc_us.len(),
        p50(&e2e.adhoc_us),
        e2e.write_us.len(),
        p50(&e2e.write_us),
        p50(&e2e.notify_us),
    );
    println!(
        "steadiness: timed_steal_ticks={} uniqd_cpu_s={:.3} uniqd_voluntary_ctxt_switches={} \
         uniqd_involuntary_ctxt_switches={}",
        e2e.steal_ticks,
        e2e.proc.cpu_ns as f64 / 1e9,
        e2e.proc.voluntary,
        e2e.proc.involuntary
    );
}

fn e2e_run(args: &Args, prep: &Prepared) -> Result<(String, Tally), String> {
    let mut tally = Tally::default();
    let budget = Budget::Seconds(args.seconds / SERVERS as f64);
    let mut served = Vec::with_capacity(SERVERS);
    for _ in 0..SERVERS {
        let one = serve(args, prep, budget, &mut tally)?;
        print_classes(&one.e2e);
        served.push(one);
    }
    // Each metric per server, scaled to the reference host by the
    // yardstick, then the median over servers. Throughput counts only the
    // wall clock that was neither spent in yardstick units nor stolen by
    // the hypervisor, which neither CPU time nor the yardstick sees but
    // which stalls the closed loop.
    let per_server = |f: &dyn Fn(&Served) -> f64| -> Vec<f64> { served.iter().map(f).collect() };
    let slowness = per_server(&|s| s.e2e.slowness);
    let steal = per_server(&|s| procfs::steal_share(s.e2e.steal_ticks, s.e2e.elapsed_s));
    let throughput_raw: Vec<f64> = served
        .iter()
        .zip(&steal)
        .map(|(s, stolen)| {
            let e = &s.e2e;
            e.ops as f64 / ((e.elapsed_s - e.yardstick_s) * (1.0 - stolen))
        })
        .collect();
    let read_raw = per_server(&|s| percentile(&s.e2e.read_us, 0.5));
    let cpu_raw = per_server(&|s| s.e2e.proc.cpu_ns as f64 / 1_000.0 / s.e2e.ops as f64);
    let setup_raw = per_server(&|s| s.setup_s);
    let rss = per_server(&|s| s.peak_rss_mb);
    let scaled = |raw: &[f64], by: &dyn Fn(&Served) -> f64| -> f64 {
        median(
            &raw.iter()
                .zip(&served)
                .map(|(v, s)| v * by(s))
                .collect::<Vec<_>>(),
        )
    };
    println!(
        "unscaled: throughput_ops_s={throughput_raw:.1?} read_p50_us={read_raw:.1?} \
         server_cpu_us_per_op={cpu_raw:.1?} setup_s={setup_raw:.3?}"
    );
    println!(
        "host: slowness={slowness:.3?} setup_slowness={:.3?} steal_share={steal:.3?}",
        per_server(&|s| s.setup_slowness)
    );
    let metrics = vec![
        metric(
            "throughput_ops_s",
            scaled(&throughput_raw, &|s| s.e2e.slowness),
            "ops/s",
        ),
        metric(
            "read_p50_us",
            scaled(&read_raw, &|s| 1.0 / s.e2e.slowness),
            "us",
        ),
        metric(
            "server_cpu_us_per_op",
            scaled(&cpu_raw, &|s| 1.0 / s.e2e.slowness),
            "us",
        ),
        metric("peak_rss_mb", median(&rss), "MB"),
        metric(
            "setup_s",
            scaled(&setup_raw, &|s| 1.0 / s.setup_slowness),
            "s",
        ),
    ];
    let correct = tally.failed == 0;
    Ok((
        result_json(correct, tally.attempted, tally.failed, &metrics),
        tally,
    ))
}

fn traced_run(args: &Args, prep: &Prepared) -> Result<(String, Tally), String> {
    let ops = trace_ops(args.workload);
    let mut tally = Tally::default();
    let e2e = serve(args, prep, Budget::Ops(ops), &mut tally)?.e2e;
    print_classes(&e2e);
    // Untraced passes on both sides of the traced one, so what the order
    // of passes costs (a heap grown by an earlier pass, warmer caches)
    // falls on both sides of the tracing overhead.
    let before = trace::pass(&prep.plan, &prep.data.script, ops, false)?;
    let traced = trace::pass(&prep.plan, &prep.data.script, ops, true)?;
    let after = trace::pass(&prep.plan, &prep.data.script, ops, false)?;
    for pass in [&before, &traced, &after] {
        trace::check(pass, &e2e.log, &mut tally);
        if pass.counts != traced.counts {
            tally.fail("exact counts differ between the untraced and traced passes");
        }
    }
    let untraced_s = (before.wall_s + after.wall_s) / 2.0;
    let c = &traced.counts;
    println!("counts: {c:?}");

    std::fs::create_dir_all(&args.spans).map_err(|e| format!("{}: {e}", args.spans.display()))?;
    let path = args.spans.join(format!(
        "{}-seed{}.spans.tsv",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, trace::spans_tsv(&traced.spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let ops_path = path.with_extension("").with_extension("ops.tsv");
    std::fs::write(&ops_path, ops::sequence_tsv(&prep.plan, ops))
        .map_err(|e| format!("{}: {e}", ops_path.display()))?;
    println!(
        "spans: {} written to {} (op texts in {})",
        traced.spans.len(),
        path.display(),
        ops_path.display()
    );

    let metrics = per_layer(&e2e, untraced_s, &traced);
    let correct = tally.failed == 0;
    Ok((
        result_json(correct, tally.attempted, tally.failed, &metrics),
        tally,
    ))
}

/// `a ÷ b`, 0 when nothing was counted.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(e2e: &E2e, untraced_s: f64, traced: &Pass) -> Vec<Metric> {
    let spans = &traced.spans;
    let c = &traced.counts;
    // Compile layers include the warm-up compiles, so every workload
    // reports them; the rest cover the timed ops only.
    let p50 = |name| span_p50_us(spans, name, false);
    let compile_p50 = |name| span_p50_us(spans, name, true);

    // Transport: the wire latency of each read minus the in-process
    // engine and codec time of the same op.
    let mut engine_ns = vec![0u64; e2e.by_op.len()];
    for (op, ns) in span_by_op(spans, "query")
        .into_iter()
        .chain(span_by_op(spans, "codec"))
    {
        if let Some(slot) = engine_ns.get_mut(op as usize) {
            *slot += ns;
        }
    }
    let transport: Vec<f64> = e2e
        .by_op
        .iter()
        .zip(&engine_ns)
        .filter_map(|(wire, &ns)| wire.map(|us| us - ns as f64 / 1_000.0))
        .collect();
    let exec = &c.exec;
    let writes = c.writes;
    vec![
        metric("server.transport_us", percentile(&transport, 0.5), "us"),
        metric("server.codec_us", p50("codec"), "us"),
        metric(
            "server.ctx_switches_per_op",
            ratio(e2e.proc.voluntary, e2e.ops),
            "count/op",
        ),
        metric("sql.parse_us", p50("parse"), "us"),
        metric("shared.overhead_us", p50("shared"), "us"),
        metric(
            "plancache.hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
        ),
        metric(
            "plancache.evictions_per_op",
            ratio(c.cache_evictions, c.reads),
            "count/op",
        ),
        metric("plan.bind_us", compile_p50("bind"), "us"),
        metric("core.rewrite_us", compile_p50("rewrite"), "us"),
        metric(
            "core.fire_ratio",
            ratio(c.rule_fires, c.rule_attempts),
            "ratio",
        ),
        metric(
            "core.uniqueness_tests_per_miss",
            ratio(c.uniqueness_tests, c.compiles),
            "count/miss",
        ),
        metric("proof.check_us", compile_p50("proof"), "us"),
        metric("proof.proved_ratio", ratio(c.proved, c.steps), "ratio"),
        metric("cost.plan_us", compile_p50("plan"), "us"),
        metric("exec.execute_us", p50("execute"), "us"),
        metric(
            "exec.rows_scanned_per_op",
            ratio(exec.rows_scanned, c.reads),
            "count/op",
        ),
        metric(
            "exec.hash_probes_per_op",
            ratio(exec.hash_probes, c.reads),
            "count/op",
        ),
        metric(
            "exec.probe_steps_per_op",
            ratio(exec.probe_steps, c.reads),
            "count/op",
        ),
        metric(
            "exec.sort_comparisons_per_op",
            ratio(exec.sort_comparisons, c.reads),
            "count/op",
        ),
        metric(
            "exec.rows_output_per_op",
            ratio(exec.rows_output, c.reads),
            "count/op",
        ),
        metric("snapshot.publish_us", p50("publish"), "us"),
        metric("ivm.maintain_us", p50("maintain"), "us"),
        metric(
            "ivm.set_work_per_write",
            ratio(c.view_work[0], writes),
            "count/write",
        ),
        metric(
            "ivm.counting_work_per_write",
            ratio(c.view_work[1], writes),
            "count/write",
        ),
        metric(
            "ivm.recompute_work_per_write",
            ratio(c.view_work[2], writes),
            "count/write",
        ),
        metric(
            "ivm.rows_saved_ratio",
            ratio(c.rows_saved, c.rows_saved + c.rows_touched),
            "ratio",
        ),
        metric("client.read_p95_us", percentile(&e2e.read_us, 0.95), "us"),
        metric("client.adhoc_p50_us", percentile(&e2e.adhoc_us, 0.5), "us"),
        metric("client.write_p50_us", percentile(&e2e.write_us, 0.5), "us"),
        metric(
            "client.notify_p50_us",
            percentile(&e2e.notify_us, 0.5),
            "us",
        ),
        metric(
            "trace.overhead_pct",
            (traced.wall_s - untraced_s) / untraced_s * 100.0,
            "%",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload, seed: u64) -> Prepared {
        prepare(workload, seed, 80).unwrap()
    }

    #[test]
    fn traced_counts_repeat_for_one_seed() {
        for workload in Workload::ALL {
            let prep = small(workload, 11);
            let ops = 120;
            let a = trace::pass(&prep.plan, &prep.data.script, ops, true).unwrap();
            let b = trace::pass(&prep.plan, &prep.data.script, ops, true).unwrap();
            assert_eq!(a.counts, b.counts, "{}", workload.name());
            let mut tally = Tally::default();
            check::check_log(
                &prep.plan,
                &prep.data.db,
                &prep.expected,
                &a.log,
                &mut tally,
            )
            .unwrap();
            assert_eq!(tally.failed, 0, "{:?}", tally.notes);

            let other = small(workload, 12);
            let c = trace::pass(&other.plan, &other.data.script, ops, true).unwrap();
            assert_ne!(a.counts.sequence, c.counts.sequence, "{}", workload.name());
        }
    }

    #[test]
    fn every_metric_name_is_well_formed() {
        let prep = small(Workload::WriteSubscribe, 3);
        let pass = trace::pass(&prep.plan, &prep.data.script, 40, true).unwrap();
        let e2e = E2e {
            by_op: vec![Some(1.0); 40],
            ops: 40,
            ..E2e::default()
        };
        let names: Vec<&str> = per_layer(&e2e, pass.wall_s, &pass)
            .iter()
            .map(|m| m.name)
            .collect();
        let e2e_names = [
            "throughput_ops_s",
            "read_p50_us",
            "server_cpu_us_per_op",
            "peak_rss_mb",
            "setup_s",
        ];
        for name in names.iter().chain(&e2e_names) {
            assert!(report::valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names repeat");
    }
}
