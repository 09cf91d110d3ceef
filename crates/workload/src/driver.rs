//! Batch execution of a query corpus over a shared [`Session`] and a
//! `std::thread::scope` worker pool.
//!
//! This is the serving loop in miniature: every worker pulls the next
//! statement from a shared cursor and runs it through the session's
//! full path (parse → plan-cache probe → bind/optimize on a miss →
//! execute), so the plan cache is exercised exactly as it would be by
//! concurrent clients — one thread's compilation becomes every other
//! thread's cache hit. Per-stage wall-clock and executor work counters
//! are folded into one [`BatchReport`] for the bench report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use uniq_engine::{CacheStats, ExecStats, QErrorStats, Session, StageTimings};

/// Knobs for [`run_batch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Worker threads. `0` (the default) means one worker per available
    /// core.
    pub threads: usize,
}

/// Aggregated outcome of one batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Statements executed (successfully or not).
    pub queries: u64,
    /// Statements that returned an error (text preserved for the first).
    pub errors: u64,
    /// First error message observed, if any.
    pub first_error: Option<String>,
    /// Total result rows produced.
    pub rows: u64,
    /// Queries served from the plan cache.
    pub cache_hits: u64,
    /// Per-stage wall-clock time summed over all statements (CPU time
    /// across workers, not elapsed time).
    pub timings: StageTimings,
    /// Executor work counters summed over all statements.
    pub exec: ExecStats,
    /// Plan-cache counter deltas attributable to this batch.
    pub cache: CacheStats,
    /// Rewrite-rule firings across the batch, keyed by rule name. Cache
    /// hits re-count the firings recorded in the cached plan's trace, so
    /// this reflects what the *served* plans did, not just compilations.
    pub rule_fires: BTreeMap<String, u64>,
    /// Cardinality-estimation accuracy (q-error) aggregated over every
    /// operator of every cost-based plan served; empty before `ANALYZE`,
    /// when the fixed plans carry no estimates.
    pub qerror: QErrorStats,
    /// Elapsed wall-clock time for the whole batch.
    pub elapsed: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

impl BatchReport {
    /// Cache hits as a fraction of executed statements.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Statements per second of elapsed wall-clock.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.queries as f64 / secs
        }
    }
}

/// Worker-local accumulator, merged into the report once per thread.
#[derive(Default)]
struct WorkerTally {
    queries: u64,
    errors: u64,
    first_error: Option<String>,
    rows: u64,
    cache_hits: u64,
    timings: StageTimings,
    exec: ExecStats,
    rule_fires: BTreeMap<String, u64>,
    qerror: QErrorStats,
}

impl WorkerTally {
    fn merge_into(self, report: &mut BatchReport) {
        report.queries += self.queries;
        report.errors += self.errors;
        if report.first_error.is_none() {
            report.first_error = self.first_error;
        }
        report.rows += self.rows;
        report.cache_hits += self.cache_hits;
        report.timings.absorb(&self.timings);
        report.exec.merge(&self.exec);
        for (rule, fires) in self.rule_fires {
            *report.rule_fires.entry(rule).or_insert(0) += fires;
        }
        report.qerror.absorb(&self.qerror);
    }
}

fn cache_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
    }
}

/// Execute every statement of `queries` against `session`, fanned out
/// over a scoped worker pool. Workers share the session (and therefore
/// its plan cache) by reference; statements are claimed from a single
/// atomic cursor, so the distribution is dynamic — fast workers take
/// more work.
pub fn run_batch(session: &Session, queries: &[String], options: BatchOptions) -> BatchReport {
    let threads = if options.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        options.threads
    }
    .min(queries.len().max(1));

    let cache_before = session.cache_stats();
    let cursor = AtomicUsize::new(0);
    let report = Mutex::new(BatchReport {
        threads,
        ..BatchReport::default()
    });

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut tally = WorkerTally::default();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(sql) = queries.get(i) else { break };
                    tally.queries += 1;
                    match session.query(sql) {
                        Ok(out) => {
                            tally.rows += out.rows.len() as u64;
                            tally.cache_hits += u64::from(out.cache_hit);
                            tally.timings.absorb(&out.timings);
                            tally.exec.merge(&out.stats);
                            for step in &out.trace.steps {
                                *tally.rule_fires.entry(step.rule.to_string()).or_insert(0) += 1;
                            }
                            if let Some(cards) = &out.cards {
                                tally.qerror.record(cards);
                            }
                        }
                        Err(e) => {
                            tally.errors += 1;
                            tally
                                .first_error
                                .get_or_insert_with(|| format!("{sql}: {e}"));
                        }
                    }
                }
                tally.merge_into(&mut report.lock().expect("batch report poisoned"));
            });
        }
    });

    let mut report = report.into_inner().expect("batch report poisoned");
    report.elapsed = start.elapsed();
    report.cache = cache_delta(&session.cache_stats(), &cache_before);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_catalog::sample::supplier_database;

    fn repeated_corpus(reps: usize) -> Vec<String> {
        let distinct = [
            "SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P \
             WHERE S.SNO = P.SNO AND P.COLOR = 'RED'",
            "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS \
             (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')",
            "SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' \
             INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa'",
        ];
        (0..reps)
            .flat_map(|_| distinct.iter().map(|s| s.to_string()))
            .collect()
    }

    #[test]
    fn single_worker_batch_hits_after_first_round() {
        let session = Session::new(supplier_database().unwrap());
        let corpus = repeated_corpus(10);
        let report = run_batch(&session, &corpus, BatchOptions { threads: 1 });
        assert_eq!(report.queries, 30);
        assert_eq!(report.errors, 0, "{:?}", report.first_error);
        // Three distinct statements compile once each; the rest hit.
        assert_eq!(report.cache_hits, 27);
        assert_eq!(report.cache.insertions, 3);
        assert!(report.timings.execute_ns > 0);
        assert!(report.rows > 0);
        // Per-rule fire counts aggregate over served plans: all 10
        // repetitions of each statement count, hits included.
        assert_eq!(report.rule_fires.get("distinct-removal"), Some(&10));
        assert_eq!(report.rule_fires.get("subquery-to-join"), Some(&20));
        assert_eq!(report.rule_fires.get("intersect-to-exists"), Some(&10));
    }

    #[test]
    fn shared_cache_counters_survive_concurrency() {
        let session = Session::new(supplier_database().unwrap());
        let corpus = repeated_corpus(40);
        let report = run_batch(&session, &corpus, BatchOptions { threads: 8 });
        assert_eq!(report.queries, 120);
        assert_eq!(report.errors, 0, "{:?}", report.first_error);
        // Every probe is either a hit or a miss — no lost updates.
        assert_eq!(report.cache.hits + report.cache.misses, 120);
        assert_eq!(report.cache_hits, report.cache.hits);
        // Concurrent first-misses may compile the same statement more
        // than once (last insert wins), but never more than once per
        // worker, and the cache converges to the three distinct plans.
        assert!(report.cache.insertions >= 3);
        assert!(report.cache.insertions <= 3 * report.threads as u64);
        assert!(report.cache_hits >= 120 - 3 * report.threads as u64);
        assert_eq!(session.cache.len(), 3);
    }

    #[test]
    fn cost_based_batch_reports_qerror() {
        let session = Session::new(supplier_database().unwrap()).with_cost_based();
        let corpus = repeated_corpus(4);
        let report = run_batch(&session, &corpus, BatchOptions { threads: 2 });
        assert_eq!(report.errors, 0, "{:?}", report.first_error);
        assert!(report.qerror.ops > 0, "cost-based plans are measured");
        assert!(report.qerror.max >= 1.0);
        assert!(report.qerror.mean() >= 1.0);
        // A static session measures nothing.
        let session = Session::new(supplier_database().unwrap());
        let report = run_batch(&session, &corpus, BatchOptions { threads: 1 });
        assert_eq!(report.qerror.ops, 0);
    }

    #[test]
    fn errors_are_counted_not_fatal() {
        let session = Session::new(supplier_database().unwrap());
        let corpus = vec![
            "SELECT S.SNO FROM SUPPLIER S".to_string(),
            "SELECT NO_SUCH.COL FROM NOWHERE N".to_string(),
        ];
        let report = run_batch(&session, &corpus, BatchOptions { threads: 1 });
        assert_eq!(report.queries, 2);
        assert_eq!(report.errors, 1);
        assert!(report.first_error.unwrap().contains("NOWHERE"));
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let session = Session::new(supplier_database().unwrap());
        let corpus = repeated_corpus(2);
        let report = run_batch(&session, &corpus, BatchOptions::default());
        assert!(report.threads >= 1);
        assert_eq!(report.queries, 6);
    }
}
