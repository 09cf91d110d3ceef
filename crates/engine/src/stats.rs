//! Execution statistics: the executor's work counters and the serving
//! path's stage timings.

/// Work counters maintained by every operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Base-table rows read by scans (counted once per iteration over a
    /// stored row, including re-scans in nested loops).
    pub rows_scanned: u64,
    /// Rows produced by the top-level operator.
    pub rows_output: u64,
    /// Comparisons performed by sorts (duplicate elimination and
    /// sort-merge set operations).
    pub sort_comparisons: u64,
    /// Rows fed into sort-based operators.
    pub rows_sorted: u64,
    /// Number of sort operations performed.
    pub sorts: u64,
    /// Hash-table probes performed by hash joins and hash distinct. A
    /// dense table of the encoded access (indexed by code words, see
    /// [`crate::columnar`]) books each lookup as the hash table it
    /// replaces would.
    pub hash_probes: u64,
    /// Hash-bucket entries examined while probing joins: a chained
    /// bucket costs one step per entry plus the end-of-chain check,
    /// while the unique-key kernel costs exactly one step per probe
    /// (single slot, first-match exit, no chain to finish).
    pub probe_steps: u64,
    /// Secondary-index probes: one per `IxScan` access and one per
    /// outer partial of an `IxJoin` step. The work they cost lands in
    /// `probe_steps` (exactly one step for a unique index — guaranteed
    /// single-row lookup — otherwise one per matched position plus the
    /// end-of-postings check); this counter just says how often the
    /// index was consulted.
    pub ix_probes: u64,
    /// Correlated subquery evaluations (one per outer row tested).
    pub subquery_evals: u64,
    /// Hash joins executed.
    pub hash_joins: u64,
    /// Vectorized kernel invocations on the columnar path: one per
    /// (kernel, column chunk) pair, regardless of how many rows the
    /// chunk holds. This is the columnar analogue of per-row operator
    /// dispatch — the whole point of vectorization is that this counter
    /// grows with `rows /` [`CHUNK_SIZE`](crate::columnar::CHUNK_SIZE)
    /// where the row path's `rows_scanned` grows with `rows`.
    pub vector_ops: u64,
    /// Rows converted back from column codes to `Value` tuples by late
    /// materialization. Only query output is ever materialized; counted
    /// here so E18 can charge the columnar path for that final copy.
    pub materialized_rows: u64,
    /// Base-table delta rows consumed by incremental view maintenance —
    /// the `|Δ|` that O(Δ) subscription maintenance is linear in.
    pub delta_rows: u64,
    /// Net view changes (insertions plus deletions) emitted by
    /// incremental view maintenance rounds.
    pub view_updates: u64,
    /// Rows fed into an aggregate operator (hash or elided). Hash
    /// grouping additionally books one `hash_probes` per row, and every
    /// un-elided `COUNT(DISTINCT)` argument books one more per
    /// distinct-set insert; the key-elided one-pass and the global
    /// (no `GROUP BY`) single group book zero — the gaps E23 measures.
    pub agg_rows: u64,
    /// Early terminations taken: an `ORDER BY key-prefix LIMIT k` walk
    /// of an ordered index that stopped before its range ended.
    pub early_stops: u64,
    /// Rows examined by an early-stopping Top-K index walk before it
    /// cut off — the "rows-examined ≈ k" proof E23 asserts against the
    /// full table size.
    pub topk_rows_examined: u64,
}

impl ExecStats {
    /// Zeroed counters.
    pub fn new() -> ExecStats {
        ExecStats::default()
    }

    /// Accumulate another stats block into this one. Counters are all
    /// sums, so merging is associative and commutative — the batch
    /// driver folds per-worker tallies through this one function. The
    /// exhaustive destructuring means a newly added counter cannot be
    /// silently dropped here: the compiler rejects the pattern until it
    /// is merged too.
    pub fn merge(&mut self, other: &ExecStats) {
        let ExecStats {
            rows_scanned,
            rows_output,
            sort_comparisons,
            rows_sorted,
            sorts,
            hash_probes,
            probe_steps,
            ix_probes,
            subquery_evals,
            hash_joins,
            vector_ops,
            materialized_rows,
            delta_rows,
            view_updates,
            agg_rows,
            early_stops,
            topk_rows_examined,
        } = *other;
        self.rows_scanned += rows_scanned;
        self.rows_output += rows_output;
        self.sort_comparisons += sort_comparisons;
        self.rows_sorted += rows_sorted;
        self.sorts += sorts;
        self.hash_probes += hash_probes;
        self.probe_steps += probe_steps;
        self.ix_probes += ix_probes;
        self.subquery_evals += subquery_evals;
        self.hash_joins += hash_joins;
        self.vector_ops += vector_ops;
        self.materialized_rows += materialized_rows;
        self.delta_rows += delta_rows;
        self.view_updates += view_updates;
        self.agg_rows += agg_rows;
        self.early_stops += early_stops;
        self.topk_rows_examined += topk_rows_examined;
    }
}

/// Wall-clock nanoseconds spent in each serving stage of a query (or,
/// after [`StageTimings::absorb`], of a whole batch). Cache hits skip
/// the bind and optimize stages entirely, which is where the paper's
/// Algorithm 1 CNF→DNF conversion lives — these counters make that
/// saving visible in the bench report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Time tokenizing and parsing SQL text.
    pub parse_ns: u64,
    /// Time name-resolving and type-checking the AST.
    pub bind_ns: u64,
    /// Time in the rewrite pipeline (uniqueness tests included).
    pub optimize_ns: u64,
    /// Time executing the final plan.
    pub execute_ns: u64,
}

impl StageTimings {
    /// Zeroed timings.
    pub fn new() -> StageTimings {
        StageTimings::default()
    }

    /// Accumulate another timing block into this one.
    pub fn absorb(&mut self, other: &StageTimings) {
        self.parse_ns += other.parse_ns;
        self.bind_ns += other.bind_ns;
        self.optimize_ns += other.optimize_ns;
        self.execute_ns += other.execute_ns;
    }

    /// Total nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.parse_ns + self.bind_ns + self.optimize_ns + self.execute_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_cost::{DistinctMethod, JoinMethod};

    #[test]
    fn stage_timings_absorb_and_total() {
        let mut a = StageTimings {
            parse_ns: 1,
            bind_ns: 2,
            optimize_ns: 3,
            execute_ns: 4,
        };
        a.absorb(&StageTimings {
            parse_ns: 10,
            ..StageTimings::new()
        });
        assert_eq!(a.parse_ns, 11);
        assert_eq!(a.total_ns(), 20);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = ExecStats {
            rows_scanned: 1,
            sorts: 2,
            ..ExecStats::new()
        };
        let b = ExecStats {
            rows_scanned: 10,
            hash_probes: 5,
            probe_steps: 7,
            vector_ops: 6,
            materialized_rows: 8,
            delta_rows: 4,
            view_updates: 2,
            agg_rows: 9,
            early_stops: 1,
            topk_rows_examined: 12,
            ..ExecStats::new()
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 11);
        assert_eq!(a.sorts, 2);
        assert_eq!(a.hash_probes, 5);
        assert_eq!(a.probe_steps, 7);
        assert_eq!(a.vector_ops, 6);
        assert_eq!(a.materialized_rows, 8);
        assert_eq!(a.delta_rows, 4);
        assert_eq!(a.view_updates, 2);
        assert_eq!(a.agg_rows, 9);
        assert_eq!(a.early_stops, 1);
        assert_eq!(a.topk_rows_examined, 12);
    }

    #[test]
    fn merge_is_associative() {
        let blocks = [
            ExecStats {
                rows_scanned: 3,
                hash_joins: 1,
                ..ExecStats::new()
            },
            ExecStats {
                probe_steps: 9,
                vector_ops: 2,
                ..ExecStats::new()
            },
            ExecStats {
                sort_comparisons: 4,
                subquery_evals: 5,
                ..ExecStats::new()
            },
        ];
        // ((a ⊕ b) ⊕ c) == (a ⊕ (b ⊕ c)): workers may fold in any order.
        let mut left = blocks[0];
        left.merge(&blocks[1]);
        left.merge(&blocks[2]);
        let mut bc = blocks[1];
        bc.merge(&blocks[2]);
        let mut right = blocks[0];
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn defaults_match_paper_premises() {
        assert_eq!(DistinctMethod::default(), DistinctMethod::Sort);
        assert_eq!(JoinMethod::default(), JoinMethod::Hash);
    }
}
