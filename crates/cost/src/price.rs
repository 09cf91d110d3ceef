//! The planner's one choice priced in nanoseconds: whether a block the
//! encoded kernels cover, and for which an index operator was chosen,
//! runs on the encoded access or on the rows access with its index.
//!
//! Both prices apply the per-unit constants below to the block's
//! estimates, step by step along the one join order the planner chose:
//!
//! * **rows access** — every row it reads through a scan or an index
//!   fetch, with its conjuncts evaluated; each index probe and each
//!   probe step (a posting an index probe walks); each hash build row
//!   and hash probe (its postings included); each projected output row;
//! * **encoded access** — full scans of every table, one vector op per
//!   conjunct per 1,024-row chunk, as the kernels book `vector_ops`; a
//!   build row and a probe of each keyed step, dense or hashed; each
//!   materialized output row.
//!
//! The constants are measured, not fitted: `report e24` times one probe
//! statement per unit on perfbench's data (2-core host, release build)
//! and prints each measurement beside its constant. They are checked in,
//! so a plan does not depend on the host it is planned on. Every other
//! physical choice (join order, hash or nested loop, sort or hash) keeps
//! its work-unit rule.

/// Rows access: one row read through a scan or an index fetch, its
/// conjuncts evaluated.
pub const ROW_READ_NS: f64 = 25.0;
/// Rows access: one index probe (`ix_probes`).
pub const IX_PROBE_NS: f64 = 300.0;
/// Rows access: one probe step of an index probe (`probe_steps`).
pub const PROBE_STEP_NS: f64 = 60.0;
/// Rows access: one hash build row.
pub const HASH_BUILD_NS: f64 = 10.0;
/// Rows access: one hash probe (`hash_probes`), its postings walked.
pub const HASH_PROBE_NS: f64 = 50.0;
/// Rows access: one projected output row.
pub const PROJECT_NS: f64 = 145.0;
/// Encoded access: one conjunct over one 1,024-row chunk (`vector_ops`).
pub const VECTOR_OP_NS: f64 = 4_000.0;
/// Encoded access: one build row of a dense or hashed step.
pub const ENC_BUILD_NS: f64 = 6.5;
/// Encoded access: one probe of a dense or hashed step.
pub const ENC_PROBE_NS: f64 = 12.0;
/// Encoded access: one materialized output row (`materialized_rows`).
pub const MATERIALIZE_NS: f64 = 48.0;

/// Every constant by name, in the order `report e24` prints them.
pub const PRICES: [(&str, f64); 10] = [
    ("row_read", ROW_READ_NS),
    ("ix_probe", IX_PROBE_NS),
    ("probe_step", PROBE_STEP_NS),
    ("hash_build", HASH_BUILD_NS),
    ("hash_probe", HASH_PROBE_NS),
    ("project", PROJECT_NS),
    ("vector_op", VECTOR_OP_NS),
    ("enc_build", ENC_BUILD_NS),
    ("enc_probe", ENC_PROBE_NS),
    ("materialize", MATERIALIZE_NS),
];

/// Rows a vectorized kernel walks per chunk (the executor's
/// `CHUNK_SIZE`).
const CHUNK_ROWS: f64 = 1024.0;

/// The planner's estimates for one position of a block's join order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// Stored rows of the table.
    pub rows: f64,
    /// Conjuncts on this table alone: the encoded access's filters.
    pub filters: usize,
    /// Rows of the table those conjuncts keep: a join step's build side.
    pub kept: f64,
    /// Tuples entering the step, one probe each (0 for the scan).
    pub input: f64,
    /// The rows access's index operator on this position, if any.
    pub index: Option<Fetch>,
}

/// An index operator's estimated work on the rows access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetch {
    /// Rows the index hands back over all probes, before the other
    /// conjuncts filter them.
    pub rows: f64,
    /// A unique index: one probe step per probe.
    pub unique: bool,
}

/// Vector ops of one kernel pass over `n` rows with `filters` conjuncts
/// (an unfiltered pass still walks its chunks once).
fn chunks(n: f64, filters: usize) -> f64 {
    (n / CHUNK_ROWS).ceil() * filters.max(1) as f64
}

/// The rows access's price in ns: each step through its index operator
/// when it has one, through a full scan or a hash step otherwise, and
/// `projected` output rows.
pub(crate) fn rows_price(steps: &[Step], projected: f64) -> f64 {
    let mut ns = PROJECT_NS * projected;
    for (k, s) in steps.iter().enumerate() {
        ns += match (k, s.index) {
            (_, Some(f)) => {
                let probes = if k == 0 { 1.0 } else { s.input };
                let walked = if f.unique { probes } else { f.rows + probes };
                IX_PROBE_NS * probes + PROBE_STEP_NS * walked + ROW_READ_NS * f.rows
            }
            (0, None) => ROW_READ_NS * s.rows,
            (_, None) => ROW_READ_NS * s.rows + HASH_BUILD_NS * s.kept + HASH_PROBE_NS * s.input,
        };
    }
    ns
}

/// The encoded access's price in ns: a full vectorized scan of every
/// table, a keyed build and probe per join step, and `materialized`
/// output rows.
pub(crate) fn encoded_price(steps: &[Step], materialized: f64) -> f64 {
    let mut ns = MATERIALIZE_NS * materialized + VECTOR_OP_NS * chunks(materialized, 0);
    for (k, s) in steps.iter().enumerate() {
        ns += VECTOR_OP_NS * chunks(s.rows, s.filters);
        if k > 0 {
            ns +=
                ENC_BUILD_NS * s.kept + ENC_PROBE_NS * s.input + VECTOR_OP_NS * chunks(s.input, 0);
        }
    }
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rows: f64, filters: usize, kept: f64, index: Option<Fetch>) -> Step {
        Step {
            rows,
            filters,
            kept,
            input: 0.0,
            index,
        }
    }

    #[test]
    fn a_unique_point_probe_beats_a_full_encoded_scan() {
        let lookup = [scan(
            2_000.0,
            1,
            1.0,
            Some(Fetch {
                rows: 1.0,
                unique: true,
            }),
        )];
        let ix = rows_price(&lookup, 1.0);
        let enc = encoded_price(&lookup, 1.0);
        assert_eq!(
            ix,
            IX_PROBE_NS + PROBE_STEP_NS + ROW_READ_NS + PROJECT_NS,
            "one probe, one step, one row read and projected"
        );
        assert_eq!(enc, 2.0 * VECTOR_OP_NS + VECTOR_OP_NS + MATERIALIZE_NS);
        assert!(ix < enc, "{ix} vs {enc}");
    }

    #[test]
    fn an_unselective_index_scan_loses_to_the_encoded_scan() {
        // Half of 20,000 rows through a non-unique index: every fetched
        // row is read and projected one by one.
        let walk = [scan(
            20_000.0,
            1,
            10_000.0,
            Some(Fetch {
                rows: 10_000.0,
                unique: false,
            }),
        )];
        let ix = rows_price(&walk, 10_000.0);
        let enc = encoded_price(&walk, 10_000.0);
        assert!(enc < ix, "{enc} vs {ix}");
        // The same scan without its index reads every row.
        let full = [scan(20_000.0, 1, 10_000.0, None)];
        assert_eq!(
            rows_price(&full, 0.0),
            ROW_READ_NS * 20_000.0,
            "a full scan reads every stored row"
        );
    }

    #[test]
    fn join_steps_price_probes_builds_and_fetches() {
        let outer = scan(2_000.0, 0, 2_000.0, None);
        let probed = Step {
            rows: 20_000.0,
            filters: 1,
            kept: 10_000.0,
            input: 2_000.0,
            index: Some(Fetch {
                rows: 20_000.0,
                unique: false,
            }),
        };
        let ix = rows_price(&[outer, probed], 0.0);
        assert_eq!(
            ix,
            ROW_READ_NS * 2_000.0
                + IX_PROBE_NS * 2_000.0
                + PROBE_STEP_NS * 22_000.0
                + ROW_READ_NS * 20_000.0
        );
        let enc = encoded_price(&[outer, probed], 0.0);
        assert_eq!(
            enc,
            VECTOR_OP_NS * (2.0 + 20.0 + 2.0) + ENC_BUILD_NS * 10_000.0 + ENC_PROBE_NS * 2_000.0
        );
        // Without the index the rows access builds a hash table on the
        // kept rows after reading every stored row.
        let hashed = Step {
            index: None,
            ..probed
        };
        assert_eq!(
            rows_price(&[outer, hashed], 0.0),
            ROW_READ_NS * 22_000.0 + HASH_BUILD_NS * 10_000.0 + HASH_PROBE_NS * 2_000.0
        );
    }
}
