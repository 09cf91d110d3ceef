//! The kernels allocate per query, not per tuple, and their tables fit
//! their input.
//!
//! A counting global allocator tallies the allocations, and the bytes
//! they ask for, of the calling thread. Each statement is served once to
//! warm the plan cache, so the counted run is a cache hit and only
//! parse, probe and execution allocate. On analyzed 2,000- and
//! 4,000-supplier databases every encoded statement's output is the
//! same size, so what the larger database adds can only come from work
//! that grows with the data: a heap key, a posting list or a decoded
//! string per tuple would add tens of thousands. The join, `DISTINCT`,
//! `GROUP BY` and `COUNT(DISTINCT)` tables and the selection vectors may
//! only grow a logarithmic number of times. The rows access's hash join
//! may add only what each added output row needs. A dense table is
//! sized by its input, so a key whose values are far apart but few
//! costs a few kilobytes, not an array over the span.
//!
//! This file is its own test binary because it replaces the global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uniqueness::engine::{ExecStats, Session};
use uniqueness::workload::{scaled_database, ScaleConfig};

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread being torn down has no counter left; it is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; counting
// touches only a const-initialized thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A covered join plus `DISTINCT`, whose unique step probes the
/// direct-index table.
const JOIN_DISTINCT: &str =
    "SELECT DISTINCT S.SCITY, P.COLOR FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO";

/// A covered `GROUP BY` over the join, with a `COUNT(DISTINCT)` of a
/// string column.
const GROUP_BY_JOIN: &str = "SELECT S.SCITY, COUNT(*) AS N, COUNT(DISTINCT P.COLOR) AS C \
     FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO GROUP BY S.SCITY";

/// A covered non-unique join plus `DISTINCT`: the hash kernel's table.
const HASH_JOIN_DISTINCT: &str =
    "SELECT DISTINCT P.COLOR, A.ACITY FROM PARTS P, AGENTS A WHERE P.SNO = A.SNO";

/// The unanalyzed rows access's one-key hash join, returning every part.
const ROWS_JOIN: &str = "SELECT P.PNO, S.SNAME FROM PARTS P, SUPPLIER S WHERE S.SNO = P.SNO";

/// What one served run of a statement cost after a warming run.
struct Run {
    allocations: u64,
    bytes: u64,
    rows: usize,
    stats: ExecStats,
}

/// One served run of `sql` after a warming run.
fn run(session: &Session, sql: &str) -> Run {
    let warm = session.query(sql).expect("warming run");
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = session.query(sql).expect("counted run");
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    assert!(out.cache_hit, "{sql}: the counted run compiled");
    assert_eq!(out.rows.len(), warm.rows.len());
    Run {
        allocations: after.0 - before.0,
        bytes: after.1 - before.1,
        rows: out.rows.len(),
        stats: out.stats,
    }
}

/// Sessions over 2,000 and 4,000 suppliers, analyzed or not.
fn sessions(analyzed: bool) -> [Session; 2] {
    [2_000, 4_000].map(|suppliers| {
        let config = ScaleConfig {
            suppliers,
            ..Default::default()
        };
        let session = Session::new(scaled_database(&config).expect("scaled database"));
        if analyzed {
            session.with_cost_based()
        } else {
            session
        }
    })
}

#[test]
fn covered_kernels_allocate_the_same_at_twice_the_data() {
    let [small, large] = sessions(true);
    for sql in [JOIN_DISTINCT, GROUP_BY_JOIN, HASH_JOIN_DISTINCT] {
        let at_2k = run(&small, sql);
        assert!(at_2k.stats.vector_ops > 0, "{sql} is not covered");
        let (joins, at_2k) = (at_2k.stats.hash_joins, at_2k.allocations);
        let at_4k = run(&large, sql).allocations;
        assert!(
            at_4k < at_2k + 64,
            "{sql}: {at_2k} allocations at 2,000 suppliers, {at_4k} at 4,000"
        );
        if sql == HASH_JOIN_DISTINCT {
            assert!(joins > 0, "{sql} did not run the hash kernel");
        }
    }
}

/// The rows access keys a one-key hash join on the borrowed value, so
/// each added output row costs its `Row` and its `SNAME` clone, and the
/// build and probe keys cost nothing.
#[test]
fn the_rows_access_one_key_join_allocates_two_per_output_row() {
    let [small, large] = sessions(false);
    let (at_2k, at_4k) = (run(&small, ROWS_JOIN), run(&large, ROWS_JOIN));
    assert_eq!(at_2k.stats.vector_ops, 0, "the join ran on the rows access");
    assert!(at_2k.stats.hash_joins > 0, "{ROWS_JOIN} did not hash");
    let added_rows = (at_4k.rows - at_2k.rows) as u64;
    assert_eq!(added_rows, 20_000);
    assert!(
        at_4k.allocations <= at_2k.allocations + 2 * added_rows + 64,
        "{} allocations at 2,000 suppliers, {} at 4,000",
        at_2k.allocations,
        at_4k.allocations
    );
}

/// Two rows whose integer key spans 0..4,000,000 fit a dense table's
/// domain bound but not its input bound, so `GROUP BY` and `DISTINCT`
/// hash the two keys instead of allocating an array over the span.
#[test]
fn a_wide_key_over_few_rows_takes_no_table_over_its_span() {
    let mut db = scaled_database(&ScaleConfig::default()).expect("scaled database");
    db.run_script(
        "CREATE TABLE WIDE (K INTEGER, V INTEGER);
         INSERT INTO WIDE VALUES (0, 1), (4000000, 2);",
    )
    .expect("wide table");
    let session = Session::new(db).with_cost_based();
    for sql in [
        "SELECT W.K, COUNT(*) AS N FROM WIDE W GROUP BY W.K",
        "SELECT DISTINCT W.K FROM WIDE W",
    ] {
        let counted = run(&session, sql);
        assert!(counted.stats.vector_ops > 0, "{sql} is not covered");
        assert_eq!(counted.rows, 2);
        assert!(counted.bytes < 64 * 1024, "{sql}: {} bytes", counted.bytes);
    }
}
