//! The encoded kernels allocate per query, not per tuple.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread. Each statement is served once to warm the plan cache, so the
//! counted run is a cache hit and only parse, probe and execution
//! allocate. On analyzed 2,000- and 4,000-supplier databases every
//! statement's output is the same size, so what the larger database
//! adds can only come from work that grows with the data: a heap key,
//! a posting list or a decoded string per tuple would add tens of
//! thousands. The join, `DISTINCT`, `GROUP BY` and `COUNT(DISTINCT)`
//! tables and the selection vectors may only grow a logarithmic number
//! of times.
//!
//! This file is its own test binary because it replaces the global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uniqueness::engine::Session;
use uniqueness::workload::{scaled_database, ScaleConfig};

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; it is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; counting
// touches only a const-initialized thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Allocations of one served run of `sql` after a warming run, with the
/// run's hash-join count.
fn allocations(session: &Session, sql: &str) -> (u64, u64) {
    let warm = session.query(sql).expect("warming run");
    assert!(warm.stats.vector_ops > 0, "{sql} is not covered");
    let before = ALLOCATIONS.with(Cell::get);
    let out = session.query(sql).expect("counted run");
    let after = ALLOCATIONS.with(Cell::get);
    assert!(out.cache_hit, "{sql}: the counted run compiled");
    assert_eq!(out.rows.len(), warm.rows.len());
    (after - before, out.stats.hash_joins)
}

#[test]
fn covered_kernels_allocate_the_same_at_twice_the_data() {
    let [small, large] = [2_000, 4_000].map(|suppliers| {
        let config = ScaleConfig {
            suppliers,
            ..Default::default()
        };
        Session::new(scaled_database(&config).expect("scaled database")).with_cost_based()
    });
    for sql in [JOIN_DISTINCT, GROUP_BY_JOIN, HASH_JOIN_DISTINCT] {
        let (at_2k, joins) = allocations(&small, sql);
        let (at_4k, _) = allocations(&large, sql);
        assert!(
            at_4k < at_2k + 64,
            "{sql}: {at_2k} allocations at 2,000 suppliers, {at_4k} at 4,000"
        );
        if sql == HASH_JOIN_DISTINCT {
            assert!(joins > 0, "{sql} did not run the hash kernel");
        }
    }
}
