//! Duplicate elimination and set operations under the `=̇` comparison.
//!
//! All operators here use the *null-aware* tuple equivalence of the
//! paper's equation (1): two tuples are equal iff every attribute pair is
//! `null_eq`-equivalent (`NULL =̇ NULL` is true). The default strategy is
//! the sort-based one the paper attributes to "most relational query
//! optimizers" (§5.3): sort each input counting comparisons, then walk
//! runs. `INTERSECT ALL` emits `min(j,k)` copies of each tuple, `EXCEPT
//! ALL` emits `max(j−k, 0)`, per SQL2.
//!
//! The hash path relies on `Value`'s structural `Eq`/`Hash` coinciding
//! with `=̇` (both treat two `NULL`s as equal and compare payloads
//! otherwise), which is verified by tests here and property tests in the
//! integration suite. Its tables borrow the input rows under the
//! executor's keyed hasher (the private `hasher` module) and copy none:
//! kept rows are moved out of the input, first appearances first.

use crate::hasher::{HashMap, HashSet};
use crate::stats::{DistinctMethod, ExecStats};
use uniq_catalog::Row;
use uniq_sql::SetOp;
use uniq_types::{Result, Value};

/// Sort rows in `Value`'s canonical total order (`NULL` first, then by
/// payload — it refines `null_cmp` and its `Equal` coincides with `=̇`),
/// counting comparisons.
pub fn sort_rows(rows: &mut [Row], stats: &mut ExecStats) {
    stats.sorts += 1;
    stats.rows_sorted += rows.len() as u64;
    let mut comparisons = 0u64;
    rows.sort_by(|a, b| {
        comparisons += 1;
        a.cmp(b)
    });
    stats.sort_comparisons += comparisons;
}

/// Eliminate duplicate rows under `=̇`.
pub fn distinct(rows: Vec<Row>, method: DistinctMethod, stats: &mut ExecStats) -> Result<Vec<Row>> {
    match method {
        DistinctMethod::Sort => {
            let mut rows = rows;
            sort_rows(&mut rows, stats);
            rows.dedup(); // structural Eq coincides with =̇
            Ok(rows)
        }
        DistinctMethod::Hash => {
            let mut seen: HashSet<&Row> =
                HashSet::with_capacity_and_hasher(rows.len(), Default::default());
            let first: Vec<bool> = rows.iter().map(|row| seen.insert(row)).collect();
            drop(seen);
            stats.hash_probes += rows.len() as u64;
            Ok((rows.into_iter().zip(first))
                .filter_map(|(row, first)| first.then_some(row))
                .collect())
        }
    }
}

/// Apply a set operation to two union-compatible results.
pub fn combine_setop(
    op: SetOp,
    all: bool,
    left: Vec<Row>,
    right: Vec<Row>,
    method: DistinctMethod,
    stats: &mut ExecStats,
) -> Result<Vec<Row>> {
    match (op, all) {
        (SetOp::Union, true) => {
            let mut out = left;
            out.extend(right);
            Ok(out)
        }
        (SetOp::Union, false) => {
            let mut out = left;
            out.extend(right);
            distinct(out, method, stats)
        }
        _ => match method {
            DistinctMethod::Sort => Ok(sort_merge(op, all, left, right, stats)),
            DistinctMethod::Hash => Ok(hash_counting(op, all, left, right, stats)),
        },
    }
}

/// How many copies of a tuple appear in the result given its
/// multiplicities `j` (left) and `k` (right)? (Shared with the
/// incremental view maintenance operators in [`crate::ivm`], which
/// difference this function across a delta to get signed view updates.)
pub(crate) fn output_count(op: SetOp, all: bool, j: usize, k: usize) -> usize {
    match (op, all) {
        // SQL2 §2.2: INTERSECT ALL → min, EXCEPT ALL → max(j − k, 0).
        (SetOp::Intersect, true) => j.min(k),
        (SetOp::Intersect, false) => usize::from(j > 0 && k > 0),
        (SetOp::Except, true) => j.saturating_sub(k),
        (SetOp::Except, false) => usize::from(j > 0 && k == 0),
        (SetOp::Union, true) => j + k,
        (SetOp::Union, false) => usize::from(j + k > 0),
    }
}

fn sort_merge(
    op: SetOp,
    all: bool,
    mut left: Vec<Row>,
    mut right: Vec<Row>,
    stats: &mut ExecStats,
) -> Vec<Row> {
    sort_rows(&mut left, stats);
    sort_rows(&mut right, stats);
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() || j < right.len() {
        // Current run's representative: the smaller head.
        let take_left = match (left.get(i), right.get(j)) {
            (Some(l), Some(r)) => {
                stats.sort_comparisons += 1;
                l.cmp(r) != std::cmp::Ordering::Greater
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!(),
        };
        let rep: Row = if take_left {
            left[i].clone()
        } else {
            right[j].clone()
        };
        let mut jl = 0usize;
        while i < left.len() && left[i] == rep {
            i += 1;
            jl += 1;
        }
        let mut kr = 0usize;
        while j < right.len() && right[j] == rep {
            j += 1;
            kr += 1;
        }
        for _ in 0..output_count(op, all, jl, kr) {
            out.push(rep.clone());
        }
    }
    out
}

/// `INTERSECT` / `EXCEPT` by counting each distinct row's multiplicity
/// on both sides. Every result row is a left row (neither operator
/// emits more copies of a row than the left side holds), so the output
/// copies are moved out of `left`, grouped by first appearance.
fn hash_counting(
    op: SetOp,
    all: bool,
    left: Vec<Row>,
    right: Vec<Row>,
    stats: &mut ExecStats,
) -> Vec<Row> {
    // One slot per distinct left row, numbered by first appearance, with
    // its multiplicities (j, k). A row only the right side holds yields
    // no output, so it is looked up but never entered.
    let mut slots: HashMap<&Row, usize> =
        HashMap::with_capacity_and_hasher(left.len(), Default::default());
    let mut counts: Vec<(usize, usize)> = Vec::new();
    let slot_of: Vec<usize> = (left.iter())
        .map(|row| {
            let next = counts.len();
            let slot = *slots.entry(row).or_insert(next);
            if slot == next {
                counts.push((0, 0));
            }
            counts[slot].0 += 1;
            slot
        })
        .collect();
    for row in &right {
        if let Some(&slot) = slots.get(row) {
            counts[slot].1 += 1;
        }
    }
    drop(slots);
    stats.hash_probes += (left.len() + right.len()) as u64;
    // Each slot's output range, then its first copies in left order.
    let mut next = Vec::with_capacity(counts.len());
    let mut total = 0;
    for &(j, k) in &counts {
        let n = output_count(op, all, j, k);
        next.push((total, total + n));
        total += n;
    }
    let mut out: Vec<Option<Row>> = vec![None; total];
    for (row, slot) in left.into_iter().zip(slot_of) {
        let (at, end) = &mut next[slot];
        if at < end {
            out[*at] = Some(row);
            *at += 1;
        }
    }
    out.into_iter().flatten().collect()
}

/// Structural equality on `Value` must coincide with `=̇` for the hash
/// paths to be correct; exposed for the property-test suite.
pub fn structural_eq_matches_null_eq(a: &Value, b: &Value) -> bool {
    match a.null_eq(b) {
        Ok(expected) => (a == b) == expected,
        Err(_) => true, // cross-type comparisons never reach hash paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[Option<i64>]) -> Vec<Row> {
        vals.iter()
            .map(|v| vec![v.map(Value::Int).unwrap_or(Value::Null)])
            .collect()
    }

    fn counts(rows: &[Row]) -> HashMap<Row, usize> {
        let mut m = HashMap::default();
        for r in rows {
            *m.entry(r.clone()).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn intersect_all_is_min_count() {
        let l = rows(&[Some(1), Some(1), Some(1), Some(2)]);
        let r = rows(&[Some(1), Some(1), Some(3)]);
        let mut stats = ExecStats::new();
        let out = combine_setop(
            SetOp::Intersect,
            true,
            l,
            r,
            DistinctMethod::Sort,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.len(), 2); // min(3,2) copies of 1
        assert!(out.iter().all(|r| r[0] == Value::Int(1)));
    }

    #[test]
    fn except_all_is_saturating_difference() {
        let l = rows(&[Some(1), Some(1), Some(1), Some(2)]);
        let r = rows(&[Some(1), Some(2), Some(2)]);
        let mut stats = ExecStats::new();
        let out =
            combine_setop(SetOp::Except, true, l, r, DistinctMethod::Sort, &mut stats).unwrap();
        // 1: max(3-1,0)=2 copies; 2: max(1-2,0)=0.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r[0] == Value::Int(1)));
    }

    #[test]
    fn distinct_setops_ignore_multiplicity() {
        let l = rows(&[Some(1), Some(1), Some(2), Some(4)]);
        let r = rows(&[Some(1), Some(2), Some(2), Some(3)]);
        let mut stats = ExecStats::new();
        let inter = combine_setop(
            SetOp::Intersect,
            false,
            l.clone(),
            r.clone(),
            DistinctMethod::Sort,
            &mut stats,
        )
        .unwrap();
        assert_eq!(counts(&inter).len(), 2); // {1, 2}, one copy each
        assert!(inter.iter().all(|r| counts(&inter)[r] == 1));
        let except =
            combine_setop(SetOp::Except, false, l, r, DistinctMethod::Sort, &mut stats).unwrap();
        assert_eq!(except, rows(&[Some(4)]));
    }

    #[test]
    fn nulls_are_equal_in_setops() {
        // {NULL, NULL, 1} INTERSECT ALL {NULL} = {NULL} (min(2,1)=1).
        let l = rows(&[None, None, Some(1)]);
        let r = rows(&[None]);
        let mut stats = ExecStats::new();
        let out = combine_setop(
            SetOp::Intersect,
            true,
            l,
            r,
            DistinctMethod::Sort,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out, rows(&[None]));
    }

    #[test]
    fn sort_and_hash_methods_agree() {
        let l = rows(&[None, Some(1), Some(1), Some(2), None, Some(5)]);
        let r = rows(&[Some(1), None, None, Some(2), Some(2)]);
        for (op, all) in [
            (SetOp::Intersect, true),
            (SetOp::Intersect, false),
            (SetOp::Except, true),
            (SetOp::Except, false),
            (SetOp::Union, false),
        ] {
            let mut s1 = ExecStats::new();
            let mut s2 = ExecStats::new();
            let a = combine_setop(op, all, l.clone(), r.clone(), DistinctMethod::Sort, &mut s1)
                .unwrap();
            let b = combine_setop(op, all, l.clone(), r.clone(), DistinctMethod::Hash, &mut s2)
                .unwrap();
            assert_eq!(counts(&a), counts(&b), "{op:?} all={all}");
        }
    }

    #[test]
    fn union_all_concatenates() {
        let l = rows(&[Some(1)]);
        let r = rows(&[Some(1), Some(2)]);
        let mut stats = ExecStats::new();
        let out =
            combine_setop(SetOp::Union, true, l, r, DistinctMethod::Sort, &mut stats).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn distinct_methods_agree_and_count_work() {
        let input = rows(&[Some(3), None, Some(3), None, Some(1)]);
        let mut s1 = ExecStats::new();
        let mut s2 = ExecStats::new();
        let a = distinct(input.clone(), DistinctMethod::Sort, &mut s1).unwrap();
        let b = distinct(input, DistinctMethod::Hash, &mut s2).unwrap();
        assert_eq!(counts(&a), counts(&b));
        assert_eq!(a.len(), 3);
        assert!(s1.sort_comparisons > 0);
        assert_eq!(s1.sorts, 1);
        assert_eq!(s2.hash_probes, 5);
    }

    #[test]
    fn hash_paths_keep_first_appearances_in_order() {
        let row = |n: Option<i64>, s: Option<&str>| -> Row {
            vec![
                n.map_or(Value::Null, Value::Int),
                s.map_or(Value::Null, Value::str),
            ]
        };
        let (a, nb, n2, c) = (
            row(Some(1), Some("a")),
            row(None, Some("b")),
            row(Some(2), None),
            row(Some(3), Some("c")),
        );
        let left = vec![
            a.clone(),
            nb.clone(),
            a.clone(),
            n2.clone(),
            nb.clone(),
            a.clone(),
            c.clone(),
        ];
        let right = vec![
            nb.clone(),
            a.clone(),
            a.clone(),
            row(Some(4), Some("d")),
            n2.clone(),
            n2.clone(),
        ];
        let mut stats = ExecStats::new();
        let out = distinct(left.clone(), DistinctMethod::Hash, &mut stats).unwrap();
        assert_eq!(out, vec![a.clone(), nb.clone(), n2.clone(), c.clone()]);
        assert_eq!(stats.hash_probes, 7);
        let mut stats = ExecStats::new();
        let hash = DistinctMethod::Hash;
        let (l, r) = (left.clone(), right.clone());
        let out = combine_setop(SetOp::Intersect, true, l, r, hash, &mut stats).unwrap();
        // min(3, 2) copies of a, min(2, 1) of (NULL, b), min(1, 2) of (2, NULL).
        assert_eq!(out, vec![a.clone(), a.clone(), nb.clone(), n2.clone()]);
        assert_eq!(stats.hash_probes, 13, "one probe per input row");
        let mut stats = ExecStats::new();
        let out = combine_setop(SetOp::Except, true, left, right, hash, &mut stats).unwrap();
        assert_eq!(out, vec![a, nb, c]);
        assert_eq!(stats.hash_probes, 13);
    }

    #[test]
    fn structural_eq_is_null_eq() {
        let vals = [Value::Null, Value::Int(1), Value::Int(2), Value::str("x")];
        for a in &vals {
            for b in &vals {
                assert!(structural_eq_matches_null_eq(a, b), "{a} vs {b}");
            }
        }
    }
}
