//! Aggregation in passes: one function for both access methods.
//!
//! The binder lowers an aggregate query onto a `SELECT ALL` body whose
//! projection lays grouping columns first (positions `0 ..
//! group_count`) followed by the aggregate argument columns. The body's
//! tuples reach `aggregate` through the `Tuples` trait: the rows
//! access reads borrowed stored values, the encoded access code words,
//! and only each group's representative cells and the arguments of
//! `SUM` and `AVG` are decoded (`MIN` and `MAX` decode only their
//! winners). Aggregation runs in passes:
//!
//! 1. **Groups.** Every tuple is given its group's slot (`Groups`),
//!    groups numbered in first-appearance order so output is
//!    deterministic:
//!    * a `GROUP BY` asks the access for its group index, which books
//!      one `hash_probes` and one `probe_steps` per tuple, like the join
//!      kernels. The encoded access indexes a dense table by the key's
//!      code words when the key's domain is small and hashes them
//!      otherwise (see [`crate::columnar`]); the rows access hashes
//!      borrowed values;
//!    * the **key-elided one-pass**: when the optimizer proved the group
//!      keys duplicate-free ([`BoundAgg::group_elided`]), tuple `t` is
//!      its own group `t`, with *zero* hash operations. This is the gap
//!      experiment E23 measures against the hashed path;
//!    * a global aggregate (no `GROUP BY`) puts every tuple in group 0,
//!      which exists even over empty input, without hashing.
//! 2. **Items.** Each aggregate item then folds in its own loop over
//!    (tuple, group) pairs: `COUNT(*)` adds, `COUNT(e)` tests for
//!    `NULL`, `SUM` and `AVG` add the integer, `MIN` and `MAX` compare
//!    words, and `COUNT(DISTINCT e)` inserts (group, word) pairs into one
//!    set, booking one `hash_probes` and one `probe_steps` per non-null
//!    argument — the work the count-distinct elision removes. The set is
//!    hashed under the executor's keyed hasher (the private `hasher`
//!    module), or a flat bitmap when the access knows the argument's
//!    words are small indices and groups × words fit.
//!
//! Semantics (SQL): aggregates ignore `NULL` arguments; `COUNT(*)`
//! counts rows; `SUM`/`MIN`/`MAX`/`AVG` of no (non-null) rows is
//! `NULL` while `COUNT` is 0; `AVG` is the truncating integer mean;
//! grouping treats `NULL`s as equal (`=̇`, which is exactly the derived
//! `Eq` on [`Value`]); integer overflow wraps.

use crate::hasher::{HashMap, HashSet};
use crate::stats::ExecStats;
use std::hash::Hash;
use uniq_catalog::Row;
use uniq_plan::{BoundAgg, BoundAggItem};
use uniq_sql::AggFunc;
use uniq_types::{Error, Result, Value};

/// A block's output tuples as aggregation reads them.
pub(crate) trait Tuples {
    /// A non-`NULL` cell read without decoding it. Within one projected
    /// position, words are equal, ordered and hashed as their values are.
    type Word: Copy + Ord + Hash;

    /// The number of tuples.
    fn len(&self) -> usize;

    /// Position `p` of tuple `t`, decoded.
    fn value(&self, t: usize, p: usize) -> Value;

    /// Position `p` of tuple `t` as a word, `None` when it is `NULL`.
    fn word(&self, t: usize, p: usize) -> Option<Self::Word>;

    /// Every tuple's group on the leading `keys` positions, `NULL`s
    /// equal.
    fn groups(&self, keys: usize) -> Groups;

    /// Each group's number of distinct non-`NULL` words at position
    /// `p`, booking one `hash_probes` and one `probe_steps` per insert.
    fn distinct_counts(&self, p: usize, groups: &Groups, stats: &mut ExecStats) -> Vec<i64> {
        hashed_distinct_counts(self, p, groups, stats)
    }
}

/// The rows access: projected rows, read as borrowed values.
impl<'r> Tuples for &'r [Row] {
    type Word = &'r Value;

    fn len(&self) -> usize {
        <[Row]>::len(self)
    }

    fn value(&self, t: usize, p: usize) -> Value {
        self[t][p].clone()
    }

    fn word(&self, t: usize, p: usize) -> Option<&'r Value> {
        let rows: &'r [Row] = self;
        Some(&rows[t][p]).filter(|v| !v.is_null())
    }

    fn groups(&self, keys: usize) -> Groups {
        Groups::hashed(self.len(), |t| &self[t][..keys])
    }
}

/// Every tuple's group, groups numbered in first-appearance order.
pub(crate) struct Groups {
    /// `of[t]`: tuple `t`'s group.
    of: Vec<usize>,
    /// `first[g]`: group `g`'s first tuple, which supplies its grouping
    /// columns.
    pub(crate) first: Vec<usize>,
}

impl Groups {
    /// `n` tuples grouped by a key hashed under the executor's hasher.
    pub(crate) fn hashed<K: Hash + Eq>(n: usize, key: impl Fn(usize) -> K) -> Groups {
        let mut index: HashMap<K, usize> = HashMap::default();
        let mut first = Vec::new();
        let of = (0..n)
            .map(|t| {
                *index.entry(key(t)).or_insert_with(|| {
                    first.push(t);
                    first.len() - 1
                })
            })
            .collect();
        Groups { of, first }
    }

    /// `n` tuples grouped by a dense slot below `slots`: the index is one
    /// array, read and written at the slot, with no hashing.
    pub(crate) fn dense(n: usize, slots: usize, slot: impl Fn(usize) -> usize) -> Groups {
        const NONE: u32 = u32::MAX;
        let mut index = vec![NONE; slots];
        let mut first = Vec::new();
        let of = (0..n)
            .map(|t| {
                let g = &mut index[slot(t)];
                if *g == NONE {
                    // A group per slot at most, and dense slots fit a `u32`.
                    *g = first.len() as u32;
                    first.push(t);
                }
                *g as usize
            })
            .collect();
        Groups { of, first }
    }

    /// The number of groups.
    pub(crate) fn len(&self) -> usize {
        self.first.len()
    }
}

/// Each group's number of distinct non-`NULL` words at position `p`,
/// through one hashed set of (group, word) pairs.
pub(crate) fn hashed_distinct_counts<T: Tuples + ?Sized>(
    tuples: &T,
    p: usize,
    groups: &Groups,
    stats: &mut ExecStats,
) -> Vec<i64> {
    let mut seen: HashSet<(usize, T::Word)> = HashSet::default();
    let mut counts = vec![0; groups.len()];
    for (t, &g) in groups.of.iter().enumerate() {
        if let Some(w) = tuples.word(t, p) {
            stats.hash_probes += 1;
            stats.probe_steps += 1;
            counts[g] += i64::from(seen.insert((g, w)));
        }
    }
    counts
}

/// [`hashed_distinct_counts`] for words that are indices below `span`
/// (`index(t)`, `None` when `NULL`): one flat bitmap of (group, index)
/// pairs, booked like the hashed set.
pub(crate) fn dense_distinct_counts(
    groups: &Groups,
    span: usize,
    index: impl Fn(usize) -> Option<usize>,
    stats: &mut ExecStats,
) -> Vec<i64> {
    let mut seen = vec![0u64; (groups.len() * span).div_ceil(64)];
    let mut counts = vec![0; groups.len()];
    for (t, &g) in groups.of.iter().enumerate() {
        if let Some(i) = index(t) {
            stats.hash_probes += 1;
            stats.probe_steps += 1;
            let bit = g * span + i;
            let (word, mask) = (&mut seen[bit / 64], 1u64 << (bit % 64));
            counts[g] += i64::from(*word & mask == 0);
            *word |= mask;
        }
    }
    counts
}

/// Aggregate a body's tuples, in input order, the one way both access
/// methods share: assign every tuple its group, then fold each item in
/// its own pass (see the module docs). One output row per group, in
/// first-appearance order, items in `SELECT`-list order.
pub(crate) fn aggregate(
    agg: &BoundAgg,
    tuples: &impl Tuples,
    stats: &mut ExecStats,
) -> Result<Vec<Row>> {
    let n = tuples.len();
    stats.agg_rows += n as u64;
    let groups = if agg.group_count == 0 {
        // `SELECT COUNT(*) FROM empty` is 0, not no rows: the one group
        // exists even over empty input (no grouping item reads its
        // representative).
        Groups {
            of: vec![0; n],
            first: vec![0],
        }
    } else if agg.group_elided {
        Groups {
            of: (0..n).collect(),
            first: (0..n).collect(),
        }
    } else {
        stats.hash_probes += n as u64;
        stats.probe_steps += n as u64;
        tuples.groups(agg.group_count)
    };
    let columns = (agg.items.iter())
        .map(|item| match item {
            BoundAggItem::Group { pos, .. } => Ok(groups
                .first
                .iter()
                .map(|&t| tuples.value(t, *pos))
                .collect()),
            BoundAggItem::Agg {
                func,
                distinct,
                arg,
                ..
            } => fold(*func, *distinct, *arg, tuples, &groups, stats),
        })
        .collect::<Result<Vec<Vec<Value>>>>()?;
    let mut columns: Vec<_> = columns.into_iter().map(Vec::into_iter).collect();
    Ok((0..groups.len())
        .map(|_| {
            (columns.iter_mut())
                .map(|column| column.next().expect("one value per group"))
                .collect()
        })
        .collect())
}

/// One aggregate item's value for every group, folded in one pass over
/// (tuple, group) pairs.
fn fold<T: Tuples>(
    func: AggFunc,
    distinct: bool,
    arg: Option<usize>,
    tuples: &T,
    groups: &Groups,
    stats: &mut ExecStats,
) -> Result<Vec<Value>> {
    let each = || groups.of.iter().copied().enumerate();
    let mut counts = vec![0i64; groups.len()];
    let Some(p) = arg else {
        // Only `COUNT(*)` takes no argument: every tuple counts.
        if func != AggFunc::Count {
            return Err(Error::internal(format!("{func:?} without an argument")));
        }
        for (_, g) in each() {
            counts[g] += 1;
        }
        return Ok(counts.into_iter().map(Value::Int).collect());
    };
    Ok(match func {
        AggFunc::Count if distinct => (tuples.distinct_counts(p, groups, stats).into_iter())
            .map(Value::Int)
            .collect(),
        AggFunc::Count => {
            for (t, g) in each() {
                counts[g] += i64::from(tuples.word(t, p).is_some());
            }
            counts.into_iter().map(Value::Int).collect()
        }
        AggFunc::Sum | AggFunc::Avg => {
            let mut sums = vec![0i64; groups.len()];
            for (t, g) in each() {
                let v = tuples.value(t, p);
                if !v.is_null() {
                    sums[g] = sums[g].wrapping_add(v.as_int()?);
                    counts[g] += 1;
                }
            }
            (sums.into_iter().zip(counts))
                .map(|(sum, n)| match n {
                    0 => Value::Null,
                    _ if func == AggFunc::Sum => Value::Int(sum),
                    _ => Value::Int(sum / n),
                })
                .collect()
        }
        AggFunc::Min | AggFunc::Max => {
            // Words order like their values, so only winners are decoded.
            let mut best: Vec<Option<(T::Word, usize)>> = vec![None; groups.len()];
            for (t, g) in each() {
                let Some(w) = tuples.word(t, p) else {
                    continue;
                };
                let wins = best[g].is_none_or(|(b, _)| match func {
                    AggFunc::Min => w < b,
                    _ => w > b,
                });
                if wins {
                    best[g] = Some((w, t));
                }
            }
            (best.into_iter())
                .map(|b| b.map_or(Value::Null, |(_, t)| tuples.value(t, p)))
                .collect()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniq_types::ColumnName;

    fn agg_of(group_count: usize, items: Vec<BoundAggItem>) -> BoundAgg {
        BoundAgg {
            group_count,
            items,
            group_elided: false,
            count_distinct_elided: false,
        }
    }

    fn item(func: AggFunc, distinct: bool, arg: Option<usize>) -> BoundAggItem {
        BoundAggItem::Agg {
            func,
            distinct,
            arg,
            name: ColumnName::from("A"),
        }
    }

    fn group(pos: usize) -> BoundAggItem {
        BoundAggItem::Group {
            pos,
            name: ColumnName::from("G"),
        }
    }

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// Group plain rows on their leading columns, as the rows access does.
    fn aggregate_rows(agg: &BoundAgg, rows: Vec<Row>, stats: &mut ExecStats) -> Result<Vec<Row>> {
        aggregate(agg, &rows.as_slice(), stats)
    }

    #[test]
    fn global_aggregates_over_rows_and_empty_input() {
        let agg = agg_of(
            0,
            vec![
                item(AggFunc::Count, false, None),
                item(AggFunc::Count, false, Some(0)),
                item(AggFunc::Sum, false, Some(0)),
                item(AggFunc::Min, false, Some(0)),
                item(AggFunc::Max, false, Some(0)),
                item(AggFunc::Avg, false, Some(0)),
            ],
        );
        let rows = vec![vec![int(3)], vec![Value::Null], vec![int(8)]];
        let mut stats = ExecStats::new();
        let out = aggregate_rows(&agg, rows, &mut stats).unwrap();
        // COUNT(*)=3 counts the NULL row; every other aggregate skips it.
        assert_eq!(
            out,
            vec![vec![int(3), int(2), int(11), int(3), int(8), int(5)]]
        );
        assert_eq!(stats.agg_rows, 3);
        assert_eq!(stats.hash_probes, 0, "the single global group never hashes");

        let empty = aggregate_rows(&agg, Vec::new(), &mut ExecStats::new()).unwrap();
        assert_eq!(
            empty,
            vec![vec![
                int(0),
                int(0),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null
            ]],
            "global aggregate yields one group even on empty input"
        );
    }

    #[test]
    fn grouping_treats_nulls_as_equal_and_keeps_first_appearance_order() {
        let agg = agg_of(1, vec![group(0), item(AggFunc::Count, false, None)]);
        let rows = vec![
            vec![int(1), int(0)],
            vec![Value::Null, int(0)],
            vec![int(1), int(0)],
            vec![Value::Null, int(0)],
        ];
        let out = aggregate_rows(&agg, rows, &mut ExecStats::new()).unwrap();
        assert_eq!(
            out,
            vec![vec![int(1), int(2)], vec![Value::Null, int(2)]],
            "NULL group keys coalesce; groups appear in input order"
        );
    }

    #[test]
    fn count_distinct_ignores_nulls_and_duplicates() {
        let agg = agg_of(
            0,
            vec![
                item(AggFunc::Count, true, Some(0)),
                item(AggFunc::Count, false, Some(0)),
            ],
        );
        let rows = vec![vec![int(5)], vec![int(5)], vec![Value::Null], vec![int(7)]];
        let out = aggregate_rows(&agg, rows, &mut ExecStats::new()).unwrap();
        assert_eq!(out, vec![vec![int(2), int(3)]]);
    }

    #[test]
    fn sum_wraps_and_avg_truncates_the_wrapped_sum() {
        let agg = agg_of(
            0,
            vec![
                item(AggFunc::Sum, false, Some(0)),
                item(AggFunc::Avg, false, Some(0)),
            ],
        );
        let rows = vec![vec![int(i64::MAX)], vec![int(1)], vec![Value::Null]];
        let out = aggregate_rows(&agg, rows, &mut ExecStats::new()).unwrap();
        assert_eq!(out, vec![vec![int(i64::MIN), int(i64::MIN / 2)]]);
    }

    /// Small non-negative integers read as their own words, grouped
    /// through the dense slot table and counted distinct through the
    /// (group, word) bitmap, as the encoded access does.
    struct Codes(Vec<Vec<Option<u64>>>);

    /// Digits per key column: `NULL` and the words 0 to 6.
    const RADIX: usize = 8;

    impl Tuples for Codes {
        type Word = u64;

        fn len(&self) -> usize {
            self.0.len()
        }

        fn value(&self, t: usize, p: usize) -> Value {
            self.0[t][p].map_or(Value::Null, |w| int(w as i64))
        }

        fn word(&self, t: usize, p: usize) -> Option<u64> {
            self.0[t][p]
        }

        fn groups(&self, keys: usize) -> Groups {
            let digit = |t: usize, p: usize| self.0[t][p].map_or(0, |w| w as usize + 1);
            let slot = |t| (0..keys).map(|p| digit(t, p) * RADIX.pow(p as u32)).sum();
            Groups::dense(self.len(), RADIX.pow(keys as u32), slot)
        }

        fn distinct_counts(&self, p: usize, groups: &Groups, stats: &mut ExecStats) -> Vec<i64> {
            let index = |t| self.word(t, p).map(|w| w as usize);
            dense_distinct_counts(groups, RADIX - 1, index, stats)
        }
    }

    #[test]
    fn dense_groups_and_the_bitmap_fold_each_item_in_its_own_pass() {
        let agg = agg_of(
            1,
            vec![
                group(0),
                item(AggFunc::Count, false, None),
                item(AggFunc::Count, false, Some(1)),
                item(AggFunc::Count, true, Some(1)),
                item(AggFunc::Sum, false, Some(1)),
                item(AggFunc::Min, false, Some(1)),
                item(AggFunc::Max, false, Some(1)),
                item(AggFunc::Avg, false, Some(1)),
            ],
        );
        let codes = vec![
            vec![Some(2), Some(5)],
            vec![None, Some(5)],
            vec![Some(2), Some(5)],
            vec![Some(0), None],
            vec![None, Some(1)],
            vec![Some(2), Some(1)],
        ];
        let null = Value::Null;
        let expected = vec![
            vec![
                int(2),
                int(3),
                int(3),
                int(2),
                int(11),
                int(1),
                int(5),
                int(3),
            ],
            vec![
                null.clone(),
                int(2),
                int(2),
                int(2),
                int(6),
                int(1),
                int(5),
                int(3),
            ],
            vec![
                int(0),
                int(1),
                int(0),
                int(0),
                null.clone(),
                null.clone(),
                null.clone(),
                null,
            ],
        ];
        let mut dense = ExecStats::new();
        let out = aggregate(&agg, &Codes(codes.clone()), &mut dense).unwrap();
        assert_eq!(
            out, expected,
            "NULL keys coalesce; groups in first-appearance order"
        );
        // One probe per tuple for the group, one per non-null argument
        // for the distinct count.
        assert_eq!(
            (dense.agg_rows, dense.hash_probes, dense.probe_steps),
            (6, 11, 11)
        );
        let rows: Vec<Row> = (codes.iter())
            .map(|row| {
                row.iter()
                    .map(|w| w.map_or(Value::Null, |w| int(w as i64)))
                    .collect()
            })
            .collect();
        let mut hashed = ExecStats::new();
        assert_eq!(aggregate_rows(&agg, rows, &mut hashed).unwrap(), expected);
        assert_eq!(
            hashed, dense,
            "the dense tables book what the hashed ones do"
        );

        let global = agg_of(0, agg.items[1..].to_vec());
        let empty = aggregate(&global, &Codes(Vec::new()), &mut ExecStats::new()).unwrap();
        let nulls = vec![Value::Null; 4];
        assert_eq!(empty, vec![[vec![int(0); 3], nulls].concat()]);
    }

    #[test]
    fn elided_one_pass_matches_hash_grouping_with_zero_hash_ops() {
        // Group column is row-unique, so the elided path must agree.
        let rows: Vec<Row> = (0..10).map(|i| vec![int(i), int(i * 2)]).collect();
        let items = vec![
            group(0),
            item(AggFunc::Sum, false, Some(1)),
            item(AggFunc::Count, false, None),
        ];
        let hash = agg_of(1, items.clone());
        let mut elided = agg_of(1, items);
        elided.group_elided = true;

        let mut hs = ExecStats::new();
        let h = aggregate_rows(&hash, rows.clone(), &mut hs).unwrap();
        let mut es = ExecStats::new();
        let e = aggregate_rows(&elided, rows, &mut es).unwrap();
        assert_eq!(h, e);
        assert!(hs.hash_probes == 10 && hs.probe_steps == 10);
        assert_eq!(es.hash_probes, 0, "elided grouping performs no hash ops");
        assert_eq!(es.probe_steps, 0);
        assert_eq!(es.agg_rows, 10);
    }
}
