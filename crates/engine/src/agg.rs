//! Aggregation: hash grouping and the key-elided one-pass.
//!
//! The binder lowers an aggregate query onto a `SELECT ALL` body whose
//! projection lays grouping columns first (positions `0 ..
//! group_count`) followed by the aggregate argument columns. One
//! grouping function serves both access methods of the block pipeline:
//! it reads body tuples through a key and a value function, so the rows
//! access groups borrowed rows and the encoded access groups code words.
//! Two execution shapes:
//!
//! * **Hash grouping** — one table probe per input row (`hash_probes`
//!   and `probe_steps` book one each, like the join kernels), groups
//!   kept in first-appearance order so output is deterministic. A
//!   global aggregate (no `GROUP BY`) folds into its single group
//!   without hashing, so the only hash work it can book is the
//!   distinct-set insert each un-elided `COUNT(DISTINCT)` argument
//!   pays — exactly the work the count-distinct elision removes.
//! * **Key-elided one-pass** — when the optimizer proved the group
//!   keys duplicate-free ([`BoundAgg::group_elided`]), every row is its
//!   own group: each row is initialized, updated and finalized locally,
//!   with *zero* hash operations. This is the gap experiment E23
//!   measures against the hash path.
//!
//! Semantics (SQL): aggregates ignore `NULL` arguments; `COUNT(*)`
//! counts rows; `SUM`/`MIN`/`MAX`/`AVG` of no (non-null) rows is
//! `NULL` while `COUNT` is 0; `AVG` is the truncating integer mean;
//! grouping treats `NULL`s as equal (`=̇`, which is exactly the derived
//! `Eq` on [`Value`]); integer overflow wraps.

use crate::stats::ExecStats;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use uniq_catalog::Row;
use uniq_plan::{BoundAgg, BoundAggItem};
use uniq_sql::AggFunc;
use uniq_types::{Result, Value};

/// Running state of one aggregate item over one group.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AggState {
    /// `COUNT(*)` / `COUNT(e)`: rows (with a non-null argument) seen.
    Count(i64),
    /// `COUNT(DISTINCT e)`: distinct non-null argument values seen.
    /// The whole point of the count-distinct elision is never to build
    /// this set when uniqueness already proves it redundant.
    CountDistinct(HashSet<Value>),
    /// `SUM(e)`: wrapping sum, `NULL` until a non-null argument arrives.
    Sum { sum: i64, seen: bool },
    /// `MIN(e)` under the non-null order (`NULL` arguments ignored).
    Min(Option<Value>),
    /// `MAX(e)` under the non-null order (`NULL` arguments ignored).
    Max(Option<Value>),
    /// `AVG(e)`: truncating integer mean of the non-null arguments.
    Avg { sum: i64, n: i64 },
    /// Placeholder for a grouping item (its value lives in the key).
    Group,
}

/// Fresh per-group states, one per output item (grouping items get the
/// inert [`AggState::Group`] placeholder so states stay index-aligned
/// with `agg.items`).
pub(crate) fn init_states(agg: &BoundAgg) -> Vec<AggState> {
    agg.items
        .iter()
        .map(|item| match item {
            BoundAggItem::Group { .. } => AggState::Group,
            BoundAggItem::Agg { func, distinct, .. } => match func {
                AggFunc::Count if *distinct => AggState::CountDistinct(HashSet::new()),
                AggFunc::Count => AggState::Count(0),
                AggFunc::Sum => AggState::Sum {
                    sum: 0,
                    seen: false,
                },
                AggFunc::Min => AggState::Min(None),
                AggFunc::Max => AggState::Max(None),
                AggFunc::Avg => AggState::Avg { sum: 0, n: 0 },
            },
        })
        .collect()
}

/// Fold one body tuple into the group's states. `get(p)` reads position
/// `p` of the body projection — a closure so the encoded access can
/// decode argument cells lazily instead of materializing whole rows.
///
/// Returns the number of distinct-set probes performed (one per
/// non-null `COUNT(DISTINCT)` argument), so callers can book the work
/// the count-distinct elision avoids.
pub(crate) fn update_states(
    states: &mut [AggState],
    agg: &BoundAgg,
    get: &mut impl FnMut(usize) -> Value,
) -> Result<u64> {
    let mut set_probes = 0;
    for (st, item) in states.iter_mut().zip(&agg.items) {
        let BoundAggItem::Agg { arg, .. } = item else {
            continue;
        };
        let v = arg.map(&mut *get);
        match st {
            AggState::Group => {}
            AggState::Count(n) => match &v {
                Some(Value::Null) => {}
                _ => *n += 1,
            },
            AggState::CountDistinct(set) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        set_probes += 1;
                        set.insert(v);
                    }
                }
            }
            AggState::Sum { sum, seen } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        *sum = sum.wrapping_add(v.as_int()?);
                        *seen = true;
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        fold_extremum(cur, v, true)?;
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = v {
                    if !v.is_null() {
                        fold_extremum(cur, v, false)?;
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        *sum = sum.wrapping_add(v.as_int()?);
                        *n += 1;
                    }
                }
            }
        }
    }
    Ok(set_probes)
}

/// Keep the smaller (`want_less`) or larger non-null value.
fn fold_extremum(cur: &mut Option<Value>, v: Value, want_less: bool) -> Result<()> {
    let replace = match cur.as_ref() {
        Some(c) => {
            let o = v.null_cmp(c)?;
            if want_less {
                o.is_lt()
            } else {
                o.is_gt()
            }
        }
        None => true,
    };
    if replace {
        *cur = Some(v);
    }
    Ok(())
}

/// Final value of one state.
pub(crate) fn finalize_state(st: AggState) -> Value {
    match st {
        AggState::Group => Value::Null,
        AggState::Count(n) => Value::Int(n),
        AggState::CountDistinct(set) => Value::Int(set.len() as i64),
        AggState::Sum { sum, seen } => {
            if seen {
                Value::Int(sum)
            } else {
                Value::Null
            }
        }
        AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        AggState::Avg { sum, n } => {
            if n > 0 {
                Value::Int(sum / n)
            } else {
                Value::Null
            }
        }
    }
}

/// Aggregate `n` body tuples, in input order, the one way both access
/// methods share. `key(t)` is tuple `t`'s grouping key — borrowed values
/// under the rows access, code words under the encoded one — and
/// `value(t, p)` its body projection position `p`.
///
/// The proof-elided grouping takes the zero-hash one-pass: every tuple
/// is its own group. Otherwise groups are hashed and kept in
/// first-appearance order, so output is deterministic, and each group's
/// first tuple supplies its grouping columns. A global aggregate (no
/// `GROUP BY`) folds into its single group without hashing.
pub(crate) fn aggregate<K: Eq + Hash>(
    agg: &BoundAgg,
    n: usize,
    key: impl Fn(usize) -> K,
    value: impl Fn(usize, usize) -> Value,
    stats: &mut ExecStats,
) -> Result<Vec<Row>> {
    stats.agg_rows += n as u64;
    // One finished group → one output row, items in `SELECT`-list
    // order: grouping items read the representative, aggregate items
    // finalize their state.
    let output_row = |rep: usize, states: Vec<AggState>| -> Row {
        (agg.items.iter().zip(states))
            .map(|(item, st)| match item {
                BoundAggItem::Group { pos, .. } => value(rep, *pos),
                BoundAggItem::Agg { .. } => finalize_state(st),
            })
            .collect()
    };
    let mut fold = |states: &mut [AggState], t: usize| -> Result<()> {
        // An un-elided `COUNT(DISTINCT)` item books its set probes.
        let set_probes = update_states(states, agg, &mut |p| value(t, p))?;
        stats.hash_probes += set_probes;
        stats.probe_steps += set_probes;
        Ok(())
    };

    if agg.group_elided && agg.group_count > 0 {
        let mut out = Vec::with_capacity(n);
        for t in 0..n {
            let mut states = init_states(agg);
            fold(&mut states, t)?;
            out.push(output_row(t, states));
        }
        return Ok(out);
    }

    let mut index: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<(usize, Vec<AggState>)> = Vec::new();
    let mut group_probes = 0;
    for t in 0..n {
        let slot = if agg.group_count == 0 {
            if groups.is_empty() {
                groups.push((t, init_states(agg)));
            }
            0
        } else {
            group_probes += 1;
            *index.entry(key(t)).or_insert_with(|| {
                groups.push((t, init_states(agg)));
                groups.len() - 1
            })
        };
        fold(&mut groups[slot].1, t)?;
    }
    stats.hash_probes += group_probes;
    stats.probe_steps += group_probes;
    // A global aggregate yields its one group even over empty input —
    // `SELECT COUNT(*) FROM empty` is 0, not no rows (no grouping item,
    // so the representative is never read).
    if agg.group_count == 0 && groups.is_empty() {
        groups.push((0, init_states(agg)));
    }
    Ok((groups.into_iter())
        .map(|(rep, states)| output_row(rep, states))
        .collect())
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
        let key = |t: usize| &rows[t][..agg.group_count];
        aggregate(agg, rows.len(), key, |t, p| rows[t][p].clone(), stats)
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
