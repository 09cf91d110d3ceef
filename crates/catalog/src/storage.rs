//! Table storage shared across snapshots.
//!
//! Tables only grow (`truncate` aside), so a write to a table another
//! snapshot shares copies only what an append cannot leave in place:
//!
//! * **Rows** sit in chunks of [`CHUNK_ROWS`] slots, shared by `Arc`
//!   among every snapshot that holds them. A snapshot is a row count
//!   over its chunks: it reads only the slots below that watermark, so
//!   an append fills the next slot of the shared last chunk in place,
//!   and older snapshots never see it. Each slot is set once; when the
//!   next slot is already filled (a write that was discarded, or a
//!   clone that appended first), the append copies the chunk's rows
//!   below the watermark into a chunk of its own. A row id splits into
//!   a chunk number and a slot by a shift and a mask.
//! * **Indexes** are an immutable base shared by `Arc`, plus an overlay
//!   of the entries added since the base was built (`Layered`). Each
//!   layer is one vector of entries sorted by key (`SortedMap`), whose
//!   keys and postings are shared by `Arc`, so copying a layer is one
//!   allocation. A write copies the overlay; once the overlay holds more
//!   than √n positions (n the table's rows) it is merged with the base
//!   into a new base. A base no other snapshot shares takes keys that
//!   sort last in place, so a load in key order never copies it.
//!   Positions only grow, so every overlay position follows every base
//!   position, and the base's answers come first.
//!
//! Both layouts keep a write's allocations few and small: freeing and
//! reallocating per-entry nodes on every write or fold left the
//! allocator slow for the reads that followed.

use crate::database::Row;
use std::fmt;
use std::ops::{Bound, Index, RangeBounds};
use std::sync::{Arc, OnceLock};
use uniq_types::Value;

/// log₂ of [`CHUNK_ROWS`].
const CHUNK_BITS: u32 = 8;
/// Rows per chunk.
pub const CHUNK_ROWS: usize = 1 << CHUNK_BITS;
const OFFSET_MASK: usize = CHUNK_ROWS - 1;

/// One chunk of row slots. Its fixed length lets a masked offset index
/// it without a bounds check.
type Chunk = [OnceLock<Row>; CHUNK_ROWS];

fn empty_chunk() -> Arc<Chunk> {
    Arc::new(std::array::from_fn(|_| OnceLock::new()))
}

/// A table's rows: the first `len` slots of `chunks`. Cloning shares
/// every chunk.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowChunks {
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl RowChunks {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append `row` in the next slot, copying the last chunk first if
    /// that slot is already filled.
    pub(crate) fn push(&mut self, row: Row) {
        let slot = self.len & OFFSET_MASK;
        if slot == 0 {
            self.chunks.push(empty_chunk());
        }
        let last = self.chunks.last_mut().expect("a chunk for the next slot");
        if let Err(row) = last[slot].set(row) {
            let own = empty_chunk();
            for (to, from) in own.iter().zip(&last[..slot]) {
                let _ = to.set(from.get().expect("a row below the watermark").clone());
            }
            let _ = own[slot].set(row);
            *last = own;
        }
        self.len += 1;
    }

    pub(crate) fn view(&self) -> TableRows<'_> {
        TableRows {
            chunks: &self.chunks,
            start: 0,
            end: self.len,
        }
    }
}

/// A borrowed run of a table's rows — the whole table, or a range of
/// it such as a delta suffix. Indexed from 0 like a slice.
#[derive(Clone, Copy, Default)]
pub struct TableRows<'a> {
    chunks: &'a [Arc<Chunk>],
    start: usize,
    end: usize,
}

impl<'a> TableRows<'a> {
    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Row `i`, if `i < len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&'a Row> {
        if i >= self.len() {
            return None;
        }
        let at = self.start + i;
        self.chunks[at >> CHUNK_BITS][at & OFFSET_MASK].get()
    }

    /// The rows in `range`, like slicing. Panics when the range is out
    /// of bounds.
    pub fn range(&self, range: impl RangeBounds<usize>) -> TableRows<'a> {
        let from = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let to = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.len(),
        };
        assert!(
            from <= to && to <= self.len(),
            "row range {from}..{to} out of bounds for {} rows",
            self.len()
        );
        TableRows {
            chunks: self.chunks,
            start: self.start + from,
            end: self.start + to,
        }
    }

    /// The rows in order.
    #[inline]
    pub fn iter(&self) -> Iter<'a> {
        if self.is_empty() {
            return Iter::default();
        }
        let first = self.start >> CHUNK_BITS;
        let head = &self.chunks[first][self.start & OFFSET_MASK..];
        let head = &head[..head.len().min(self.len())];
        Iter {
            cur: head.iter(),
            chunks: self.chunks[first + 1..].iter(),
            left: self.len() - head.len(),
        }
    }

    /// The rows, copied.
    pub fn to_vec(&self) -> Vec<Row> {
        self.iter().cloned().collect()
    }
}

impl Index<usize> for TableRows<'_> {
    type Output = Row;

    #[inline]
    fn index(&self, i: usize) -> &Row {
        self.get(i)
            .unwrap_or_else(|| panic!("row {i} out of bounds for {} rows", self.len()))
    }
}

impl<'a> IntoIterator for TableRows<'a> {
    type Item = &'a Row;
    type IntoIter = Iter<'a>;

    #[inline]
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for TableRows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for TableRows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: AsRef<[Row]> + ?Sized> PartialEq<&T> for TableRows<'_> {
    fn eq(&self, other: &&T) -> bool {
        let other = other.as_ref();
        self.len() == other.len() && self.iter().eq(other)
    }
}

/// The rows of a [`TableRows`], a chunk at a time.
#[derive(Clone, Default)]
pub struct Iter<'a> {
    /// The rest of the current chunk's slots.
    cur: std::slice::Iter<'a, OnceLock<Row>>,
    /// The chunks after it.
    chunks: std::slice::Iter<'a, Arc<Chunk>>,
    /// Rows to take from `chunks`.
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Row;

    #[inline]
    fn next(&mut self) -> Option<&'a Row> {
        if self.cur.len() == 0 {
            if self.left == 0 {
                return None;
            }
            let chunk = self.chunks.next().expect("rows left in later chunks");
            let take = self.left.min(CHUNK_ROWS);
            self.left -= take;
            self.cur = chunk[..take].iter();
        }
        let slot = self.cur.next().expect("a slot left in the chunk");
        Some(slot.get().expect("a row below the watermark"))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cur.len() + self.left;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// The row positions an index holds for one key, ascending: the base's,
/// then the overlay's.
#[derive(Clone, Copy, Default)]
pub struct Positions<'a> {
    base: &'a [usize],
    overlay: &'a [usize],
}

impl<'a> Positions<'a> {
    pub(crate) fn new([base, overlay]: [Option<&'a Postings>; 2]) -> Self {
        Positions {
            base: base.map_or(&[], |p| p.as_slice()),
            overlay: overlay.map_or(&[], |p| p.as_slice()),
        }
    }

    /// Number of positions.
    #[inline]
    pub fn len(&self) -> usize {
        self.base.len() + self.overlay.len()
    }

    /// Whether the key has no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The positions in ascending order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        self.base.iter().chain(self.overlay).copied()
    }

    /// The positions, copied.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl<'a> From<&'a [usize]> for Positions<'a> {
    fn from(base: &'a [usize]) -> Self {
        Positions { base, overlay: &[] }
    }
}

impl fmt::Debug for Positions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: AsRef<[usize]> + ?Sized> PartialEq<&T> for Positions<'_> {
    fn eq(&self, other: &&T) -> bool {
        self.iter().eq(other.as_ref().iter().copied())
    }
}

/// An index's key tuple. Shared by `Arc`, so copying an index allocates
/// no key.
pub(crate) type Key = Arc<[Value]>;

/// The row positions one key of a secondary index holds, shared by
/// `Arc` between copies of the index; an append copies them only while
/// another copy shares them.
pub(crate) type Postings = Arc<Vec<usize>>;

/// An index layer: entries sorted by key in one vector, so a copy is one
/// allocation and a lookup a binary search.
#[derive(Debug, Clone)]
pub(crate) struct SortedMap<V>(Vec<(Key, V)>);

impl<V> Default for SortedMap<V> {
    fn default() -> Self {
        SortedMap(Vec::new())
    }
}

impl<V: Clone> SortedMap<V> {
    /// A map of `entries`, which must be sorted by key with no key twice.
    pub(crate) fn from_sorted(entries: Vec<(Key, V)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        SortedMap(entries)
    }

    fn find(&self, key: &[Value]) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| (**k).cmp(key))
    }

    /// What the map holds for `key`.
    pub(crate) fn get(&self, key: &[Value]) -> Option<&V> {
        self.find(key).ok().map(|i| &self.0[i].1)
    }

    /// The entries whose key is not below `key`, in key order.
    pub(crate) fn from(&self, key: &[Value]) -> &[(Key, V)] {
        &self.0[self.0.partition_point(|(k, _)| **k < *key)..]
    }

    /// Every entry, in key order.
    pub(crate) fn entries(&self) -> &[(Key, V)] {
        &self.0
    }

    /// This map's entries merged with `later`'s by key; `join` adds a
    /// later value to this map's value for the same key.
    fn merged(&self, later: Self, join: impl Fn(&mut V, V)) -> Self {
        let mut out = Vec::with_capacity(self.0.len() + later.0.len());
        let mut mine = self.0.iter().cloned().peekable();
        for (key, value) in later.0 {
            while let Some(entry) = mine.next_if(|(k, _)| *k < key) {
                out.push(entry);
            }
            match mine.next_if(|(k, _)| *k == key) {
                Some((k, mut v)) => {
                    join(&mut v, value);
                    out.push((k, v));
                }
                None => out.push((key, value)),
            }
        }
        out.extend(mine);
        SortedMap(out)
    }
}

/// The values an index layer maps keys to.
pub(crate) trait IndexValue: Clone {
    /// The value of a key first seen at row `pos`.
    fn first(pos: usize) -> Self;
    /// Record that row `pos` carries the key too.
    fn add(&mut self, pos: usize);
    /// Add a later layer's value for the same key, whose positions all
    /// follow this one's.
    fn join(&mut self, later: Self);
}

/// A candidate key's index: one row per key. Callers add only keys the
/// index lacks, and a repeat keeps the first row.
impl IndexValue for usize {
    fn first(pos: usize) -> usize {
        pos
    }

    fn add(&mut self, _: usize) {}

    fn join(&mut self, _: usize) {}
}

impl IndexValue for Postings {
    fn first(pos: usize) -> Postings {
        Arc::new(vec![pos])
    }

    fn add(&mut self, pos: usize) {
        Arc::make_mut(self).push(pos);
    }

    fn join(&mut self, later: Postings) {
        Arc::make_mut(self).extend_from_slice(&later);
    }
}

impl<V: IndexValue> SortedMap<V> {
    /// Record that row `pos` carries `key`.
    pub(crate) fn add(&mut self, key: Key, pos: usize) {
        match self.find(&key) {
            Ok(i) => self.0[i].1.add(pos),
            Err(i) => self.0.insert(i, (key, V::first(pos))),
        }
    }
}

/// One index: a base shared by `Arc` with every snapshot built on it,
/// plus the entries this snapshot added since.
#[derive(Debug, Clone)]
pub(crate) struct Layered<V> {
    base: Arc<SortedMap<V>>,
    overlay: SortedMap<V>,
    /// Positions added to the overlay since the last fold.
    added: usize,
}

impl<V> Default for Layered<V> {
    fn default() -> Self {
        Layered {
            base: Arc::new(SortedMap::default()),
            overlay: SortedMap::default(),
            added: 0,
        }
    }
}

impl<V: IndexValue> Layered<V> {
    pub(crate) fn new(base: SortedMap<V>) -> Layered<V> {
        Layered {
            base: Arc::new(base),
            ..Layered::default()
        }
    }

    /// The base, then the overlay: lookups consult both, in this order.
    pub(crate) fn layers(&self) -> [&SortedMap<V>; 2] {
        [&self.base, &self.overlay]
    }

    /// What the base, then the overlay, hold for `key`.
    pub(crate) fn get(&self, key: &[Value]) -> [Option<&V>; 2] {
        self.layers().map(|m| m.get(key))
    }

    /// Record that row `pos`, the table's last, carries `key`. A base no
    /// other snapshot shares takes a key that sorts last in place (a load
    /// in key order); otherwise the overlay takes it, and folds into a
    /// new base once it has passed √n positions for the table's n rows.
    pub(crate) fn add(&mut self, key: Key, pos: usize) {
        if self.added == 0 {
            if let Some(base) = Arc::get_mut(&mut self.base) {
                if base.0.last().is_none_or(|(last, _)| *last <= key) {
                    base.add(key, pos);
                    return;
                }
            }
        }
        self.overlay.add(key, pos);
        self.added += 1;
        if self.added * self.added > pos + 1 {
            let overlay = std::mem::take(&mut self.overlay);
            self.base = Arc::new(self.base.merged(overlay, V::join));
            self.added = 0;
        }
    }

    #[cfg(test)]
    pub(crate) fn overlay_len(&self) -> usize {
        self.added
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> RowChunks {
        let mut chunks = RowChunks::default();
        for i in 0..n {
            chunks.push(vec![Value::Int(i as i64)]);
        }
        chunks
    }

    #[test]
    fn views_index_iterate_and_range_across_chunks() {
        let n = 2 * CHUNK_ROWS + 7;
        let chunks = rows(n);
        let all = chunks.view();
        let want: Vec<Row> = (0..n).map(|i| vec![Value::Int(i as i64)]).collect();
        assert_eq!(all.len(), n);
        assert_eq!(all, &want);
        assert_eq!(all[CHUNK_ROWS], want[CHUNK_ROWS]);
        assert!(all.get(n).is_none());
        for (from, to) in [(0, 0), (3, CHUNK_ROWS + 2), (CHUNK_ROWS, n), (n - 1, n)] {
            let part = all.range(from..to);
            assert_eq!(part, &want[from..to]);
            assert_eq!(part.iter().len(), to - from);
            assert_eq!(part.range(..), part);
        }
        assert_eq!(all.range(5..).range(CHUNK_ROWS..), &want[CHUNK_ROWS + 5..]);
    }

    #[test]
    fn clones_share_chunks_and_copy_one_only_when_they_diverge() {
        let mut old = rows(CHUNK_ROWS + 3);
        let mut new = old.clone();
        new.push(vec![Value::Int(-1)]);
        assert!(
            old.chunks
                .iter()
                .zip(&new.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b)),
            "an append fills the shared chunk in place"
        );
        assert_eq!(old.view().len(), CHUNK_ROWS + 3, "above the old watermark");
        // The old side's next slot is taken: it copies the last chunk.
        old.push(vec![Value::Int(-2)]);
        assert!(Arc::ptr_eq(&old.chunks[0], &new.chunks[0]));
        assert!(!Arc::ptr_eq(&old.chunks[1], &new.chunks[1]));
        let tail = |r: &RowChunks| r.view().range(CHUNK_ROWS + 2..).to_vec();
        let row = |v: i64| vec![Value::Int(v)];
        assert_eq!(tail(&old), [row(CHUNK_ROWS as i64 + 2), row(-2)]);
        assert_eq!(tail(&new), [row(CHUNK_ROWS as i64 + 2), row(-1)]);
    }

    #[test]
    fn a_shared_base_takes_no_write_until_the_overlay_folds() {
        let mut ix: Layered<Postings> = Layered::default();
        let key = |k: i64| Key::from([Value::Int(k)]);
        for pos in 0..100 {
            ix.add(key(pos as i64), pos);
        }
        assert_eq!(ix.overlay_len(), 0, "a load in key order goes to the base");
        let pinned = ix.clone();
        for pos in 100..110 {
            ix.add(key(7), pos);
        }
        assert_eq!(ix.overlay_len(), 10);
        assert!(
            Arc::ptr_eq(&pinned.base, &ix.base),
            "base shared until the fold"
        );
        // The 11th position passes √n: 11² > 111 rows.
        ix.add(key(7), 110);
        assert_eq!(ix.overlay_len(), 0);
        assert!(
            !Arc::ptr_eq(&pinned.base, &ix.base),
            "the fold made a new base"
        );
        let seven = [Value::Int(7)];
        assert_eq!(
            **pinned.base.get(&seven).unwrap(),
            [7],
            "the pin kept its base"
        );
        let want: Vec<usize> = [7].into_iter().chain(100..=110).collect();
        assert_eq!(**ix.base.get(&seven).unwrap(), want);
        let (old, new) = (&pinned.base.entries()[0], &ix.base.entries()[0]);
        assert!(Arc::ptr_eq(&old.0, &new.0), "the copy shares its keys");
        assert!(
            Arc::ptr_eq(&old.1, &new.1),
            "and the positions of keys it did not touch"
        );
    }
}
