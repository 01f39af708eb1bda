//! Row scans against a packed node bitset, shared by the adaptive attacks.
//!
//! Each round an adaptive attack marks the nodes it cares about in one
//! bitset (bit `v` of word `v / 64` for node `v`, `row_words` words: the
//! shape of the executor's transmitter bitset) and scans each receiver's
//! row against it in the row's own layout, the rule the executor's pull
//! step follows: a packed [`NeighborRow::Dense`] row is ANDed with the
//! marks word by word and the set bits are walked, a sorted
//! [`NeighborRow::Sparse`] row is walked with a bit test. Both yield the
//! marked neighbours in ascending order, so an attack decides the same
//! whichever layout the network uses.

use dradio_graphs::{DualGraph, NeighborRow, NodeId};

// Called every round by the adaptive attacks, the scans once per receiver;
// the bitset is reused scratch, so no allocation is permitted here.
// lint: hot-path

/// Refills `marks` with one bit per node of an `n`-node network (`⌈n / 64⌉`
/// words), set for node `v` where `marked(&items[v])` holds (items past
/// `n` are ignored, missing ones unmarked), and returns whether any bit is
/// set. Each word is assembled from 64 items at once.
pub(crate) fn refill<T>(
    marks: &mut Vec<u64>,
    n: usize,
    items: &[T],
    marked: impl Fn(&T) -> bool,
) -> bool {
    marks.clear();
    marks.extend(items[..items.len().min(n)].chunks(64).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0, |word, (b, item)| word | u64::from(marked(item)) << b)
    }));
    let any = marks.iter().any(|&word| word != 0);
    marks.resize(n.div_ceil(64), 0);
    any
}

/// Returns `true` if node `v`'s bit is set in `marks`.
#[inline]
pub(crate) fn is_marked(marks: &[u64], v: usize) -> bool {
    marks[v / 64] >> (v % 64) & 1 == 1
}

/// The neighbours in `row` whose bit is set in `marks`, ascending.
#[inline]
pub(crate) fn marked_neighbors<'a>(
    row: NeighborRow<'a>,
    marks: &'a [u64],
) -> impl Iterator<Item = NodeId> + 'a {
    match row {
        NeighborRow::Dense(row) => {
            Scan::Words(SetBits::new(row.iter().zip(marks).map(|(&r, &m)| r & m)))
        }
        NeighborRow::Sparse(row) => Scan::Walk(
            row.iter()
                .copied()
                .filter(move |v| is_marked(marks, v.index())),
        ),
    }
}

/// The nodes joined to `u` by a dynamic (`G' \ G`) edge whose bit is set in
/// `marks`, ascending: `G'` row `& !G` row `& marks` word by word when both
/// layers are packed, else `u`'s entries of the dynamic-edge index with a
/// bit test.
#[inline]
pub(crate) fn marked_dynamic_neighbors<'a>(
    dual: &'a DualGraph,
    u: NodeId,
    marks: &'a [u64],
) -> impl Iterator<Item = NodeId> + 'a {
    match (dual.g_prime().neighbor_row(u), dual.g().neighbor_row(u)) {
        (NeighborRow::Dense(g_prime), NeighborRow::Dense(g)) => Scan::Words(SetBits::new(
            g_prime
                .iter()
                .zip(g)
                .zip(marks)
                .map(|((&p, &r), &m)| p & !r & m),
        )),
        _ => Scan::Walk(
            dual.dynamic_index()
                .incident(u)
                .iter()
                .map(|&(v, _)| v as usize)
                .filter(move |&v| is_marked(marks, v))
                .map(NodeId::new),
        ),
    }
}

/// A scan in a row's shape: the set bits of word intersections, or a
/// filtered walk.
enum Scan<W, S> {
    Words(SetBits<W>),
    Walk(S),
}

impl<W: Iterator<Item = u64>, S: Iterator<Item = NodeId>> Iterator for Scan<W, S> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            Scan::Words(bits) => bits.next(),
            Scan::Walk(walk) => walk.next(),
        }
    }
}

/// The set bits of a word sequence as nodes, ascending: bit `b` of word
/// `w` is node `64·w + b`.
struct SetBits<W> {
    words: std::iter::Enumerate<W>,
    /// The unvisited bits of the current word.
    word: u64,
    /// The node of the current word's bit 0.
    base: usize,
}

impl<W: Iterator<Item = u64>> SetBits<W> {
    fn new(words: W) -> Self {
        SetBits {
            words: words.enumerate(),
            word: 0,
            base: 0,
        }
    }
}

impl<W: Iterator<Item = u64>> Iterator for SetBits<W> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.word == 0 {
            let (w, word) = self.words.next()?;
            self.base = w * 64;
            self.word = word;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(NodeId::new(self.base + bit))
    }
}
// lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_marks_the_first_n_items_and_reports_whether_any_is_set() {
        let mut marks = vec![u64::MAX; 5];
        let items: Vec<usize> = (0..200).collect();
        assert!(!refill(&mut marks, 100, &items, |_| false));
        assert_eq!(marks, [0, 0]);
        // Items past n are ignored; missing items are unmarked.
        assert!(!refill(&mut marks, 64, &items, |&v| v >= 64));
        assert_eq!(marks, [0]);
        assert!(refill(&mut marks, 70, &items, |&v| v == 69 || v == 70));
        assert_eq!(marks, [0, 1 << 5]);
        assert!(refill(&mut marks, 130, &items[..3], |&v| v == 2));
        assert_eq!(marks, [1 << 2, 0, 0]);
    }
}
