//! A table's kd-zones: one clustering of its rows over the (at most two)
//! inner columns a subquery filter names, with a min/max box per node, so
//! that the oracle's inner loop ([`crate::bound`], rule 6) can count or
//! skip a whole zone whose box settles the filter.
//!
//! The index is built once, on the first bind that can use it, and lives
//! inside the [`Table`](crate::table::Table) ([`ZoneCell`]): shared by
//! every clone and every query over that table version, dropped with it,
//! ignored by `PartialEq`. A table holds at most one index —
//! the first columns asked for keep it — so its memory is bounded at one
//! per table: `8` bytes per row and column for the clustered copies plus
//! one [`Zone`] per node.

use crate::bound::TILE;
use std::sync::{Arc, OnceLock};

/// One kd node: rows `start..end` of the clustered columns, the index of
/// its right child (the left one is the next node; `0` for a leaf), and
/// the closed range every indexed column takes on those rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Zone {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) right: usize,
    pub(crate) bounds: [(f64, f64); 2],
}

/// kd-zones over one or two finite `Float` columns.
#[derive(Debug)]
pub(crate) struct ZoneIndex {
    /// The indexed columns, in split order.
    names: Vec<String>,
    /// Each indexed column's values in kd order.
    columns: Vec<Vec<f64>>,
    /// The kd tree in preorder; node 0 is the root.
    nodes: Vec<Zone>,
}

impl ZoneIndex {
    /// Cluster `columns` (equal lengths, every value finite) by recursive
    /// median split, alternating over the columns, ties broken by row id,
    /// down to leaves of at most one [`TILE`] — a mixed leaf is one tile
    /// of the kernel's scan.
    pub(crate) fn build(names: &[&str], columns: &[&[f64]]) -> Self {
        let n = columns.first().map_or(0, |c| c.len());
        let mut order: Vec<usize> = (0..n).collect();
        let mut nodes = Vec::new();
        split(&mut order, 0, 0, columns, &mut nodes);
        nodes.shrink_to_fit();
        Self {
            names: names.iter().map(|s| s.to_string()).collect(),
            columns: columns
                .iter()
                .map(|c| order.iter().map(|&i| c[i]).collect())
                .collect(),
            nodes,
        }
    }

    /// Whether the index is over exactly the columns `names` (any order).
    fn covers(&self, names: &[&str]) -> bool {
        names.len() == self.names.len() && names.iter().all(|n| self.names.iter().any(|m| m == n))
    }

    /// The clustered copy of column `name`.
    pub(crate) fn column(&self, name: &str) -> Option<&[f64]> {
        let slot = self.names.iter().position(|n| n == name)?;
        Some(&self.columns[slot])
    }

    /// Which indexed column `clustered` is (by address), for its bounds.
    pub(crate) fn slot_of(&self, clustered: &[f64]) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| std::ptr::eq(c.as_slice(), clustered))
    }

    pub(crate) fn nodes(&self) -> &[Zone] {
        &self.nodes
    }

    /// Heap bytes held: the clustered copies and the nodes.
    fn bytes(&self) -> usize {
        let columns: usize = self.columns.iter().map(|c| c.capacity() * 8).sum();
        columns + self.nodes.capacity() * std::mem::size_of::<Zone>()
    }
}

/// Append the subtree over `ids` (rows `start..` in kd order) to `nodes`
/// and return its bounds.
fn split(
    ids: &mut [usize],
    start: usize,
    depth: usize,
    columns: &[&[f64]],
    nodes: &mut Vec<Zone>,
) -> [(f64, f64); 2] {
    let at = nodes.len();
    nodes.push(Zone {
        start,
        end: start + ids.len(),
        right: 0,
        bounds: [(0.0, 0.0); 2],
    });
    let bounds = if ids.len() <= TILE {
        let mut bounds = [(f64::INFINITY, f64::NEG_INFINITY); 2];
        for (b, col) in bounds.iter_mut().zip(columns) {
            for &i in ids.iter() {
                *b = (b.0.min(col[i]), b.1.max(col[i]));
            }
        }
        bounds
    } else {
        let col = columns[depth % columns.len()];
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| col[a].total_cmp(&col[b]).then(a.cmp(&b)));
        let (left, right) = ids.split_at_mut(mid);
        let l = split(left, start, depth + 1, columns, nodes);
        nodes[at].right = nodes.len();
        let r = split(right, start + mid, depth + 1, columns, nodes);
        [0, 1].map(|c| (l[c].0.min(r[c].0), l[c].1.max(r[c].1)))
    };
    nodes[at].bounds = bounds;
    bounds
}

/// The slot a [`Table`](crate::table::Table) keeps its zone index in:
/// empty until built, shared by clones.
#[derive(Debug, Clone, Default)]
pub(crate) struct ZoneCell(Arc<OnceLock<ZoneIndex>>);

impl ZoneCell {
    /// The index over `names`, built from their `columns` if the slot is empty;
    /// `None` when the slot already holds an index over other columns.
    pub(crate) fn get_or_build(&self, names: &[&str], columns: &[&[f64]]) -> Option<&ZoneIndex> {
        let index = self.0.get_or_init(|| ZoneIndex::build(names, columns));
        index.covers(names).then_some(index)
    }

    /// Heap bytes of the index, 0 before it is built.
    pub(crate) fn bytes(&self) -> usize {
        self.0.get().map_or(0, ZoneIndex::bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_partition_the_rows_and_bound_them() {
        // Integer-valued columns full of ties: 2 000 rows, eight leaves.
        let n = 2_000usize;
        let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 17) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 11) % 5) as f64 - 2.0).collect();
        let index = ZoneIndex::build(&["x", "y"], &[&x, &y]);
        let (cx, cy) = (index.column("x").unwrap(), index.column("y").unwrap());
        // The clustered copies are a permutation of the rows.
        let mut rows: Vec<(u64, u64)> = cx
            .iter()
            .zip(cy)
            .map(|(a, b)| (a.to_bits(), b.to_bits()))
            .collect();
        let mut want: Vec<(u64, u64)> = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a.to_bits(), b.to_bits()))
            .collect();
        rows.sort_unstable();
        want.sort_unstable();
        assert_eq!(rows, want);
        assert_eq!(
            (index.slot_of(cx), index.slot_of(cy), index.slot_of(&x)),
            (Some(0), Some(1), None)
        );
        // Every node's box holds its rows, children split their parent's
        // range, and leaves hold at most a tile and cover the table.
        let nodes = index.nodes();
        let mut leaf_rows = 0;
        for (i, z) in nodes.iter().enumerate() {
            for r in z.start..z.end {
                assert!((z.bounds[0].0..=z.bounds[0].1).contains(&cx[r]));
                assert!((z.bounds[1].0..=z.bounds[1].1).contains(&cy[r]));
            }
            if z.right == 0 {
                assert!(z.end - z.start <= TILE);
                leaf_rows += z.end - z.start;
            } else {
                let (l, r) = (&nodes[i + 1], &nodes[z.right]);
                assert_eq!(
                    (l.start, l.end, r.start, r.end),
                    (z.start, l.end, l.end, z.end)
                );
            }
        }
        assert_eq!(leaf_rows, n);
        assert!(index.bytes() >= 16 * n);
    }

    #[test]
    fn a_cell_holds_one_index_shared_by_clones() {
        let (x, y) = ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]);
        let cell = ZoneCell::default();
        let copy = cell.clone();
        assert_eq!(cell.bytes(), 0);
        let built = cell.get_or_build(&["x", "y"], &[&x, &y]).unwrap() as *const _;
        assert!(cell.bytes() > 0);
        // The same index however the columns are named; none for others,
        // and the one built stays.
        let again = copy.get_or_build(&["y", "x"], &[&y, &x]).unwrap();
        assert!(std::ptr::eq(built, again));
        assert!(copy.get_or_build(&["x"], &[&x]).is_none());
    }
}
