//! Conditional transposed tables `TT|X` — the per-node state of the row
//! enumeration.
//!
//! A node of the enumeration tree is a row combination `X`; its
//! conditional transposed table holds the tuples (items) common to every
//! row of `X`, i.e. exactly `I(X)` (Definition 3.1). The search needs
//! three things from the table at each node, bundled in [`Inspect`]:
//!
//! * `z = R(I(X))` — every row occurring in all tuples (this gives the
//!   exact support counts and feeds pruning strategy 2);
//! * `u_p`/`u_n` — the enumeration candidates occurring in at least one
//!   tuple (candidates outside `u` lead to `I = ∅` nodes and are the
//!   "implicit pruning" of step 6);
//! * `max_ep_tuple` — the largest number of positive candidates found
//!   together in a single tuple, which yields the tight support bound
//!   `Us1` of pruning strategy 3.
//!
//! [`BitsetNode`] holds `TT|X` as the dataset's item-column row bitsets
//! and scans them word-parallel. The paper's §3.3 builds the same table
//! from conditional pointer lists; DESIGN.md §3 records why this
//! repository uses bitsets instead.

use farmer_dataset::{Dataset, ItemId, RowId};
use rowset::RowSet;

/// What a node scan reports about `TT|X`.
///
/// An `Inspect` doubles as a reusable buffer: the miner's scratch arena
/// keeps one per recursion depth and refills it through
/// [`BitsetNode::inspect_into`], so steady-state enumeration never
/// allocates for scan results. Construct fresh ones with
/// [`Inspect::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inspect {
    /// Rows occurring in **every** tuple: `R(I(X))`. When the table has
    /// no tuples (only possible at the root of an itemless dataset) this
    /// is the full row set by the empty-intersection convention.
    pub z: RowSet,
    /// Positive candidates occurring in at least one tuple.
    pub u_p: RowSet,
    /// Negative candidates occurring in at least one tuple.
    pub u_n: RowSet,
    /// `MAX(|EP ∩ t|)` over tuples `t` — the tight support headroom.
    pub max_ep_tuple: usize,
}

impl Inspect {
    /// An empty scan buffer over `n_rows` rows, ready for
    /// [`BitsetNode::inspect_into`].
    pub fn new(n_rows: usize) -> Self {
        Inspect {
            z: RowSet::empty(n_rows),
            u_p: RowSet::empty(n_rows),
            u_n: RowSet::empty(n_rows),
            max_ep_tuple: 0,
        }
    }
}

/// A node's conditional table, whose tuples are the per-item row bitsets
/// of the dataset.
///
/// The node only stores *which* items survive (`I(X)`); tuple contents
/// are **borrowed** from the dataset's own column store
/// ([`Dataset::item_row_sets`]), so building a root copies nothing and a
/// single root can be shared by reference across worker threads. A child
/// costs one pass over the current item list and no row copying. All
/// scans are word-parallel over rows via the fused
/// [`RowSet::fused_scan`] kernel, which is the sweet spot for the
/// microarray shape (hundreds of rows, tens of thousands of items).
///
/// The `*_into` methods are the hot-path interface: they write into
/// caller-owned buffers (recycled by the miner's scratch arena) so
/// descending the tree performs no heap allocation. The allocating
/// [`inspect`](Self::inspect)/[`child`](Self::child) wrappers remain for
/// tests and one-shot callers.
pub struct BitsetNode<'a> {
    tuples: &'a [RowSet],
    items: Vec<ItemId>,
    n_rows: usize,
}

impl<'a> BitsetNode<'a> {
    /// Root node: all items of the (already `ORD`-reordered) dataset,
    /// borrowing its column bitsets in place.
    pub fn root(data: &'a Dataset) -> Self {
        let tuples = data.item_row_sets();
        BitsetNode {
            items: (0..tuples.len() as ItemId).collect(),
            tuples,
            n_rows: data.n_rows(),
        }
    }

    /// `I(X)`: the items whose tuples survived into this table. At the
    /// root this is the full item universe (the root never emits a rule).
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// A node sharing this node's backing table but holding no items —
    /// a buffer for [`child_into`](Self::child_into).
    pub fn clone_shell(&self) -> Self {
        BitsetNode {
            tuples: self.tuples,
            items: Vec::new(),
            n_rows: self.n_rows,
        }
    }

    /// Scans the table, classifying the candidate rows into `out`.
    /// Every field of `out` is overwritten; its buffers are reused.
    pub fn inspect_into(&self, e_p: &RowSet, e_n: &RowSet, out: &mut Inspect) {
        // u_n doubles as the `occur` accumulator during the sweep; the
        // final u_p/u_n split happens once at the end.
        out.z.make_full();
        out.u_n.clear();
        let mut max_ep = 0usize;
        for &i in &self.items {
            let t = &self.tuples[i as usize];
            max_ep = max_ep.max(RowSet::fused_scan(&mut out.z, &mut out.u_n, t, e_p));
        }
        out.u_p.copy_from(&out.u_n);
        out.u_p.intersect_with(e_p);
        out.u_n.intersect_with(e_n);
        out.max_ep_tuple = max_ep;
    }

    /// Writes the table for `X ∪ {r}` into `out` (Lemma 3.3): keeps
    /// exactly the tuples containing `r`. `out` must share this node's
    /// backing table (i.e. originate from
    /// [`clone_shell`](Self::clone_shell) or a previous `child_into` in
    /// the same run).
    ///
    /// `r` must occur in at least one tuple (i.e. be in `u_p ∪ u_n` of
    /// the latest inspect).
    pub fn child_into(&self, r: RowId, out: &mut Self) {
        out.items.clear();
        out.items.extend(
            self.items
                .iter()
                .copied()
                .filter(|&i| self.tuples[i as usize].contains(r as usize)),
        );
        debug_assert!(
            !out.items.is_empty(),
            "child({r}) has no tuples; r was not a candidate"
        );
    }

    /// Allocating convenience wrapper over
    /// [`inspect_into`](Self::inspect_into).
    pub fn inspect(&self, e_p: &RowSet, e_n: &RowSet) -> Inspect {
        let mut out = Inspect::new(self.n_rows);
        self.inspect_into(e_p, e_n, &mut out);
        out
    }

    /// Allocating convenience wrapper over
    /// [`child_into`](Self::child_into).
    pub fn child(&self, r: RowId) -> Self {
        let mut out = self.clone_shell();
        self.child_into(r, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmer_dataset::paper_example;

    #[test]
    fn root_and_child_items() {
        let d = paper_example();
        let root = BitsetNode::root(&d);
        assert_eq!(root.items().len(), d.n_items());
        // child on row 1 (paper r2): items of r2 = {a,d,e,h,p,l,r}
        let c = root.child(1);
        let names: Vec<&str> = c.items().iter().map(|&i| d.item_name(i)).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec!["a", "d", "e", "h", "l", "p", "r"]);
        // grandchild {r2, r3}: I = {a,e,h}
        let g = c.child(2);
        let mut names: Vec<&str> = g.items().iter().map(|&i| d.item_name(i)).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "e", "h"]);
    }

    #[test]
    fn inspect_z_is_row_support_of_items() {
        let d = paper_example();
        let node = BitsetNode::root(&d).child(1).child(2); // I = {a,e,h}
        let e_p = RowSet::empty(5);
        let e_n = RowSet::from_ids(5, [3, 4]);
        let ins = node.inspect(&e_p, &e_n);
        // R({a,e,h}) = rows 1,2,3 (paper r2,r3,r4)
        assert_eq!(ins.z.to_vec(), vec![1, 2, 3]);
        // candidate row 3 occurs in all three tuples -> in u_n
        assert_eq!(ins.u_n.to_vec(), vec![3]);
        assert!(ins.u_p.is_empty());
        assert_eq!(ins.max_ep_tuple, 0);
    }

    #[test]
    fn inspect_counts_max_positive_tuple() {
        let d = paper_example();
        let root = BitsetNode::root(&d);
        let e_p = RowSet::from_ids(5, [0, 1, 2]);
        let e_n = RowSet::from_ids(5, [3, 4]);
        let ins = root.inspect(&e_p, &e_n);
        // tuple 'a' holds rows {0,1,2,3}: three positive candidates
        assert_eq!(ins.max_ep_tuple, 3);
        // every row has at least one item
        assert_eq!(ins.u_p.len(), 3);
        assert_eq!(ins.u_n.len(), 2);
        // no row contains every item
        assert!(ins.z.is_empty());
    }

    #[test]
    fn inspect_into_reuses_dirty_buffers() {
        let d = paper_example();
        let root = BitsetNode::root(&d);
        let e_p = RowSet::from_ids(5, [0, 1, 2]);
        let e_n = RowSet::from_ids(5, [3, 4]);
        let fresh = root.inspect(&e_p, &e_n);
        // refill a buffer left dirty by a different node's scan
        let mut buf = root.child(1).inspect(&e_p, &e_n);
        root.inspect_into(&e_p, &e_n, &mut buf);
        assert_eq!(buf, fresh);
    }

    #[test]
    fn root_borrows_dataset_columns() {
        let d = paper_example();
        let root = BitsetNode::root(&d);
        assert!(std::ptr::eq(
            root.tuples.as_ptr(),
            d.item_row_sets().as_ptr()
        ));
    }
}
