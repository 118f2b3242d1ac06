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
//! A mine builds one [`Table`] — the transposed table `TT` of its
//! dataset, held twice: item columns for the word-parallel scans and a
//! row-major item bitmap for the child filter. A [`BitsetNode`] is an
//! item list over that table. The paper's §3.3 builds the same tables
//! from conditional pointer lists; DESIGN.md §3 records why this
//! repository uses bitsets instead.

use farmer_dataset::{Dataset, ItemId, RowId};
use rowset::RowSet;

/// The transposed table `TT` of one mine, in the two layouts the search
/// reads.
///
/// * **Columns**: item `i`'s tuple `R({i})` as the words of a row
///   bitset, all items packed back to back in one flat `[u64]`. The node
///   scan sweeps these with [`RowSet::fused_scan`].
/// * **Row bitmap**: one `n_items`-bit row per dataset row, bit `i` set
///   iff the row holds item `i`. Building the child `TT|X ∪ {r}` keeps a
///   parent item with one bit test in row `r`'s bitmap, inside one
///   contiguous block, instead of a probe of the item's own column.
///
/// On the leukemia analog at ×0.05 (72 rows, 3,560 items) the bitmap
/// takes 32 KB; at the paper's full column count, 640 KB.
pub struct Table {
    n_rows: usize,
    n_items: usize,
    /// Words per column: `n_rows.div_ceil(64)`.
    col_words: usize,
    /// Column `i` is `columns[i * col_words..][..col_words]`.
    columns: Vec<u64>,
    /// Words per row bitmap: `n_items.div_ceil(64)`.
    row_words: usize,
    /// Row `r`'s bitmap is `rows[r * row_words..][..row_words]`.
    rows: Vec<u64>,
}

impl Table {
    /// Builds both layouts from `data` (already `ORD`-reordered when it
    /// is mined).
    pub fn new(data: &Dataset) -> Self {
        let (n_rows, n_items) = (data.n_rows(), data.n_items());
        let col_words = n_rows.div_ceil(64);
        let row_words = n_items.div_ceil(64);
        let mut columns = Vec::with_capacity(n_items * col_words);
        for i in 0..n_items as ItemId {
            columns.extend_from_slice(data.item_rows(i).words());
        }
        let mut rows = vec![0u64; n_rows * row_words];
        for r in 0..n_rows {
            for i in data.row(r as RowId).iter() {
                rows[r * row_words + i as usize / 64] |= 1 << (i % 64);
            }
        }
        Table {
            n_rows,
            n_items,
            col_words,
            columns,
            row_words,
            rows,
        }
    }

    /// Number of rows (the capacity of every column).
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of items (tuples).
    pub(crate) fn n_items(&self) -> usize {
        self.n_items
    }

    /// Item `item`'s tuple `R({item})`, as row-bitset words.
    #[inline]
    pub(crate) fn column(&self, item: ItemId) -> &[u64] {
        let start = item as usize * self.col_words;
        &self.columns[start..start + self.col_words]
    }

    /// Row `r`'s item bitmap: bit `i % 64` of word `i / 64` is set iff
    /// row `r` holds item `i`.
    #[inline]
    pub(crate) fn row(&self, r: RowId) -> &[u64] {
        let start = r as usize * self.row_words;
        &self.rows[start..start + self.row_words]
    }
}

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

/// A node's conditional table: the items `I(X)` whose tuples survive,
/// over the mine's [`Table`].
///
/// The node stores only *which* items survive; tuple contents are
/// **borrowed** from the table, so a single root can be shared by
/// reference across worker threads. A child costs one pass over the
/// current item list — a bit test per item in the child row's bitmap —
/// and no row copying. Scans are word-parallel over rows via the fused
/// [`RowSet::fused_scan`] kernel, which is the sweet spot for the
/// microarray shape (hundreds of rows, tens of thousands of items).
///
/// The `*_into` methods are the hot-path interface: they write into
/// caller-owned buffers (recycled by the miner's scratch arena) so
/// descending the tree performs no heap allocation. The allocating
/// [`inspect`](Self::inspect)/[`child`](Self::child) wrappers remain for
/// tests and one-shot callers.
#[derive(Clone)]
pub struct BitsetNode<'a> {
    table: &'a Table,
    items: Vec<ItemId>,
}

impl<'a> BitsetNode<'a> {
    /// Root node: every item of `table`.
    pub fn root(table: &'a Table) -> Self {
        BitsetNode {
            items: (0..table.n_items() as ItemId).collect(),
            table,
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
            table: self.table,
            items: Vec::new(),
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
            let t = self.table.column(i);
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
        let row = self.table.row(r);
        out.items.clear();
        out.items.extend(
            self.items
                .iter()
                .copied()
                .filter(|&i| row[i as usize / 64] & (1 << (i % 64)) != 0),
        );
        debug_assert!(
            !out.items.is_empty(),
            "child({r}) has no tuples; r was not a candidate"
        );
    }

    /// Allocating convenience wrapper over
    /// [`inspect_into`](Self::inspect_into).
    pub fn inspect(&self, e_p: &RowSet, e_n: &RowSet) -> Inspect {
        let mut out = Inspect::new(self.table.n_rows());
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
    use farmer_dataset::{paper_example, DatasetBuilder};

    #[test]
    fn root_and_child_items() {
        let d = paper_example();
        let table = Table::new(&d);
        let root = BitsetNode::root(&table);
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
        let table = Table::new(&d);
        let node = BitsetNode::root(&table).child(1).child(2); // I = {a,e,h}
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
        let table = Table::new(&d);
        let root = BitsetNode::root(&table);
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
        let table = Table::new(&d);
        let root = BitsetNode::root(&table);
        let e_p = RowSet::from_ids(5, [0, 1, 2]);
        let e_n = RowSet::from_ids(5, [3, 4]);
        let fresh = root.inspect(&e_p, &e_n);
        // refill a buffer left dirty by a different node's scan
        let mut buf = root.child(1).inspect(&e_p, &e_n);
        root.inspect_into(&e_p, &e_n, &mut buf);
        assert_eq!(buf, fresh);
    }

    /// Both layouts of the table hold the dataset: each column is the
    /// item's row set and each row bitmap is the row's item list. The
    /// second dataset's 70 rows and 140 items put both layouts across
    /// word boundaries.
    #[test]
    fn table_views_agree_with_dataset() {
        let mut b = DatasetBuilder::new(2);
        for r in 0..70u32 {
            let items = (0..140u32).filter(|i| (i * 7 + r * 3) % 11 < 3 || *i == 139);
            b.add_row(items, r % 2);
        }
        for d in [paper_example(), b.build()] {
            let table = Table::new(&d);
            assert_eq!(table.n_rows(), d.n_rows());
            assert_eq!(table.n_items(), d.n_items());
            for i in 0..d.n_items() as ItemId {
                assert_eq!(table.column(i), d.item_rows(i).words(), "column {i}");
            }
            for r in 0..d.n_rows() as RowId {
                let bitmap = table.row(r);
                assert_eq!(bitmap.len(), d.n_items().div_ceil(64));
                let held: Vec<ItemId> = (0..d.n_items() as ItemId)
                    .filter(|&i| bitmap[i as usize / 64] & (1 << (i % 64)) != 0)
                    .collect();
                assert_eq!(held, d.row(r).as_slice(), "row {r}");
            }
        }
    }
}
