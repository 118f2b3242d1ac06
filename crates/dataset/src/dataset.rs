//! The discretized, class-labeled transactional dataset.

use rowset::{IdList, RowSet};
use std::collections::HashMap;
use std::fmt;

/// Identifier of an item (a discretized gene-expression interval, or any
/// other binary attribute). Dense, starting at 0.
pub type ItemId = u32;

/// Identifier of a row (a sample). Dense, starting at 0.
pub type RowId = u32;

/// Identifier of a class label. Dense, starting at 0. The paper's datasets
/// are all two-class; the mining API targets one class `C` and treats the
/// rest as `¬C`, so any number of classes is supported.
pub type ClassLabel = u32;

/// A dataset `D`: rows over a common item universe, each row carrying a
/// class label.
///
/// Rows hold their items as sorted [`IdList`]s. The inverted view —
/// which rows contain a given item, as a [`RowSet`] — is precomputed at
/// build time because every miner consumes it.
///
/// Use [`DatasetBuilder`] to construct one; [`Dataset`] itself is
/// immutable.
#[derive(Clone)]
pub struct Dataset {
    rows: Vec<IdList>,
    labels: Vec<ClassLabel>,
    n_classes: u32,
    /// `item_rows[i]` = R({i}): the rows containing item `i`.
    item_rows: Vec<RowSet>,
    /// Optional display names, parallel to item ids.
    item_names: Vec<String>,
    /// Optional display names for classes.
    class_names: Vec<String>,
}

impl Dataset {
    /// Number of rows (samples).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct items in the universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.item_rows.len()
    }

    /// Number of class labels.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.n_classes as usize
    }

    /// The items of row `r`, sorted ascending.
    #[inline]
    pub fn row(&self, r: RowId) -> &IdList {
        &self.rows[r as usize]
    }

    /// The class label of row `r`.
    #[inline]
    pub fn label(&self, r: RowId) -> ClassLabel {
        self.labels[r as usize]
    }

    /// All labels, indexed by row id.
    #[inline]
    pub fn labels(&self) -> &[ClassLabel] {
        &self.labels
    }

    /// `R({item})`: the set of rows containing `item`.
    #[inline]
    pub fn item_rows(&self, item: ItemId) -> &RowSet {
        &self.item_rows[item as usize]
    }

    /// Support of a single item: `|R({item})|`.
    #[inline]
    pub fn item_support(&self, item: ItemId) -> usize {
        self.item_rows[item as usize].len()
    }

    /// Number of rows labeled `c`.
    pub fn class_count(&self, c: ClassLabel) -> usize {
        self.labels.iter().filter(|&&l| l == c).count()
    }

    /// The set of rows labeled `c`.
    pub fn class_rows(&self, c: ClassLabel) -> RowSet {
        RowSet::from_ids(
            self.n_rows(),
            self.labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == c)
                .map(|(r, _)| r),
        )
    }

    /// The display name of an item (synthesized as `i<k>` if none was given).
    pub fn item_name(&self, item: ItemId) -> &str {
        &self.item_names[item as usize]
    }

    /// The display name of a class (synthesized as `c<k>` if none was given).
    pub fn class_name(&self, c: ClassLabel) -> &str {
        &self.class_names[c as usize]
    }

    /// Looks up an item id by display name.
    pub fn item_by_name(&self, name: &str) -> Option<ItemId> {
        self.item_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as ItemId)
    }

    /// `R(I')`: the largest set of rows that contain every item of `items`.
    ///
    /// Computed by intersecting per-item row sets; `O(|items| · n/64)`.
    /// `R(∅)` is the full row set by convention.
    pub fn rows_supporting(&self, items: &IdList) -> RowSet {
        let mut out = RowSet::full(self.n_rows());
        for i in items.iter() {
            out.intersect_with(&self.item_rows[i as usize]);
        }
        out
    }

    /// `I(R')`: the largest set of items common to every row of `rows`.
    ///
    /// `I(∅)` is the empty itemset by convention (not the item universe):
    /// this matches what every caller in the miners wants at the
    /// enumeration root.
    pub fn items_common_to(&self, rows: &RowSet) -> IdList {
        let mut it = rows.iter();
        let Some(first) = it.next() else {
            return IdList::new();
        };
        let mut acc = self.rows[first].clone();
        for r in it {
            acc = acc.intersection(&self.rows[r]);
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// Support of an itemset together with a class: `|R(items ∪ {c})|`.
    pub fn support_with_class(&self, items: &IdList, c: ClassLabel) -> usize {
        self.rows_supporting(items)
            .iter()
            .filter(|&r| self.labels[r] == c)
            .count()
    }

    /// Returns a copy of this dataset with the rows permuted so that rows
    /// labeled `target` come first (FARMER's `ORD` order), preserving the
    /// original relative order within each group (stable partition).
    ///
    /// Returns `(reordered dataset, old_id_of)` where `old_id_of[new]`
    /// gives the original row id, so mined results can be mapped back.
    pub fn reordered_for_class(&self, target: ClassLabel) -> (Dataset, Vec<RowId>) {
        let mut order: Vec<RowId> = (0..self.n_rows() as RowId).collect();
        order.sort_by_key(|&r| (self.labels[r as usize] != target, r));
        let d = self.permuted(&order);
        (d, order)
    }

    /// Returns a copy with rows permuted by `order` (`order[new] = old`).
    pub fn permuted(&self, order: &[RowId]) -> Dataset {
        assert_eq!(order.len(), self.n_rows());
        let rows: Vec<IdList> = order
            .iter()
            .map(|&o| self.rows[o as usize].clone())
            .collect();
        let labels: Vec<ClassLabel> = order.iter().map(|&o| self.labels[o as usize]).collect();
        let item_rows = build_item_rows(&rows, self.n_items());
        Dataset {
            rows,
            labels,
            n_classes: self.n_classes,
            item_rows,
            item_names: self.item_names.clone(),
            class_names: self.class_names.clone(),
        }
    }

    /// Returns a copy of this dataset with `new_rows` appended at the
    /// end, keeping every existing row id stable. This is the merge step
    /// of streaming ingest: the item universe and class set are fixed by
    /// the base dataset, so each new row must reference known item ids
    /// and labels — anything else is rejected with a message rather
    /// than a panic, because journal rows are untrusted input.
    ///
    /// The inverted per-item row sets are extended in place
    /// ([`RowSet::grow`] + inserts) instead of rebuilt, so appending a
    /// small delta costs `O(n_items · n/64 + |delta|)` for the clone,
    /// not a full re-scan of every base row.
    pub fn appended(&self, new_rows: &[(IdList, ClassLabel)]) -> Result<Dataset, String> {
        let n_total = self.n_rows() + new_rows.len();
        for (k, (items, label)) in new_rows.iter().enumerate() {
            check_row(items.as_slice(), *label, self.n_items(), self.n_classes())
                .map_err(|e| format!("appended row {k}: {e}"))?;
        }
        let mut rows = self.rows.clone();
        let mut labels = self.labels.clone();
        let mut item_rows = self.item_rows.clone();
        for s in &mut item_rows {
            s.grow(n_total);
        }
        for (items, label) in new_rows {
            let r = rows.len();
            for i in items.iter() {
                item_rows[i as usize].insert(r);
            }
            rows.push(items.clone());
            labels.push(*label);
        }
        Ok(Dataset {
            rows,
            labels,
            n_classes: self.n_classes,
            item_rows,
            item_names: self.item_names.clone(),
            class_names: self.class_names.clone(),
        })
    }

    /// Returns a copy keeping only the items in `keep`, a set of item
    /// ids: each row loses the items outside it, and their columns
    /// become empty. Row ids, labels, item ids and names are unchanged,
    /// so anything mined on the copy reads the same on `self`.
    pub fn projected(&self, keep: &RowSet) -> Dataset {
        let rows = self
            .rows
            .iter()
            .map(|r| IdList::from_sorted(r.iter().filter(|&i| keep.contains(i as usize)).collect()))
            .collect();
        let item_rows = self
            .item_rows
            .iter()
            .enumerate()
            .map(|(i, col)| {
                if keep.contains(i) {
                    col.clone()
                } else {
                    RowSet::empty(self.n_rows())
                }
            })
            .collect();
        Dataset {
            rows,
            labels: self.labels.clone(),
            n_classes: self.n_classes,
            item_rows,
            item_names: self.item_names.clone(),
            class_names: self.class_names.clone(),
        }
    }

    /// Total number of (row, item) incidences; a size measure used in
    /// reporting.
    pub fn n_incidences(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }

    /// Average row length.
    pub fn avg_row_len(&self) -> f64 {
        if self.rows.is_empty() {
            0.0
        } else {
            self.n_incidences() as f64 / self.n_rows() as f64
        }
    }

    /// Splits into `(train, test)` by row index: the first `n_train` rows
    /// go to train, the rest to test. Use after shuffling (see
    /// [`crate::replicate::shuffled`]) for random splits.
    pub fn split_at(&self, n_train: usize) -> (Dataset, Dataset) {
        assert!(n_train <= self.n_rows());
        let train_order: Vec<RowId> = (0..n_train as RowId).collect();
        let test_order: Vec<RowId> = (n_train as RowId..self.n_rows() as RowId).collect();
        (self.subset(&train_order), self.subset(&test_order))
    }

    /// Dataset restricted to the given rows (in the given order).
    pub fn subset(&self, rows: &[RowId]) -> Dataset {
        let sel_rows: Vec<IdList> = rows
            .iter()
            .map(|&o| self.rows[o as usize].clone())
            .collect();
        let labels: Vec<ClassLabel> = rows.iter().map(|&o| self.labels[o as usize]).collect();
        let item_rows = build_item_rows(&sel_rows, self.n_items());
        Dataset {
            rows: sel_rows,
            labels,
            n_classes: self.n_classes,
            item_rows,
            item_names: self.item_names.clone(),
            class_names: self.class_names.clone(),
        }
    }
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dataset")
            .field("n_rows", &self.n_rows())
            .field("n_items", &self.n_items())
            .field("n_classes", &self.n_classes())
            .finish()
    }
}

/// Checks one untrusted row against the dictionaries of a dataset with
/// `n_items` items and `n_classes` classes: the label must name a
/// class, and the item ids must be strictly ascending and name items.
/// Every door a new row comes through runs it: `farmer ingest`, the
/// server's ingest endpoint, each journal record a streaming pipeline
/// reads, and [`Dataset::appended`].
pub fn check_row(
    items: &[ItemId],
    label: ClassLabel,
    n_items: usize,
    n_classes: usize,
) -> Result<(), String> {
    if label as usize >= n_classes {
        return Err(format!(
            "label {label} out of range (dataset has {n_classes} classes)"
        ));
    }
    if items.windows(2).any(|w| w[1] <= w[0]) {
        return Err("item ids must be strictly ascending".to_string());
    }
    match items.last() {
        Some(&m) if m as usize >= n_items => Err(format!(
            "item id {m} out of range (dataset has {n_items} items)"
        )),
        _ => Ok(()),
    }
}

fn build_item_rows(rows: &[IdList], n_items: usize) -> Vec<RowSet> {
    let mut item_rows = vec![RowSet::empty(rows.len()); n_items];
    for (r, items) in rows.iter().enumerate() {
        for i in items.iter() {
            item_rows[i as usize].insert(r);
        }
    }
    item_rows
}

/// Incremental builder for [`Dataset`].
///
/// Items may be added either by pre-assigned dense id
/// ([`add_row`](Self::add_row)) or by display name with automatic
/// interning ([`add_row_named`](Self::add_row_named)); the two styles must
/// not be mixed in one builder.
pub struct DatasetBuilder {
    rows: Vec<IdList>,
    labels: Vec<ClassLabel>,
    n_classes: u32,
    names: Vec<String>,
    by_name: HashMap<String, ItemId>,
    max_item: Option<ItemId>,
    named_mode: Option<bool>,
    class_names: Vec<String>,
}

impl DatasetBuilder {
    /// Creates a builder for a dataset with `n_classes` class labels.
    pub fn new(n_classes: u32) -> Self {
        assert!(n_classes >= 1, "need at least one class");
        DatasetBuilder {
            rows: Vec::new(),
            labels: Vec::new(),
            n_classes,
            names: Vec::new(),
            by_name: HashMap::new(),
            max_item: None,
            named_mode: None,
            class_names: (0..n_classes).map(|c| format!("c{c}")).collect(),
        }
    }

    /// Overrides the display names of the classes.
    pub fn class_names<S: Into<String>>(
        &mut self,
        names: impl IntoIterator<Item = S>,
    ) -> &mut Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert_eq!(names.len(), self.n_classes as usize);
        self.class_names = names;
        self
    }

    /// Adds a row given dense item ids and a label. Returns the new row id.
    pub fn add_row<I: IntoIterator<Item = ItemId>>(
        &mut self,
        items: I,
        label: ClassLabel,
    ) -> RowId {
        assert_ne!(
            self.named_mode,
            Some(true),
            "builder already used named items"
        );
        self.named_mode = Some(false);
        assert!(label < self.n_classes, "label {label} out of range");
        let list = IdList::from_iter(items);
        if let Some(&m) = list.as_slice().last() {
            self.max_item = Some(self.max_item.map_or(m, |c| c.max(m)));
        }
        self.rows.push(list);
        self.labels.push(label);
        (self.rows.len() - 1) as RowId
    }

    /// Adds a row given item display names (interned on first use) and a
    /// label. Returns the new row id.
    pub fn add_row_named(&mut self, items: &[&str], label: ClassLabel) -> RowId {
        assert_ne!(
            self.named_mode,
            Some(false),
            "builder already used dense item ids"
        );
        self.named_mode = Some(true);
        assert!(label < self.n_classes, "label {label} out of range");
        let ids: Vec<ItemId> = items
            .iter()
            .map(|&n| match self.by_name.get(n) {
                Some(&id) => id,
                None => {
                    let id = self.names.len() as ItemId;
                    self.names.push(n.to_string());
                    self.by_name.insert(n.to_string(), id);
                    id
                }
            })
            .collect();
        self.rows.push(IdList::from_iter(ids));
        self.labels.push(label);
        (self.rows.len() - 1) as RowId
    }

    /// Pre-registers an item name without adding a row (useful to fix the
    /// item-id order).
    pub fn intern_item(&mut self, name: &str) -> ItemId {
        assert_ne!(
            self.named_mode,
            Some(false),
            "builder already used dense item ids"
        );
        self.named_mode = Some(true);
        match self.by_name.get(name) {
            Some(&id) => id,
            None => {
                let id = self.names.len() as ItemId;
                self.names.push(name.to_string());
                self.by_name.insert(name.to_string(), id);
                id
            }
        }
    }

    /// Finalizes the dataset.
    pub fn build(self) -> Dataset {
        let n_items = if self.named_mode == Some(true) {
            self.names.len()
        } else {
            self.max_item.map_or(0, |m| m as usize + 1)
        };
        let item_names = if self.named_mode == Some(true) {
            self.names
        } else {
            (0..n_items).map(|i| format!("i{i}")).collect()
        };
        let item_rows = build_item_rows(&self.rows, n_items);
        Dataset {
            rows: self.rows,
            labels: self.labels,
            n_classes: self.n_classes,
            item_rows,
            item_names,
            class_names: self.class_names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        // rows: {0,1,2}/c0, {1,2,3}/c0, {2,3,4}/c1
        let mut b = DatasetBuilder::new(2);
        b.add_row([0, 1, 2], 0);
        b.add_row([1, 2, 3], 0);
        b.add_row([2, 3, 4], 1);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let d = tiny();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_items(), 5);
        assert_eq!(d.row(0).as_slice(), &[0, 1, 2]);
        assert_eq!(d.label(2), 1);
        assert_eq!(d.item_support(2), 3);
        assert_eq!(d.item_rows(0).to_vec(), vec![0]);
        assert_eq!(d.class_count(0), 2);
        assert_eq!(d.class_rows(1).to_vec(), vec![2]);
        assert_eq!(d.n_incidences(), 9);
        assert!((d.avg_row_len() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn r_and_i_operators() {
        let d = tiny();
        let items = IdList::from_iter([1, 2]);
        assert_eq!(d.rows_supporting(&items).to_vec(), vec![0, 1]);
        let rows = RowSet::from_ids(3, [0, 1]);
        assert_eq!(d.items_common_to(&rows).as_slice(), &[1, 2]);
        // conventions at the empty set
        assert_eq!(d.rows_supporting(&IdList::new()).len(), 3);
        assert!(d.items_common_to(&RowSet::empty(3)).is_empty());
    }

    #[test]
    fn galois_connection() {
        // I(R(I(X))) == I(X) for any row set X: closure is idempotent.
        let d = crate::paper_example();
        for rows in [[0usize, 1].as_slice(), &[1, 2], &[1, 2, 3], &[0, 4], &[2]] {
            let x = RowSet::from_ids(d.n_rows(), rows.iter().copied());
            let i_x = d.items_common_to(&x);
            let r_i_x = d.rows_supporting(&i_x);
            assert!(x.is_subset(&r_i_x));
            assert_eq!(d.items_common_to(&r_i_x), i_x);
        }
    }

    #[test]
    fn paper_example_r_i() {
        // Example 1 of the paper: R({a,e,h}) = {r2,r3,r4} (0-based: 1,2,3),
        // I({r2,r3}) = {a,e,h}.
        let d = crate::paper_example();
        let aeh = IdList::from_iter(["a", "e", "h"].iter().map(|n| d.item_by_name(n).unwrap()));
        assert_eq!(d.rows_supporting(&aeh).to_vec(), vec![1, 2, 3]);
        let r23 = RowSet::from_ids(5, [1, 2]);
        let common = d.items_common_to(&r23);
        let names: Vec<&str> = common.iter().map(|i| d.item_name(i)).collect();
        assert_eq!(names, vec!["a", "e", "h"]);
    }

    #[test]
    fn reorder_for_class() {
        let mut b = DatasetBuilder::new(2);
        b.add_row([0], 1);
        b.add_row([1], 0);
        b.add_row([2], 1);
        b.add_row([3], 0);
        let d = b.build();
        let (r, order) = d.reordered_for_class(0);
        assert_eq!(r.labels(), &[0, 0, 1, 1]);
        assert_eq!(order, vec![1, 3, 0, 2]);
        // row content follows the permutation
        assert_eq!(r.row(0).as_slice(), &[1]);
        assert_eq!(r.row(2).as_slice(), &[0]);
        // item_rows rebuilt consistently
        assert_eq!(r.item_rows(0).to_vec(), vec![2]);
    }

    #[test]
    fn subset_and_split() {
        let d = tiny();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0).as_slice(), &[2, 3, 4]);
        assert_eq!(s.label(1), 0);
        let (tr, te) = d.split_at(2);
        assert_eq!(tr.n_rows(), 2);
        assert_eq!(te.n_rows(), 1);
        assert_eq!(te.label(0), 1);
    }

    #[test]
    fn appended_extends_rows_and_inverted_sets() {
        let d = tiny();
        let delta = vec![
            (IdList::from_iter([0, 2, 4]), 1),
            (IdList::from_iter([1]), 0),
        ];
        let m = d.appended(&delta).unwrap();
        assert_eq!(m.n_rows(), 5);
        assert_eq!(m.n_items(), 5);
        // base rows keep their ids and content
        assert_eq!(m.row(0).as_slice(), d.row(0).as_slice());
        assert_eq!(m.label(2), 1);
        // appended rows land at the end
        assert_eq!(m.row(3).as_slice(), &[0, 2, 4]);
        assert_eq!(m.label(3), 1);
        assert_eq!(m.row(4).as_slice(), &[1]);
        // inverted sets grew and match a from-scratch rebuild
        assert_eq!(m.item_rows(2).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(m.item_rows(4).to_vec(), vec![2, 3]);
        let mut b = DatasetBuilder::new(2);
        for r in 0..m.n_rows() {
            b.add_row(m.row(r as RowId).iter(), m.label(r as RowId));
        }
        let rebuilt = b.build();
        for i in 0..m.n_items() {
            assert_eq!(
                m.item_rows(i as ItemId).to_vec(),
                rebuilt.item_rows(i as ItemId).to_vec(),
                "item {i}"
            );
        }
    }

    #[test]
    fn check_row_names_what_does_not_fit() {
        assert_eq!(check_row(&[0, 4], 1, 5, 2), Ok(()));
        assert_eq!(check_row(&[], 0, 5, 2), Ok(()));
        let err = |items: &[ItemId], label| check_row(items, label, 5, 2).unwrap_err();
        assert_eq!(err(&[0], 2), "label 2 out of range (dataset has 2 classes)");
        assert_eq!(err(&[5], 0), "item id 5 out of range (dataset has 5 items)");
        assert_eq!(err(&[2, 1], 0), "item ids must be strictly ascending");
        assert_eq!(err(&[1, 1], 0), "item ids must be strictly ascending");
    }

    #[test]
    fn appended_rejects_unknown_items_and_labels() {
        let d = tiny();
        let bad_item = vec![(IdList::from_iter([5]), 0)];
        assert!(d.appended(&bad_item).unwrap_err().contains("item id 5"));
        let bad_label = vec![(IdList::from_iter([0]), 2)];
        assert!(d.appended(&bad_label).unwrap_err().contains("label 2"));
        // an empty delta is a plain copy
        let same = d.appended(&[]).unwrap();
        assert_eq!(same.n_rows(), d.n_rows());
    }

    #[test]
    fn support_with_class() {
        let d = tiny();
        let items = IdList::from_iter([2]);
        assert_eq!(d.support_with_class(&items, 0), 2);
        assert_eq!(d.support_with_class(&items, 1), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        DatasetBuilder::new(2).add_row([0], 2);
    }

    #[test]
    #[should_panic(expected = "already used")]
    fn mixed_builder_modes_panic() {
        let mut b = DatasetBuilder::new(1);
        b.add_row([0], 0);
        b.add_row_named(&["x"], 0);
    }
}
