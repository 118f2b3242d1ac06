//! Microarray-style dataset substrate for rule-group mining.
//!
//! This crate provides everything the miners need below the algorithm
//! level:
//!
//! * [`Dataset`] — a discretized, class-labeled transactional table with
//!   *few rows and many items*, the shape FARMER is designed for. Its
//!   item-major view ([`Dataset::item_row_sets`], one row bitset per
//!   item) is the transposed table that FARMER's row enumeration scans;
//! * [`ExpressionMatrix`] — the raw real-valued gene-expression view, plus
//!   [`discretize`] strategies (equal-depth, equal-width, and the
//!   Fayyad–Irani entropy/MDL method the paper uses for its classifiers)
//!   that turn it into a [`Dataset`];
//! * [`synth`] — synthetic microarray generation mirroring the shapes of
//!   the paper's five clinical datasets (Table 1), used here in place of
//!   the proprietary originals;
//! * [`io`] — plain-text loaders/savers so real expression data can be
//!   dropped in;
//! * [`replicate`] — the ×k row-replication used by the paper's
//!   scalability experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arff;
mod dataset;
pub mod discretize;
pub mod io;
mod matrix;
pub mod replicate;
pub mod select;
pub mod synth;

pub use dataset::{ClassLabel, Dataset, DatasetBuilder, ItemId, RowId};
pub use matrix::ExpressionMatrix;

/// The running example of the paper (Figure 1(a)): five rows over items
/// `a..=t`, rows 1–3 labeled class `C` (label 0 here), rows 4–5 labeled
/// `¬C` (label 1).
///
/// Item names are single letters; e.g. item `a` appears in rows 1,2,3,4.
/// Row ids here are zero-based (`r1` in the paper is row 0 here).
pub fn paper_example() -> Dataset {
    let mut b = DatasetBuilder::new(2);
    b.add_row_named(&["a", "b", "c", "l", "o", "s"], 0);
    b.add_row_named(&["a", "d", "e", "h", "p", "l", "r"], 0);
    b.add_row_named(&["a", "c", "e", "h", "o", "q", "t"], 0);
    b.add_row_named(&["a", "e", "f", "h", "p", "r"], 1);
    b.add_row_named(&["b", "d", "f", "g", "l", "q", "s", "t"], 1);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_shape() {
        let d = paper_example();
        assert_eq!(d.n_rows(), 5);
        // distinct items: a,b,c,d,e,f,g,h,l,o,p,q,r,s,t
        assert_eq!(d.n_items(), 15);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.class_count(0), 3);
        assert_eq!(d.class_count(1), 2);
    }
}
