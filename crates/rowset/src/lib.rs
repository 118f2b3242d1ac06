//! Compact set representations over small integer identifiers.
//!
//! Row-enumeration miners such as FARMER and CARPENTER, and vertical
//! column-enumeration miners such as CHARM, spend almost all of their time
//! intersecting, unioning, and subset-testing sets of row identifiers.
//! Microarray datasets have at most a few thousand rows, so a fixed-capacity
//! bitset ([`RowSet`]) with word-parallel operations is the natural
//! representation for the row side, while sorted id lists ([`IdList`]) with
//! merge-based operations serve the (much wider) item side where sets are
//! sparse relative to their universe.
//!
//! Both types are deliberately simple value types: cloning is explicit,
//! there is no interior mutability, and every operation documents its
//! complexity in terms of the capacity `n` (for [`RowSet`]) or the lengths
//! of the operands (for [`IdList`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod idlist;

pub use bitset::{FromWordsError, RowSet, RowSetIter, RowSetRuns};
pub use idlist::{is_subset_sorted, IdList};
