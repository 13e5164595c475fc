//! # nexsort-merge
//!
//! The applications that motivate sorting XML (Section 1 of the paper),
//! built on top of sorted documents:
//!
//! * [`StructuralMerge`] -- the XML analogue of a sort-merge (outer) join:
//!   one synchronized pass over two documents sorted under the same
//!   criterion combines matching elements level by level (Example 1.1 /
//!   Figure 1);
//! * [`BatchUpdate`] -- applying a sorted batch of insert/merge/replace/
//!   delete operations to a sorted document in one pass, keeping the result
//!   sorted;
//! * [`annotate_order`] / [`restore_order`] -- the sequence-number trick
//!   that preserves original document order across a sort + merge pipeline.

#![warn(missing_docs)]

mod cursor;
mod merge;
mod seqnum;
mod update;
mod walk;

pub use merge::{merge_rec_vecs, MergeStats, StructuralMerge};
pub use seqnum::{annotate_order, restore_order, SEQ_ATTR};
pub use update::{BatchUpdate, UpdateStats};
