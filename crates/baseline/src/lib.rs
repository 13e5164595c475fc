//! # nexsort-baseline
//!
//! The comparison algorithms of the NEXSORT paper, built from scratch:
//!
//! * **Internal-memory recursive sort** ([`sort_dom`], [`sort_recs`]) -- the
//!   straw-man that assumes the document fits in memory, over owned trees.
//!   It is the oracle: NEXSORT sorts the subtrees that fit in memory as
//!   bytes (`nexsort_xml::EncodedForest`), and tests hold that byte-level
//!   sort to [`sort_recs`].
//! * **Key-path external merge sort** ([`sort_xml_extent`],
//!   [`external_merge_sort`]) -- the paper's baseline: annotate every record
//!   with its root-to-here key path (Table 1) and run a classic
//!   run-formation + k-way-merge external sort over the pathed records.
//! * **Deferred-key resolution** ([`resolve_deferred`]) -- the external
//!   stream-reversal pre-pass that makes complex (end-tag-resolved) ordering
//!   criteria usable with key-path sorting.

#![warn(missing_docs)]

mod docsort;
mod extsort;
mod internal;
mod resolve;
mod source;

pub use docsort::{sort_rec_extent, sort_xml_extent, BaselineOptions, BaselineSorted};
pub use extsort::{
    external_merge_sort, merge_pass, merge_pathed_runs, run_lens, run_to_recs, ExtSortReport,
    PathedArena,
};
pub use internal::{sort_dom, sort_recs, sorted_dom};
pub use resolve::resolve_deferred;
pub use source::{
    stage_input, stage_reader, stage_recs, unstage, ExtentRecSource, ParsedRecSource,
    PathedAdapter, PathedSource, RecSource, VecRecSource,
};
