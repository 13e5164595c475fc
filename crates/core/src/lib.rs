//! # nexsort
//!
//! A from-scratch reproduction of **NEXSORT** (Silberstein & Yang, *NEXSORT:
//! Sorting XML in External Memory*, ICDE 2004): an I/O-efficient,
//! structure-aware algorithm that fully sorts an XML document -- ordering
//! the children of *every* non-leaf element by a user-supplied criterion --
//! in external memory.
//!
//! The algorithm scans the document once, detecting complete subtrees; any
//! subtree larger than a threshold `t` is sorted into an on-disk *run* and
//! collapsed to a pointer, so no merging of partial results is ever needed
//! for complete subtrees. The output phase streams the resulting tree of
//! runs depth-first. Total cost is
//! `O(n + n log_m(min{kt, N}/B))` block transfers (Theorem 4.5), within a
//! constant factor of the problem's lower bound (Theorem 4.4) and
//! asymptotically below flat external merge sort whenever the document is
//! not nearly flat.
//!
//! ```
//! use nexsort::{Nexsort, NexsortOptions};
//! use nexsort_extmem::Disk;
//! use nexsort_xml::{KeyRule, SortSpec};
//!
//! let disk = Disk::new_mem(4096);
//! let doc = br#"<staff><emp ID="9"/><emp ID="3"/></staff>"#;
//! let input = nexsort_baseline::stage_input(&disk, doc).unwrap();
//! let spec = SortSpec::uniform(KeyRule::attr_numeric("ID"));
//! let sorter = Nexsort::new(disk, NexsortOptions::default(), spec).unwrap();
//! let sorted = sorter.sort_xml_extent(&input).unwrap();
//! let xml = String::from_utf8(sorted.to_xml(false).unwrap()).unwrap();
//! assert_eq!(xml, r#"<staff><emp ID="3"></emp><emp ID="9"></emp></staff>"#);
//! ```

#![warn(missing_docs)]
// Failures surface as `ExtError`/`SortFailure`, never as a panic: the
// fault-injection and crash suites' recovery guarantees depend on it. Test
// code may unwrap freely.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod analysis;
mod checkpoint;
mod degenerate;
mod failure;
mod options;
mod output;
mod report;
mod sorter;
mod subtree;

pub use checkpoint::{journal_stats, restore_report, seal_records, seal_records_except};
pub use failure::{FailureCategory, SortFailure};
pub use options::{journal_blocks, NexsortOptions};
pub use output::{DocCursor, OutputReport, SortedDoc};
pub use report::SortReport;
pub use sorter::{is_beyond_parity, Nexsort};
