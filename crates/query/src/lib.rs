//! # nexsort-query
//!
//! Query operators built on the NEXSORT substrate (run store, buffer pool,
//! write-ahead journal, parity repair) that answer questions a
//! full sort would over-answer:
//!
//! * [`TopK`] -- `ORDER BY ... LIMIT k` over an XML document. Reuses the
//!   NEXSORT scan + run-formation phases but keeps only the k best records
//!   per formed run (a bounded replacement-selection heap), prunes whole
//!   runs whose minimum key path exceeds the k-th bound, and stops merging
//!   after k outputs -- so logical I/O falls well below a full sort's when
//!   `k` is small. Checkpointed through the same journal protocol as a
//!   sort, so an interrupted top-k resumes from its last sealed phase.
//! * [`ExtPq`] -- an external priority queue backed by sealed insertion
//!   runs, for incremental/online sorted ingestion. Pushes batch into
//!   sorted runs; pops merge the run heads with the in-memory buffer
//!   lazily; consumed prefixes are tombstoned (not rewritten) and dropped
//!   at the next amortized restructuring merge. Wei & Yi's equivalence
//!   result says this costs what sorting costs -- and no more.

#![warn(missing_docs)]

mod extpq;
mod topk;

pub use extpq::{ExtPq, PqStats, ScriptError};
pub use topk::{TopK, TopKDoc, TopKReport};
