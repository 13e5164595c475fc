//! Glue between the sorter and the extmem write-ahead journal.
//!
//! The journal speaks in run tokens, block lists, and a small fixed counter
//! set ([`JournalStats`]); the sorter speaks in [`RunId`]s and a
//! [`SortReport`]. This module owns the (mechanical) translation so the
//! checkpoint sites in `sorter.rs` / `degenerate.rs` stay readable:
//!
//! * [`seal_records`] turns every non-empty run in a store into the
//!   `RunSealed` batch a phase checkpoint commits;
//! * [`journal_stats`] / [`restore_report`] round-trip the progress counters
//!   that ride inside `ScanDone` / `SortDone`, so a resumed sort reports the
//!   totals of the whole document, not just the work it redid.
//!
//! The helpers are public: operator crates built on the same run store
//! (e.g. `nexsort-query`'s top-k) reuse the journal protocol verbatim, and
//! these are the only glue they need.

use nexsort_extmem::{JournalRecord, JournalStats, RunId, RunStore};
use nexsort_xml::Result;

use crate::report::SortReport;

/// Snapshot the report counters that a phase seal carries. Fan-out is
/// clamped into the journal's `u32` (a fan-out beyond 4 billion children is
/// outside any input this reproduction handles).
pub fn journal_stats(report: &SortReport) -> JournalStats {
    JournalStats {
        n_records: report.n_records,
        input_bytes: report.input_bytes,
        max_level: report.max_level,
        max_fanout: u32::try_from(report.max_fanout).unwrap_or(u32::MAX),
        incomplete_runs: report.incomplete_runs,
        subtree_sorts: report.subtree_sorts,
        degenerate_merges: report.degenerate_merges,
    }
}

/// Fold journalled counters back into a fresh report on resume. Counters
/// the journal does not carry (per-sort byte sums, internal/external split)
/// stay at zero; they describe work the resumed process never ran.
pub fn restore_report(stats: &JournalStats, report: &mut SortReport) {
    report.n_records = stats.n_records;
    report.input_bytes = stats.input_bytes;
    report.max_level = stats.max_level;
    report.max_fanout = u64::from(stats.max_fanout);
    report.incomplete_runs = stats.incomplete_runs;
    report.subtree_sorts = stats.subtree_sorts;
    report.degenerate_merges = stats.degenerate_merges;
}

/// `RunSealed` records for every non-empty run in the store. Discarded and
/// never-finished runs hold empty extents and are skipped; their tokens stay
/// reserved so surviving pointer records keep resolving.
pub fn seal_records(store: &RunStore) -> Result<Vec<JournalRecord>> {
    seal_records_except(store, &[])
}

/// [`seal_records`], skipping the tokens in `skip` -- runs whose discard is
/// being journalled in the same batch must not be re-sealed, or a later
/// replay would resurrect them as live.
pub fn seal_records_except(store: &RunStore, skip: &[u32]) -> Result<Vec<JournalRecord>> {
    let mut recs = Vec::new();
    for token in 0..store.num_runs() {
        if skip.contains(&token) {
            continue;
        }
        let ext = store.extent_of(RunId(token))?;
        if ext.is_empty() && ext.blocks().is_empty() {
            continue;
        }
        recs.push(store.seal_record(RunId(token))?);
    }
    Ok(recs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_extmem::{ByteSink, Disk, IoCat, MemoryBudget};

    #[test]
    fn stats_round_trip_through_the_journal_form() {
        let mut report = SortReport::new(64, 16, 128);
        report.n_records = 7;
        report.input_bytes = 900;
        report.max_level = 4;
        report.max_fanout = 12;
        report.incomplete_runs = 3;
        report.subtree_sorts = 2;
        report.degenerate_merges = 1;
        let mut back = SortReport::new(64, 16, 128);
        restore_report(&journal_stats(&report), &mut back);
        assert_eq!(back.n_records, 7);
        assert_eq!(back.input_bytes, 900);
        assert_eq!(back.max_level, 4);
        assert_eq!(back.max_fanout, 12);
        assert_eq!(back.incomplete_runs, 3);
        assert_eq!(back.subtree_sorts, 2);
        assert_eq!(back.degenerate_merges, 1);
    }

    #[test]
    fn seal_records_skips_discarded_runs_but_keeps_their_tokens() {
        let disk = Disk::new_mem(32);
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk);
        for fill in [b'a', b'b', b'c'] {
            let mut w = store.create(&budget, IoCat::SortScratch).unwrap();
            w.write_all(&[fill; 40]).unwrap();
            w.finish().unwrap();
        }
        store.discard(RunId(1)).unwrap();
        let recs = seal_records(&store).unwrap();
        let tokens: Vec<u32> = recs
            .iter()
            .map(|r| match r {
                JournalRecord::RunSealed { token, .. } => *token,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(tokens, vec![0, 2], "run 1 was discarded; tokens 0 and 2 survive");
    }
}
