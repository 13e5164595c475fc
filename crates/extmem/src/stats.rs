//! Per-category I/O accounting.
//!
//! The paper's entire analysis (Section 4.2) is a breakdown of block I/Os by
//! purpose: reading the input, sorting subtrees, paging the data stack, paging
//! the path stack, reading sorted-run blocks, paging the output-location
//! stack, and writing the output. Every block transfer in this substrate is
//! tagged with an [`IoCat`] so experiments can report exactly that breakdown
//! and tests can check each of Lemmas 4.9-4.13 individually.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::fault::IoPhase;

/// The purpose of a block transfer, mirroring the cost breakdown in
/// Section 4.2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoCat {
    /// Reading the input document ("Reading the input": O(N/B)).
    InputRead,
    /// Writing the final sorted document ("Writing the output": O(N/B)).
    OutputWrite,
    /// Paging the data stack (Lemma 4.10: O(N/B)).
    DataStack,
    /// Paging the path stack (Lemma 4.11: O(N/B) with >= 2 resident frames).
    PathStack,
    /// Paging the output-location stack (Lemma 4.13: O(N/t)).
    OutLocStack,
    /// Paging the stack of unclosed tags used to reconstruct end tags during
    /// output (Section 3.2, "a structure similar to the path stack").
    OutTagStack,
    /// Writing sorted runs (part of "Sorting subtrees", Lemma 4.9).
    RunWrite,
    /// Reading blocks in sorted runs during the output phase (Lemma 4.12).
    RunRead,
    /// Scratch reads/writes performed by external-memory subtree sorts and by
    /// the key-path merge-sort baseline (run formation and merge passes).
    SortScratch,
    /// Reads/writes of the write-ahead manifest journal (crash-consistency
    /// overhead; not part of the paper's cost model, reported separately).
    Journal,
    /// Redundancy traffic of the self-healing run store: writing XOR parity
    /// blocks for sealed runs, reading group members during reconstruction,
    /// and rewriting repaired blocks. Not part of the paper's cost model;
    /// reported separately so the logical categories above stay comparable.
    Parity,
}

impl IoCat {
    /// All categories, in a stable report order.
    pub const ALL: [IoCat; 11] = [
        IoCat::InputRead,
        IoCat::OutputWrite,
        IoCat::DataStack,
        IoCat::PathStack,
        IoCat::OutLocStack,
        IoCat::OutTagStack,
        IoCat::RunWrite,
        IoCat::RunRead,
        IoCat::SortScratch,
        IoCat::Journal,
        IoCat::Parity,
    ];

    /// Short human-readable label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            IoCat::InputRead => "input-read",
            IoCat::OutputWrite => "output-write",
            IoCat::DataStack => "data-stack",
            IoCat::PathStack => "path-stack",
            IoCat::OutLocStack => "outloc-stack",
            IoCat::OutTagStack => "outtag-stack",
            IoCat::RunWrite => "run-write",
            IoCat::RunRead => "run-read",
            IoCat::SortScratch => "sort-scratch",
            IoCat::Journal => "journal",
            IoCat::Parity => "parity",
        }
    }

    fn index(self) -> usize {
        match self {
            IoCat::InputRead => 0,
            IoCat::OutputWrite => 1,
            IoCat::DataStack => 2,
            IoCat::PathStack => 3,
            IoCat::OutLocStack => 4,
            IoCat::OutTagStack => 5,
            IoCat::RunWrite => 6,
            IoCat::RunRead => 7,
            IoCat::SortScratch => 8,
            IoCat::Journal => 9,
            IoCat::Parity => 10,
        }
    }
}

impl fmt::Display for IoCat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

const NCATS: usize = 11;
const NPHASES: usize = IoPhase::NUM_CLASSES;

/// A buffer-pool event recorded against the current [`IoPhase`]; see
/// [`IoStats::add_cache_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A lookup served from a resident frame (no physical transfer).
    Hit,
    /// A lookup that had to go to the device.
    Miss,
    /// A frame was evicted to make room.
    Eviction,
    /// A dirty frame's contents were written back to the device.
    DirtyWriteback,
}

/// Shared, cheaply-clonable I/O counters.
///
/// Cloning an `IoStats` yields a handle onto the same counters; the device
/// and every paged structure hold one, so a single snapshot sees all traffic.
/// The live counters are themselves an [`IoSnapshot`], so reset and snapshot
/// cover every counter by construction.
#[derive(Clone, Default)]
pub struct IoStats {
    inner: Rc<RefCell<IoSnapshot>>,
}

impl IoStats {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` block reads in category `cat`.
    pub fn add_reads(&self, cat: IoCat, n: u64) {
        self.inner.borrow_mut().reads[cat.index()] += n;
    }

    /// Record `n` block writes in category `cat`.
    pub fn add_writes(&self, cat: IoCat, n: u64) {
        self.inner.borrow_mut().writes[cat.index()] += n;
    }

    /// Record `n` *physical* block reads in category `cat` -- transfers that
    /// actually reached the device. The [`Disk`](crate::Disk) charges one per
    /// device read; a buffer-pool hit charges the logical read only.
    pub fn add_phys_reads(&self, cat: IoCat, n: u64) {
        self.inner.borrow_mut().phys_reads[cat.index()] += n;
    }

    /// Record `n` physical block writes in category `cat`.
    pub fn add_phys_writes(&self, cat: IoCat, n: u64) {
        self.inner.borrow_mut().phys_writes[cat.index()] += n;
    }

    /// Roll back `n` block reads from `cat` (saturating). Used to make
    /// harness setup work (staging inputs) invisible to measurements.
    pub fn sub_reads(&self, cat: IoCat, n: u64) {
        let c = &mut self.inner.borrow_mut().reads[cat.index()];
        *c = c.saturating_sub(n);
    }

    /// Roll back `n` block writes from `cat` (saturating).
    pub fn sub_writes(&self, cat: IoCat, n: u64) {
        let c = &mut self.inner.borrow_mut().writes[cat.index()];
        *c = c.saturating_sub(n);
    }

    /// Roll back `n` physical block reads from `cat` (saturating).
    pub fn sub_phys_reads(&self, cat: IoCat, n: u64) {
        let c = &mut self.inner.borrow_mut().phys_reads[cat.index()];
        *c = c.saturating_sub(n);
    }

    /// Roll back `n` physical block writes from `cat` (saturating).
    pub fn sub_phys_writes(&self, cat: IoCat, n: u64) {
        let c = &mut self.inner.borrow_mut().phys_writes[cat.index()];
        *c = c.saturating_sub(n);
    }

    /// Record one buffer-pool `event` against the class of `phase`.
    pub fn add_cache_event(&self, phase: IoPhase, event: CacheEvent) {
        let mut s = self.inner.borrow_mut();
        let row = match event {
            CacheEvent::Hit => &mut s.cache_hits,
            CacheEvent::Miss => &mut s.cache_misses,
            CacheEvent::Eviction => &mut s.cache_evictions,
            CacheEvent::DirtyWriteback => &mut s.cache_writebacks,
        };
        row[phase.class_index()] += 1;
    }

    /// Record `n` retried transfer attempts in category `cat`. Retries are
    /// counted separately from reads/writes: the paper's cost model charges
    /// each *logical* transfer once, and this counter exposes how many extra
    /// physical attempts the retry policy spent on top.
    pub fn add_retries(&self, cat: IoCat, n: u64) {
        self.inner.borrow_mut().retries[cat.index()] += n;
    }

    /// Record `n` units of simulated retry backoff (dimensionless; see
    /// `RetryPolicy`).
    pub fn add_backoff(&self, n: u64) {
        self.inner.borrow_mut().backoff_units += n;
    }

    /// Record `n` journal records appended (intent records and data, not
    /// block transfers -- the transfers are charged to [`IoCat::Journal`]).
    pub fn add_journal_appends(&self, n: u64) {
        self.inner.borrow_mut().journal_appends += n;
    }

    /// Record `n` journal *commit* records appended.
    pub fn add_journal_commits(&self, n: u64) {
        self.inner.borrow_mut().journal_commits += n;
    }

    /// Journal records appended so far (commits included).
    pub fn journal_appends(&self) -> u64 {
        self.inner.borrow().journal_appends
    }

    /// Journal commit records appended so far.
    pub fn journal_commits(&self) -> u64 {
        self.inner.borrow().journal_commits
    }

    /// Retried transfer attempts charged to `cat` so far.
    pub fn retries(&self, cat: IoCat) -> u64 {
        self.inner.borrow().retries(cat)
    }

    /// Retried transfer attempts across all categories.
    pub fn total_retries(&self) -> u64 {
        self.inner.borrow().total_retries()
    }

    /// Simulated backoff spent so far, in policy units.
    pub fn backoff_units(&self) -> u64 {
        self.inner.borrow().backoff_units
    }

    /// Block reads charged to `cat` so far.
    pub fn reads(&self, cat: IoCat) -> u64 {
        self.inner.borrow().reads(cat)
    }

    /// Block writes charged to `cat` so far.
    pub fn writes(&self, cat: IoCat) -> u64 {
        self.inner.borrow().writes(cat)
    }

    /// Physical block reads charged to `cat` so far.
    pub fn phys_reads(&self, cat: IoCat) -> u64 {
        self.inner.borrow().phys_reads(cat)
    }

    /// Physical block writes charged to `cat` so far.
    pub fn phys_writes(&self, cat: IoCat) -> u64 {
        self.inner.borrow().phys_writes(cat)
    }

    /// Reads + writes charged to `cat`.
    pub fn total(&self, cat: IoCat) -> u64 {
        self.inner.borrow().total(cat)
    }

    /// Grand total of all block transfers, every category.
    pub fn grand_total(&self) -> u64 {
        self.inner.borrow().grand_total()
    }

    /// Grand total of *physical* transfers across all categories.
    pub fn grand_total_physical(&self) -> u64 {
        self.inner.borrow().grand_total_physical()
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        *self.inner.borrow_mut() = IoSnapshot::default();
    }

    /// An owned point-in-time copy of all counters, for before/after diffs.
    pub fn snapshot(&self) -> IoSnapshot {
        *self.inner.borrow()
    }
}

impl fmt::Debug for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Every I/O counter as one value: [`IoStats`] holds the live one and
/// [`IoStats::snapshot`] copies it; subtraction gives interval costs.
///
/// [`since`](Self::since) and the `Display` impl name every field (no `..`),
/// so a new counter does not compile until both handle it.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    reads: [u64; NCATS],
    writes: [u64; NCATS],
    // Physical transfers: what actually reached the device. Equal to the
    // logical counts above unless a buffer pool absorbs or defers some.
    phys_reads: [u64; NCATS],
    phys_writes: [u64; NCATS],
    retries: [u64; NCATS],
    backoff_units: u64,
    // Buffer-pool events, bucketed by IoPhase class.
    cache_hits: [u64; NPHASES],
    cache_misses: [u64; NPHASES],
    cache_evictions: [u64; NPHASES],
    cache_writebacks: [u64; NPHASES],
    // Write-ahead journal events (records appended / commit records).
    journal_appends: u64,
    journal_commits: u64,
}

impl IoSnapshot {
    /// Block reads charged to `cat` in this snapshot.
    pub fn reads(&self, cat: IoCat) -> u64 {
        self.reads[cat.index()]
    }

    /// Block writes charged to `cat` in this snapshot.
    pub fn writes(&self, cat: IoCat) -> u64 {
        self.writes[cat.index()]
    }

    /// Physical block reads charged to `cat` in this snapshot.
    pub fn phys_reads(&self, cat: IoCat) -> u64 {
        self.phys_reads[cat.index()]
    }

    /// Physical block writes charged to `cat` in this snapshot.
    pub fn phys_writes(&self, cat: IoCat) -> u64 {
        self.phys_writes[cat.index()]
    }

    /// Physical reads across all categories.
    pub fn total_phys_reads(&self) -> u64 {
        self.phys_reads.iter().sum()
    }

    /// Physical writes across all categories.
    pub fn total_phys_writes(&self) -> u64 {
        self.phys_writes.iter().sum()
    }

    /// Grand total of physical transfers.
    pub fn grand_total_physical(&self) -> u64 {
        self.total_phys_reads() + self.total_phys_writes()
    }

    /// Logical reads across all categories.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Logical writes across all categories.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Buffer-pool hits recorded in the class of `phase`.
    pub fn cache_hits_in(&self, phase: IoPhase) -> u64 {
        self.cache_hits[phase.class_index()]
    }

    /// Buffer-pool misses recorded in the class of `phase`.
    pub fn cache_misses_in(&self, phase: IoPhase) -> u64 {
        self.cache_misses[phase.class_index()]
    }

    /// Buffer-pool evictions recorded in the class of `phase`.
    pub fn cache_evictions_in(&self, phase: IoPhase) -> u64 {
        self.cache_evictions[phase.class_index()]
    }

    /// Dirty writebacks recorded in the class of `phase`.
    pub fn cache_writebacks_in(&self, phase: IoPhase) -> u64 {
        self.cache_writebacks[phase.class_index()]
    }

    /// Buffer-pool hits across all phases.
    pub fn total_cache_hits(&self) -> u64 {
        self.cache_hits.iter().sum()
    }

    /// Buffer-pool misses across all phases.
    pub fn total_cache_misses(&self) -> u64 {
        self.cache_misses.iter().sum()
    }

    /// Buffer-pool evictions across all phases.
    pub fn total_cache_evictions(&self) -> u64 {
        self.cache_evictions.iter().sum()
    }

    /// Dirty writebacks across all phases.
    pub fn total_cache_writebacks(&self) -> u64 {
        self.cache_writebacks.iter().sum()
    }

    /// Hit ratio of the buffer pool, or `None` when it saw no lookups.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        let hits = self.total_cache_hits();
        let lookups = hits + self.total_cache_misses();
        if lookups == 0 {
            None
        } else {
            #[allow(clippy::cast_precision_loss)]
            Some(hits as f64 / lookups as f64)
        }
    }

    /// Journal records appended in this snapshot (commits included).
    pub fn journal_appends(&self) -> u64 {
        self.journal_appends
    }

    /// Journal commit records appended in this snapshot.
    pub fn journal_commits(&self) -> u64 {
        self.journal_commits
    }

    /// Retried transfer attempts charged to `cat` in this snapshot.
    pub fn retries(&self, cat: IoCat) -> u64 {
        self.retries[cat.index()]
    }

    /// Retried transfer attempts across all categories.
    pub fn total_retries(&self) -> u64 {
        IoCat::ALL.iter().map(|&c| self.retries(c)).sum()
    }

    /// Simulated backoff spent, in policy units.
    pub fn backoff_units(&self) -> u64 {
        self.backoff_units
    }

    /// Reads + writes charged to `cat` in this snapshot.
    pub fn total(&self, cat: IoCat) -> u64 {
        self.reads(cat) + self.writes(cat)
    }

    /// Grand total of all block transfers in this snapshot.
    pub fn grand_total(&self) -> u64 {
        IoCat::ALL.iter().map(|&c| self.total(c)).sum()
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        let e = earlier;
        IoSnapshot {
            reads: diff(self.reads, e.reads),
            writes: diff(self.writes, e.writes),
            phys_reads: diff(self.phys_reads, e.phys_reads),
            phys_writes: diff(self.phys_writes, e.phys_writes),
            retries: diff(self.retries, e.retries),
            backoff_units: self.backoff_units.saturating_sub(e.backoff_units),
            cache_hits: diff(self.cache_hits, e.cache_hits),
            cache_misses: diff(self.cache_misses, e.cache_misses),
            cache_evictions: diff(self.cache_evictions, e.cache_evictions),
            cache_writebacks: diff(self.cache_writebacks, e.cache_writebacks),
            journal_appends: self.journal_appends.saturating_sub(e.journal_appends),
            journal_commits: self.journal_commits.saturating_sub(e.journal_commits),
        }
    }
}

/// Element-wise saturating `now - then`.
fn diff<const N: usize>(now: [u64; N], then: [u64; N]) -> [u64; N] {
    std::array::from_fn(|i| now[i].saturating_sub(then[i]))
}

impl fmt::Debug for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("IoSnapshot");
        for cat in IoCat::ALL {
            if self.total(cat) > 0 {
                d.field(cat.label(), &(self.reads(cat), self.writes(cat)));
            }
        }
        if self.total_retries() > 0 {
            d.field("retries", &self.total_retries());
        }
        if self.backoff_units > 0 {
            d.field("backoff_units", &self.backoff_units);
        }
        if self.total_cache_hits() + self.total_cache_misses() > 0 {
            d.field("cache_hits", &self.total_cache_hits());
            d.field("cache_misses", &self.total_cache_misses());
            d.field("physical", &self.grand_total_physical());
        }
        d.finish()
    }
}

/// The report layout is stable and documented so diffs between runs (and
/// between cache configurations) are meaningful:
///
/// 1. one row per *nonzero* category, in [`IoCat::ALL`] order;
/// 2. the `TOTAL` row;
/// 3. when a buffer pool was active: the `PHYSICAL` and `CACHE` summary
///    lines, then one `cache <phase>` row per phase class with activity, in
///    [`IoPhase::class_index`] order (setup, input-scan, run-formation,
///    merge-pass, final-merge, output-emit);
/// 4. when a write-ahead journal was active: the `JOURNAL` line with the
///    record-append and commit counts;
/// 5. the `RETRIES` line when any transfer was retried or backed off.
///
/// Sections 3-5 are omitted entirely when inactive, keeping the report
/// byte-identical to the plain synchronous substrate in that case.
impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Every counter is bound here; one the report leaves unused is a
        // warning, which the workspace's `-D warnings` gate rejects.
        let IoSnapshot {
            reads,
            writes,
            phys_reads,
            phys_writes,
            retries,
            backoff_units,
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_writebacks,
            journal_appends,
            journal_commits,
        } = self;
        let sum = |row: &[u64]| row.iter().sum::<u64>();
        writeln!(f, "{:<14} {:>12} {:>12} {:>12}", "category", "reads", "writes", "total")?;
        for cat in IoCat::ALL {
            let (r, w) = (reads[cat.index()], writes[cat.index()]);
            if r + w > 0 {
                writeln!(f, "{:<14} {:>12} {:>12} {:>12}", cat.label(), r, w, r + w)?;
            }
        }
        let total = sum(reads) + sum(writes);
        write!(f, "{:<14} {:>12} {:>12} {:>12}", "TOTAL", "", "", total)?;
        // Pool lines appear only when a buffer pool was in play, keeping the
        // report byte-identical to the uncached substrate otherwise.
        let (hits, misses) = (sum(cache_hits), sum(cache_misses));
        let (phys_r, phys_w) = (sum(phys_reads), sum(phys_writes));
        if hits + misses > 0 || phys_r + phys_w != total {
            write!(
                f,
                "\n{:<14} {:>12} {:>12} {:>12}",
                "PHYSICAL",
                phys_r,
                phys_w,
                phys_r + phys_w
            )?;
            let ratio = self.cache_hit_ratio().unwrap_or(0.0) * 100.0;
            write!(
                f,
                "\n{:<14} {:>12} hits / {} misses ({ratio:.1}% hit ratio), {} evictions, {} writebacks",
                "CACHE",
                hits,
                misses,
                sum(cache_evictions),
                sum(cache_writebacks)
            )?;
            for i in 0..NPHASES {
                let (h, m, e, w) =
                    (cache_hits[i], cache_misses[i], cache_evictions[i], cache_writebacks[i]);
                if h + m + e + w > 0 {
                    write!(
                        f,
                        "\n  cache {:<16} {:>8} hits / {} misses, {} evictions, {} writebacks",
                        IoPhase::class_label(i),
                        h,
                        m,
                        e,
                        w
                    )?;
                }
            }
        }
        if *journal_appends > 0 {
            write!(
                f,
                "\n{:<14} {:>12} records appended, {} commits",
                "JOURNAL", journal_appends, journal_commits
            )?;
        }
        let retried = sum(retries);
        if retried > 0 || *backoff_units > 0 {
            write!(
                f,
                "\n{:<14} {:>12} retried attempts, {} backoff units",
                "RETRIES", retried, backoff_units
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_category() {
        let s = IoStats::new();
        s.add_reads(IoCat::InputRead, 3);
        s.add_writes(IoCat::InputRead, 1);
        s.add_reads(IoCat::DataStack, 5);
        assert_eq!(s.reads(IoCat::InputRead), 3);
        assert_eq!(s.writes(IoCat::InputRead), 1);
        assert_eq!(s.total(IoCat::InputRead), 4);
        assert_eq!(s.total(IoCat::DataStack), 5);
        assert_eq!(s.grand_total(), 9);
    }

    #[test]
    fn clones_share_the_same_counters() {
        let a = IoStats::new();
        let b = a.clone();
        a.add_reads(IoCat::RunRead, 2);
        b.add_writes(IoCat::RunWrite, 7);
        assert_eq!(b.reads(IoCat::RunRead), 2);
        assert_eq!(a.writes(IoCat::RunWrite), 7);
    }

    #[test]
    fn snapshot_diff_isolates_an_interval() {
        let s = IoStats::new();
        s.add_reads(IoCat::SortScratch, 10);
        let before = s.snapshot();
        s.add_reads(IoCat::SortScratch, 4);
        s.add_writes(IoCat::OutputWrite, 2);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.reads(IoCat::SortScratch), 4);
        assert_eq!(delta.writes(IoCat::OutputWrite), 2);
        assert_eq!(delta.grand_total(), 6);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.add_reads(IoCat::PathStack, 9);
        s.reset();
        assert_eq!(s.grand_total(), 0);
    }

    #[test]
    fn display_lists_only_nonzero_categories_plus_total() {
        let s = IoStats::new();
        s.add_reads(IoCat::InputRead, 1);
        let text = s.snapshot().to_string();
        assert!(text.contains("input-read"));
        assert!(!text.contains("outtag-stack"));
        assert!(text.contains("TOTAL"));
    }

    #[test]
    fn retries_and_backoff_are_counted_and_diffed() {
        let s = IoStats::new();
        s.add_retries(IoCat::RunRead, 2);
        s.add_backoff(6);
        let before = s.snapshot();
        assert_eq!(before.retries(IoCat::RunRead), 2);
        assert_eq!(before.total_retries(), 2);
        assert_eq!(before.backoff_units(), 6);
        s.add_retries(IoCat::RunRead, 1);
        s.add_retries(IoCat::DataStack, 4);
        s.add_backoff(10);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.retries(IoCat::RunRead), 1);
        assert_eq!(delta.retries(IoCat::DataStack), 4);
        assert_eq!(delta.backoff_units(), 10);
        // Retries never leak into the transfer counts of the cost model.
        assert_eq!(delta.grand_total(), 0);
        s.reset();
        assert_eq!(s.total_retries(), 0);
        assert_eq!(s.backoff_units(), 0);
    }

    #[test]
    fn physical_counters_are_independent_of_logical_ones() {
        let s = IoStats::new();
        s.add_reads(IoCat::RunRead, 10);
        s.add_phys_reads(IoCat::RunRead, 4);
        s.add_writes(IoCat::RunWrite, 6);
        s.add_phys_writes(IoCat::RunWrite, 6);
        let snap = s.snapshot();
        assert_eq!(snap.reads(IoCat::RunRead), 10);
        assert_eq!(snap.phys_reads(IoCat::RunRead), 4);
        assert_eq!(snap.grand_total(), 16);
        assert_eq!(snap.grand_total_physical(), 10);
        // Physical counters never leak into the paper's logical quantity.
        s.sub_phys_reads(IoCat::RunRead, 100);
        assert_eq!(s.snapshot().grand_total_physical(), 6);
        assert_eq!(s.snapshot().grand_total(), 16);
        s.reset();
        assert_eq!(s.snapshot().grand_total_physical(), 0);
    }

    #[test]
    fn cache_events_bucket_by_phase_class_and_diff() {
        let s = IoStats::new();
        s.add_cache_event(IoPhase::RunFormation, CacheEvent::Hit);
        s.add_cache_event(IoPhase::MergePass(1), CacheEvent::Hit);
        s.add_cache_event(IoPhase::MergePass(2), CacheEvent::Miss);
        s.add_cache_event(IoPhase::MergePass(2), CacheEvent::Eviction);
        s.add_cache_event(IoPhase::OutputEmit, CacheEvent::DirtyWriteback);
        let before = s.snapshot();
        assert_eq!(before.cache_hits_in(IoPhase::RunFormation), 1);
        // Merge passes share one class.
        assert_eq!(before.cache_hits_in(IoPhase::MergePass(7)), 1);
        assert_eq!(before.cache_misses_in(IoPhase::MergePass(1)), 1);
        assert_eq!(before.cache_evictions_in(IoPhase::MergePass(1)), 1);
        assert_eq!(before.cache_writebacks_in(IoPhase::OutputEmit), 1);
        assert_eq!(before.total_cache_hits(), 2);
        assert_eq!(before.cache_hit_ratio(), Some(2.0 / 3.0));
        s.add_cache_event(IoPhase::FinalMerge, CacheEvent::Hit);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.total_cache_hits(), 1);
        assert_eq!(delta.total_cache_misses(), 0);
        // Cache events are not transfers.
        assert_eq!(delta.grand_total(), 0);
        s.reset();
        assert_eq!(s.snapshot().cache_hit_ratio(), None);
    }

    #[test]
    fn display_reports_cache_lines_only_when_a_pool_was_active() {
        let s = IoStats::new();
        s.add_reads(IoCat::InputRead, 2);
        s.add_phys_reads(IoCat::InputRead, 2);
        let plain = s.snapshot().to_string();
        assert!(!plain.contains("CACHE"), "{plain}");
        assert!(!plain.contains("PHYSICAL"), "{plain}");
        s.add_reads(IoCat::InputRead, 1);
        s.add_cache_event(IoPhase::InputScan, CacheEvent::Hit);
        let cached = s.snapshot().to_string();
        assert!(cached.contains("CACHE"), "{cached}");
        assert!(cached.contains("PHYSICAL"), "{cached}");
        assert!(cached.contains("hit ratio"), "{cached}");
    }

    #[test]
    fn display_phase_rows_follow_the_documented_stable_order() {
        let s = IoStats::new();
        s.add_reads(IoCat::RunRead, 1);
        s.add_cache_event(IoPhase::OutputEmit, CacheEvent::Miss);
        s.add_cache_event(IoPhase::InputScan, CacheEvent::Hit);
        s.add_cache_event(IoPhase::RunFormation, CacheEvent::Hit);
        let text = s.snapshot().to_string();
        let scan = text.find("cache input-scan").unwrap();
        let form = text.find("cache run-formation").unwrap();
        let emit = text.find("cache output-emit").unwrap();
        assert!(scan < form && form < emit, "{text}");
    }

    #[test]
    fn journal_counters_accumulate_diff_reset_and_display() {
        let s = IoStats::new();
        s.add_reads(IoCat::Journal, 2);
        s.add_journal_appends(5);
        s.add_journal_commits(1);
        assert_eq!(s.journal_appends(), 5);
        assert_eq!(s.journal_commits(), 1);
        let before = s.snapshot();
        assert_eq!(before.journal_appends(), 5);
        assert_eq!(before.journal_commits(), 1);
        s.add_journal_appends(3);
        s.add_journal_commits(2);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.journal_appends(), 3);
        assert_eq!(delta.journal_commits(), 2);
        // Journal records are not transfers; only the IoCat::Journal block
        // I/O above counts toward the totals.
        assert_eq!(delta.grand_total(), 0);
        let text = s.snapshot().to_string();
        assert!(text.contains("JOURNAL"), "{text}");
        assert!(text.contains("journal"), "{text}");
        s.reset();
        assert_eq!(s.journal_appends(), 0);
        assert_eq!(s.journal_commits(), 0);
        assert!(!s.snapshot().to_string().contains("JOURNAL"));
    }

    #[test]
    fn all_categories_have_distinct_indices_and_labels() {
        let mut seen = std::collections::HashSet::new();
        for cat in IoCat::ALL {
            assert!(seen.insert(cat.label()), "duplicate label {}", cat.label());
        }
        assert_eq!(seen.len(), IoCat::ALL.len());
    }
}
