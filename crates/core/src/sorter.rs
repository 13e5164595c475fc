//! The NEXSORT sorting phase (Figure 4, lines 1-12).
//!
//! A single scan of the input pushes records onto the external *data stack*
//! while the external *path stack* records each open element's start
//! location. End-of-element boundaries (implicit in the level-numbered
//! record stream -- end tags were eliminated, Section 3.2) trigger the
//! sorting decision: a complete subtree larger than the threshold `t` is
//! streamed off the stack, sorted into a run, and replaced by a pointer
//! record. When the scan finishes, the root's sort runs unconditionally and
//! the document has become a tree of sorted runs (Figure 3) rooted at
//! [`SortedDoc::root_run`].

use std::rc::Rc;
use std::time::Instant;

use nexsort_baseline::{ExtentRecSource, ParsedRecSource, RecSource};
use nexsort_extmem::{
    recover, Disk, ExtStack, Extent, IoCat, IoPhase, Journal, JournalRecord, MemoryBudget,
    RecoveredState, RunId, RunStore,
};
use nexsort_xml::{Rec, RecKind, Result, SortSpec, TagDict, XmlError};

use crate::checkpoint::{journal_stats, restore_report, seal_records};
use crate::failure::SortFailure;
use crate::options::NexsortOptions;
use crate::output::SortedDoc;
use crate::report::SortReport;
use crate::subtree::SubtreeSorter;

/// The NEXSORT sorter: configuration plus the disk it operates on.
pub struct Nexsort {
    disk: Rc<Disk>,
    opts: NexsortOptions,
    spec: SortSpec,
}

impl Nexsort {
    /// A sorter over `disk` with the given options and ordering criterion.
    /// Only validates: the disk's page cache, if any, was attached when its
    /// stack was built (`nexsort_extmem::DiskBuilder`).
    pub fn new(disk: Rc<Disk>, opts: NexsortOptions, spec: SortSpec) -> Result<Self> {
        if opts.mem_frames < NexsortOptions::MIN_MEM_FRAMES {
            return Err(XmlError::Ext(nexsort_extmem::ExtError::BudgetExceeded {
                requested: NexsortOptions::MIN_MEM_FRAMES,
                free: opts.mem_frames,
            }));
        }
        if opts.data_stack_frames < 1 || opts.path_stack_frames < 1 {
            return Err(XmlError::Record("stacks need at least one resident frame".into()));
        }
        spec.validate()?;
        Ok(Self { disk, opts, spec })
    }

    /// The configured options.
    pub fn options(&self) -> &NexsortOptions {
        &self.opts
    }

    /// The ordering criterion.
    pub fn spec(&self) -> &SortSpec {
        &self.spec
    }

    /// Sort an XML text document resident on the disk.
    ///
    /// When parity protection is on (`opts.parity_group > 0`), hard media
    /// faults on sealed runs are repaired transparently mid-sort; if a whole
    /// parity group is lost, the sort is re-derived once from the (intact)
    /// input rather than failing -- the quarantine retires the damaged
    /// blocks, so the re-run allocates around them. Either path marks the
    /// report degraded; the output bytes are identical to an undamaged run's.
    pub fn sort_xml_extent(&self, input: &Extent) -> Result<SortedDoc> {
        let budget = MemoryBudget::new(self.opts.mem_frames);
        let health_before = self.disk.health();
        let mut journal = self.start_journal(input)?;
        let mut rederived = false;
        loop {
            let mut src = ParsedRecSource::new(
                self.disk.clone(),
                &budget,
                input,
                &self.spec,
                self.opts.compaction,
            )?;
            match self.sort_source(&mut src, &budget, &mut journal) {
                Ok((store, root_run, mut report)) => {
                    absorb_health(&mut report, &health_before, &self.disk.health());
                    return Ok(SortedDoc::new(
                        self.disk.clone(),
                        store,
                        root_run,
                        src.into_dict(),
                        report,
                        self.opts.mem_frames,
                    ));
                }
                Err(e) if !rederived && is_beyond_parity(&e) => {
                    // Last resort (once): the source is still readable, so
                    // re-form every run from it. The failed attempt's blocks
                    // stay allocated (reclaimable by a later journal
                    // recovery), keeping the re-run off the damaged extents.
                    rederived = true;
                    self.disk.note_rederivation();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sort a pre-encoded record extent (`dict` is the dictionary the
    /// records were encoded against; benchmarks use this to factor out
    /// XML-parsing CPU while keeping the I/O pattern identical). Degraded-
    /// mode behavior matches [`sort_xml_extent`](Self::sort_xml_extent).
    pub fn sort_rec_extent(&self, input: &Extent, dict: TagDict) -> Result<SortedDoc> {
        let budget = MemoryBudget::new(self.opts.mem_frames);
        let health_before = self.disk.health();
        let mut journal = self.start_journal(input)?;
        let mut rederived = false;
        loop {
            let mut src =
                ExtentRecSource::new(self.disk.clone(), &budget, input, IoCat::InputRead)?;
            match self.sort_source(&mut src, &budget, &mut journal) {
                Ok((store, root_run, mut report)) => {
                    absorb_health(&mut report, &health_before, &self.disk.health());
                    return Ok(SortedDoc::new(
                        self.disk.clone(),
                        store,
                        root_run,
                        dict,
                        report,
                        self.opts.mem_frames,
                    ));
                }
                Err(e) if !rederived && is_beyond_parity(&e) => {
                    rederived = true;
                    self.disk.note_rederivation();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Resume an interrupted checkpointed sort of an XML document.
    ///
    /// Replays the disk's journal (see [`recover`]), frees every block the
    /// crash leaked, and restarts from the last sealed phase: a committed
    /// `SortDone` reattaches the finished document with no I/O beyond the
    /// replay; a committed scan (degeneration mode) re-enters the merge loop
    /// at the first uncommitted pass; anything less redoes the sort. The
    /// input is re-parsed once to rebuild the in-memory tag dictionary --
    /// recovery's only repeated read. A disk with no journal (or a sort that
    /// was never checkpointed) falls back to a fresh
    /// [`sort_xml_extent`](Self::sort_xml_extent).
    ///
    /// Must be called with the same options and spec as the interrupted
    /// sort; fan-in and pass structure are re-derived from them.
    pub fn resume_xml_extent(&self, input: &Extent) -> Result<SortedDoc> {
        let budget = MemoryBudget::new(self.opts.mem_frames);
        let health_before = self.disk.health();
        let Some((journal, state)) = recover(&self.disk, input.blocks())? else {
            return self.sort_xml_extent(input);
        };
        let mut journal = Some(journal);
        let mut src = ParsedRecSource::new(
            self.disk.clone(),
            &budget,
            input,
            &self.spec,
            self.opts.compaction,
        )?;
        if state.sort_done.is_some() || state.scan_done {
            // The scan will not run again: drain the parser for its
            // dictionary side effect. The exhausted source stays alive so
            // its reader frame keeps the budget -- and thus the merge
            // fan-in -- identical to the uninterrupted run's.
            let mut buf = Vec::new();
            while src.next_encoded(&mut buf)?.is_some() {
                buf.clear();
            }
        }
        let (store, root_run, mut report) =
            self.resume_source(&mut src, &budget, &mut journal, state)?;
        absorb_health(&mut report, &health_before, &self.disk.health());
        Ok(SortedDoc::new(
            self.disk.clone(),
            store,
            root_run,
            src.into_dict(),
            report,
            self.opts.mem_frames,
        ))
    }

    /// Resume an interrupted checkpointed sort of a pre-encoded record
    /// extent; see [`resume_xml_extent`](Self::resume_xml_extent). The
    /// caller supplies the dictionary, so nothing is re-parsed.
    pub fn resume_rec_extent(&self, input: &Extent, dict: TagDict) -> Result<SortedDoc> {
        let budget = MemoryBudget::new(self.opts.mem_frames);
        let health_before = self.disk.health();
        let Some((journal, state)) = recover(&self.disk, input.blocks())? else {
            return self.sort_rec_extent(input, dict);
        };
        let mut journal = Some(journal);
        let mut src = ExtentRecSource::new(self.disk.clone(), &budget, input, IoCat::InputRead)?;
        let (store, root_run, mut report) =
            self.resume_source(&mut src, &budget, &mut journal, state)?;
        absorb_health(&mut report, &health_before, &self.disk.health());
        Ok(SortedDoc::new(self.disk.clone(), store, root_run, dict, report, self.opts.mem_frames))
    }

    /// [`resume_xml_extent`](Self::resume_xml_extent) with structured
    /// failure reporting; see [`try_sort_xml_extent`](Self::try_sort_xml_extent).
    pub fn try_resume_xml_extent(
        &self,
        input: &Extent,
    ) -> std::result::Result<SortedDoc, Box<SortFailure>> {
        let before = self.disk.stats().snapshot();
        self.resume_xml_extent(input)
            .map_err(|e| Box::new(SortFailure::classify(&self.disk, e, &before)))
    }

    /// [`sort_xml_extent`](Self::sort_xml_extent), but an unrecoverable
    /// fault is returned as a structured [`SortFailure`] naming the phase,
    /// the failing transfer, and the I/O spent before giving up.
    pub fn try_sort_xml_extent(
        &self,
        input: &Extent,
    ) -> std::result::Result<SortedDoc, Box<SortFailure>> {
        let before = self.disk.stats().snapshot();
        self.sort_xml_extent(input)
            .map_err(|e| Box::new(SortFailure::classify(&self.disk, e, &before)))
    }

    /// [`sort_rec_extent`](Self::sort_rec_extent) with structured failure
    /// reporting; see [`try_sort_xml_extent`](Self::try_sort_xml_extent).
    pub fn try_sort_rec_extent(
        &self,
        input: &Extent,
        dict: TagDict,
    ) -> std::result::Result<SortedDoc, Box<SortFailure>> {
        let before = self.disk.stats().snapshot();
        self.sort_rec_extent(input, dict)
            .map_err(|e| Box::new(SortFailure::classify(&self.disk, e, &before)))
    }

    /// When checkpointing is on, put a fresh journal on the device and
    /// commit the sort's start record (the resume-time identity check).
    fn start_journal(&self, input: &Extent) -> Result<Option<Journal>> {
        if !self.opts.checkpoint {
            return Ok(None);
        }
        let mut journal = Journal::create(&self.disk, self.opts.journal_blocks)?;
        journal.checkpoint(&[JournalRecord::SortStarted { input_len: input.len() }])?;
        Ok(Some(journal))
    }

    /// Continue from journal-recovered state: reattach a finished sort,
    /// re-enter the merge loop after a sealed scan, or redo the sort when
    /// nothing beyond the start record committed.
    fn resume_source(
        &self,
        src: &mut dyn RecSource,
        budget: &MemoryBudget,
        journal: &mut Option<Journal>,
        state: RecoveredState,
    ) -> Result<(Rc<RunStore>, RunId, SortReport)> {
        if let Some((root, root_flat)) = state.sort_done {
            let block_size = self.disk.block_size();
            let threshold = self.opts.threshold_bytes(block_size);
            let mut report = SortReport::new(block_size, self.opts.mem_frames, threshold);
            restore_report(&state.stats, &mut report);
            report.root_flat = root_flat;
            report.resumed = true;
            // `degenerate_merges` counts merges run by *this* process (none:
            // everything was committed); every journalled merge is skipped.
            report.committed_passes_skipped = report.degenerate_merges;
            report.degenerate_merges = 0;
            let store = RunStore::restore(self.disk.clone(), state.runs);
            store.set_parity_group(self.opts.parity_group);
            return Ok((store, RunId(root), report));
        }
        if state.scan_done && self.opts.degeneration && !self.spec.has_deferred_keys() {
            return crate::degenerate::resume_degenerate(
                &self.disk, &self.opts, state, journal, budget,
            );
        }
        // No sealed phase survives (or the options no longer match the
        // journalled mode): the recovery already reclaimed the crash's
        // leaked blocks, so redo the sort on the existing journal.
        let (store, root_run, mut report) = self.sort_source(src, budget, journal)?;
        report.resumed = true;
        Ok((store, root_run, report))
    }

    fn sort_source(
        &self,
        src: &mut dyn RecSource,
        budget: &MemoryBudget,
        journal: &mut Option<Journal>,
    ) -> Result<(Rc<RunStore>, RunId, SortReport)> {
        // The scan drives the whole sorting phase: run formation and merges
        // nest their own phases inside it.
        self.disk.in_phase(IoPhase::InputScan, || {
            if self.opts.degeneration && !self.spec.has_deferred_keys() {
                crate::degenerate::sort_degenerate(
                    &self.disk, &self.opts, &self.spec, src, budget, journal,
                )
            } else {
                self.sort_standard(src, budget, journal)
            }
        })
    }

    /// Figure 4's sorting phase, as published.
    fn sort_standard(
        &self,
        src: &mut dyn RecSource,
        budget: &MemoryBudget,
        journal: &mut Option<Journal>,
    ) -> Result<(Rc<RunStore>, RunId, SortReport)> {
        let start_time = Instant::now();
        let stats = self.disk.stats();
        let io_before = stats.snapshot();
        let block_size = self.disk.block_size();
        let threshold = self.opts.threshold_bytes(block_size);
        let mut report = SortReport::new(block_size, self.opts.mem_frames, threshold);

        let store = RunStore::new(self.disk.clone());
        store.set_parity_group(self.opts.parity_group);
        let mut data = ExtStack::new(
            self.disk.clone(),
            budget,
            IoCat::DataStack,
            self.opts.data_stack_frames,
        )?;
        let mut path = ExtStack::new(
            self.disk.clone(),
            budget,
            IoCat::PathStack,
            self.opts.path_stack_frames,
        )?;
        // In-memory per-open-element child counters (O(height) machine
        // words), used only for the `k` statistic in the report.
        let mut child_counts: Vec<u64> = Vec::new();
        let mut root_run: Option<RunId> = None;
        let mut buf = Vec::new();

        let close_top = |data: &mut ExtStack,
                         path: &mut ExtStack,
                         child_counts: &mut Vec<u64>,
                         report: &mut SortReport,
                         root_run: &mut Option<RunId>|
         -> Result<()> {
            let l = path.pop_u64()?;
            let level = child_counts.len() as u32; // level of the closing element
            let Some(fanout) = child_counts.pop() else {
                return Err(XmlError::Record("close with no open element".into()));
            };
            report.max_fanout = report.max_fanout.max(fanout);
            let size = data.len() - l;
            let is_root = child_counts.is_empty();
            let within_depth = self.opts.depth_limit.is_none_or(|d| level <= d + 1);
            if (size > threshold && within_depth) || is_root {
                let stack_ext = data.range_extent()?;
                let sorter = SubtreeSorter {
                    disk: &self.disk,
                    store: &store,
                    budget,
                    spec: &self.spec,
                    depth_limit: self.opts.depth_limit,
                };
                let ptr = sorter.sort_range(&stack_ext, l, size, level, report)?;
                data.truncate(l)?;
                if is_root {
                    *root_run = Some(RunId(ptr.run));
                } else {
                    let mut enc = Vec::new();
                    Rec::RunPtr(ptr).encode(&mut enc)?;
                    data.push(&enc)?;
                }
            }
            Ok(())
        };

        // Records arrive encoded and go onto the data stack as they are.
        loop {
            buf.clear();
            let Some((kind, lvl)) = src.next_encoded(&mut buf)? else {
                break;
            };
            // An arriving record at level L closes every open element at
            // level >= L; a key patch belongs to the element at its own
            // level, so it only closes deeper ones.
            let close_to = if kind == RecKind::KeyPatch { lvl + 1 } else { lvl };
            while child_counts.len() as u32 >= close_to {
                close_top(&mut data, &mut path, &mut child_counts, &mut report, &mut root_run)?;
            }
            match kind {
                RecKind::Elem => {
                    if lvl as usize != child_counts.len() + 1 {
                        return Err(XmlError::Record(format!(
                            "level jump: element at level {lvl} under {} open elements",
                            child_counts.len()
                        )));
                    }
                    if root_run.is_some() {
                        return Err(XmlError::Record("records after the root closed".into()));
                    }
                    if let Some(parent) = child_counts.last_mut() {
                        *parent += 1;
                    }
                    path.push_u64(data.len())?;
                    child_counts.push(0);
                }
                RecKind::Text | RecKind::RunPtr => {
                    if lvl as usize != child_counts.len() + 1 || child_counts.is_empty() {
                        return Err(XmlError::Record(format!(
                            "level jump: leaf record at level {lvl} under {} open elements",
                            child_counts.len()
                        )));
                    }
                    if let Some(count) = child_counts.last_mut() {
                        *count += 1;
                    }
                }
                RecKind::KeyPatch => {
                    if lvl as usize != child_counts.len() {
                        return Err(XmlError::Record(format!(
                            "key patch at level {lvl} with {} open elements",
                            child_counts.len()
                        )));
                    }
                }
            }
            if kind != RecKind::KeyPatch {
                report.n_records += 1;
                report.max_level = report.max_level.max(lvl);
            }
            report.input_bytes += buf.len() as u64;
            data.push(&buf)?;
        }
        // End of input (Figure 4 line 9's "l = 1" case): close everything;
        // the root sorts unconditionally.
        while !child_counts.is_empty() {
            close_top(&mut data, &mut path, &mut child_counts, &mut report, &mut root_run)?;
        }
        let root_run =
            root_run.ok_or_else(|| XmlError::Record("empty input: no root element".into()))?;

        // A single subtree sort means nothing was ever collapsed into a
        // pointer: the root run is the whole sorted document.
        report.root_flat = report.subtree_sorts == 1;
        // The standard algorithm checkpoints at sort-done granularity: one
        // committed batch sealing the whole run tree. (Finer grain would
        // journal every subtree collapse; the stack-resident intermediate
        // state is not replayable anyway.)
        if let Some(j) = journal.as_mut() {
            let mut recs = seal_records(&store)?;
            recs.push(JournalRecord::SortDone {
                root: root_run.0,
                root_flat: report.root_flat,
                stats: journal_stats(&report),
            });
            j.checkpoint(&recs)?;
        }
        report.io = stats.snapshot().since(&io_before);
        report.elapsed = start_time.elapsed();
        Ok((store, root_run, report))
    }
}

/// Whether `e` is a parity-layer verdict that repair cannot fix but a
/// re-derivation from the intact source can: a group with more losses than
/// its parity covers, or redundancy that no longer matches its checksums.
/// True when `e` reports damage parity could not repair (a whole group lost
/// or mismatched): the caller's last resort is re-deriving from the intact
/// source. Public so operator crates over the same run store can share the
/// re-derivation policy.
pub fn is_beyond_parity(e: &XmlError) -> bool {
    matches!(
        e,
        XmlError::Ext(
            nexsort_extmem::ExtError::UnrecoverableGroup { .. }
                | nexsort_extmem::ExtError::ParityMismatch { .. }
        )
    )
}

/// Fold the disk's health delta across a sort into its report: repairs,
/// quarantined blocks, and re-derivations that happened during this sort
/// mark it degraded. The output is still bit-identical to an undamaged
/// run's; `degraded` only records that redundancy was consumed.
fn absorb_health(
    report: &mut SortReport,
    before: &nexsort_extmem::DeviceHealth,
    after: &nexsort_extmem::DeviceHealth,
) {
    report.repairs = after.repairs().saturating_sub(before.repairs());
    report.quarantined_blocks = after.num_quarantined().saturating_sub(before.num_quarantined());
    report.rederivations = after.rederived_runs().saturating_sub(before.rederived_runs());
    report.degraded =
        report.repairs > 0 || report.quarantined_blocks > 0 || report.rederivations > 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_baseline::{sorted_dom, stage_input};
    use nexsort_xml::{events_to_dom, parse_dom, KeyRule};

    fn spec() -> SortSpec {
        SortSpec::by_attribute("name").with_rule("employee", KeyRule::attr_numeric("ID"))
    }

    fn sort_doc(doc: &str, opts: NexsortOptions) -> SortedDoc {
        let disk = Disk::new_mem(128);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let nx = Nexsort::new(disk, opts, spec()).unwrap();
        nx.sort_xml_extent(&input).unwrap()
    }

    fn figure_1_d1() -> &'static str {
        "<company><region name=\"NE\"><branch name=\"Durham\">\
         <employee ID=\"454\"/><employee ID=\"323\"><name>Smith</name>\
         <phone>5552345</phone></employee></branch><branch name=\"Atlanta\"/>\
         </region><region name=\"AC\"><branch name=\"Raleigh\"/></region></company>"
    }

    #[test]
    fn sorts_the_figure_1_document() {
        let sorted = sort_doc(figure_1_d1(), NexsortOptions::default());
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        let expect = sorted_dom(&parse_dom(figure_1_d1().as_bytes()).unwrap(), &spec(), None);
        assert_eq!(got, expect);
        assert!(sorted.report.lemma_4_6_holds(), "{}", sorted.report.summary());
    }

    #[test]
    fn tiny_threshold_forces_many_small_sorts() {
        let opts = NexsortOptions { threshold: Some(1), ..Default::default() };
        let sorted = sort_doc(figure_1_d1(), opts);
        assert!(sorted.report.subtree_sorts > 3, "{}", sorted.report.summary());
        assert!(sorted.report.lemma_4_6_holds());
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        let expect = sorted_dom(&parse_dom(figure_1_d1().as_bytes()).unwrap(), &spec(), None);
        assert_eq!(got, expect);
    }

    #[test]
    fn huge_threshold_degenerates_to_one_root_sort() {
        let opts = NexsortOptions { threshold: Some(1 << 30), ..Default::default() };
        let sorted = sort_doc(figure_1_d1(), opts);
        assert_eq!(sorted.report.subtree_sorts, 1);
        assert!(sorted.report.lemma_4_6_holds());
    }

    #[test]
    fn report_statistics_match_the_document() {
        let sorted = sort_doc(figure_1_d1(), NexsortOptions::default());
        let dom = parse_dom(figure_1_d1().as_bytes()).unwrap();
        assert_eq!(sorted.report.n_records, dom.num_nodes());
        assert_eq!(sorted.report.max_fanout, dom.max_fanout() as u64);
        assert_eq!(sorted.report.max_level, dom.height());
    }

    #[test]
    fn striping_and_write_back_leave_bytes_and_logical_io_unchanged() {
        let doc = figure_1_d1();
        let baseline = sort_doc(doc, NexsortOptions::default());
        let expect = events_to_dom(&baseline.to_events().unwrap()).unwrap();

        // A write-back pool on a 4-way stripe changes only where blocks
        // live and when they reach the device, never the sorted bytes or
        // the logical transfer counts the paper's analysis charges.
        let disk = nexsort_extmem::DiskBuilder::new(128)
            .stripe(4)
            .cache(8, nexsort_extmem::CachePolicy::Lru, nexsort_extmem::WriteMode::Back)
            .build()
            .unwrap()
            .disk;
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let nx = Nexsort::new(disk.clone(), NexsortOptions::default(), spec()).unwrap();
        assert_eq!(disk.stripe_width(), 4);
        let sorted = nx.sort_xml_extent(&input).unwrap();
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        assert_eq!(got, expect);
        for cat in nexsort_extmem::IoCat::ALL {
            assert_eq!(sorted.report.io.reads(cat), baseline.report.io.reads(cat), "{cat} reads");
            assert_eq!(
                sorted.report.io.writes(cat),
                baseline.report.io.writes(cat),
                "{cat} writes"
            );
        }
    }

    #[test]
    fn parity_repair_mid_sort_keeps_output_identical_and_reports_degraded() {
        use nexsort_extmem::{FaultKind, FaultPlan, MemDevice};
        // Degeneration mode merges incomplete runs *during* the sort, so a
        // scripted hard fault on a scratch-run block exercises the repair
        // path mid-sort. Pass 1 (clean) learns which blocks the run store
        // writes; pass 2 replays the identical sort with one block damaged.
        let mut doc = String::from("<root>");
        for i in (0..300).rev() {
            doc.push_str(&format!("<item k=\"{i:06}\"/>"));
        }
        doc.push_str("</root>");
        let opts = NexsortOptions {
            degeneration: true,
            mem_frames: 10,
            parity_group: 2,
            ..Default::default()
        };
        let run = |faults: &[u64]| {
            let (disk, inj) = Disk::new_faulty(Box::new(MemDevice::new(128)), FaultPlan::new(0));
            for &b in faults {
                inj.script_block_read(b, FaultKind::BitFlip);
            }
            let input = nexsort_baseline::stage_input(&disk, doc.as_bytes()).unwrap();
            disk.start_trace();
            let nx = Nexsort::new(disk.clone(), opts.clone(), spec()).unwrap();
            let sorted = nx.sort_xml_extent(&input).unwrap();
            let trace = disk.take_trace();
            (sorted.to_recs().unwrap(), sorted.report.clone(), trace)
        };
        let (clean_recs, clean_report, trace) = run(&[]);
        assert!(!clean_report.degraded);
        assert_eq!(clean_report.repairs, 0);
        let scratch: Vec<u64> = trace
            .iter()
            .filter(|t| !t.is_read && t.cat == IoCat::SortScratch)
            .map(|t| t.block)
            .collect();
        assert!(scratch.len() >= 2, "expected several scratch-run blocks");
        // One loss in a parity group: repaired transparently.
        let (recs, report, _) = run(&scratch[..1]);
        assert_eq!(recs, clean_recs, "repaired sort must be bit-identical");
        assert!(report.degraded, "{}", report.summary());
        assert!(report.repairs >= 1);
        assert!(report.quarantined_blocks >= 1);
        assert_eq!(report.rederivations, 0);
    }

    #[test]
    fn lost_parity_group_triggers_rederivation_from_the_source() {
        use nexsort_extmem::{FaultKind, FaultPlan, MemDevice};
        let mut doc = String::from("<root>");
        for i in (0..300).rev() {
            doc.push_str(&format!("<item k=\"{i:06}\"/>"));
        }
        doc.push_str("</root>");
        let opts = NexsortOptions {
            degeneration: true,
            mem_frames: 10,
            parity_group: 2,
            ..Default::default()
        };
        let (disk, _inj) = Disk::new_faulty(Box::new(MemDevice::new(128)), FaultPlan::new(0));
        let input = nexsort_baseline::stage_input(&disk, doc.as_bytes()).unwrap();
        disk.start_trace();
        let nx = Nexsort::new(disk.clone(), opts.clone(), spec()).unwrap();
        let clean_recs = nx.sort_xml_extent(&input).unwrap().to_recs().unwrap();
        let scratch: Vec<u64> = disk
            .take_trace()
            .iter()
            .filter(|t| !t.is_read && t.cat == IoCat::SortScratch)
            .map(|t| t.block)
            .collect();
        assert!(scratch.len() >= 2);

        // Both data blocks of the first run's first parity group are lost:
        // reconstruction is impossible, so the sort must fall back to
        // re-deriving every run from the (still intact) input.
        let (disk, inj) = Disk::new_faulty(Box::new(MemDevice::new(128)), FaultPlan::new(0));
        inj.script_block_read(scratch[0], FaultKind::BitFlip);
        inj.script_block_read(scratch[1], FaultKind::BitFlip);
        let input = nexsort_baseline::stage_input(&disk, doc.as_bytes()).unwrap();
        let nx = Nexsort::new(disk.clone(), opts, spec()).unwrap();
        let sorted = nx.sort_xml_extent(&input).unwrap();
        assert_eq!(sorted.to_recs().unwrap(), clean_recs, "re-derived sort is bit-identical");
        assert!(sorted.report.degraded, "{}", sorted.report.summary());
        assert_eq!(sorted.report.rederivations, 1);
    }

    #[test]
    fn parity_off_by_default_charges_no_parity_io() {
        let sorted = sort_doc(figure_1_d1(), NexsortOptions::default());
        assert_eq!(sorted.report.io_of(IoCat::Parity), 0);
        assert!(!sorted.report.degraded);
    }

    #[test]
    fn parity_changes_only_parity_io_when_healthy() {
        let doc = figure_1_d1();
        let baseline = sort_doc(doc, NexsortOptions { threshold: Some(1), ..Default::default() });
        let opts = NexsortOptions { threshold: Some(1), parity_group: 2, ..Default::default() };
        let protected = sort_doc(doc, opts);
        assert!(protected.report.io_of(IoCat::Parity) > 0, "parity blocks must be written");
        for cat in nexsort_extmem::IoCat::ALL {
            if cat == IoCat::Parity {
                continue;
            }
            assert_eq!(
                protected.report.io.reads(cat),
                baseline.report.io.reads(cat),
                "{cat} reads must not change under parity protection"
            );
            assert_eq!(
                protected.report.io.writes(cat),
                baseline.report.io.writes(cat),
                "{cat} writes must not change under parity protection"
            );
        }
        assert_eq!(protected.to_recs().unwrap(), baseline.to_recs().unwrap());
    }

    #[test]
    fn too_small_memory_is_rejected_up_front() {
        let disk = Disk::new_mem(128);
        let opts = NexsortOptions { mem_frames: 4, ..Default::default() };
        assert!(Nexsort::new(disk, opts, spec()).is_err());
    }

    #[test]
    fn malformed_record_streams_are_rejected() {
        let disk = Disk::new_mem(128);
        let nx = Nexsort::new(disk.clone(), NexsortOptions::default(), spec()).unwrap();
        // Stage bytes that are not a valid record stream as a rec extent.
        let bogus = stage_input(&disk, b"definitely not records").unwrap();
        assert!(nx.sort_rec_extent(&bogus, TagDict::new()).is_err());
    }
}
