//! Top-k (`ORDER BY ... LIMIT k`) over an XML document.
//!
//! The operator reuses the NEXSORT scan + run-formation shape of
//! degeneration mode, with three pruning moves that a full sort cannot make:
//!
//! 1. **k-bounded run formation.** While a memory-load of input is scanned,
//!    a bounded max-heap keeps only the k smallest records (by key path) of
//!    that load; everything else is dropped on the spot. A record that is
//!    not among the k best of its own load cannot be among the k best
//!    globally, so this is exact -- and each sealed run holds at most k
//!    records instead of a memory-load.
//! 2. **Whole-run pruning.** Each sealed run remembers its min/max key path
//!    and record count (in memory; free). Sorting runs by max and summing
//!    counts yields a k-th bound B with at least k records at or below it;
//!    any run whose *minimum* exceeds B cannot contribute and is discarded
//!    before the merge ever opens it.
//! 3. **Early-stopped merging.** Intermediate merge passes truncate their
//!    output at k records, and the final merge stops after emitting k --
//!    so passes a full sort would need simply never run.
//!
//! Checkpointing rides the existing journal protocol verbatim
//! (`SortStarted` / `RunSealed` / `ScanDone` / `MergePassCommitted` /
//! `SortDone`), so a crashed top-k resumes from its last sealed phase just
//! like a sort, and parity-protected runs self-heal under the pruned read
//! pattern exactly as they do under a full merge.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

use nexsort::{
    is_beyond_parity, journal_stats, restore_report, seal_records, seal_records_except,
    NexsortOptions, SortReport,
};
use nexsort_baseline::{
    merge_pass, merge_pathed_runs, run_lens, ParsedRecSource, PathedAdapter, PathedSource,
    RecSource,
};
use nexsort_extmem::{
    recover, ByteSink, Disk, Extent, IoCat, IoPhase, Journal, JournalRecord, MemoryBudget,
    MergePlan, RunId, RunStore,
};
use nexsort_xml::{PathedBytes, Rec, RecDecoder, Result, SortSpec, TagDict, XmlError};

/// Per-operator counters: what the pruning actually saved, alongside the
/// sort-level accounting (I/O snapshot, health, resume provenance) in
/// [`sort`](TopKReport::sort).
#[derive(Debug, Clone)]
pub struct TopKReport {
    /// The requested k.
    pub k: u64,
    /// Insertion runs sealed during the scan (each holds at most k records).
    pub runs_formed: u32,
    /// Whole runs discarded because their minimum key path exceeded the
    /// k-th bound: the merge never read a byte of them.
    pub runs_pruned: u32,
    /// Records dropped during the scan by the per-load k-bound (they were
    /// provably outside the top k of their own memory-load).
    pub bound_drops: u64,
    /// Merge passes actually run (intermediate + final).
    pub merge_passes: u32,
    /// Merge passes a full sort of the same formed runs would have needed
    /// but top-k skipped (pruning + k-truncation shrank the run count).
    pub merge_passes_skipped: u32,
    /// Records in the output (min(k, N)).
    pub records_emitted: u64,
    /// Sort-level accounting: input size, logical/physical I/O by category,
    /// degraded-mode health, resume provenance.
    pub sort: SortReport,
}

impl TopKReport {
    fn new(k: u64, block_size: usize, mem_frames: usize, threshold: u64) -> Self {
        Self {
            k,
            runs_formed: 0,
            runs_pruned: 0,
            bound_drops: 0,
            merge_passes: 0,
            merge_passes_skipped: 0,
            records_emitted: 0,
            sort: SortReport::new(block_size, mem_frames, threshold),
        }
    }

    /// Total logical I/O of the operator.
    pub fn total_ios(&self) -> u64 {
        self.sort.io.grand_total()
    }

    /// A compact single-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "topk k={} emitted={} runs={} pruned={} bound_drops={} passes={} skipped={} ios={}",
            self.k,
            self.records_emitted,
            self.runs_formed,
            self.runs_pruned,
            self.bound_drops,
            self.merge_passes,
            self.merge_passes_skipped,
            self.total_ios()
        )
    }
}

/// The finished product: a single flat run of the top k records in sorted
/// order, plus the dictionary to render them with.
pub struct TopKDoc {
    store: Rc<RunStore>,
    root: RunId,
    dict: TagDict,
    mem_frames: usize,
    /// What the operator did and what it cost.
    pub report: TopKReport,
}

impl TopKDoc {
    /// Decode the output run into records (sorted order, paths stripped).
    /// These are byte-identical to the first k records of a full sort's
    /// flattened output.
    pub fn to_recs(&self) -> Result<Vec<Rec>> {
        let budget = MemoryBudget::new(self.mem_frames);
        let len = self.store.run_len(self.root).map_err(XmlError::Ext)?;
        let reader = self.store.open(self.root, &budget, IoCat::RunRead).map_err(XmlError::Ext)?;
        let mut dec = RecDecoder::with_limit(reader, len);
        let mut recs = Vec::new();
        while let Some(rec) = dec.next_rec()? {
            recs.push(rec);
        }
        Ok(recs)
    }

    /// The raw encoded bytes of the output run (the byte-identity the
    /// acceptance tests compare).
    pub fn encoded(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        for rec in self.to_recs()? {
            rec.encode(&mut out)?;
        }
        Ok(out)
    }

    /// Render one line per output record: `level kind name key`. A top-k
    /// prefix is generally not a well-formed XML tree (children may be cut
    /// from their parents), so the listing form is the honest output.
    pub fn to_text(&self) -> Result<String> {
        let mut out = String::new();
        for rec in self.to_recs()? {
            match &rec {
                Rec::Elem(e) => {
                    let name = String::from_utf8_lossy(e.name.resolve(&self.dict)?).into_owned();
                    out.push_str(&format!("{} elem {} {}\n", e.level, name, e.key));
                }
                Rec::Text(t) => {
                    let txt = String::from_utf8_lossy(&t.content).into_owned();
                    out.push_str(&format!("{} text {:?} {}\n", t.level, txt, t.key));
                }
                Rec::RunPtr(p) => {
                    out.push_str(&format!("{} ptr run={} {}\n", p.level, p.run, p.key));
                }
                Rec::KeyPatch(p) => {
                    out.push_str(&format!("{} patch {}\n", p.level, p.key));
                }
            }
        }
        Ok(out)
    }

    /// The tag dictionary the records were encoded against.
    pub fn dict(&self) -> &TagDict {
        &self.dict
    }

    /// The run store holding the output run.
    pub fn store(&self) -> &Rc<RunStore> {
        &self.store
    }

    /// The output run id.
    pub fn root_run(&self) -> RunId {
        self.root
    }
}

/// Max-heap wrapper: orders encoded records by key path so the heap root is
/// the *largest* retained record -- the one the k-bound evicts first.
struct ByPath(PathedBytes);

impl PartialEq for ByPath {
    fn eq(&self, other: &Self) -> bool {
        self.0.cmp_path(&other.0) == Ordering::Equal
    }
}
impl Eq for ByPath {}
impl PartialOrd for ByPath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByPath {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp_path(&other.0)
    }
}

/// In-memory metadata of one sealed insertion run; the whole-run prune
/// works off this without any I/O.
struct RunMeta {
    id: RunId,
    count: u64,
    min: PathedBytes,
    max: PathedBytes,
}

/// The top-k operator: configuration plus the disk it runs on.
pub struct TopK {
    disk: Rc<Disk>,
    opts: NexsortOptions,
    spec: SortSpec,
    k: u64,
}

impl TopK {
    /// A top-k operator over `disk` for the given ordering criterion.
    /// Validates exactly like [`Nexsort::new`](nexsort::Nexsort). Deferred
    /// (end-tag-resolved) keys are not supported (same restriction as
    /// degeneration mode).
    pub fn new(disk: Rc<Disk>, opts: NexsortOptions, spec: SortSpec, k: u64) -> Result<Self> {
        if k == 0 {
            return Err(XmlError::Record("top-k needs k >= 1".into()));
        }
        if spec.has_deferred_keys() {
            return Err(XmlError::Record(
                "deferred keys are not supported by the top-k operator".into(),
            ));
        }
        // Reuse the sorter's validation verbatim.
        let nx = nexsort::Nexsort::new(disk.clone(), opts, spec)?;
        let (opts, spec) = (nx.options().clone(), nx.spec().clone());
        Ok(Self { disk, opts, spec, k })
    }

    /// The configured options.
    pub fn options(&self) -> &NexsortOptions {
        &self.opts
    }

    /// Find the top k records of an XML text document resident on disk.
    ///
    /// Degraded-mode behavior matches the sorter: hard media faults on
    /// parity-protected runs are repaired transparently under the pruned
    /// read pattern; a whole lost group re-derives once from the input.
    pub fn topk_xml_extent(&self, input: &Extent) -> Result<TopKDoc> {
        let budget = MemoryBudget::new(self.opts.mem_frames);
        let health_before = self.disk.health();
        let mut journal = self.start_journal(input)?;
        let mut rederived = false;
        loop {
            let src = ParsedRecSource::new(
                self.disk.clone(),
                &budget,
                input,
                &self.spec,
                self.opts.compaction,
            )
            .map_err(XmlError::Ext)?;
            match self.run_fresh(src, &budget, &mut journal) {
                Ok((store, root, dict, mut report)) => {
                    absorb_health(&mut report.sort, &health_before, &self.disk.health());
                    return Ok(TopKDoc {
                        store,
                        root,
                        dict,
                        mem_frames: self.opts.mem_frames,
                        report,
                    });
                }
                Err(e) if !rederived && is_beyond_parity(&e) => {
                    rederived = true;
                    self.disk.note_rederivation();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Resume an interrupted checkpointed top-k: a committed `SortDone`
    /// reattaches the finished output with no I/O beyond the journal
    /// replay; a committed scan re-enters the selection/merge phase at the
    /// first uncommitted pass; anything less redoes the operator. A disk
    /// with no journal falls back to a fresh
    /// [`topk_xml_extent`](Self::topk_xml_extent). Must be called with the
    /// same options, spec, and k as the interrupted run.
    pub fn resume_xml_extent(&self, input: &Extent) -> Result<TopKDoc> {
        let budget = MemoryBudget::new(self.opts.mem_frames);
        let health_before = self.disk.health();
        let Some((journal, state)) = recover(&self.disk, input.blocks()).map_err(XmlError::Ext)?
        else {
            return self.topk_xml_extent(input);
        };
        let mut journal = Some(journal);
        let mut src = ParsedRecSource::new(
            self.disk.clone(),
            &budget,
            input,
            &self.spec,
            self.opts.compaction,
        )
        .map_err(XmlError::Ext)?;
        let block_size = self.disk.block_size();
        let threshold = self.opts.threshold_bytes(block_size);
        if state.sort_done.is_some() || state.scan_done {
            // The scan will not run again: drain the parser for its
            // dictionary side effect.
            let mut buf = Vec::new();
            while src.next_encoded(&mut buf)?.is_some() {
                buf.clear();
            }
        }

        if let Some((root, _flat)) = state.sort_done {
            // Finished before the crash: reattach.
            let mut report = TopKReport::new(self.k, block_size, self.opts.mem_frames, threshold);
            restore_report(&state.stats, &mut report.sort);
            report.runs_formed = state.stats.incomplete_runs;
            report.sort.resumed = true;
            report.sort.committed_passes_skipped = report.sort.degenerate_merges;
            report.sort.degenerate_merges = 0;
            report.sort.root_flat = true;
            let store = RunStore::restore(self.disk.clone(), state.runs);
            store.set_parity_group(self.opts.parity_group);
            report.records_emitted = count_records(&store, RunId(root), &budget)?;
            absorb_health(&mut report.sort, &health_before, &self.disk.health());
            return Ok(TopKDoc {
                store,
                root: RunId(root),
                dict: src.into_dict(),
                mem_frames: self.opts.mem_frames,
                report,
            });
        }

        if state.scan_done {
            // The scan sealed: every surviving run and the pending order
            // are durable. Re-enter selection at the first uncommitted
            // pass; whole-run metadata died with the crashed process, so
            // the metadata prune is skipped (the merge's early stop still
            // bounds the work).
            let mut report = TopKReport::new(self.k, block_size, self.opts.mem_frames, threshold);
            restore_report(&state.stats, &mut report.sort);
            report.runs_formed = state.stats.incomplete_runs;
            report.sort.resumed = true;
            report.sort.committed_passes_skipped = state.committed_passes;
            report.sort.degenerate_merges = 0;
            let pending: Vec<RunId> = state.pending.iter().flatten().map(|&t| RunId(t)).collect();
            if pending.is_empty() {
                return Err(XmlError::Record(
                    "journal seals the scan but names no pending runs".into(),
                ));
            }
            let store = RunStore::restore(self.disk.clone(), state.runs);
            store.set_parity_group(self.opts.parity_group);
            let stats = self.disk.stats();
            let io_before = stats.snapshot();
            let start = Instant::now();
            let root = self.select(
                &store,
                pending,
                &budget,
                &mut journal,
                &mut report,
                state.committed_passes,
            )?;
            report.sort.io = stats.snapshot().since(&io_before);
            report.sort.elapsed = start.elapsed();
            absorb_health(&mut report.sort, &health_before, &self.disk.health());
            return Ok(TopKDoc {
                store,
                root,
                dict: src.into_dict(),
                mem_frames: self.opts.mem_frames,
                report,
            });
        }

        // Nothing beyond the start record committed: redo on the existing
        // journal (recovery already reclaimed the crash's leaked blocks).
        let (store, root, dict, mut report) = self.run_fresh(src, &budget, &mut journal)?;
        report.sort.resumed = true;
        absorb_health(&mut report.sort, &health_before, &self.disk.health());
        Ok(TopKDoc { store, root, dict, mem_frames: self.opts.mem_frames, report })
    }

    fn start_journal(&self, input: &Extent) -> Result<Option<Journal>> {
        if !self.opts.checkpoint {
            return Ok(None);
        }
        let mut journal =
            Journal::create(&self.disk, self.opts.journal_blocks).map_err(XmlError::Ext)?;
        journal
            .checkpoint(&[JournalRecord::SortStarted { input_len: input.len() }])
            .map_err(XmlError::Ext)?;
        Ok(Some(journal))
    }

    /// Fresh scan + prune + select pipeline.
    fn run_fresh(
        &self,
        src: ParsedRecSource,
        budget: &MemoryBudget,
        journal: &mut Option<Journal>,
    ) -> Result<(Rc<RunStore>, RunId, TagDict, TopKReport)> {
        let stats = self.disk.stats();
        let io_before = stats.snapshot();
        let start = Instant::now();
        let block_size = self.disk.block_size();
        let threshold = self.opts.threshold_bytes(block_size);
        let mut report = TopKReport::new(self.k, block_size, self.opts.mem_frames, threshold);

        let store = RunStore::new(self.disk.clone());
        store.set_parity_group(self.opts.parity_group);
        let mut adapter = PathedAdapter::new(src, self.opts.depth_limit);
        let mut metas = self.scan(&store, &mut adapter, budget, &mut report)?;
        let dict = adapter.into_inner().into_dict();

        // Whole-run prune: discard runs that provably cannot contribute.
        let bound = kth_bound(&metas, self.k);
        if let Some(bound) = bound {
            let (keep, drop): (Vec<RunMeta>, Vec<RunMeta>) =
                metas.into_iter().partition(|m| m.min.cmp_path(&bound) != Ordering::Greater);
            for m in &drop {
                store.discard(m.id).map_err(XmlError::Ext)?;
            }
            report.runs_pruned = drop.len() as u32;
            metas = keep;
        }
        // Pending order: ascending run minimum. The merge plan takes the
        // shortest runs and breaks length ties by this order. Determinism:
        // ties cannot happen (key paths are unique), but fall back to run
        // id anyway.
        metas.sort_by(|a, b| a.min.cmp_path(&b.min).then(a.id.cmp(&b.id)));
        let pending: Vec<RunId> = metas.iter().map(|m| m.id).collect();

        if let Some(j) = journal.as_mut() {
            let mut recs = seal_records(&store)?;
            recs.push(JournalRecord::ScanDone {
                pending: pending.iter().map(|r| r.0).collect(),
                stats: journal_stats(&report.sort),
            });
            j.checkpoint(&recs).map_err(XmlError::Ext)?;
        }

        let root = self.select(&store, pending, budget, journal, &mut report, 0)?;
        report.sort.io = stats.snapshot().since(&io_before);
        report.sort.elapsed = start.elapsed();
        Ok((store, root, dict, report))
    }

    /// Scan the input, sealing one k-bounded insertion run per memory-load.
    fn scan(
        &self,
        store: &Rc<RunStore>,
        src: &mut dyn PathedSource,
        budget: &MemoryBudget,
        report: &mut TopKReport,
    ) -> Result<Vec<RunMeta>> {
        self.disk.in_phase(IoPhase::InputScan, || {
            let block_size = self.disk.block_size() as u64;
            let staging_frames = budget.free_frames().saturating_sub(2);
            if staging_frames < 2 {
                return Err(XmlError::Ext(nexsort_extmem::ExtError::BudgetExceeded {
                    requested: 4,
                    free: budget.free_frames(),
                }));
            }
            let staging_guard = budget.reserve(staging_frames).map_err(XmlError::Ext)?;
            let capacity = staging_frames as u64 * block_size;

            let mut heap: BinaryHeap<ByPath> = BinaryHeap::new();
            let mut retained_bytes = 0u64;
            let mut scanned_bytes = 0u64;
            let mut metas = Vec::new();
            // The next record is read into `spare`; a retained record moves
            // into the heap and an evicted one's buffer becomes the spare.
            let mut spare = Vec::new();
            loop {
                spare.clear();
                let Some(path_len) = src.next_encoded(&mut spare)? else {
                    break;
                };
                let p = PathedBytes { bytes: std::mem::take(&mut spare), path_len };
                let enc = p.bytes.len() as u64;
                report.sort.n_records += 1;
                report.sort.max_level = report.sort.max_level.max(p.level());
                report.sort.input_bytes += p.rec_bytes().len() as u64;
                scanned_bytes += enc;
                if (heap.len() as u64) < self.k {
                    retained_bytes += enc;
                    heap.push(ByPath(p));
                } else if heap.peek().is_some_and(|top| p.cmp_path(&top.0) == Ordering::Less) {
                    // Strictly better than the load's current k-th: swap it in.
                    if let Some(ByPath(out)) = heap.pop() {
                        retained_bytes = retained_bytes.saturating_sub(out.bytes.len() as u64);
                        spare = out.bytes;
                    }
                    retained_bytes += enc;
                    heap.push(ByPath(p));
                    report.bound_drops += 1;
                } else {
                    spare = p.bytes;
                    report.bound_drops += 1;
                }
                // Seal when a memory-load of input has been scanned (run
                // formation's natural boundary) or the retained set itself
                // outgrows memory (k larger than a memory-load).
                if (scanned_bytes >= capacity || retained_bytes >= capacity) && !heap.is_empty() {
                    metas.push(self.seal(store, &mut heap, budget, report)?);
                    scanned_bytes = 0;
                    retained_bytes = 0;
                }
            }
            if !heap.is_empty() {
                metas.push(self.seal(store, &mut heap, budget, report)?);
            }
            drop(staging_guard);
            Ok(metas)
        })
    }

    /// Seal the current load's retained records as one sorted insertion run.
    fn seal(
        &self,
        store: &Rc<RunStore>,
        heap: &mut BinaryHeap<ByPath>,
        budget: &MemoryBudget,
        report: &mut TopKReport,
    ) -> Result<RunMeta> {
        let sorted: Vec<PathedBytes> =
            std::mem::take(heap).into_sorted_vec().into_iter().map(|ByPath(p)| p).collect();
        let id = self.disk.in_phase(IoPhase::RunFormation, || -> Result<RunId> {
            let mut w = store.create(budget, IoCat::SortScratch).map_err(XmlError::Ext)?;
            for p in &sorted {
                w.write_all(&p.bytes).map_err(XmlError::Ext)?;
            }
            w.finish().map_err(XmlError::Ext)
        })?;
        report.runs_formed += 1;
        report.sort.incomplete_runs += 1;
        Ok(RunMeta {
            id,
            count: sorted.len() as u64,
            min: sorted.first().cloned().unwrap_or_default(),
            max: sorted.last().cloned().unwrap_or_default(),
        })
    }

    /// Selection phase: reduce the surviving runs below the merge fan-in
    /// (k-truncated intermediate passes, in the order the [`MergePlan`]
    /// picks), then merge with an early stop after k records, stripping key
    /// paths into the flat output run.
    fn select(
        &self,
        store: &Rc<RunStore>,
        runs: Vec<RunId>,
        budget: &MemoryBudget,
        journal: &mut Option<Journal>,
        report: &mut TopKReport,
        pass_base: u32,
    ) -> Result<RunId> {
        let fan_in = budget.free_frames().saturating_sub(1).max(2);
        let (mut plan, cat) = (MergePlan::new(fan_in, run_lens(store, &runs)?), IoCat::SortScratch);
        // k-truncation: only the k best of any run subset can be in the
        // global top k, so a pass's output stops there.
        plan.merge_down(|n, group| {
            merge_pass(store, budget, journal, pass_base + n, group, cat, self.k)
        })?;
        // Merges run here, the final one included.
        report.sort.degenerate_merges += plan.merges() + 1;
        report.merge_passes += plan.merges() + 1;

        // Final merge: strip key paths, stop after k records.
        let runs = plan.runs();
        self.disk.in_phase(IoPhase::FinalMerge, || {
            let (root, emitted) =
                merge_pathed_runs(store, budget, &runs, cat, IoCat::RunWrite, self.k, |p| {
                    p.rec_bytes()
                })?;
            report.records_emitted = emitted;
            report.sort.root_flat = true;
            // Against a full merge of every formed run: as many merges as
            // the plan of that many runs makes, the final one included.
            let full =
                MergePlan::simulate(fan_in, &vec![1; report.runs_formed as usize]).merges() + 1;
            report.merge_passes_skipped = full.saturating_sub(pass_base + report.merge_passes);

            if let Some(j) = journal.as_mut() {
                let consumed: Vec<u32> = runs.iter().map(|r| r.0).collect();
                let mut recs = seal_records_except(store, &consumed)?;
                recs.extend(consumed.iter().map(|&token| JournalRecord::RunDiscarded { token }));
                recs.push(JournalRecord::SortDone {
                    root: root.0,
                    root_flat: true,
                    stats: journal_stats(&report.sort),
                });
                j.checkpoint(&recs).map_err(XmlError::Ext)?;
            }
            runs.iter().try_for_each(|&id| store.discard(id)).map_err(XmlError::Ext)?;
            Ok(root)
        })
    }
}

/// The smallest key path B with at least k records at or below it, derived
/// from run metadata alone: take runs in ascending-max order until their
/// counts cover k; B is the last taken run's max. `None` when fewer than k
/// records exist (no pruning is sound then).
fn kth_bound(metas: &[RunMeta], k: u64) -> Option<PathedBytes> {
    let mut by_max: Vec<&RunMeta> = metas.iter().collect();
    by_max.sort_by(|a, b| a.max.cmp_path(&b.max));
    let mut covered = 0u64;
    for m in by_max {
        covered += m.count;
        if covered >= k {
            return Some(m.max.clone());
        }
    }
    None
}

/// Records in a run (used when reattaching a finished output on resume).
fn count_records(store: &Rc<RunStore>, id: RunId, budget: &MemoryBudget) -> Result<u64> {
    let len = store.run_len(id).map_err(XmlError::Ext)?;
    let reader = store.open(id, budget, IoCat::RunRead).map_err(XmlError::Ext)?;
    let mut dec = RecDecoder::with_limit(reader, len);
    let (mut n, mut buf) = (0u64, Vec::new());
    while dec.next_encoded(&mut buf)?.is_some() {
        buf.clear();
        n += 1;
    }
    Ok(n)
}

/// Fold the disk's health delta into the report (same policy as the
/// sorter's): repairs, quarantines, or re-derivations mark it degraded.
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
    use nexsort::Nexsort;
    use nexsort_baseline::stage_input;
    use nexsort_xml::SortSpec;

    fn spec() -> SortSpec {
        SortSpec::by_attribute("k")
    }

    fn flat_doc(n: usize) -> String {
        let mut doc = String::from("<root>");
        for i in (0..n).rev() {
            doc.push_str(&format!("<item k=\"{i:06}\"/>"));
        }
        doc.push_str("</root>");
        doc
    }

    fn full_sort_recs(doc: &str) -> Vec<Rec> {
        let disk = Disk::new_mem(256);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let opts = NexsortOptions { degeneration: true, mem_frames: 16, ..Default::default() };
        Nexsort::new(disk, opts, spec())
            .unwrap()
            .sort_xml_extent(&input)
            .unwrap()
            .to_recs()
            .unwrap()
    }

    fn topk_recs(doc: &str, k: u64, mem: usize) -> (Vec<Rec>, TopKReport) {
        let disk = Disk::new_mem(256);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let opts = NexsortOptions { mem_frames: mem, ..Default::default() };
        let doc = TopK::new(disk, opts, spec(), k).unwrap().topk_xml_extent(&input).unwrap();
        let recs = doc.to_recs().unwrap();
        (recs, doc.report.clone())
    }

    #[test]
    fn topk_equals_full_sort_prefix() {
        let doc = flat_doc(400);
        let full = full_sort_recs(&doc);
        for k in [1u64, 7, 40, 200, 1000] {
            let (got, report) = topk_recs(&doc, k, 10);
            let want: Vec<Rec> = full.iter().take(k as usize).cloned().collect();
            assert_eq!(got, want, "k={k}: {}", report.summary());
            assert_eq!(report.records_emitted, (k).min(full.len() as u64));
        }
    }

    #[test]
    fn small_k_prunes_runs_and_drops_records() {
        let doc = flat_doc(600);
        let (_, report) = topk_recs(&doc, 5, 10);
        assert!(report.runs_formed > 2, "{}", report.summary());
        assert!(report.runs_pruned > 0, "{}", report.summary());
        assert!(report.bound_drops > 0, "{}", report.summary());
    }

    #[test]
    fn small_k_beats_full_sort_io() {
        let doc = flat_doc(600);
        let disk = Disk::new_mem(512);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let opts = NexsortOptions { degeneration: true, mem_frames: 10, ..Default::default() };
        let full = Nexsort::new(disk, opts, spec()).unwrap().sort_xml_extent(&input).unwrap();
        let (_, report) = topk_recs(&doc, 5, 10);
        assert!(
            report.total_ios() < full.report.total_ios(),
            "topk {} vs full {}",
            report.total_ios(),
            full.report.total_ios()
        );
    }

    #[test]
    fn io_is_monotone_in_k() {
        let doc = flat_doc(500);
        let mut last = u64::MAX;
        for k in [500u64, 100, 20, 5] {
            let (_, report) = topk_recs(&doc, k, 10);
            assert!(
                report.total_ios() <= last,
                "k={k} used {} ios, larger k used {last}",
                report.total_ios()
            );
            last = report.total_ios();
        }
    }

    #[test]
    fn rejects_k_zero_and_deferred_keys() {
        let disk = Disk::new_mem(64);
        assert!(TopK::new(disk, NexsortOptions::default(), spec(), 0).is_err());
    }
}
