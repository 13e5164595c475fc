//! Configuration of a NEXSORT run.

/// Tunables of the algorithm, mirroring the paper's parameters.
///
/// The device stack the sort runs on (page cache, striping)
/// is outside the paper's cost model and is configured where the stack is
/// built, on `nexsort_extmem::DiskBuilder`.
#[derive(Debug, Clone)]
pub struct NexsortOptions {
    /// Internal memory in block frames (the model's `m = M/B`). Figure 5
    /// sweeps this. Must be at least [`NexsortOptions::MIN_MEM_FRAMES`].
    pub mem_frames: usize,
    /// The sort threshold `t`, in bytes: a complete subtree is sorted into a
    /// run only once it is larger than `t` (Figure 4 line 9). `None` picks
    /// the paper's experimental choice of twice the block size ("we set the
    /// threshold to be roughly twice the block size", Section 5).
    pub threshold: Option<u64>,
    /// Depth-limited sorting (Section 3.2): with `Some(d)` (root at level 1),
    /// only elements at level <= `d` have their children reordered; subtrees
    /// rooted below level `d + 1` are treated as atomic units.
    pub depth_limit: Option<u32>,
    /// XML compaction (Section 3.2): tag-name dictionary; end tags are always
    /// eliminated via level numbers. Off stores names inline (the ablation).
    pub compaction: bool,
    /// Graceful degeneration into external merge sort (Section 3.2): buffer
    /// the frontier in memory and spill *incomplete sorted runs* instead of
    /// pushing everything through the external data stack, so a flat
    /// document costs the same passes as plain external merge sort. The
    /// paper describes but does not implement this; both variants are here
    /// so Figure 7 can show the difference.
    pub degeneration: bool,
    /// Resident frames for the path stack (the analysis of Lemma 4.11
    /// assumes at least 2).
    pub path_stack_frames: usize,
    /// Cap on the data stack's resident frames (at least 1, Section 3.1).
    /// The stack reserves one frame and borrows free budget frames up to
    /// this cap instead of paging out; a subtree range it holds entirely
    /// resident is sorted where it sits. `1` is the published policy (one
    /// frame, every range streamed through the device), which the paper's
    /// cost model and the figure experiments use. The default,
    /// [`NexsortOptions::LEND_ALL`], takes as many frames as the budget lends.
    pub data_stack_frames: usize,
    /// Crash-consistent checkpointing: maintain a write-ahead manifest
    /// journal on the device (see `nexsort_extmem::Journal`) whose commit
    /// records land only after the page cache is flushed. An interrupted sort can then
    /// be resumed with [`Nexsort::resume_xml_extent`]
    /// (crate::Nexsort::resume_xml_extent) without redoing committed work.
    /// Off by default: journal writes are extra I/O the paper's model does
    /// not charge.
    pub checkpoint: bool,
    /// Size of the journal extent in blocks (header + record space), used
    /// when `checkpoint` is on. The journal is fixed-size; a sort whose
    /// manifest outgrows it fails with a structured overflow error.
    pub journal_blocks: usize,
    /// Parity protection for sealed runs: every `parity_group` data blocks
    /// get one XOR parity block, written alongside the run and charged to
    /// `IoCat::Parity`. A hard media fault (persistent corruption, retries
    /// exhausted) on a protected block is then repaired transparently during
    /// merge and output reads: the block is reconstructed from its parity
    /// group, rewritten to a fresh extent, and the bad block quarantined.
    /// `1` mirrors every block; `0` (the default) disables redundancy -- the
    /// paper's model charges no parity I/O.
    pub parity_group: usize,
}

impl NexsortOptions {
    /// Smallest workable budget: data stack (1) + path stack (2) + input
    /// reader (1) + subtree-sort machinery (range reader, run writer, and at
    /// least a 2-frame sort buffer / 2-way merge fan-in).
    pub const MIN_MEM_FRAMES: usize = 8;

    /// `data_stack_frames` with no cap: the data stack holds as many frames
    /// as the budget has free.
    pub const LEND_ALL: usize = usize::MAX;

    /// The effective sort threshold in bytes for a given block size.
    pub fn threshold_bytes(&self, block_size: usize) -> u64 {
        self.threshold.unwrap_or(2 * block_size as u64)
    }
}

/// Journal extent size for checkpointing on `block_size`-byte blocks: the
/// default 32 blocks, clamped so the header (28 bytes of magic/count/crc
/// plus 8 per block id) still self-describes the extent within one block.
pub fn journal_blocks(block_size: usize) -> usize {
    32usize.min(((block_size.saturating_sub(28)) / 8).max(2))
}

impl Default for NexsortOptions {
    fn default() -> Self {
        Self {
            mem_frames: 16,
            threshold: None,
            depth_limit: None,
            compaction: true,
            degeneration: false,
            path_stack_frames: 2,
            data_stack_frames: Self::LEND_ALL,
            checkpoint: false,
            journal_blocks: 32,
            parity_group: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_is_twice_the_block_size() {
        let o = NexsortOptions::default();
        assert_eq!(o.threshold_bytes(4096), 8192);
        assert_eq!(o.threshold_bytes(64), 128);
    }

    #[test]
    fn explicit_threshold_wins() {
        let o = NexsortOptions { threshold: Some(1000), ..Default::default() };
        assert_eq!(o.threshold_bytes(4096), 1000);
    }

    #[test]
    fn journal_blocks_clamps_at_the_boundaries() {
        // Nominal: 32 blocks whenever the block can describe that many.
        assert_eq!(journal_blocks(284), 32, "(284-28)/8 = 32: smallest size at the cap");
        assert_eq!(journal_blocks(1 << 20), 32, "huge blocks stay capped at 32");
        assert_eq!(journal_blocks(usize::MAX), 32, "no overflow at the extreme");
        // Small blocks: the 28-byte header eats into the self-description.
        assert_eq!(journal_blocks(64), 4, "(64-28)/8 floors to 4");
        assert_eq!(journal_blocks(52), 3);
        assert_eq!(journal_blocks(44), 2);
        // Just above the header: the floor of 2 takes over.
        assert_eq!(journal_blocks(36), 2, "(36-28)/8 = 1 is clamped up to the floor");
        assert_eq!(journal_blocks(29), 2);
        // At or below the header size the subtraction saturates; still 2.
        assert_eq!(journal_blocks(28), 2);
        assert_eq!(journal_blocks(0), 2);
    }

    #[test]
    fn defaults_satisfy_the_paper_assumptions() {
        let o = NexsortOptions::default();
        assert!(o.path_stack_frames >= 2, "Lemma 4.11 premise");
        assert!(o.data_stack_frames >= 1, "Section 3.1 premise");
        assert!(o.mem_frames >= NexsortOptions::MIN_MEM_FRAMES);
        assert!(o.compaction);
        assert!(!o.degeneration, "paper's measured configuration");
        assert!(!o.checkpoint, "journaling is opt-in: extra I/O outside the paper's model");
        assert!(o.journal_blocks >= 2, "journal needs a header block plus record space");
        assert_eq!(o.parity_group, 0, "redundancy is opt-in: parity I/O is outside the model");
    }
}
