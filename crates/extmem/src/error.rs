//! Error type shared across the external-memory substrate.

use std::fmt;

/// Errors surfaced by the external-memory substrate.
///
/// The substrate simulates a block device, so most failures are logic errors
/// (out-of-range block, truncated stream) rather than true I/O failures; the
/// `Io` variant carries real OS errors from the file-backed device.
#[derive(Debug)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ExtError {
    /// A block id referenced a block that was never allocated.
    BadBlock { block: u64, total: u64 },
    /// A read ran past the end of an extent or run.
    UnexpectedEof { wanted: usize, available: usize },
    /// A stack operation referenced bytes below the bottom of the stack.
    StackUnderflow { wanted: usize, len: usize },
    /// The memory budget would be exceeded by a reservation.
    BudgetExceeded { requested: usize, free: usize },
    /// A run id referenced a run that does not exist in the store.
    BadRun { run: u32, total: u32 },
    /// A record or structure failed to decode.
    Corrupt(String),
    /// An underlying OS error from the file-backed device.
    Io(std::io::Error),
    /// A block's stored content no longer matches its recorded checksum:
    /// corruption was detected (rather than silently propagated).
    ChecksumMismatch { block: u64 },
    /// A block was freed twice without an intervening allocation.
    DoubleFree { block: u64 },
    /// A transfer kept failing after the retry policy's attempt budget.
    /// `last` is the error of the final attempt.
    RetriesExhausted { attempts: u32, last: Box<ExtError> },
    /// A transfer addressed an in-range block that the device's allocator
    /// does not hold live: it was freed (use-after-free) or never handed
    /// out (an id inside a stripe gap). The `Disk` checks this on every
    /// logical transfer, before the buffer pool.
    BlockNotLive { block: u64 },
    /// A `CrashDevice` reached its armed crash point: the device image is
    /// frozen and every transfer fails until the controller thaws it.
    /// `after_ios` is the physical I/O index at which the crash fired.
    SimulatedCrash { after_ios: u64 },
    /// Journal replay found a record that cannot be explained by a torn
    /// tail: a checksum mismatch followed by further data, a sequence-number
    /// break, or a record overrunning the journal extent. `offset` is the
    /// byte offset of the offending record within the journal.
    JournalCorrupt { offset: u64, reason: &'static str },
    /// A block reconstructed from its parity group (or scrubbed in place)
    /// does not match the per-block checksum sealed in the journal: the
    /// redundancy itself is inconsistent.
    ParityMismatch { block: u64 },
    /// A transfer addressed a block that the health map has quarantined
    /// after a hard media fault; quarantined blocks are never reused.
    BlockQuarantined { block: u64 },
    /// More members of one parity group hard-failed than the group's single
    /// parity block can reconstruct; the run must be re-derived from its
    /// source or the job fails.
    UnrecoverableGroup { run: u32, lost: u64 },
}

impl ExtError {
    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// Device-level errors (`Io`) and detected corruption (`ChecksumMismatch`,
    /// which a re-read heals when the damage happened on the read path) are
    /// transient; everything else is a logic error, a hard media fault, or an
    /// exhausted retry budget, where retrying again is pointless.
    ///
    /// Every variant is classified explicitly (no `_` or binding catch-all
    /// arm) so that adding a variant forces a decision here; the two clippy
    /// lints denied on this function enforce it (the second one covers a
    /// catch-all that happens to absorb a single variant).
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn is_transient(&self) -> bool {
        match self {
            ExtError::Io(_) | ExtError::ChecksumMismatch { .. } => true,
            ExtError::BadBlock { .. }
            | ExtError::UnexpectedEof { .. }
            | ExtError::StackUnderflow { .. }
            | ExtError::BudgetExceeded { .. }
            | ExtError::BadRun { .. }
            | ExtError::Corrupt(_)
            | ExtError::DoubleFree { .. }
            | ExtError::RetriesExhausted { .. }
            | ExtError::BlockNotLive { .. }
            | ExtError::SimulatedCrash { .. }
            | ExtError::JournalCorrupt { .. }
            | ExtError::ParityMismatch { .. }
            | ExtError::BlockQuarantined { .. }
            | ExtError::UnrecoverableGroup { .. } => false,
        }
    }

    /// Whether this error marks a *hard media fault* on one block: content
    /// that will never read back correctly no matter how often it is retried.
    /// These are the faults the parity layer repairs (a `ChecksumMismatch`
    /// that survives the retry policy, or one raised with retries disabled).
    pub fn is_hard_media_fault(&self) -> bool {
        match self {
            ExtError::ChecksumMismatch { .. } | ExtError::BlockQuarantined { .. } => true,
            ExtError::RetriesExhausted { last, .. } => last.is_hard_media_fault(),
            ExtError::BadBlock { .. }
            | ExtError::UnexpectedEof { .. }
            | ExtError::StackUnderflow { .. }
            | ExtError::BudgetExceeded { .. }
            | ExtError::BadRun { .. }
            | ExtError::Corrupt(_)
            | ExtError::Io(_)
            | ExtError::DoubleFree { .. }
            | ExtError::BlockNotLive { .. }
            | ExtError::SimulatedCrash { .. }
            | ExtError::JournalCorrupt { .. }
            | ExtError::ParityMismatch { .. }
            | ExtError::UnrecoverableGroup { .. } => false,
        }
    }
}

impl fmt::Display for ExtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtError::BadBlock { block, total } => {
                write!(f, "block {block} out of range (device has {total})")
            }
            ExtError::UnexpectedEof { wanted, available } => {
                write!(f, "unexpected end of data: wanted {wanted} bytes, {available} available")
            }
            ExtError::StackUnderflow { wanted, len } => {
                write!(f, "stack underflow: wanted {wanted} bytes, stack holds {len}")
            }
            ExtError::BudgetExceeded { requested, free } => {
                write!(f, "memory budget exceeded: requested {requested} frames, {free} free")
            }
            ExtError::BadRun { run, total } => {
                write!(f, "run {run} out of range (store has {total})")
            }
            ExtError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            ExtError::Io(e) => write!(f, "I/O error: {e}"),
            ExtError::ChecksumMismatch { block } => {
                write!(f, "checksum mismatch on block {block}: corruption detected")
            }
            ExtError::DoubleFree { block } => {
                write!(f, "double free of block {block}")
            }
            ExtError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            ExtError::BlockNotLive { block } => {
                write!(f, "block {block} is not live: freed or never allocated")
            }
            ExtError::SimulatedCrash { after_ios } => {
                write!(f, "simulated crash after {after_ios} physical I/Os: device frozen")
            }
            ExtError::JournalCorrupt { offset, reason } => {
                write!(f, "journal corrupt at offset {offset}: {reason}")
            }
            ExtError::ParityMismatch { block } => {
                write!(f, "parity mismatch on block {block}: redundancy is inconsistent")
            }
            ExtError::BlockQuarantined { block } => {
                write!(f, "block {block} is quarantined after a hard media fault")
            }
            ExtError::UnrecoverableGroup { run, lost } => {
                write!(
                    f,
                    "parity group of run {run} is unrecoverable (block {lost} lost beyond parity)"
                )
            }
        }
    }
}

impl std::error::Error for ExtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExtError::Io(e) => Some(e),
            ExtError::RetriesExhausted { last, .. } => Some(last),
            ExtError::BadBlock { .. }
            | ExtError::UnexpectedEof { .. }
            | ExtError::StackUnderflow { .. }
            | ExtError::BudgetExceeded { .. }
            | ExtError::BadRun { .. }
            | ExtError::Corrupt(_)
            | ExtError::ChecksumMismatch { .. }
            | ExtError::DoubleFree { .. }
            | ExtError::BlockNotLive { .. }
            | ExtError::SimulatedCrash { .. }
            | ExtError::JournalCorrupt { .. }
            | ExtError::ParityMismatch { .. }
            | ExtError::BlockQuarantined { .. }
            | ExtError::UnrecoverableGroup { .. } => None,
        }
    }
}

impl From<std::io::Error> for ExtError {
    fn from(e: std::io::Error) -> Self {
        ExtError::Io(e)
    }
}

/// Convenience alias used throughout the substrate.
pub type Result<T> = std::result::Result<T, ExtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let s = ExtError::BadBlock { block: 9, total: 4 }.to_string();
        assert!(s.contains('9') && s.contains('4'));
        let s = ExtError::UnexpectedEof { wanted: 10, available: 3 }.to_string();
        assert!(s.contains("10") && s.contains('3'));
        let s = ExtError::StackUnderflow { wanted: 2, len: 1 }.to_string();
        assert!(s.contains("underflow"));
        let s = ExtError::BudgetExceeded { requested: 5, free: 2 }.to_string();
        assert!(s.contains("budget"));
        let s = ExtError::BadRun { run: 7, total: 0 }.to_string();
        assert!(s.contains("run 7"));
        let s = ExtError::Corrupt("bad tag".into()).to_string();
        assert!(s.contains("bad tag"));
    }

    #[test]
    fn io_error_converts_and_chains() {
        let e: ExtError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&ExtError::Corrupt("x".into())).is_none());
    }

    #[test]
    fn fault_variants_display_and_chain() {
        let s = ExtError::ChecksumMismatch { block: 12 }.to_string();
        assert!(s.contains("12") && s.contains("checksum"));
        let s = ExtError::DoubleFree { block: 3 }.to_string();
        assert!(s.contains("double free") && s.contains('3'));
        let inner = ExtError::ChecksumMismatch { block: 5 };
        let e = ExtError::RetriesExhausted { attempts: 4, last: Box::new(inner) };
        assert!(e.to_string().contains('4') && e.to_string().contains("block 5"));
        let src = std::error::Error::source(&e).expect("chains to the last error");
        assert!(src.to_string().contains("block 5"));
    }

    #[test]
    fn block_not_live_displays_and_is_fatal() {
        let e = ExtError::BlockNotLive { block: 7 };
        assert!(e.to_string().contains("not live") && e.to_string().contains('7'));
        assert!(!e.is_transient());
        assert!(!e.is_hard_media_fault());
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn crash_and_journal_variants_display_and_are_fatal() {
        let e = ExtError::SimulatedCrash { after_ios: 17 };
        assert!(e.to_string().contains("17") && e.to_string().contains("frozen"));
        assert!(!e.is_transient(), "a crash must not be retried away");
        assert!(std::error::Error::source(&e).is_none());
        let e = ExtError::JournalCorrupt { offset: 96, reason: "checksum mismatch" };
        assert!(e.to_string().contains("96") && e.to_string().contains("checksum"));
        assert!(!e.is_transient());
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn transience_classification() {
        assert!(ExtError::Io(std::io::Error::other("x")).is_transient());
        assert!(ExtError::ChecksumMismatch { block: 0 }.is_transient());
        assert!(!ExtError::DoubleFree { block: 0 }.is_transient());
        assert!(!ExtError::BadBlock { block: 0, total: 0 }.is_transient());
        assert!(!ExtError::Corrupt("x".into()).is_transient());
        let last = Box::new(ExtError::ChecksumMismatch { block: 0 });
        assert!(!ExtError::RetriesExhausted { attempts: 3, last }.is_transient());
    }

    #[test]
    fn parity_variants_display_and_classify() {
        let e = ExtError::ParityMismatch { block: 11 };
        assert!(e.to_string().contains("11") && e.to_string().contains("parity"));
        assert!(!e.is_transient());
        assert!(std::error::Error::source(&e).is_none());
        let e = ExtError::BlockQuarantined { block: 6 };
        assert!(e.to_string().contains('6') && e.to_string().contains("quarantined"));
        assert!(!e.is_transient());
        let e = ExtError::UnrecoverableGroup { run: 3, lost: 40 };
        assert!(e.to_string().contains("run 3") && e.to_string().contains("40"));
        assert!(!e.is_transient());
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn hard_media_faults_are_recognised_through_retry_wrappers() {
        assert!(ExtError::ChecksumMismatch { block: 2 }.is_hard_media_fault());
        assert!(ExtError::BlockQuarantined { block: 2 }.is_hard_media_fault());
        let last = Box::new(ExtError::ChecksumMismatch { block: 2 });
        assert!(ExtError::RetriesExhausted { attempts: 4, last }.is_hard_media_fault());
        let last = Box::new(ExtError::Io(std::io::Error::other("flaky")));
        assert!(!ExtError::RetriesExhausted { attempts: 4, last }.is_hard_media_fault());
        assert!(!ExtError::Io(std::io::Error::other("x")).is_hard_media_fault());
        assert!(!ExtError::UnrecoverableGroup { run: 0, lost: 0 }.is_hard_media_fault());
    }
}
