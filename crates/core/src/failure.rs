//! Structured reporting of unrecoverable I/O faults.
//!
//! When the disk's retry layer gives up on a transfer (see
//! [`RetryPolicy`](nexsort_extmem::RetryPolicy)), the error that bubbles up
//! through the sort is a bare [`ExtError`](nexsort_extmem::ExtError). This
//! module turns it into a [`SortFailure`] that names *where* the sort was --
//! run formation, merge pass `k`, stack paging, input scan, or output -- the
//! I/O category and block of the failing transfer, how many attempts were
//! made, and the I/O completed up to the failure. The
//! [`Nexsort::try_sort_xml_extent`](crate::Nexsort::try_sort_xml_extent)
//! family returns it directly.

use std::fmt;

use nexsort_extmem::{Disk, ExtError, IoCat, IoPhase, IoSnapshot};
use nexsort_xml::XmlError;

/// Coarse classification of a [`SortFailure`], used by callers (the CLI maps
/// these to distinct exit codes) to decide what a re-run could achieve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCategory {
    /// The failing transfer could plausibly succeed on a clean re-run
    /// (flaky device, exhausted retry budget on a transient error).
    Transient,
    /// A hard media fault on the sort's own storage that redundancy could
    /// not absorb: persistent corruption, a quarantined block, a parity
    /// group with more losses than one parity block covers. Re-running on
    /// the same device will hit the same damage; the input itself is fine.
    Persistent,
    /// The *source* is unreadable. No amount of retrying, parity repair, or
    /// re-derivation can help: the data the sort was asked to sort is lost.
    Source,
    /// Not an I/O fault at all (malformed input, budget exhaustion, ...).
    Other,
}

/// A sort that ended in an unrecoverable fault, with enough context to say
/// what was lost: the phase, the failing transfer, and the work done so far.
#[derive(Debug)]
pub struct SortFailure {
    /// The algorithm phase whose I/O failed (run formation, merge pass `k`,
    /// final merge, input scan, output emission, or setup).
    pub phase: IoPhase,
    /// Category of the failing transfer, when the disk recorded a give-up.
    /// `None` means the error did not originate in a block transfer (e.g. a
    /// malformed record) or predates the retry layer.
    pub cat: Option<IoCat>,
    /// Block id of the failing transfer, if known.
    pub block: Option<u64>,
    /// Whether the failing transfer was a read.
    pub is_read: bool,
    /// Attempts made on the failing transfer (1 = failed without retrying).
    pub attempts: u32,
    /// The underlying error, unrecoverable by the retry policy in force.
    pub error: XmlError,
    /// I/O performed from the start of the sort up to the failure,
    /// including the retries spent before giving up.
    pub io_so_far: IoSnapshot,
}

impl SortFailure {
    /// Build a failure report from the disk's state after `error` escaped a
    /// sort that began when the disk's stats read `before`.
    ///
    /// If the disk recorded a retry give-up ([`Disk::last_failure`]), its
    /// phase, category, block, and attempt count are authoritative;
    /// otherwise the disk's current phase label is used and the transfer
    /// fields stay unknown.
    pub fn classify(disk: &Disk, error: XmlError, before: &IoSnapshot) -> Self {
        let io_so_far = disk.stats().snapshot().since(before);
        match disk.last_failure() {
            Some(f) => Self {
                phase: f.phase,
                cat: Some(f.cat),
                block: Some(f.block),
                is_read: f.is_read,
                attempts: f.attempts,
                error,
                io_so_far,
            },
            None => Self {
                phase: disk.phase(),
                cat: None,
                block: None,
                is_read: false,
                attempts: 1,
                error,
                io_so_far,
            },
        }
    }

    /// Classify the failure for retry/exit-code decisions. A fault while
    /// reading the input is a lost [`Source`](FailureCategory::Source)
    /// regardless of its error shape; otherwise hard media faults (including
    /// parity-layer verdicts) are [`Persistent`](FailureCategory::Persistent)
    /// and retryable errors are [`Transient`](FailureCategory::Transient).
    pub fn category(&self) -> FailureCategory {
        if matches!(self.cat, Some(IoCat::InputRead)) {
            return FailureCategory::Source;
        }
        let XmlError::Ext(e) = &self.error else { return FailureCategory::Other };
        if e.is_hard_media_fault()
            || matches!(e, ExtError::ParityMismatch { .. } | ExtError::UnrecoverableGroup { .. })
        {
            FailureCategory::Persistent
        } else if e.is_transient()
            || matches!(e, ExtError::RetriesExhausted { last, .. } if last.is_transient())
        {
            FailureCategory::Transient
        } else {
            FailureCategory::Other
        }
    }

    /// True when the failing transfer was paging one of the external stacks
    /// (data, path, output-location, or output-tag stack).
    pub fn is_stack_paging(&self) -> bool {
        matches!(
            self.cat,
            Some(IoCat::DataStack | IoCat::PathStack | IoCat::OutLocStack | IoCat::OutTagStack)
        )
    }

    /// Human name of the failure site. A stack-paging or journal fault keeps
    /// the algorithm phase in the name: the category alone says which
    /// structure failed, and the recorded phase is the only clue to what
    /// work was in flight.
    pub fn site(&self) -> String {
        match self.cat {
            Some(c) if self.is_stack_paging() => {
                format!("stack paging ({c}) during {}", self.phase)
            }
            Some(IoCat::Journal) => format!("journal I/O during {}", self.phase),
            _ => self.phase.to_string(),
        }
    }
}

impl fmt::Display for SortFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sort failed during {}", self.site())?;
        if let Some(cat) = self.cat {
            let dir = if self.is_read { "reading" } else { "writing" };
            write!(f, " while {dir} {cat}")?;
            if let Some(block) = self.block {
                write!(f, " block {block}")?;
            }
            write!(f, " after {} attempt(s)", self.attempts)?;
        }
        write!(f, ": {}", self.error)?;
        write!(
            f,
            " [{} transfers done, {} retried]",
            self.io_so_far.grand_total(),
            self.io_so_far.total_retries()
        )
    }
}

impl std::error::Error for SortFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::NexsortOptions;
    use crate::sorter::Nexsort;
    use nexsort_baseline::stage_input;
    use nexsort_extmem::{ExtError, FaultKind, FaultPlan, MemDevice, RetryPolicy};
    use nexsort_xml::SortSpec;

    fn doc() -> String {
        let mut d = String::from("<root>");
        for i in 0..200 {
            d.push_str(&format!("<item k=\"{:03}\"><sub k=\"b\"/><sub k=\"a\"/></item>", 199 - i));
        }
        d.push_str("</root>");
        d
    }

    #[test]
    fn persistent_write_corruption_yields_a_structured_failure() {
        // Corrupt every write from #40 on: the sort must eventually give up
        // and the report must name a real phase and transfer.
        let mut plan = FaultPlan::new(7);
        for w in 40..4000 {
            plan = plan.at_write(w, FaultKind::BitFlip);
        }
        let (disk, _inj) = Disk::new_faulty(Box::new(MemDevice::new(128)), plan);
        disk.set_retry_policy(RetryPolicy::retries(2));
        let input = stage_input(&disk, doc().as_bytes()).unwrap();
        let spec = SortSpec::by_attribute("k");
        let opts = NexsortOptions { threshold: Some(1), ..Default::default() };
        let nx = Nexsort::new(disk.clone(), opts, spec).unwrap();
        let before = disk.stats().snapshot();
        let failure = match nx.try_sort_xml_extent(&input) {
            Err(f) => f,
            Ok(_) => panic!("sort must fail under persistent corruption"),
        };
        assert!(failure.cat.is_some(), "give-up must record the transfer");
        assert!(failure.block.is_some());
        assert_eq!(failure.attempts, 3);
        assert!(!matches!(failure.phase, IoPhase::Setup), "phase must be named");
        assert!(matches!(failure.error, XmlError::Ext(ExtError::RetriesExhausted { .. })));
        assert!(failure.io_so_far.grand_total() > 0);
        let _ = before;
        let msg = failure.to_string();
        assert!(msg.contains("sort failed during"), "{msg}");
        assert!(msg.contains("attempt(s)"), "{msg}");
    }

    #[test]
    fn a_parse_error_keeps_the_phase_it_failed_in() {
        // No transfer gives up here, so classification falls back to the
        // disk's live phase label: the scan must leave it standing on error.
        let disk = Disk::new_mem(128);
        let input = stage_input(&disk, br#"<root><a k="2"/><b k="1"></root>"#).unwrap();
        let nx = Nexsort::new(disk.clone(), NexsortOptions::default(), SortSpec::by_attribute("k"))
            .unwrap();
        let failure = match nx.try_sort_xml_extent(&input) {
            Err(f) => f,
            Ok(_) => panic!("a malformed document must not sort"),
        };
        assert_eq!(failure.phase, IoPhase::InputScan);
        assert_eq!(failure.cat, None);
        let msg = failure.to_string();
        assert!(msg.contains("during input scan"), "{msg}");
    }

    #[test]
    fn non_io_errors_classify_with_unknown_transfer() {
        let disk = Disk::new_mem(128);
        let before = disk.stats().snapshot();
        let f = SortFailure::classify(&disk, XmlError::Record("bogus".into()), &before);
        assert!(f.cat.is_none());
        assert!(f.block.is_none());
        assert!(!f.is_stack_paging());
        assert_eq!(f.site(), "setup");
    }

    #[test]
    fn stack_paging_site_names_the_stack() {
        let f = SortFailure {
            phase: IoPhase::RunFormation,
            cat: Some(IoCat::DataStack),
            block: Some(9),
            is_read: true,
            attempts: 4,
            error: XmlError::Ext(ExtError::ChecksumMismatch { block: 9 }),
            io_so_far: nexsort_extmem::IoStats::new().snapshot(),
        };
        assert!(f.is_stack_paging());
        assert!(f.site().starts_with("stack paging"));
        // The phase is stamped next to the stack's name.
        assert!(f.site().contains("run formation"), "{}", f.site());
        let msg = f.to_string();
        assert!(msg.contains("block 9"), "{msg}");
        assert!(msg.contains("reading"), "{msg}");
    }

    #[test]
    fn categories_distinguish_source_media_and_transient_faults() {
        let mk = |cat, error| SortFailure {
            phase: IoPhase::RunFormation,
            cat,
            block: Some(1),
            is_read: true,
            attempts: 1,
            error,
            io_so_far: nexsort_extmem::IoStats::new().snapshot(),
        };
        // A fault while reading the input is a lost source, whatever its shape.
        let f = mk(Some(IoCat::InputRead), XmlError::Ext(ExtError::Io(std::io::Error::other("x"))));
        assert_eq!(f.category(), FailureCategory::Source);
        // Hard media verdicts on the sort's own storage are persistent.
        let f = mk(
            Some(IoCat::RunRead),
            XmlError::Ext(ExtError::UnrecoverableGroup { run: 0, lost: 7 }),
        );
        assert_eq!(f.category(), FailureCategory::Persistent);
        let f = mk(Some(IoCat::RunRead), XmlError::Ext(ExtError::ChecksumMismatch { block: 7 }));
        assert_eq!(f.category(), FailureCategory::Persistent);
        // An exhausted retry budget on a flaky (transient) error stays transient.
        let last = Box::new(ExtError::Io(std::io::Error::other("flaky")));
        let f = mk(
            Some(IoCat::RunWrite),
            XmlError::Ext(ExtError::RetriesExhausted { attempts: 4, last }),
        );
        assert_eq!(f.category(), FailureCategory::Transient);
        // Non-I/O errors are out of scope for any retry strategy.
        let f = mk(None, XmlError::Record("bogus".into()));
        assert_eq!(f.category(), FailureCategory::Other);
    }

    #[test]
    fn journal_faults_name_both_the_journal_and_the_phase() {
        let f = SortFailure {
            phase: IoPhase::Recovery,
            cat: Some(IoCat::Journal),
            block: Some(3),
            is_read: false,
            attempts: 1,
            error: XmlError::Ext(ExtError::ChecksumMismatch { block: 3 }),
            io_so_far: nexsort_extmem::IoStats::new().snapshot(),
        };
        assert!(!f.is_stack_paging());
        assert_eq!(f.site(), "journal I/O during recovery");
    }
}
