//! Layered assembly of a device stack: one sanctioned site instead of an
//! ad-hoc `match` ladder in every front end.
//!
//! The substrate's device middleware composes in a fixed order (bottom to
//! top): backing device(s) -> stripe -> fault injection -> checksums ->
//! crash injection -> the accounting [`Disk`] -> page cache. Before this module, that assembly lived inline in
//! `cli::make_disk`; a server spawning one stack per job, the benches, and
//! the tests all need the same composition, so [`DiskBuilder`] makes it an
//! explicit, inspectable value. [`DiskBuilder::describe`] renders the
//! configured stack as a canonical string, which is how tests assert that
//! two assembly paths (say, the CLI and a server job) built *identical*
//! stacks.
//!
//! This module is the device layer's one sanctioned raw-assembly site: it
//! may name [`BlockDevice`] implementations directly (xlint rule R1 lists
//! it), so front ends no longer need `xlint::allow(R1)` pragmas. It is also
//! the only place a page cache is attached to a disk (`Disk::enable_cache`
//! is crate-private): the pool is part of the stack a [`DiskStack`] hands
//! out, so it is in place before the first byte is staged, whichever front
//! end built the stack.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::device::{BlockDevice, Disk, FileDevice, MemDevice};
use crate::fault::{
    ChecksummedDevice, CrashController, CrashDevice, CrashPlan, FaultInjector, FaultPlan,
    FaultyDevice, RetryPolicy,
};
use crate::pool::{CachePolicy, WriteMode};
use crate::stripe::StripedDevice;

/// What backs the bottom of the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Backing {
    /// Host-RAM blocks (tests, benches, default).
    Mem,
    /// A device file at the given path (striped stacks use `PATH.0..N-1`).
    File(PathBuf),
}

/// A configuration error caught at [`DiskBuilder::build`] time: the
/// requested layers cannot compose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError(String);

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device stack: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// A fully-assembled stack: the accounting disk plus the handles of its
/// injection layers (empty/`None` for layers not configured).
pub struct DiskStack {
    /// The accounting front door every consumer talks to.
    pub disk: Rc<Disk>,
    /// One fault injector per backing device, in stripe order (empty when
    /// fault injection is off).
    pub injectors: Vec<FaultInjector>,
    /// The crash controller, when a crash layer was configured.
    pub crash: Option<CrashController>,
}

impl std::fmt::Debug for DiskStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStack")
            .field("stripe", &self.disk.stripe_width())
            .field("injectors", &self.injectors.len())
            .field("crash", &self.crash.is_some())
            .finish()
    }
}

/// Builder for a layered device stack; see the [module docs](self).
///
/// ```
/// use nexsort_extmem::{CachePolicy, DiskBuilder, WriteMode};
/// let stack = DiskBuilder::new(512)
///     .stripe(4)
///     .cache(8, CachePolicy::Lru, WriteMode::Back)
///     .build()
///     .unwrap();
/// assert_eq!(stack.disk.stripe_width(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DiskBuilder {
    block_size: usize,
    backing: Backing,
    open_existing: bool,
    stripe: usize,
    faults: Vec<FaultPlan>,
    crash: Option<CrashPlan>,
    retry: Option<RetryPolicy>,
    cache: Option<(usize, CachePolicy, WriteMode)>,
}

impl DiskBuilder {
    /// A builder over in-memory backing with the given block size.
    pub fn new(block_size: usize) -> Self {
        Self {
            block_size,
            backing: Backing::Mem,
            open_existing: false,
            stripe: 1,
            faults: Vec::new(),
            crash: None,
            retry: None,
            cache: None,
        }
    }

    /// Back the stack with a device file at `path` (created/truncated).
    /// With [`stripe`](Self::stripe) `> 1`, files `PATH.0..PATH.N-1` are
    /// used instead.
    pub fn file(mut self, path: &Path) -> Self {
        self.backing = Backing::File(path.to_path_buf());
        self.open_existing = false;
        self
    }

    /// Back the stack with *existing* device file(s) at `path`, preserving
    /// their contents -- the resume/scrub path after a restart.
    pub fn open_file(mut self, path: &Path) -> Self {
        self.backing = Backing::File(path.to_path_buf());
        self.open_existing = true;
        self
    }

    /// Stripe the stack round-robin over `n` backing devices.
    pub fn stripe(mut self, n: usize) -> Self {
        self.stripe = n.max(1);
        self
    }

    /// Inject faults per `plan` on every backing device, each device's plan
    /// reseeded by its stripe index (seed + i), under a shared checksum
    /// layer. Mutually exclusive with [`crash`](Self::crash).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = vec![plan];
        self
    }

    /// Like [`faults`](Self::faults) with an explicit plan per device
    /// (`plans.len()` must equal the stripe width at build time).
    pub fn faults_per_device(mut self, plans: Vec<FaultPlan>) -> Self {
        self.faults = plans;
        self
    }

    /// Add a crash-injection layer above the stripe, armed per `plan`.
    pub fn crash(mut self, plan: CrashPlan) -> Self {
        self.crash = Some(plan);
        self
    }

    /// Retry transient faults per `policy`.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Enable the page cache with `frames` frames: the pool is extra memory
    /// on top of the algorithm's own allowance, so logical I/O counts stay
    /// comparable across cache sizes.
    pub fn cache(mut self, frames: usize, policy: CachePolicy, mode: WriteMode) -> Self {
        self.cache = Some((frames, policy, mode));
        self
    }

    /// The `i`-th backing file of a striped file stack: `PATH.i`.
    pub fn stripe_path(path: &Path, i: usize) -> PathBuf {
        let mut os = path.as_os_str().to_owned();
        os.push(format!(".{i}"));
        PathBuf::from(os)
    }

    /// A canonical one-line rendering of the configured stack. Two builders
    /// describe identically iff they assemble identical stacks, so tests
    /// compare assembly paths by comparing descriptions.
    pub fn describe(&self) -> String {
        let backing = match &self.backing {
            Backing::Mem => "mem".to_string(),
            Backing::File(p) => {
                format!("file:{}{}", p.display(), if self.open_existing { ":open" } else { "" })
            }
        };
        let faults =
            if self.faults.is_empty() { "none".to_string() } else { format!("{:?}", self.faults) };
        let cache = match &self.cache {
            None => "none".to_string(),
            Some((frames, policy, mode)) => format!("{frames}/{policy:?}/{mode:?}"),
        };
        format!(
            "block={} backing={} stripe={} faults={} crash={:?} retry={:?} cache={}",
            self.block_size, backing, self.stripe, faults, self.crash, self.retry, cache,
        )
    }

    /// One backing device (index `i` of the stripe set). Files created so
    /// far are tracked in `created` so a mid-set failure can clean up.
    fn backing_device(
        &self,
        i: usize,
        created: &mut Vec<PathBuf>,
    ) -> std::result::Result<Box<dyn BlockDevice>, BuildError> {
        Ok(match &self.backing {
            Backing::Mem => Box::new(MemDevice::new(self.block_size)),
            Backing::File(path) => {
                let p = if self.stripe > 1 { Self::stripe_path(path, i) } else { path.clone() };
                let dev = if self.open_existing {
                    FileDevice::open(&p, self.block_size)
                } else {
                    FileDevice::create(&p, self.block_size)
                }
                .map_err(|e| BuildError(format!("cannot open device file {p:?}: {e}")))?;
                if !self.open_existing {
                    created.push(p);
                }
                Box::new(dev)
            }
        })
    }

    /// Assemble the stack. Layer order and composition rules match what
    /// `cli::make_disk` historically built; incompatible layer combinations
    /// fail with a [`BuildError`] naming the conflict.
    pub fn build(self) -> std::result::Result<DiskStack, BuildError> {
        if !self.faults.is_empty() && self.crash.is_some() {
            return Err(BuildError(
                "crash injection cannot be combined with fault injection".into(),
            ));
        }
        if !self.faults.is_empty() && self.stripe > 1 && !matches!(self.backing, Backing::Mem) {
            return Err(BuildError(
                "striped fault injection runs on the in-memory device; drop the file backing"
                    .into(),
            ));
        }
        if !self.faults.is_empty() && self.faults.len() != 1 && self.faults.len() != self.stripe {
            return Err(BuildError(format!(
                "{} fault plans for a {}-wide stripe (need 1 or exactly one per device)",
                self.faults.len(),
                self.stripe
            )));
        }

        let mut created: Vec<PathBuf> = Vec::new();
        let assembled = self.assemble(&mut created);
        if assembled.is_err() {
            // A mid-set failure must not leave partial PATH.0..PATH.i-1
            // files behind.
            for p in &created {
                let _ = std::fs::remove_file(p);
            }
        }
        let (disk, injectors, crash) = assembled?;
        if let Some(policy) = self.retry {
            disk.set_retry_policy(policy);
        }
        if let Some((frames, policy, mode)) = self.cache {
            if frames > 0 {
                disk.enable_cache(frames, policy, mode);
            }
        }
        Ok(DiskStack { disk, injectors, crash })
    }

    /// The raw device layers, bottom-up, before the accounting disk's own
    /// optional layers (retry, cache) are configured.
    #[allow(clippy::type_complexity)]
    fn assemble(
        &self,
        created: &mut Vec<PathBuf>,
    ) -> std::result::Result<(Rc<Disk>, Vec<FaultInjector>, Option<CrashController>), BuildError>
    {
        // Fault injection below, checksums above: the checksum layer is what
        // convicts the corruption the injector plants.
        if !self.faults.is_empty() {
            if self.stripe > 1 {
                let base = &self.faults[0];
                let plans: Vec<FaultPlan> = if self.faults.len() == self.stripe {
                    self.faults.clone()
                } else {
                    (0..self.stripe).map(|i| base.clone().reseeded(i as u64)).collect()
                };
                let mut inners: Vec<Box<dyn BlockDevice>> = Vec::with_capacity(self.stripe);
                let mut injectors = Vec::with_capacity(self.stripe);
                for plan in plans {
                    let faulty = FaultyDevice::new(MemDevice::new(self.block_size), plan);
                    injectors.push(faulty.injector());
                    inners.push(Box::new(faulty));
                }
                let dev = ChecksummedDevice::new(StripedDevice::new(inners));
                return Ok((Disk::with_stripe(Box::new(dev), self.stripe), injectors, None));
            }
            let base = self.backing_device(0, created)?;
            let (disk, injector) = Disk::new_faulty(base, self.faults[0].clone());
            return Ok((disk, vec![injector], None));
        }

        let mut inners: Vec<Box<dyn BlockDevice>> = Vec::with_capacity(self.stripe);
        for i in 0..self.stripe {
            match self.backing_device(i, created) {
                Ok(dev) => inners.push(dev),
                Err(e) => {
                    // Drop already-open handles before the caller unlinks
                    // their files.
                    drop(inners);
                    return Err(e);
                }
            }
        }
        let mut dev: Box<dyn BlockDevice> = if self.stripe > 1 {
            Box::new(StripedDevice::new(inners))
        } else {
            let Some(single) = inners.pop() else {
                return Err(BuildError("stripe width must be at least 1".into()));
            };
            single
        };
        // The crash layer sits above the stripe, so the I/O index that
        // triggers the crash counts transfers across the whole stripe set.
        let mut ctl = None;
        if let Some(plan) = self.crash {
            let crash = CrashDevice::new(dev, plan);
            ctl = Some(crash.controller());
            dev = Box::new(crash);
        }
        Ok((Disk::with_stripe(dev, self.stripe), Vec::new(), ctl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoCat;

    #[test]
    fn plain_mem_stack_round_trips() {
        let stack = DiskBuilder::new(128).build().unwrap();
        assert!(stack.injectors.is_empty() && stack.crash.is_none());
        let b = stack.disk.alloc_block();
        stack.disk.write_block(b, &[7u8; 128], IoCat::SortScratch).unwrap();
        let mut buf = [0u8; 128];
        stack.disk.read_block(b, &mut buf, IoCat::SortScratch).unwrap();
        assert_eq!(buf, [7u8; 128]);
    }

    #[test]
    fn default_stack_has_no_pool() {
        // The paper's model: every logical transfer is one synchronous
        // physical transfer unless a pool is asked for.
        let stack = DiskBuilder::new(128).build().unwrap();
        assert!(!stack.disk.cache_enabled(), "no pool by default: counts match the paper's model");
        // A zero-frame pool attaches nothing.
        let stack = DiskBuilder::new(128).cache(0, CachePolicy::Lru, WriteMode::Through).build();
        assert!(!stack.unwrap().disk.cache_enabled());
        // Asked for, the pool is attached by the builder itself.
        let stack = DiskBuilder::new(128).cache(4, CachePolicy::Clock, WriteMode::Back).build();
        assert_eq!(stack.unwrap().disk.cache_capacity(), Some(4));
    }

    #[test]
    fn describe_is_canonical_and_distinguishes_stacks() {
        let a = DiskBuilder::new(512).stripe(4).cache(8, CachePolicy::Lru, WriteMode::Through);
        let b = DiskBuilder::new(512).stripe(4).cache(8, CachePolicy::Lru, WriteMode::Through);
        assert_eq!(a.describe(), b.describe());
        let c = b.clone().cache(8, CachePolicy::Clock, WriteMode::Through);
        assert_ne!(a.describe(), c.describe());
    }

    #[test]
    fn faults_and_crash_conflict() {
        let err = DiskBuilder::new(128)
            .faults(FaultPlan::new(1))
            .crash(CrashPlan::Disarmed)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("cannot be combined"), "{err}");
    }

    #[test]
    fn striped_faults_reseed_per_device() {
        let stack = DiskBuilder::new(128)
            .stripe(3)
            .faults(FaultPlan::new(9).with_read_error_rate(0.5))
            .retry(RetryPolicy::retries(4))
            .build()
            .unwrap();
        assert_eq!(stack.injectors.len(), 3);
        assert_eq!(stack.disk.stripe_width(), 3);
    }

    #[test]
    fn striped_file_crash_stack_builds_and_cleans_up_on_failure() {
        let dir = std::env::temp_dir().join(format!("xbuild-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.bin");
        let stack =
            DiskBuilder::new(128).file(&path).stripe(2).crash(CrashPlan::Disarmed).build().unwrap();
        assert!(stack.crash.is_some());
        assert!(DiskBuilder::stripe_path(&path, 0).exists());
        assert!(DiskBuilder::stripe_path(&path, 1).exists());
        drop(stack);
        // A backing that cannot be opened cleans up files created so far.
        let bad = DiskBuilder::new(128).file(&dir.join("no/such/dir/dev.bin")).stripe(2);
        assert!(bad.build().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_file_preserves_contents() {
        let dir = std::env::temp_dir().join(format!("xbuild-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.bin");
        let (block, data) = {
            let stack = DiskBuilder::new(64).file(&path).build().unwrap();
            let b = stack.disk.alloc_block();
            let data = [0x5Au8; 64];
            stack.disk.write_block(b, &data, IoCat::RunWrite).unwrap();
            (b, data)
        };
        let reopened = DiskBuilder::new(64).open_file(&path).build().unwrap();
        let mut buf = [0u8; 64];
        reopened.disk.read_block(block, &mut buf, IoCat::RunWrite).unwrap();
        assert_eq!(buf, data);
        std::fs::remove_dir_all(&dir).ok();
    }
}
