//! Deterministic lock-discipline sanitizer — the dynamic tier of the
//! concurrency checker (the static tier is xlint R11–R15).
//!
//! Enabled with `NEXSORT_LOCKSAN=1` or
//! programmatically via [`force_enable`], the sanitizer instruments every
//! lock acquisition made through [`TrackedMutex`] / [`TrackedCondvar`] and
//! every shared-state touch reported through [`access`]:
//!
//! * **Lock-order tracking (deadlock detection).** Each acquisition while
//!   other tracked locks are held records a `held → new` edge in a global,
//!   name-keyed order graph. An acquisition that would close a cycle —
//!   i.e. some other code path acquires the same pair in the opposite
//!   order — is reported as a `lock-order-inversion` *before* the blocking
//!   acquire, so the violation is observable even when the schedule that
//!   would actually deadlock never happens in the test run. This is the
//!   classic lock-order ("deadlock immunity") check from Eraser-family
//!   tools.
//! * **Lockset + vector-clock race detection.** Each named access site
//!   keeps, per thread, the last access's vector clock and lockset. A new
//!   access by a different thread is a `unsynchronized-access` violation
//!   when the prior access neither happens-before it (vector clocks,
//!   propagated through tracked lock release/acquire) nor shares a common
//!   lock (Eraser lockset intersection).
//!
//! Violations are buffered globally as structured
//! [`ExtError::LockSanViolation`] values — the sanitizer never panics and
//! never blocks the instrumented code path. Tests drain nothing: they read
//! monotone snapshots via [`violations`] / [`violation_count`], which keeps
//! concurrent tests in one binary from stealing each other's reports.
//!
//! The module also hosts [`recover_poison`], the single audited
//! mutex-poisoning recovery site in the workspace (enforced by xlint R15):
//! every recovery is counted so the server can surface the number in its
//! `stats` verb instead of silently swallowing poisoned locks.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

use crate::error::ExtError;

static FORCED: AtomicBool = AtomicBool::new(false);
static ENV_ENABLED: OnceLock<bool> = OnceLock::new();
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);
static STATE: OnceLock<Mutex<SanState>> = OnceLock::new();

/// Whether the sanitizer is recording. True when `NEXSORT_LOCKSAN=1` was
/// set at first use or [`force_enable`] has been called.
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed)
        || *ENV_ENABLED
            .get_or_init(|| std::env::var_os("NEXSORT_LOCKSAN").is_some_and(|v| v == "1"))
}

/// Turn the sanitizer on for the rest of the process, regardless of the
/// environment. Used by the negative tests so they work without mutating
/// process-global env vars.
pub fn force_enable() {
    FORCED.store(true, Ordering::Relaxed);
}

/// The one audited mutex-poisoning recovery site (xlint R15 rejects the
/// `unwrap_or_else(..into_inner())` pattern everywhere else). A poisoned
/// lock means a thread panicked while holding it; the protected state is
/// still structurally valid (everything here is crash-consistent or
/// re-derivable), so we recover the guard — but we *count* the recovery so
/// it is observable in server stats rather than silently swallowed.
pub fn recover_poison<G>(result: Result<G, PoisonError<G>>) -> G {
    match result {
        Ok(g) => g,
        Err(poisoned) => {
            POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        }
    }
}

/// Number of mutex-poisoning recoveries performed by [`recover_poison`]
/// since process start.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Record a touch of the named shared-state site on the current thread.
/// No-op unless the sanitizer is enabled.
pub fn access(site: &'static str) {
    if !enabled() {
        return;
    }
    with_state(|st| st.record_access(site));
}

/// Snapshot of all violations recorded so far, as structured errors. The
/// buffer is monotone — nothing is drained — so concurrent tests can each
/// look for their own seeded violation.
pub fn violations() -> Vec<ExtError> {
    with_state(|st| {
        st.violations
            .iter()
            .map(|v| ExtError::LockSanViolation { check: v.check, detail: v.detail.clone() })
            .collect()
    })
}

/// Number of violations recorded so far.
pub fn violation_count() -> usize {
    with_state(|st| st.violations.len())
}

/// Human-readable log of all violations recorded so far (one line each).
pub fn violation_log() -> Vec<String> {
    with_state(|st| st.violations.iter().map(|v| format!("{}: {}", v.check, v.detail)).collect())
}

/// A mutex whose acquisitions feed the sanitizer. Drop-in for
/// `std::sync::Mutex` on the server/arbiter path: `lock()` is infallible
/// (poisoning routes through [`recover_poison`]) and returns a
/// [`TrackedGuard`].
pub struct TrackedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wrap `value` in a tracked mutex. `name` identifies the lock in
    /// order-graph edges and violation reports; instances sharing a name
    /// are treated as one lock class.
    pub fn new(name: &'static str, value: T) -> Self {
        TrackedMutex { name, inner: Mutex::new(value) }
    }

    /// The lock-class name this mutex reports under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire the lock. The order-graph check runs *before* the blocking
    /// acquire (so inversions are caught even on schedules that do not
    /// deadlock); the happens-before join runs after.
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        if enabled() {
            with_state(|st| st.on_attempt(self.name));
        }
        let guard = recover_poison(self.inner.lock());
        if enabled() {
            with_state(|st| st.on_acquired(self.name));
        }
        TrackedGuard { lock: self, guard: Some(guard) }
    }
}

impl<T> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TrackedMutex({})", self.name)
    }
}

/// RAII guard for a [`TrackedMutex`]; records the release (storing the
/// thread's vector clock into the lock's clock) before the underlying
/// mutex is unlocked.
pub struct TrackedGuard<'a, T> {
    lock: &'a TrackedMutex<T>,
    // `None` only transiently inside `TrackedCondvar::wait`, which owns
    // the guard for the duration.
    guard: Option<MutexGuard<'a, T>>,
}

impl<T> Deref for TrackedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self.guard.as_ref() {
            Some(g) => g,
            // The empty slot exists only inside TrackedCondvar::wait,
            // which owns the guard exclusively.
            #[expect(clippy::unreachable, reason = "the slot is empty only inside wait")]
            None => unreachable!("TrackedGuard slot empty outside wait"),
        }
    }
}

impl<T> DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self.guard.as_mut() {
            Some(g) => g,
            #[expect(clippy::unreachable, reason = "see Deref: empty only inside wait")]
            None => unreachable!("TrackedGuard slot empty outside wait"),
        }
    }
}

impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.is_some() && enabled() {
            // Release bookkeeping runs while the mutex is still held (the
            // inner guard drops after this body), so the next acquirer
            // always joins an up-to-date lock clock.
            with_state(|st| st.on_release(self.lock.name));
        }
    }
}

/// A condition variable paired with [`TrackedMutex`]. `wait` is
/// infallible (poisoning routes through [`recover_poison`]) and keeps the
/// sanitizer's held-set and clocks consistent across the park/re-acquire.
pub struct TrackedCondvar {
    inner: Condvar,
}

impl TrackedCondvar {
    /// A new condition variable.
    pub fn new() -> Self {
        TrackedCondvar { inner: Condvar::new() }
    }

    /// Atomically release the tracked guard, park, and re-acquire.
    pub fn wait<'a, T>(&self, guard: TrackedGuard<'a, T>) -> TrackedGuard<'a, T> {
        self.park(guard, |g| (recover_poison(self.inner.wait(g)), ())).0
    }

    /// [`wait`](Self::wait) for at most `timeout`. The flag is true when
    /// the timeout elapsed; like `wait`, it belongs in a predicate loop.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: TrackedGuard<'a, T>,
        timeout: Duration,
    ) -> (TrackedGuard<'a, T>, bool) {
        self.park(guard, |g| {
            let (g, res) = recover_poison(self.inner.wait_timeout(g, timeout));
            (g, res.timed_out())
        })
    }

    /// Release bookkeeping, `block` (which parks on the inner condvar and
    /// re-acquires), then acquire bookkeeping.
    fn park<'a, T, R: Default>(
        &self,
        mut guard: TrackedGuard<'a, T>,
        block: impl FnOnce(MutexGuard<'a, T>) -> (MutexGuard<'a, T>, R),
    ) -> (TrackedGuard<'a, T>, R) {
        let lock = guard.lock;
        let inner = match guard.guard.take() {
            Some(g) => g,
            None => return (guard, R::default()),
        };
        drop(guard); // slot is empty: Drop is a no-op
        if enabled() {
            with_state(|st| st.on_release(lock.name));
        }
        let (inner, result) = block(inner);
        if enabled() {
            with_state(|st| {
                st.on_attempt(lock.name);
                st.on_acquired(lock.name);
            });
        }
        (TrackedGuard { lock, guard: Some(inner) }, result)
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for TrackedCondvar {
    fn default() -> Self {
        TrackedCondvar::new()
    }
}

impl fmt::Debug for TrackedCondvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TrackedCondvar")
    }
}

struct Violation {
    check: &'static str,
    detail: String,
}

struct LastAccess {
    clock: Vec<u64>,
    locks: BTreeSet<&'static str>,
}

#[derive(Default)]
struct SanState {
    /// Thread registry: ThreadId -> dense index into `clocks`.
    threads: HashMap<ThreadId, usize>,
    /// Per-thread vector clocks. A thread's own component starts at 1 so
    /// two never-synchronized threads are mutually unordered.
    clocks: Vec<Vec<u64>>,
    /// Locks currently held per thread, in acquisition order.
    held: HashMap<ThreadId, Vec<&'static str>>,
    /// Clock each lock last absorbed at release time.
    lock_clocks: HashMap<&'static str, Vec<u64>>,
    /// Order graph: edges `held -> newly acquired`.
    edges: BTreeMap<&'static str, BTreeSet<&'static str>>,
    /// Edge pairs already reported, to keep the log finite.
    reported_pairs: BTreeSet<(&'static str, &'static str)>,
    /// Access sites already reported as racy.
    reported_sites: BTreeSet<&'static str>,
    /// Last access per (site, thread index).
    sites: HashMap<&'static str, HashMap<usize, LastAccess>>,
    violations: Vec<Violation>,
}

fn with_state<R>(f: impl FnOnce(&mut SanState) -> R) -> R {
    let m = STATE.get_or_init(|| Mutex::new(SanState::default()));
    let mut st = recover_poison(m.lock());
    f(&mut st)
}

fn clock_join(into: &mut Vec<u64>, other: &[u64]) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(other.iter()) {
        *a = (*a).max(*b);
    }
}

fn clock_leq(a: &[u64], b: &[u64]) -> bool {
    a.iter().enumerate().all(|(i, &v)| v <= b.get(i).copied().unwrap_or(0))
}

impl SanState {
    fn thread_index(&mut self) -> usize {
        let id = std::thread::current().id();
        if let Some(&idx) = self.threads.get(&id) {
            return idx;
        }
        let idx = self.clocks.len();
        let mut clock = vec![0; idx + 1];
        clock[idx] = 1;
        self.clocks.push(clock);
        self.threads.insert(id, idx);
        idx
    }

    /// Order-graph bookkeeping at acquire *attempt* time.
    fn on_attempt(&mut self, name: &'static str) {
        self.thread_index();
        let id = std::thread::current().id();
        let held = self.held.entry(id).or_default().clone();
        for h in held {
            if h == name {
                // Two instances sharing a class name: not an order edge.
                continue;
            }
            self.edges.entry(h).or_default().insert(name);
            if self.reaches(name, h) && self.reported_pairs.insert((h, name)) {
                self.violations.push(Violation {
                    check: "lock-order-inversion",
                    detail: format!(
                        "acquiring `{name}` while holding `{h}` inverts the recorded \
                         `{name}` -> `{h}` acquisition order (potential deadlock cycle)"
                    ),
                });
            }
        }
        self.held.entry(id).or_default().push(name);
    }

    /// Happens-before join once the lock is actually held.
    fn on_acquired(&mut self, name: &'static str) {
        let t = self.thread_index();
        if let Some(lc) = self.lock_clocks.get(name) {
            let lc = lc.clone();
            clock_join(&mut self.clocks[t], &lc);
        }
    }

    /// Release: publish the thread's clock through the lock, then advance
    /// the thread's own component so later local events are not ordered
    /// before a remote acquire that only saw this release.
    fn on_release(&mut self, name: &'static str) {
        let t = self.thread_index();
        let id = std::thread::current().id();
        if let Some(stack) = self.held.get_mut(&id) {
            if let Some(pos) = stack.iter().rposition(|&h| h == name) {
                stack.remove(pos);
            }
        }
        let clock = self.clocks[t].clone();
        match self.lock_clocks.get_mut(name) {
            Some(lc) => clock_join(lc, &clock),
            None => {
                self.lock_clocks.insert(name, clock);
            }
        }
        self.clocks[t][t] += 1;
    }

    /// Is `to` reachable from `from` in the order graph?
    fn reaches(&self, from: &'static str, to: &'static str) -> bool {
        if from == to {
            return true;
        }
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = self.edges.get(n) {
                for &m in next {
                    if m == to {
                        return true;
                    }
                    stack.push(m);
                }
            }
        }
        false
    }

    fn record_access(&mut self, site: &'static str) {
        let t = self.thread_index();
        let id = std::thread::current().id();
        let clock = self.clocks[t].clone();
        let locks: BTreeSet<&'static str> =
            self.held.get(&id).map(|v| v.iter().copied().collect()).unwrap_or_default();
        if let Some(prior) = self.sites.get(site) {
            for (&ot, last) in prior {
                if ot == t {
                    continue;
                }
                let ordered = clock_leq(&last.clock, &clock);
                let guarded = !last.locks.is_disjoint(&locks);
                if !ordered && !guarded && self.reported_sites.insert(site) {
                    self.violations.push(Violation {
                        check: "unsynchronized-access",
                        detail: format!(
                            "site `{site}` touched by two threads with no happens-before \
                             edge and an empty common lockset (locks now: {locks:?}, \
                             locks then: {:?})",
                            last.locks
                        ),
                    });
                }
            }
        }
        self.sites.entry(site).or_default().insert(t, LastAccess { clock, locks });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_lock_order_is_clean() {
        force_enable();
        let a = TrackedMutex::new("lsu.ord.a", 0u32);
        let b = TrackedMutex::new("lsu.ord.b", 0u32);
        for _ in 0..3 {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        assert!(
            !violation_log().iter().any(|l| l.contains("lsu.ord.")),
            "consistent order must not report: {:?}",
            violation_log()
        );
    }

    #[test]
    fn inverted_lock_order_is_reported_once() {
        force_enable();
        let a = TrackedMutex::new("lsu.inv.a", 0u32);
        let b = TrackedMutex::new("lsu.inv.b", 0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        for _ in 0..2 {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let hits: Vec<String> = violation_log()
            .into_iter()
            .filter(|l| l.contains("lock-order-inversion") && l.contains("lsu.inv."))
            .collect();
        assert_eq!(hits.len(), 1, "inversion reported exactly once: {hits:?}");
    }

    #[test]
    fn same_class_name_is_not_a_self_cycle() {
        force_enable();
        let a1 = TrackedMutex::new("lsu.self", 0u32);
        let a2 = TrackedMutex::new("lsu.self", 0u32);
        let _g1 = a1.lock();
        let _g2 = a2.lock();
        assert!(
            !violation_log().iter().any(|l| l.contains("lsu.self")),
            "same-name reacquisition is one lock class, not an order edge"
        );
    }

    #[test]
    fn lock_protected_accesses_are_clean() {
        force_enable();
        let m = std::sync::Arc::new(TrackedMutex::new("lsu.guarded", 0u32));
        let m2 = std::sync::Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g += 1;
            access("lsu.guarded.site");
        });
        t.join().expect("join");
        {
            let mut g = m.lock();
            *g += 1;
            access("lsu.guarded.site");
        }
        assert!(
            !violation_log().iter().any(|l| l.contains("lsu.guarded.site")),
            "common lockset suppresses the report: {:?}",
            violation_log()
        );
    }

    #[test]
    fn release_acquire_orders_unlocked_accesses() {
        force_enable();
        let m = std::sync::Arc::new(TrackedMutex::new("lsu.hb", 0u32));
        let m2 = std::sync::Arc::clone(&m);
        let t = std::thread::spawn(move || {
            access("lsu.hb.site");
            drop(m2.lock()); // publish this thread's clock through the lock
        });
        t.join().expect("join");
        drop(m.lock()); // join the publishing thread's clock
        access("lsu.hb.site"); // ordered even though no lock is held now
        assert!(
            !violation_log().iter().any(|l| l.contains("lsu.hb.site")),
            "release/acquire establishes happens-before: {:?}",
            violation_log()
        );
    }

    #[test]
    fn unsynchronized_access_is_reported() {
        force_enable();
        let t = std::thread::spawn(|| access("lsu.race.site"));
        t.join().expect("join");
        access("lsu.race.site");
        assert!(
            violation_log()
                .iter()
                .any(|l| l.contains("unsynchronized-access") && l.contains("lsu.race.site")),
            "missing race report: {:?}",
            violation_log()
        );
        assert!(violations().iter().any(|e| matches!(
            e,
            ExtError::LockSanViolation { check: "unsynchronized-access", .. }
        ) && e.to_string().contains("lsu.race.site")));
    }

    #[test]
    fn condvar_wait_keeps_held_set_consistent() {
        force_enable();
        let pair = std::sync::Arc::new((TrackedMutex::new("lsu.cv", false), TrackedCondvar::new()));
        let pair2 = std::sync::Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let mut done = pair2.0.lock();
            *done = true;
            drop(done);
            pair2.1.notify_all();
        });
        let mut done = pair.0.lock();
        while !*done {
            done = pair.1.wait(done);
        }
        drop(done);
        t.join().expect("join");
        assert!(!violation_log().iter().any(|l| l.contains("lsu.cv")));
    }

    #[test]
    fn condvar_wait_timeout_keeps_held_set_consistent() {
        force_enable();
        let m = TrackedMutex::new("lsu.cvt", 0u32);
        let other = TrackedMutex::new("lsu.cvt.other", 0u32);
        let cv = TrackedCondvar::new();
        let (guard, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timed_out, "nobody notifies, so the wait times out");
        drop(guard);
        // A stale `lsu.cvt` left in the held set by the timed wait would
        // record `lsu.cvt -> lsu.cvt.other` here and report this nesting
        // as an inversion.
        {
            let _o = other.lock();
            let _g = m.lock();
        }
        assert!(!violation_log().iter().any(|l| l.contains("lsu.cvt")), "{:?}", violation_log());
    }

    #[test]
    fn poisoning_recovery_is_counted() {
        let before = poison_recoveries();
        let m = std::sync::Arc::new(TrackedMutex::new("lsu.poison", 7u32));
        let m2 = std::sync::Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        });
        assert!(t.join().is_err());
        assert_eq!(*m.lock(), 7, "state survives poisoning");
        assert!(poison_recoveries() > before, "recovery must be counted");
    }
}
