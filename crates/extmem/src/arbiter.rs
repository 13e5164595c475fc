//! Cross-thread arbitration of one global frame budget.
//!
//! [`MemoryBudget`](crate::MemoryBudget) is deliberately single-threaded
//! (`Rc`/`Cell`): it meters one sort's internal memory on one thread. A
//! long-lived server runs *many* sorts on real OS threads, all drawing from
//! the same physical memory, so a second layer sits above the per-job
//! budgets: a [`BudgetArbiter`] owns the machine-wide frame total and hands
//! out [`BudgetLease`]s, one per job. A job seeds its own thread-local
//! `MemoryBudget` from its lease ([`BudgetLease::budget`]) and runs exactly
//! as before; the arbiter only decides *admission* -- when the job may hold
//! those frames at all.
//!
//! # Fairness
//!
//! Grants are strictly FIFO over a deterministic waiter queue. The waiter at
//! the head of the queue blocks every waiter behind it, even when a later,
//! smaller request would fit in the currently-free frames. This costs some
//! utilization but buys the property the server needs under contention:
//! no request -- large or small -- can be starved by a stream of
//! opportunistic competitors, because its position in the queue only ever
//! improves. (First-fit would let small jobs leapfrog a big one forever;
//! biggest-first would let a big job starve the small ones. FIFO starves
//! nobody.)
//!
//! Strict FIFO has one loophole a shared server cares about: a single
//! *tenant* can keep the queue saturated with its own jobs and make every
//! other tenant wait behind its backlog. An optional per-tenant cap closes
//! it ([`BudgetArbiter::set_tenant_cap`]): a tenant already holding `cap`
//! outstanding leases becomes temporarily *ineligible*, and the grant rule
//! changes from "head of the queue" to "first **eligible** request in the
//! queue" -- still FIFO among eligible requests, so nobody leapfrogs anyone
//! who is allowed to run. An ineligible request keeps its queue position
//! and becomes eligible again the moment one of its tenant's own leases
//! releases, so it cannot starve either. Untagged requests (no tenant) are
//! always eligible. A cap of 0 disables the mechanism entirely and the
//! arbiter behaves exactly as before.
//!
//! The grant logic itself lives in the lock-free-of-threads [`ArbState`]
//! state machine, so the fairness and accounting invariants are testable
//! deterministically, without spawning threads.
//!
//! The module also hosts [`recover_poison`], the single audited
//! mutex-poisoning recovery (xlint R15), shared by this lock and the
//! server's.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard};

use crate::budget::MemoryBudget;
use crate::error::{ExtError, Result};

static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// The one audited mutex-poisoning recovery site (xlint R15 rejects
/// recovering a poisoned guard with `into_inner` everywhere else). `result`
/// is an acquisition of `lock` (`lock()`, or a condvar wait on its guard). A
/// poisoned lock means a thread panicked while holding it; the protected
/// state is still structurally valid (everything here is crash-consistent or
/// re-derivable), so we recover the guard — but we *count* the recovery so
/// it is observable in server stats rather than silently swallowed, and
/// clear the poison so one panic is counted once, not again on every later
/// acquisition.
pub fn recover_poison<T: ?Sized, G>(lock: &Mutex<T>, result: LockResult<G>) -> G {
    match result {
        Ok(guard) => guard,
        Err(poisoned) => {
            POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
            lock.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// Number of mutex-poisoning recoveries performed by [`recover_poison`]
/// since process start.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// One queued request.
#[derive(Debug, Clone)]
struct Waiter {
    ticket: u64,
    frames: usize,
    tenant: Option<String>,
}

/// The deterministic core: who holds frames, who waits, in what order.
#[derive(Debug)]
struct ArbState {
    total: usize,
    used: usize,
    high_water: usize,
    next_ticket: u64,
    /// FIFO queue of waiting requests.
    queue: VecDeque<Waiter>,
    /// Max outstanding leases per tenant; 0 disables the cap.
    tenant_cap: usize,
    /// Outstanding lease count per tenant (entries removed at zero).
    outstanding: HashMap<String, usize>,
}

impl ArbState {
    fn new(total: usize) -> Self {
        Self {
            total,
            used: 0,
            high_water: 0,
            next_ticket: 0,
            queue: VecDeque::new(),
            tenant_cap: 0,
            outstanding: HashMap::new(),
        }
    }

    /// Join the waiter queue; returns the ticket that names the request.
    #[cfg(test)]
    fn enqueue(&mut self, frames: usize) -> u64 {
        self.enqueue_as(frames, None)
    }

    /// Join the waiter queue on behalf of `tenant`.
    fn enqueue_as(&mut self, frames: usize, tenant: Option<&str>) -> u64 {
        let t = self.next_ticket;
        self.next_ticket += 1;
        self.queue.push_back(Waiter { ticket: t, frames, tenant: tenant.map(str::to_owned) });
        t
    }

    /// A request is *eligible* unless its tenant is at the outstanding-lease
    /// cap. Untagged requests and a cap of 0 are always eligible.
    fn eligible(&self, w: &Waiter) -> bool {
        if self.tenant_cap == 0 {
            return true;
        }
        match &w.tenant {
            None => true,
            Some(t) => self.outstanding.get(t).copied().unwrap_or(0) < self.tenant_cap,
        }
    }

    /// The first eligible waiter in arrival order, if any.
    fn first_eligible(&self) -> Option<&Waiter> {
        self.queue.iter().find(|w| self.eligible(w))
    }

    /// True when `ticket` is the first *eligible* request in the queue and
    /// its frames fit: the only state in which a grant is allowed. With no
    /// tenant cap this degenerates to "head of the queue".
    fn grantable(&self, ticket: u64) -> bool {
        match self.first_eligible() {
            Some(w) => w.ticket == ticket && self.used + w.frames <= self.total,
            None => false,
        }
    }

    /// Grant `ticket` (must be [`grantable`](Self::grantable)); returns the
    /// granted waiter, or `None` for a ticket that is not queued.
    fn grant(&mut self, ticket: u64) -> Option<Waiter> {
        let pos = self.queue.iter().position(|w| w.ticket == ticket)?;
        let w = self.queue.remove(pos)?;
        self.used += w.frames;
        self.high_water = self.high_water.max(self.used);
        if let Some(t) = &w.tenant {
            *self.outstanding.entry(t.clone()).or_insert(0) += 1;
        }
        Some(w)
    }

    /// Return `frames` to the pool, crediting `tenant`'s outstanding count.
    fn release(&mut self, frames: usize, tenant: Option<&str>) {
        self.used = self.used.saturating_sub(frames);
        if let Some(t) = tenant {
            if let Some(n) = self.outstanding.get_mut(t) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.outstanding.remove(t);
                }
            }
        }
    }

    /// Abandon a queued request (a waiter giving up must not wedge the
    /// queue head forever). The blocking [`BudgetArbiter::acquire`] never
    /// gives up, so only tests exercise this today.
    #[cfg(test)]
    fn abandon(&mut self, ticket: u64) {
        self.queue.retain(|w| w.ticket != ticket);
    }
}

/// A thread-safe, strictly-FIFO arbiter over a global frame total. Cloning
/// shares the arbiter; see the [module docs](self) for the fairness model.
#[derive(Clone, Debug)]
pub struct BudgetArbiter {
    inner: Arc<(Mutex<ArbState>, Condvar)>,
}

impl BudgetArbiter {
    /// An arbiter over `total_frames` globally-shared block frames.
    pub fn new(total_frames: usize) -> Self {
        Self { inner: Arc::new((Mutex::new(ArbState::new(total_frames)), Condvar::new())) }
    }

    /// Total frames under arbitration.
    pub fn total_frames(&self) -> usize {
        self.lock_state().total
    }

    /// Frames currently leased out.
    pub fn used_frames(&self) -> usize {
        self.lock_state().used
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> usize {
        let st = self.lock_state();
        st.total - st.used
    }

    /// Highest simultaneous lease total ever observed. Monotone: it never
    /// decreases over the arbiter's lifetime.
    pub fn high_water_frames(&self) -> usize {
        self.lock_state().high_water
    }

    /// Requests currently parked in the waiter queue.
    pub fn waiters(&self) -> usize {
        self.lock_state().queue.len()
    }

    /// Cap the number of leases any single tenant may hold at once; 0
    /// (the default) disables the cap. See the [module docs](self).
    pub fn set_tenant_cap(&self, cap: usize) {
        self.lock_state().tenant_cap = cap;
        self.inner.1.notify_all();
    }

    /// Outstanding leases currently held by `tenant`.
    pub fn tenant_outstanding(&self, tenant: &str) -> usize {
        self.lock_state().outstanding.get(tenant).copied().unwrap_or(0)
    }

    /// Block until `frames` can be leased, in strict arrival order. Fails
    /// immediately (without queueing) only when the request can *never* be
    /// satisfied because it exceeds the arbiter's total.
    pub fn acquire(&self, frames: usize) -> Result<BudgetLease> {
        self.acquire_as(frames, None)
    }

    /// [`acquire`](Self::acquire) on behalf of `tenant`: the request counts
    /// against the per-tenant outstanding-lease cap, and waits (without
    /// blocking other tenants) while its tenant is at the cap.
    pub fn acquire_as(&self, frames: usize, tenant: Option<&str>) -> Result<BudgetLease> {
        let cv = &self.inner.1;
        let mut st = self.lock_state();
        if frames > st.total {
            return Err(ExtError::BudgetExceeded { requested: frames, free: st.total - st.used });
        }
        let ticket = st.enqueue_as(frames, tenant);
        while !st.grantable(ticket) {
            st = recover_poison(&self.inner.0, cv.wait(st));
        }
        let Some(w) = st.grant(ticket) else {
            // Unreachable (a grantable ticket is queued), but a lost ticket
            // must surface as a refusal rather than a panic.
            return Err(ExtError::BudgetExceeded { requested: frames, free: st.total - st.used });
        };
        // The next eligible waiter may also fit in what remains.
        cv.notify_all();
        Ok(BudgetLease { arbiter: self.clone(), frames: w.frames, tenant: w.tenant })
    }

    /// Lease `frames` only if that is possible *right now* without cutting
    /// the line: the queue must be empty and the frames free. `None` means
    /// "would have to wait".
    pub fn try_acquire(&self, frames: usize) -> Option<BudgetLease> {
        let mut st = self.lock_state();
        if frames > st.total || !st.queue.is_empty() || st.used + frames > st.total {
            return None;
        }
        st.used += frames;
        st.high_water = st.high_water.max(st.used);
        Some(BudgetLease { arbiter: self.clone(), frames, tenant: None })
    }

    /// The single acquisition choke point for the arbiter lock: every
    /// mutation of [`ArbState`] goes through here, which is what lets the
    /// static checker (xlint R11-R14) identify arbiter critical sections.
    /// Poisoning is recovered and counted by [`recover_poison`].
    fn lock_state(&self) -> MutexGuard<'_, ArbState> {
        recover_poison(&self.inner.0, self.inner.0.lock())
    }
}

/// An exclusive lease of frames from a [`BudgetArbiter`]; dropping it
/// returns the frames and wakes the queue head.
#[derive(Debug)]
pub struct BudgetLease {
    arbiter: BudgetArbiter,
    frames: usize,
    tenant: Option<String>,
}

impl BudgetLease {
    /// Number of frames held.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// A fresh single-threaded [`MemoryBudget`] of exactly the leased size,
    /// for the job that owns this lease to meter its own structures with.
    pub fn budget(&self) -> MemoryBudget {
        MemoryBudget::new(self.frames)
    }

    /// The tenant this lease is charged to, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        let mut st = self.arbiter.lock_state();
        st.release(self.frames, self.tenant.as_deref());
        drop(st);
        self.arbiter.inner.1.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grants_in_fifo_order_even_when_later_requests_fit() {
        let mut st = ArbState::new(10);
        let a = st.enqueue(8);
        assert!(st.grantable(a));
        assert_eq!(st.grant(a).unwrap().frames, 8);
        let big = st.enqueue(8); // cannot fit while `a` holds 8
        let small = st.enqueue(1); // would fit, but is behind `big`
        assert!(!st.grantable(big));
        assert!(!st.grantable(small), "FIFO: the small request must not leapfrog");
        st.release(8, None);
        assert!(st.grantable(big), "head goes first once frames free up");
        assert!(!st.grantable(small));
        assert_eq!(st.grant(big).unwrap().frames, 8);
        st.release(8, None);
        assert!(st.grantable(small));
    }

    #[test]
    fn abandon_unwedges_the_queue() {
        let mut st = ArbState::new(4);
        let first = st.enqueue(4);
        st.grant(first).unwrap();
        let stuck = st.enqueue(4);
        let behind = st.enqueue(2);
        st.release(4, None);
        assert!(st.grantable(stuck));
        st.abandon(stuck);
        assert!(st.grantable(behind), "abandoning the head promotes the next waiter");
    }

    #[test]
    fn capped_tenant_steps_aside_and_resumes_in_place() {
        let mut st = ArbState::new(10);
        st.tenant_cap = 1;
        let g1 = st.enqueue_as(2, Some("greedy"));
        assert!(st.grantable(g1));
        st.grant(g1).unwrap();
        let g2 = st.enqueue_as(2, Some("greedy")); // at the cap now
        let meek = st.enqueue_as(2, Some("meek"));
        assert!(!st.grantable(g2), "tenant at its cap is ineligible");
        assert!(st.grantable(meek), "first eligible request wins, not the head");
        st.grant(meek).unwrap();
        // Greedy's first lease releases: its queued request becomes
        // eligible again at its original position.
        st.release(2, Some("greedy"));
        assert!(st.grantable(g2));
    }

    #[test]
    fn over_total_requests_fail_fast() {
        let arb = BudgetArbiter::new(4);
        match arb.acquire(5) {
            Err(ExtError::BudgetExceeded { requested, free }) => {
                assert_eq!((requested, free), (5, 4));
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert_eq!(arb.waiters(), 0, "an impossible request never queues");
    }

    #[test]
    fn try_acquire_never_cuts_the_line() {
        let arb = BudgetArbiter::new(4);
        let hold = arb.acquire(3).unwrap();
        assert!(arb.try_acquire(2).is_none(), "does not fit");
        let one = arb.try_acquire(1).expect("fits, queue empty");
        drop(one);
        drop(hold);
        assert_eq!(arb.used_frames(), 0);
        assert_eq!(arb.high_water_frames(), 4);
    }

    #[test]
    fn contended_threads_settle_to_zero_used() {
        let arb = BudgetArbiter::new(8);
        let mut handles = Vec::new();
        for i in 0..6 {
            let a = arb.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let lease = a.acquire(1 + i % 4).unwrap();
                    assert!(lease.frames() <= 8);
                    std::hint::black_box(&lease);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(arb.used_frames(), 0);
        assert_eq!(arb.waiters(), 0);
        assert!(arb.high_water_frames() <= 8, "never over-committed");
    }

    /// The poisoning tests read the process-wide recovery counter, so they
    /// run one at a time: each then sees only its own recoveries.
    static POISON_TESTS: Mutex<()> = Mutex::new(());

    fn poison_tests_serial() -> MutexGuard<'static, ()> {
        recover_poison(&POISON_TESTS, POISON_TESTS.lock())
    }

    #[test]
    fn poisoning_recovery_is_counted() {
        let _serial = poison_tests_serial();
        let arb = BudgetArbiter::new(4);
        let held = arb.acquire(1).unwrap();
        let before = poison_recoveries();
        let a = arb.clone();
        let t = std::thread::spawn(move || {
            let _st = a.lock_state();
            panic!("poison the arbiter lock");
        });
        assert!(t.join().is_err());
        assert_eq!(arb.used_frames(), 1, "state survives poisoning");
        assert!(poison_recoveries() > before, "recovery must be counted");
        drop(held);
        assert_eq!(arb.acquire(4).unwrap().frames(), 4, "the arbiter still grants");
    }

    #[test]
    fn one_panic_is_counted_once() {
        let _serial = poison_tests_serial();
        let arb = BudgetArbiter::new(4);
        let before = poison_recoveries();
        let a = arb.clone();
        let t = std::thread::spawn(move || {
            let _st = a.lock_state();
            panic!("poison the arbiter lock");
        });
        assert!(t.join().is_err());
        drop(arb.lock_state());
        drop(arb.lock_state());
        assert_eq!(poison_recoveries() - before, 1, "the first acquisition clears the poison");
        assert!(arb.inner.0.lock().is_ok());
    }

    #[test]
    fn poison_recovery_is_counted_not_swallowed() {
        let _serial = poison_tests_serial();
        let m = Arc::new(Mutex::new(7u32));
        let before = poison_recoveries();
        let m2 = Arc::clone(&m);
        let panicked = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the mutex while holding it");
        })
        .join();
        assert!(panicked.is_err(), "the poisoning thread must have panicked");
        assert!(m.lock().is_err(), "std reports the poison");
        assert_eq!(*recover_poison(&m, m.lock()), 7, "the guard is recovered");
        assert!(
            poison_recoveries() > before,
            "recovery must be counted (before={before}, after={})",
            poison_recoveries()
        );
    }

    #[test]
    fn lease_budget_is_sized_to_the_lease() {
        let arb = BudgetArbiter::new(16);
        let lease = arb.acquire(5).unwrap();
        let b = lease.budget();
        assert_eq!(b.total_frames(), 5);
        assert!(b.reserve(5).is_ok());
    }

    proptest! {
        /// Deterministic no-starvation sweep: for any interleaving of
        /// requests and releases, (1) grants happen in strict arrival
        /// order, (2) every request is eventually granted once enough
        /// frames free up (nobody starves), (3) usage never exceeds the
        /// total, and (4) the high-water mark is monotone and equal to the
        /// max usage observed.
        #[test]
        fn fifo_no_starvation_and_monotone_high_water(
            total in 1usize..12,
            ops in proptest::collection::vec((0usize..6, 1usize..12), 1..40),
        ) {
            let mut st = ArbState::new(total);
            let mut held: Vec<(u64, usize)> = Vec::new(); // granted, not yet released
            let mut granted_order: Vec<u64> = Vec::new();
            let mut last_high = 0usize;
            let mut max_used = 0usize;
            for (op, n) in ops {
                if op < 4 {
                    // Request `n` frames (clamped to the total so it is
                    // satisfiable; impossible requests are rejected before
                    // queueing in the real API).
                    st.enqueue(n.min(total).max(1));
                } else if let Some((t, frames)) = held.pop() {
                    let _ = t;
                    st.release(frames, None);
                }
                // Drain every grant that is now legal; the sync wrapper
                // does exactly this after each release.
                while let Some(w) = st.queue.front().cloned() {
                    if !st.grantable(w.ticket) {
                        break;
                    }
                    st.grant(w.ticket).unwrap();
                    held.push((w.ticket, w.frames));
                    granted_order.push(w.ticket);
                }
                prop_assert!(st.used <= st.total, "over-committed: {} > {}", st.used, st.total);
                prop_assert!(st.high_water >= last_high, "high water regressed");
                last_high = st.high_water;
                max_used = max_used.max(st.used);
            }
            // (1) FIFO: tickets were granted in strictly increasing order.
            prop_assert!(granted_order.windows(2).all(|w| w[0] < w[1]),
                "grants out of arrival order: {granted_order:?}");
            // (2) no starvation: release everything and the queue drains.
            for (_, frames) in held.drain(..) {
                st.release(frames, None);
            }
            while let Some(w) = st.queue.front().cloned() {
                prop_assert!(st.grantable(w.ticket), "queue wedged with all frames free");
                st.grant(w.ticket).unwrap();
                granted_order.push(w.ticket);
                st.release(w.frames, None);
            }
            prop_assert!(st.queue.is_empty());
            // (4) high water equals the maximum simultaneous usage seen.
            prop_assert!(st.high_water >= max_used);
        }

        /// One greedy tenant floods the queue ahead of everyone else and
        /// never releases voluntarily. With a tenant cap in force, every
        /// other tenant's request must still be granted -- the greedy
        /// backlog parks at the cap instead of walling off the queue.
        #[test]
        fn greedy_tenant_cannot_starve_others(
            total in 3usize..12,
            cap in 1usize..3,
            backlog in 4usize..30,
            others in 1usize..4,
        ) {
            let mut st = ArbState::new(total);
            st.tenant_cap = cap;
            // The greedy tenant's flood arrives first...
            let flood: Vec<u64> =
                (0..backlog).map(|_| st.enqueue_as(1, Some("greedy"))).collect();
            // ...then one request per well-behaved tenant.
            let meek: Vec<u64> = (0..others)
                .map(|i| st.enqueue_as(1, Some(&format!("tenant-{i}"))))
                .collect();
            // Drain grants exactly like the sync wrapper; nobody releases.
            let mut granted: Vec<u64> = Vec::new();
            while let Some(t) = st.first_eligible().map(|w| w.ticket) {
                if !st.grantable(t) {
                    break; // out of frames
                }
                st.grant(t).unwrap();
                granted.push(t);
            }
            // The greedy tenant holds exactly its cap (frames permitting)...
            let greedy_granted = flood.iter().filter(|t| granted.contains(t)).count();
            prop_assert_eq!(greedy_granted, cap.min(total));
            // ...and every other tenant that fits in the remaining frames
            // was served despite arriving behind the whole flood.
            let meek_granted = meek.iter().filter(|t| granted.contains(t)).count();
            prop_assert_eq!(meek_granted, others.min(total - cap.min(total)));
            prop_assert!(st.used <= st.total);
        }
    }
}
