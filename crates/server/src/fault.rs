//! Network fault injection and client retry for the daemon protocol.
//!
//! [`NetFaultPlan`] scripts or draws faults per request/response exchange,
//! [`NetFaultState`] turns a plan into a deterministic decision stream the
//! transport consults, and [`NetRetryPolicy`] is the client's seeded,
//! jittered backoff. Everything is deterministic per seed, which the
//! `net_chaos` integration sweep relies on.

use std::collections::BTreeMap;

use nexsort_extmem::FaultRng;

fn check_rate(rate: f64) -> f64 {
    assert!((0.0..=1.0).contains(&rate), "fault rate out of [0,1]: {rate}");
    rate
}

/// What an injected network fault does to the targeted protocol exchange.
///
/// The network mirror of [`FaultKind`](nexsort_extmem::FaultKind): where a
/// device fault targets one block transfer, a net fault targets one
/// request/response *exchange* on the daemon's NDJSON protocol. The
/// transport layer ([`net`](crate::net)) consults a [`NetFaultState`] once
/// per exchange and applies the verdict to the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The connection is closed before the response line is written. The
    /// peer sees EOF mid-exchange; a dropped ACK is the canonical case.
    Disconnect,
    /// The response is delayed by the plan's stall duration before being
    /// written, long enough to trip a peer's read deadline.
    Stall,
    /// Only a prefix of the response line reaches the peer, then the
    /// connection closes -- the framing analogue of a torn block write.
    TornFrame,
    /// One byte of the response payload is flipped before it is written; the
    /// peer receives a syntactically broken frame.
    Corrupt,
}

/// A seeded, deterministic schedule of network faults.
///
/// Faults come from two sources, checked in order per exchange:
/// 1. *scripted* faults at exact exchange indices (0-based, counted across
///    all connections in arrival order), for precise chaos-sweep scenarios;
/// 2. *probabilistic* faults drawn from the plan's seeded generator at the
///    configured per-exchange rates.
///
/// Like a device [`FaultPlan`](nexsort_extmem::FaultPlan), the same plan over
/// the same exchange sequence injects
/// the same faults, which the `net_chaos` integration sweep relies on.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    seed: u64,
    disconnect_rate: f64,
    stall_rate: f64,
    torn_rate: f64,
    corrupt_rate: f64,
    stall_ms: u64,
    scripted: BTreeMap<u64, NetFaultKind>,
}

impl NetFaultPlan {
    /// A plan with the given seed and no faults (until configured).
    pub fn new(seed: u64) -> Self {
        NetFaultPlan { seed, stall_ms: 50, ..NetFaultPlan::default() }
    }

    /// Script `kind` at exact exchange index `idx` (0-based, global across
    /// connections). Later calls override earlier ones for the same index.
    pub fn at_exchange(mut self, idx: u64, kind: NetFaultKind) -> Self {
        self.scripted.insert(idx, kind);
        self
    }

    /// Probability that an exchange's response is dropped with the connection.
    pub fn disconnect_rate(mut self, rate: f64) -> Self {
        self.disconnect_rate = check_rate(rate);
        self
    }

    /// Probability that an exchange's response is stalled.
    pub fn stall_rate(mut self, rate: f64) -> Self {
        self.stall_rate = check_rate(rate);
        self
    }

    /// Probability that an exchange's response frame is torn.
    pub fn torn_rate(mut self, rate: f64) -> Self {
        self.torn_rate = check_rate(rate);
        self
    }

    /// Probability that one byte of an exchange's response is flipped.
    pub fn corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = check_rate(rate);
        self
    }

    /// How long a [`NetFaultKind::Stall`] delays the response.
    pub fn stall_ms(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }

    /// The configured stall duration in milliseconds.
    pub fn stall_millis(&self) -> u64 {
        self.stall_ms
    }

    /// Highest scripted exchange index, if any -- lets a sweep know when the
    /// plan is exhausted.
    pub fn max_scripted_exchange(&self) -> Option<u64> {
        self.scripted.keys().next_back().copied()
    }

    /// True if no fault can ever fire (no scripts, all rates zero).
    pub fn is_clean(&self) -> bool {
        self.scripted.is_empty()
            && self.disconnect_rate == 0.0
            && self.stall_rate == 0.0
            && self.torn_rate == 0.0
            && self.corrupt_rate == 0.0
    }
}

/// Running totals of injected network faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultCounts {
    /// Responses dropped with their connection.
    pub disconnects: u64,
    /// Responses delayed past the stall duration.
    pub stalls: u64,
    /// Responses cut mid-frame.
    pub torn_frames: u64,
    /// Responses with a flipped payload byte.
    pub corruptions: u64,
}

impl NetFaultCounts {
    /// Total faults injected, all kinds.
    pub fn total(&self) -> u64 {
        self.disconnects + self.stalls + self.torn_frames + self.corruptions
    }
}

/// Deterministic per-exchange fault decisions for one [`NetFaultPlan`].
///
/// Plain data with no interior mutability or concurrency primitives -- the
/// server wraps it in its own tracked lock. Each [`NetFaultState::next_exchange`] call
/// consumes exactly one exchange index and a fixed number of generator draws,
/// so the decision stream stays aligned regardless of which faults fire.
#[derive(Debug, Clone)]
pub struct NetFaultState {
    plan: NetFaultPlan,
    rng: FaultRng,
    exchanges: u64,
    counts: NetFaultCounts,
}

impl NetFaultState {
    /// Build the decision stream for `plan`.
    pub fn new(plan: NetFaultPlan) -> Self {
        let rng = FaultRng::new(plan.seed);
        NetFaultState { plan, rng, exchanges: 0, counts: NetFaultCounts::default() }
    }

    /// Decide the fate of the next exchange: returns its 0-based index and
    /// the fault to inject, if any. Counts fired faults.
    pub fn next_exchange(&mut self) -> (u64, Option<NetFaultKind>) {
        let idx = self.exchanges;
        self.exchanges += 1;
        // Fixed draw count per exchange keeps seeds comparable across plans.
        let draws =
            [self.rng.next_f64(), self.rng.next_f64(), self.rng.next_f64(), self.rng.next_f64()];
        let kind = if let Some(&k) = self.plan.scripted.get(&idx) {
            Some(k)
        } else if draws[0] < self.plan.disconnect_rate {
            Some(NetFaultKind::Disconnect)
        } else if draws[1] < self.plan.stall_rate {
            Some(NetFaultKind::Stall)
        } else if draws[2] < self.plan.torn_rate {
            Some(NetFaultKind::TornFrame)
        } else if draws[3] < self.plan.corrupt_rate {
            Some(NetFaultKind::Corrupt)
        } else {
            None
        };
        match kind {
            Some(NetFaultKind::Disconnect) => self.counts.disconnects += 1,
            Some(NetFaultKind::Stall) => self.counts.stalls += 1,
            Some(NetFaultKind::TornFrame) => self.counts.torn_frames += 1,
            Some(NetFaultKind::Corrupt) => self.counts.corruptions += 1,
            None => {}
        }
        (idx, kind)
    }

    /// How long a stall fault should delay the response.
    pub fn stall_millis(&self) -> u64 {
        self.plan.stall_ms
    }

    /// Exchanges decided so far.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Faults fired so far, by kind.
    pub fn counts(&self) -> NetFaultCounts {
        self.counts
    }
}

/// Client-side retry schedule with seeded, jittered exponential backoff.
///
/// The network mirror of [`RetryPolicy`](nexsort_extmem::RetryPolicy):
/// attempts are real (the client
/// re-sends the request) and the backoff is real wall-clock sleep, but the
/// *amount* of each sleep is deterministic per `(seed, attempt)` so chaos
/// tests replay identically. Delay before retry `k` (1-based) doubles from
/// `base_ms`, is capped at `max_ms`, and is jittered into the upper half of
/// the window (`[d/2, d]`) to avoid synchronized thundering herds without
/// giving up determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetRetryPolicy {
    /// Total attempts per request (>= 1); 1 means no retries.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds; doubles each retry.
    pub base_ms: u64,
    /// Upper bound on any single backoff, in milliseconds.
    pub max_ms: u64,
    /// Seed for the jitter draw.
    pub seed: u64,
}

impl NetRetryPolicy {
    /// No retries: every transport failure is immediately fatal.
    pub fn none() -> Self {
        NetRetryPolicy { max_attempts: 1, base_ms: 0, max_ms: 0, seed: 0 }
    }

    /// Allow `n` retries (so `n + 1` total attempts) with the given base
    /// backoff and seed; backoff is capped at 64x the base.
    pub fn retries(n: u32, base_ms: u64, seed: u64) -> Self {
        NetRetryPolicy { max_attempts: n + 1, base_ms, max_ms: base_ms.saturating_mul(64), seed }
    }

    /// Milliseconds to sleep before retry number `retry` (1-based).
    /// Deterministic per `(seed, retry)`.
    pub fn delay_before_ms(&self, retry: u32) -> u64 {
        if self.base_ms == 0 {
            return 0;
        }
        let full = self
            .base_ms
            .saturating_mul(1u64 << u64::from(retry.saturating_sub(1)).min(20))
            .min(self.max_ms.max(self.base_ms));
        let mut rng =
            FaultRng::new(self.seed ^ (u64::from(retry)).wrapping_mul(0xA24B_AED4_963E_E407));
        let half = full / 2;
        half + rng.next_u64() % (full - half + 1)
    }
}

impl Default for NetRetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_plan_scripted_faults_fire_at_exact_exchanges() {
        let plan = NetFaultPlan::new(3)
            .at_exchange(1, NetFaultKind::Disconnect)
            .at_exchange(4, NetFaultKind::TornFrame);
        let mut st = NetFaultState::new(plan.clone());
        assert!(!plan.is_clean());
        assert_eq!(plan.max_scripted_exchange(), Some(4));
        let fates: Vec<_> = (0..6).map(|_| st.next_exchange()).collect();
        assert_eq!(fates[0], (0, None));
        assert_eq!(fates[1], (1, Some(NetFaultKind::Disconnect)));
        assert_eq!(fates[4], (4, Some(NetFaultKind::TornFrame)));
        assert_eq!(fates[5], (5, None));
        let c = st.counts();
        assert_eq!((c.disconnects, c.torn_frames, c.total()), (1, 1, 2));
        assert_eq!(st.exchanges(), 6);
    }

    #[test]
    fn net_plan_same_seed_draws_identical_fault_sequences() {
        let run = || {
            let mut st =
                NetFaultState::new(NetFaultPlan::new(77).disconnect_rate(0.2).corrupt_rate(0.2));
            (0..200).map(|_| st.next_exchange().1).collect::<Vec<_>>()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(a.iter().any(|k| k.is_some()), "rates of 0.2 must fire in 200 draws");
        assert!(a.iter().any(|k| k.is_none()));
        let mut other =
            NetFaultState::new(NetFaultPlan::new(78).disconnect_rate(0.2).corrupt_rate(0.2));
        let c: Vec<_> = (0..200).map(|_| other.next_exchange().1).collect();
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn net_retry_backoff_is_deterministic_bounded_and_doubling() {
        let p = NetRetryPolicy::retries(5, 10, 9);
        assert_eq!(p.max_attempts, 6);
        for retry in 1..=5 {
            let d = p.delay_before_ms(retry);
            assert_eq!(d, p.delay_before_ms(retry), "deterministic per (seed, retry)");
            let full = (10u64 << (retry - 1)).min(p.max_ms);
            assert!(d >= full / 2 && d <= full, "retry {retry}: {d} not in [{}, {full}]", full / 2);
        }
        // A different seed jitters differently somewhere in the schedule.
        let q = NetRetryPolicy::retries(5, 10, 10);
        assert!((1..=5).any(|r| p.delay_before_ms(r) != q.delay_before_ms(r)));
        assert_eq!(NetRetryPolicy::none().delay_before_ms(1), 0);
        assert_eq!(NetRetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn net_fault_decision_stream_stays_aligned_past_scripted_faults() {
        // Scripting a fault must not shift the probabilistic draws that
        // follow it: exchange k's fate is a function of (seed, k) alone.
        let base = NetFaultPlan::new(55).stall_rate(0.3);
        let mut plain = NetFaultState::new(base.clone());
        let mut scripted = NetFaultState::new(base.at_exchange(0, NetFaultKind::Corrupt));
        plain.next_exchange();
        scripted.next_exchange();
        for _ in 1..100 {
            assert_eq!(plain.next_exchange(), scripted.next_exchange());
        }
    }
}
