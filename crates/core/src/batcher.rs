//! Cross-session oracle batcher with fair-share admission (the "governor").
//!
//! The paper's cost model is oracle *invocations*: the oracle is a DNN
//! served in batches on an accelerator, so every invocation pays a fixed
//! dispatch cost (kernel launch, serving round-trip) before any record is
//! scored (§5.1). One session labeling alone amortizes that cost over its
//! own batch; N concurrent sessions each invoking the oracle independently
//! pay N× the dispatch cost that one shared batch would. This module is
//! the engine-level fix: a process-wide [`OracleBatcher`] that concurrent
//! sessions' label batches must be **admitted** through, coalescing
//! requests that target the same `(table, predicate)` — i.e. the same
//! model — into shared invocations.
//!
//! ## Determinism contract
//!
//! Admission changes *invocation grouping and timing only*. Each request
//! still labels exactly its own record ids, through its own per-query
//! oracle, on its own thread, in its own order — the batcher never touches
//! ids, labels, RNG streams, or the order a session's statistics merge in.
//! For a fixed engine seed, every session's estimates, CIs, and
//! `oracle_calls` are therefore bit-identical whether coalescing is on or
//! off, at any thread count (`tests/governor.rs` pins exactly this).
//!
//! ## Group-commit coalescing
//!
//! There is no timer (result-path code must not read the clock): batching
//! emerges from *group commit*. The first request to find its key idle
//! becomes the leader and dispatches whatever is pending — usually just
//! itself. While that invocation's overhead is being paid, later requests
//! queue up; whichever of them leads next dispatches them all as one
//! shared invocation. Under load the batch size converges to the number
//! of concurrent requesters without any explicit window.
//!
//! ## Fair-share admission
//!
//! `fair_take` assembles each batch from the pending queue:
//!
//! 1. FIFO walk honoring the per-session record quota and the batch record
//!    cap — the **front ticket is always admitted**, so every batch makes
//!    progress and waiting is bounded (no starvation, ever).
//! 2. A work-conserving second pass hands spare capacity to quota-skipped
//!    tickets in FIFO order — fairness never leaves the device idle.
//!
//! Quotas bite when [`BatcherOptions::max_batch_records`] bounds the
//! invocation (a real serving batch is bounded): a greedy session's flood
//! of tickets cannot crowd a fair session's single ticket out of the next
//! batch, because the fair ticket fits its own quota while the greedy
//! tickets beyond theirs are skipped. Per-session quota overrides
//! ([`OracleBatcher::set_session_quota`]) are the priority knob: a bigger
//! quota is a bigger guaranteed share of every contended batch.

use abae_data::{GroupLabel, GroupOracle, Labeled, Oracle};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Batcher configuration, resolved once when the engine is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherOptions {
    /// Coalesce concurrent sessions' requests into shared invocations.
    /// Off, every admitted request is its own invocation (the baseline the
    /// `governor` bench compares against); results are identical either
    /// way.
    pub coalesce: bool,
    /// Simulated fixed cost per oracle invocation, charged once per
    /// (shared) batch and **serialized** across invocations — the model of
    /// a single accelerator that dispatches one batch at a time. Zero (the
    /// default) charges nothing and takes no device lock.
    pub invocation_overhead: Duration,
    /// Record capacity of one invocation (a DNN serving batch is bounded).
    /// `0` means unbounded — note that quotas only shape admission when
    /// this cap makes batch slots scarce.
    pub max_batch_records: usize,
    /// Default per-session record quota within one contended batch; `0`
    /// means unlimited. Override per session with
    /// [`OracleBatcher::set_session_quota`].
    pub session_quota: usize,
}

impl Default for BatcherOptions {
    fn default() -> Self {
        Self {
            coalesce: false,
            invocation_overhead: Duration::ZERO,
            max_batch_records: 0,
            session_quota: 0,
        }
    }
}

impl BatcherOptions {
    /// Options with coalescing on and everything else default.
    pub fn governed() -> Self {
        Self { coalesce: true, ..Self::default() }
    }

    /// Returns `self` with the coalescing switch replaced.
    pub const fn with_coalesce(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Returns `self` with the per-invocation overhead replaced.
    pub const fn with_invocation_overhead(mut self, overhead: Duration) -> Self {
        self.invocation_overhead = overhead;
        self
    }

    /// Returns `self` with the batch record cap replaced.
    pub const fn with_max_batch_records(mut self, records: usize) -> Self {
        self.max_batch_records = records;
        self
    }

    /// Returns `self` with the default per-session quota replaced.
    pub const fn with_session_quota(mut self, records: usize) -> Self {
        self.session_quota = records;
        self
    }
}

/// One waiting label request: who is asking and for how many records.
/// `admitted` is written under the batcher's state lock and read in the
/// requester's wait loop under the same lock; the atomic is only for
/// `Sync`, not for lock-free signaling.
#[derive(Debug)]
struct Ticket {
    session: u64,
    records: usize,
    admitted: AtomicBool,
}

/// Pending requests for one coalescing key, plus whether an invocation
/// for this key is currently in flight (its leader will wake us).
#[derive(Debug, Default)]
struct KeyQueue {
    pending: VecDeque<Arc<Ticket>>,
    dispatching: bool,
}

/// Lock-guarded batcher state: per-key queues and the per-session quota
/// overrides (kept under the same lock so admission reads a consistent
/// snapshot).
#[derive(Debug, Default)]
struct State {
    queues: BTreeMap<String, KeyQueue>,
    quotas: BTreeMap<u64, usize>,
}

/// Lifetime counters of one [`OracleBatcher`], for `Engine::stats()`,
/// `EXPLAIN`, and the bench artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Label requests admitted: one per batch of label-store misses that
    /// reached the oracle. Store hits are answered once per labeling
    /// request, before its misses are cut into batches, so they never get
    /// here.
    pub requests: u64,
    /// Oracle invocations dispatched (each charged one overhead).
    pub invocations: u64,
    /// Invocations that served more than one request.
    pub shared_batches: u64,
    /// Requests that rode a shared invocation.
    pub coalesced_requests: u64,
    /// Records labeled through admitted invocations.
    pub labeled_records: u64,
    /// Records answered from the label store without consuming any batch
    /// slot (reported by the query layer via
    /// [`OracleBatcher::note_cache_served`]).
    pub cache_served: u64,
}

/// The process-wide admission controller for oracle invocations. Shared
/// by every session of an engine; internally synchronized, so a
/// reference (or `Arc`) can be handed to any number of threads.
#[derive(Debug, Default)]
pub struct OracleBatcher {
    opts: BatcherOptions,
    state: Mutex<State>,
    wakeup: Condvar,
    /// Serializes invocation overhead: the shared accelerator dispatches
    /// one batch at a time.
    device: Mutex<()>,
    requests: AtomicU64,
    invocations: AtomicU64,
    shared_batches: AtomicU64,
    coalesced_requests: AtomicU64,
    labeled_records: AtomicU64,
    cache_served: AtomicU64,
    /// Per-session records labeled through admission — the spend ledger
    /// fair-share reporting and multi-tenant dashboards read.
    spend: Mutex<BTreeMap<u64, u64>>,
}

impl OracleBatcher {
    /// Creates a batcher with the given options.
    pub fn new(opts: BatcherOptions) -> Self {
        Self { opts, ..Self::default() }
    }

    /// The options this batcher was built with.
    pub fn options(&self) -> &BatcherOptions {
        &self.opts
    }

    /// Overrides the per-batch record quota for one session (`0` restores
    /// the default). A larger quota is a larger guaranteed share of every
    /// contended batch — the priority knob.
    pub fn set_session_quota(&self, session: u64, records: usize) {
        let mut state = self.state.lock().expect("no panics while holding the batcher lock");
        if records == 0 {
            state.quotas.remove(&session);
        } else {
            state.quotas.insert(session, records);
        }
    }

    /// Blocks until a label request for `records` records of `key` (the
    /// canonical `(table, predicate)` rendering) is admitted to an oracle
    /// invocation, charging the invocation overhead exactly once per
    /// (possibly shared) batch. Returns after the overhead is paid; the
    /// caller then labels its own records through its own oracle.
    pub fn admit(&self, key: &str, session: u64, records: usize) {
        if records == 0 {
            return;
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.labeled_records.fetch_add(records as u64, Ordering::Relaxed);
        {
            let mut spend = self.spend.lock().expect("no panics while holding the spend lock");
            *spend.entry(session).or_insert(0) += records as u64;
        }
        if !self.opts.coalesce {
            // Baseline mode: every request is its own invocation.
            self.invoke(1, records);
            return;
        }

        let ticket =
            Arc::new(Ticket { session, records, admitted: AtomicBool::new(false) });
        let mut state = self.state.lock().expect("no panics while holding the batcher lock");
        state
            .queues
            .entry(key.to_string())
            .or_default()
            .pending
            .push_back(Arc::clone(&ticket));
        loop {
            if ticket.admitted.load(Ordering::Relaxed) {
                break;
            }
            let queue = state.queues.get_mut(key).expect("queue created on entry");
            if queue.dispatching {
                // An invocation for this key is in flight; its leader will
                // notify when the device frees up (this wait is where
                // group commit accumulates the next shared batch).
                state = self
                    .wakeup
                    .wait(state)
                    .expect("no panics while holding the batcher lock");
                continue;
            }
            // Become the leader: assemble a batch under the lock, pay the
            // shared overhead outside it, then admit the members.
            queue.dispatching = true;
            let mut pending = std::mem::take(&mut queue.pending);
            let batch = fair_take(&mut pending, &self.opts, &state.quotas);
            state.queues.get_mut(key).expect("queue created on entry").pending = pending;
            let batch_records: usize = batch.iter().map(|t| t.records).sum();
            drop(state);
            self.invoke(batch.len(), batch_records);
            state = self.state.lock().expect("no panics while holding the batcher lock");
            for member in &batch {
                member.admitted.store(true, Ordering::Relaxed);
            }
            state.queues.get_mut(key).expect("queue created on entry").dispatching = false;
            self.wakeup.notify_all();
            // Loop: our own ticket may or may not have been in the batch
            // (fair-share can defer it); if not, we wait or lead again.
        }
        // Drop empty idle queues so the key map stays bounded by the
        // number of *active* (table, predicate) pairs.
        if let Some(queue) = state.queues.get(key) {
            if queue.pending.is_empty() && !queue.dispatching {
                state.queues.remove(key);
            }
        }
    }

    /// Records `records` verdicts served from the label store without an
    /// invocation — the cache-aware scheduling counter.
    pub fn note_cache_served(&self, records: u64) {
        self.cache_served.fetch_add(records, Ordering::Relaxed);
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            requests: self.requests.load(Ordering::Relaxed),
            invocations: self.invocations.load(Ordering::Relaxed),
            shared_batches: self.shared_batches.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
            labeled_records: self.labeled_records.load(Ordering::Relaxed),
            cache_served: self.cache_served.load(Ordering::Relaxed),
        }
    }

    /// Records labeled per session through admission, in session-id order
    /// — the fair-share spend ledger.
    pub fn per_session_spend(&self) -> Vec<(u64, u64)> {
        let spend = self.spend.lock().expect("no panics while holding the spend lock");
        spend.iter().map(|(&s, &n)| (s, n)).collect()
    }

    /// Dispatches one invocation of `requests` coalesced requests
    /// totalling `records` records: counts it and pays the serialized
    /// per-invocation overhead.
    fn invoke(&self, requests: usize, records: usize) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        if requests > 1 {
            self.shared_batches.fetch_add(1, Ordering::Relaxed);
            self.coalesced_requests.fetch_add(requests as u64, Ordering::Relaxed);
        }
        let _ = records;
        if !self.opts.invocation_overhead.is_zero() {
            let _device = self.device.lock().expect("no panics while holding the device lock");
            std::thread::sleep(self.opts.invocation_overhead);
        }
    }
}

/// Assembles one batch from `pending` (removing what it admits): a FIFO
/// walk honoring the batch record cap and per-session quotas — the front
/// ticket is always admitted, so every batch makes progress — followed by
/// a work-conserving fill of spare capacity in FIFO order. See the
/// [module docs](self) for the fairness argument.
fn fair_take(
    pending: &mut VecDeque<Arc<Ticket>>,
    opts: &BatcherOptions,
    quotas: &BTreeMap<u64, usize>,
) -> Vec<Arc<Ticket>> {
    let mut admitted: Vec<Arc<Ticket>> = Vec::new();
    let mut total = 0usize;
    let mut per_session: BTreeMap<u64, usize> = BTreeMap::new();

    // Pass 1: guaranteed shares. Skipped tickets keep their queue order.
    let mut i = 0;
    while i < pending.len() {
        let ticket = &pending[i];
        let quota = quotas.get(&ticket.session).copied().unwrap_or(opts.session_quota);
        let session_total =
            per_session.get(&ticket.session).copied().unwrap_or(0) + ticket.records;
        let fits_cap =
            opts.max_batch_records == 0 || total + ticket.records <= opts.max_batch_records;
        let fits_quota = quota == 0 || session_total <= quota;
        if admitted.is_empty() || (fits_cap && fits_quota) {
            let ticket = pending.remove(i).expect("index bounded by len");
            total += ticket.records;
            *per_session.entry(ticket.session).or_insert(0) += ticket.records;
            admitted.push(ticket);
        } else {
            i += 1;
        }
    }

    // Pass 2: work-conserving fill — quota-skipped tickets take whatever
    // capacity the guaranteed shares left, still in FIFO order.
    let mut i = 0;
    while i < pending.len() {
        let ticket = &pending[i];
        if opts.max_batch_records == 0 || total + ticket.records <= opts.max_batch_records {
            let ticket = pending.remove(i).expect("index bounded by len");
            total += ticket.records;
            admitted.push(ticket);
        } else {
            i += 1;
        }
    }
    admitted
}

/// An [`Oracle`] / [`GroupOracle`] adapter that routes every labeling
/// batch through an [`OracleBatcher`] before labeling: the chunk is
/// admitted to a (possibly shared) invocation, then labeled through the
/// wrapped per-query oracle **on the calling thread** — so invocation
/// accounting (`calls`), simulated per-record latency, and label values
/// all stay attributed to the requesting session exactly as without the
/// batcher. The engine always passes its batcher; with `batcher: None`
/// the adapter is a transparent passthrough, the ungoverned reference a
/// test compares governed spend against.
/// [`Oracle::stored_labels`] is forwarded unadmitted, so a label store
/// beneath the adapter still packs its misses into full batches.
pub struct GovernedOracle<'a, O> {
    inner: O,
    batcher: Option<&'a OracleBatcher>,
    key: String,
    session: u64,
}

impl<'a, O> GovernedOracle<'a, O> {
    /// Wraps `inner`; requests are coalesced under `key` (the canonical
    /// `(table, predicate)` rendering) on behalf of `session`.
    pub fn new(
        inner: O,
        batcher: Option<&'a OracleBatcher>,
        key: impl Into<String>,
        session: u64,
    ) -> Self {
        Self { inner, batcher, key: key.into(), session }
    }

    /// Consumes the wrapper, returning the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Oracle> Oracle for GovernedOracle<'_, O> {
    fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
        if let Some(batcher) = self.batcher {
            batcher.admit(&self.key, self.session, indices.len());
        }
        self.inner.label_batch(indices)
    }

    fn stored_labels(&self, indices: &[usize]) -> Vec<(usize, Labeled)> {
        // Held labels charge nothing, so they are never admitted.
        self.inner.stored_labels(indices)
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn reset_calls(&self) {
        self.inner.reset_calls()
    }
}

impl<O: GroupOracle> GroupOracle for GovernedOracle<'_, O> {
    fn label_group_batch(&self, indices: &[usize]) -> Vec<GroupLabel> {
        if let Some(batcher) = self.batcher {
            batcher.admit(&self.key, self.session, indices.len());
        }
        self.inner.label_group_batch(indices)
    }

    fn group_count(&self) -> usize {
        self.inner.group_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abae_data::FnOracle;

    fn ticket(session: u64, records: usize) -> Arc<Ticket> {
        Arc::new(Ticket { session, records, admitted: AtomicBool::new(false) })
    }

    fn sessions(batch: &[Arc<Ticket>]) -> Vec<u64> {
        batch.iter().map(|t| t.session).collect()
    }

    #[test]
    fn fair_take_admits_everything_when_unbounded() {
        let mut pending: VecDeque<_> =
            [ticket(0, 10), ticket(1, 10), ticket(0, 10)].into_iter().collect();
        let batch = fair_take(&mut pending, &BatcherOptions::governed(), &BTreeMap::new());
        assert_eq!(sessions(&batch), vec![0, 1, 0]);
        assert!(pending.is_empty());
    }

    #[test]
    fn fair_take_always_admits_the_front_ticket() {
        // Front ticket bigger than the cap: admitted anyway (liveness).
        let mut pending: VecDeque<_> = [ticket(0, 100), ticket(1, 10)].into_iter().collect();
        let opts = BatcherOptions::governed().with_max_batch_records(32);
        let batch = fair_take(&mut pending, &opts, &BTreeMap::new());
        assert_eq!(sessions(&batch), vec![0]);
        assert_eq!(sessions(&Vec::from(pending.clone())), vec![1]);
    }

    #[test]
    fn fair_take_quota_protects_the_late_fair_ticket() {
        // A greedy session floods the queue before the fair session's one
        // ticket arrives; with a quota and a bounded batch, the fair
        // ticket still rides the very next batch.
        let mut pending: VecDeque<_> = (0..6).map(|_| ticket(7, 8)).collect();
        pending.push_back(ticket(1, 8));
        let opts =
            BatcherOptions::governed().with_max_batch_records(32).with_session_quota(16);
        let batch = fair_take(&mut pending, &opts, &BTreeMap::new());
        // Greedy gets its 16-record share (2 tickets), the fair ticket is
        // admitted, and the work-conserving pass fills the last slot with
        // another greedy ticket.
        assert_eq!(sessions(&batch), vec![7, 7, 1, 7]);
        assert_eq!(pending.len(), 3, "over-quota greedy tickets wait for the next batch");
    }

    #[test]
    fn fair_take_quota_overrides_raise_a_sessions_share() {
        let mut pending: VecDeque<_> =
            [ticket(7, 8), ticket(7, 8), ticket(7, 8), ticket(1, 8)].into_iter().collect();
        let opts =
            BatcherOptions::governed().with_max_batch_records(32).with_session_quota(8);
        let mut quotas = BTreeMap::new();
        quotas.insert(7u64, 24usize);
        let batch = fair_take(&mut pending, &opts, &quotas);
        assert_eq!(sessions(&batch), vec![7, 7, 7, 1]);
    }

    #[test]
    fn fair_take_is_work_conserving_without_contention() {
        // One session over quota, but nobody else is waiting and the batch
        // has room: everything is admitted (pass 2).
        let mut pending: VecDeque<_> = (0..4).map(|_| ticket(3, 8)).collect();
        let opts =
            BatcherOptions::governed().with_max_batch_records(64).with_session_quota(8);
        let batch = fair_take(&mut pending, &opts, &BTreeMap::new());
        assert_eq!(batch.len(), 4);
        assert!(pending.is_empty());
    }

    #[test]
    fn baseline_mode_counts_one_invocation_per_request() {
        let b = OracleBatcher::new(BatcherOptions::default());
        b.admit("t/p", 0, 64);
        b.admit("t/p", 1, 64);
        b.admit("t/p", 0, 0); // empty request is free
        let stats = b.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.invocations, 2);
        assert_eq!(stats.shared_batches, 0);
        assert_eq!(stats.labeled_records, 128);
        assert_eq!(b.per_session_spend(), vec![(0, 64), (1, 64)]);
    }

    #[test]
    fn coalescing_shares_invocations_under_concurrency() {
        // 8 threads × 50 requests with a real overhead so requests pile up
        // behind in-flight invocations: far fewer invocations than
        // requests, and at least one genuinely shared batch.
        let b = OracleBatcher::new(
            BatcherOptions::governed()
                .with_invocation_overhead(Duration::from_micros(200)),
        );
        std::thread::scope(|scope| {
            for session in 0..8u64 {
                let b = &b;
                scope.spawn(move || {
                    for _ in 0..50 {
                        b.admit("t/p", session, 16);
                    }
                });
            }
        });
        let stats = b.stats();
        assert_eq!(stats.requests, 400);
        assert_eq!(stats.labeled_records, 400 * 16);
        assert!(
            stats.invocations < stats.requests,
            "coalescing must share invocations: {} invocations for {} requests",
            stats.invocations,
            stats.requests
        );
        assert!(stats.shared_batches > 0);
        assert!(stats.coalesced_requests > stats.shared_batches);
        // Spend ledger attributes every record to its requester.
        let spend = b.per_session_spend();
        assert_eq!(spend.len(), 8);
        assert!(spend.iter().all(|&(_, n)| n == 50 * 16), "{spend:?}");
    }

    #[test]
    fn coalescing_with_zero_overhead_still_terminates_and_counts() {
        let b = OracleBatcher::new(BatcherOptions::governed());
        std::thread::scope(|scope| {
            for session in 0..4u64 {
                let b = &b;
                scope.spawn(move || {
                    for _ in 0..100 {
                        b.admit("t/p", session, 4);
                    }
                });
            }
        });
        assert_eq!(b.stats().requests, 400);
        assert_eq!(b.stats().labeled_records, 1600);
    }

    #[test]
    fn keys_coalesce_independently() {
        let b = OracleBatcher::new(
            BatcherOptions::governed()
                .with_invocation_overhead(Duration::from_micros(100)),
        );
        std::thread::scope(|scope| {
            for session in 0..4u64 {
                let b = &b;
                scope.spawn(move || {
                    let key = if session % 2 == 0 { "t/p" } else { "t/q" };
                    for _ in 0..20 {
                        b.admit(key, session, 8);
                    }
                });
            }
        });
        assert_eq!(b.stats().requests, 80);
        // Idle queues are garbage-collected.
        assert!(b.state.lock().unwrap().queues.is_empty());
    }

    #[test]
    fn starvation_regression_fair_session_completes_under_greedy_flood() {
        // A greedy session floods small-capacity batches from 4 threads
        // while a fair session submits 20 requests. Liveness (the fair
        // thread returns at all) is the regression being pinned; the
        // quota makes its wait bounded by batches, not by greedy volume.
        let b = OracleBatcher::new(
            BatcherOptions::governed()
                .with_invocation_overhead(Duration::from_micros(50))
                .with_max_batch_records(64)
                .with_session_quota(32),
        );
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let b = &b;
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        b.admit("t/p", 99, 32);
                    }
                });
            }
            let b = &b;
            let stop = &stop;
            scope.spawn(move || {
                for _ in 0..20 {
                    b.admit("t/p", 1, 8);
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
        let spend: BTreeMap<u64, u64> = b.per_session_spend().into_iter().collect();
        assert_eq!(spend.get(&1), Some(&160), "fair session labeled all its records");
        assert!(spend.get(&99).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn governed_oracle_is_a_transparent_passthrough_without_a_batcher() {
        let inner = FnOracle::new(|i| Labeled { matches: i % 2 == 0, value: i as f64 });
        let governed = GovernedOracle::new(inner, None, "t/p", 0);
        let labels = governed.label_batch(&[0, 1, 2]);
        assert_eq!(labels.len(), 3);
        assert!(labels[0].matches && !labels[1].matches);
        assert_eq!(governed.calls(), 3);
        governed.reset_calls();
        assert_eq!(governed.calls(), 0);
        assert_eq!(governed.into_inner().calls(), 0);
    }

    #[test]
    fn governed_oracle_labels_match_the_inner_oracle_bit_for_bit() {
        let b = OracleBatcher::new(BatcherOptions::governed());
        let make = || FnOracle::new(|i| Labeled { matches: i % 3 == 0, value: (i * 7) as f64 });
        let plain = make();
        let governed = GovernedOracle::new(make(), Some(&b), "t/p", 4);
        let ids: Vec<usize> = (0..257).collect();
        assert_eq!(governed.label_batch(&ids), plain.label_batch(&ids));
        assert_eq!(governed.calls(), plain.calls());
        assert_eq!(b.stats().requests, 1);
        assert_eq!(b.per_session_spend(), vec![(4, 257)]);
    }
}
