//! Oracles: the expensive predicate evaluators, with cost accounting.
//!
//! The paper measures query cost "in terms of oracle predicate invocations
//! as it is the dominant cost of query execution by orders of magnitude"
//! (§5.1) because the oracle is a DNN invoked *in batches* on accelerators.
//! The [`Oracle`] trait is therefore batch-first: [`Oracle::label_batch`]
//! is the primary entry point (one invocation charged per record in the
//! batch), and the per-record [`Oracle::label`] is a one-element batch.
//! Every oracle counts its invocations through an [`AtomicU64`], and the
//! trait requires [`Sync`], so a batch pipeline may fan batches out across
//! threads while tests still assert that an algorithm spent exactly its
//! budget.
//!
//! For offline throughput experiments, [`PredicateOracle`] and [`FnOracle`]
//! carry an optional simulated per-invocation latency
//! ([`PredicateOracle::with_latency`], [`FnOracle::with_latency`]):
//! labeling a batch of `m` records then costs `m × latency` of wall-clock
//! sleep on the calling thread, which makes multi-threaded speedups
//! measurable without a real DNN behind the oracle.
//!
//! Because the oracle is deterministic per record, verdicts can be reused
//! *across* queries: the [`LabelStore`] memoizes labels by
//! `(table, predicate expression, record index)`, and its [`CachedOracle`]
//! adapter answers cache hits for free while charging the wrapped oracle
//! only for unseen records.

use crate::table::Table;
// abae-lint: allow(hash_iter) -- HashMap is imported only for PredicateCache's lookup-only label map below
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Result of one oracle invocation: whether the record satisfies the
/// predicate, and the statistic value `f(x)`.
///
/// The paper assumes "the statistic can be computed in conjunction with the
/// predicates or is cheap to compute" (§2.1), so one invocation yields both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Labeled {
    /// Predicate result `O(x)`.
    pub matches: bool,
    /// Statistic `f(x)`; only meaningful when `matches` is true.
    pub value: f64,
}

/// Result of a single-oracle group-by invocation: which group (if any) the
/// record belongs to, and the statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupLabel {
    /// Group id, or `None` when the record matches no group.
    pub group: Option<u16>,
    /// Statistic `f(x)`.
    pub value: f64,
}

/// Thread-safe invocation meter shared by the built-in oracles: an atomic
/// per-record call counter, an atomic per-batch invocation counter, plus
/// the optional simulated per-record latency.
///
/// Both counters are per-*instance*, and the engine builds one oracle
/// instance per query: spend attribution is structural. Even when the
/// cross-session batcher (`abae_core::batcher`) coalesces several
/// sessions' requests into one shared device invocation, each session
/// still labels its own records through its own instance, so `calls()`
/// charges the *requesting* session exactly — never a co-batched tenant.
#[derive(Debug, Default)]
struct Meter {
    calls: AtomicU64,
    invocations: AtomicU64,
    latency: Duration,
}

impl Meter {
    /// Charges a batch of `n` records as one invocation and, when a
    /// latency is configured, sleeps `n × latency` (the batch's simulated
    /// inference time). Empty batches charge nothing.
    fn charge(&self, n: usize) {
        if n == 0 {
            return;
        }
        self.calls.fetch_add(n as u64, Ordering::Relaxed);
        self.invocations.fetch_add(1, Ordering::Relaxed);
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency * n as u32);
        }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.invocations.store(0, Ordering::Relaxed);
    }
}

/// An expensive predicate oracle over record indices.
///
/// `Sync` is a supertrait: oracles are shared across the labeling threads
/// of `abae_core::pipeline`, and the atomic counter keeps cost accounting
/// exact regardless of how batches are scheduled.
pub trait Oracle: Sync {
    /// Labels a batch of records, in input order, charging one invocation
    /// per record. This is the primary method — it models the batched DNN
    /// inference the paper's cost metric counts.
    fn label_batch(&self, indices: &[usize]) -> Vec<Labeled>;

    /// The labels this oracle already holds for some of `indices`, as
    /// `(position in indices, label)` pairs in ascending position order,
    /// charging no invocation. A caller must use each returned label
    /// instead of labeling that position: an oracle may count the records
    /// it returns as served (a [`CachedOracle`] counts them as hits).
    ///
    /// `abae_core::pipeline::label_all` asks once per labeling request and
    /// cuts only the remaining records into `label_batch` calls, so a warm
    /// [`LabelStore`] sends full device batches instead of one thin batch
    /// per chunk of draws. The default holds nothing and returns an empty,
    /// unallocated vector. A wrapper oracle should forward this method to
    /// the oracle it wraps; one that does not loses only the packing, never
    /// correctness, because the wrapped oracle's `label_batch` still
    /// answers what it holds.
    fn stored_labels(&self, _indices: &[usize]) -> Vec<(usize, Labeled)> {
        Vec::new()
    }

    /// Labels one record, charging one invocation (a one-element batch).
    fn label(&self, idx: usize) -> Labeled {
        self.label_batch(std::slice::from_ref(&idx))
            .pop()
            .expect("label_batch returns one label per index")
    }

    /// Invocations so far.
    fn calls(&self) -> u64;

    /// Resets the invocation counter.
    fn reset_calls(&self);
}

/// An oracle that "determines the group key directly" (§3.2, first group-by
/// scenario): one invocation returns the record's group rather than a
/// boolean. Extends [`Oracle`] so group-by cost accounting goes through the
/// same `calls`/`reset_calls` interface as every other algorithm path.
pub trait GroupOracle: Oracle {
    /// Labels a batch of records with group ids, in input order, charging
    /// one invocation per record.
    fn label_group_batch(&self, indices: &[usize]) -> Vec<GroupLabel>;

    /// Labels one record with its group id (a one-element batch).
    fn label_group(&self, idx: usize) -> GroupLabel {
        self.label_group_batch(std::slice::from_ref(&idx))
            .pop()
            .expect("label_group_batch returns one label per index")
    }

    /// Number of groups the oracle can report.
    fn group_count(&self) -> usize;
}

/// Oracle for a named predicate column of a [`Table`].
pub struct PredicateOracle<'a> {
    table: &'a Table,
    pred: usize,
    meter: Meter,
}

impl<'a> PredicateOracle<'a> {
    /// Creates an oracle over `table`'s predicate `pred`.
    pub fn new(table: &'a Table, pred: &str) -> Result<Self, crate::table::TableError> {
        let idx = table.predicate_index(pred)?;
        Ok(Self { table, pred: idx, meter: Meter::default() })
    }

    /// Simulates `latency` of inference time per invocation (per record,
    /// charged when its batch is labeled).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.meter.latency = latency;
        self
    }

    /// Batch invocations so far (each `label_batch` call with at least one
    /// record is one device dispatch, however many records it carried).
    pub fn invocations(&self) -> u64 {
        self.meter.invocations()
    }
}

impl Oracle for PredicateOracle<'_> {
    fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
        self.meter.charge(indices.len());
        indices
            .iter()
            .map(|&idx| Labeled {
                matches: self.table.predicates()[self.pred].label(idx),
                value: self.table.statistic(idx),
            })
            .collect()
    }

    fn calls(&self) -> u64 {
        self.meter.calls()
    }

    fn reset_calls(&self) {
        self.meter.reset();
    }
}

/// A closure-backed oracle; the building block for composed predicates
/// (ABae-MultiPred evaluates a whole boolean expression as one oracle call)
/// and for synthetic oracles in tests.
///
/// The struct itself places no bound on `F`; the [`Oracle`] impl requires
/// `F: Fn(usize) -> Labeled + Sync` so a shared reference can label batches
/// from several threads at once.
pub struct FnOracle<F> {
    f: F,
    meter: Meter,
}

impl<F> FnOracle<F> {
    /// Wraps a labeling function.
    pub fn new(f: F) -> Self {
        Self { f, meter: Meter::default() }
    }

    /// Simulates `latency` of inference time per invocation.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.meter.latency = latency;
        self
    }

    /// Batch invocations so far (one per non-empty `label_batch` call).
    pub fn invocations(&self) -> u64 {
        self.meter.invocations()
    }
}

impl<F: Fn(usize) -> Labeled + Sync> Oracle for FnOracle<F> {
    fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
        self.meter.charge(indices.len());
        indices.iter().map(|&idx| (self.f)(idx)).collect()
    }

    fn calls(&self) -> u64 {
        self.meter.calls()
    }

    fn reset_calls(&self) {
        self.meter.reset();
    }
}

/// A single oracle that returns the record's group key (§3.2, first
/// group-by scenario), backed by a [`Table`]'s group-key column.
///
/// Implements [`Oracle`] (the predicate view: "belongs to *some* group")
/// and [`GroupOracle`] (the group view); both charge the same counter, so
/// group-by cost accounting is interchangeable with every other oracle's.
pub struct SingleGroupOracle<'a> {
    table: &'a Table,
    meter: Meter,
}

impl<'a> SingleGroupOracle<'a> {
    /// Creates the oracle; the table must carry a group key.
    pub fn new(table: &'a Table) -> Option<Self> {
        table.group_key()?;
        Some(Self { table, meter: Meter::default() })
    }

    /// Batch invocations so far (one per non-empty batch, shared by the
    /// predicate and group views).
    pub fn invocations(&self) -> u64 {
        self.meter.invocations()
    }
}

impl Oracle for SingleGroupOracle<'_> {
    fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
        // Predicate view of the group key: `matches` ⇔ in any group.
        let key = self.table.group_key().expect("validated at construction");
        self.meter.charge(indices.len());
        indices
            .iter()
            .map(|&idx| Labeled {
                matches: key.get(idx).is_some(),
                value: self.table.statistic(idx),
            })
            .collect()
    }

    fn calls(&self) -> u64 {
        self.meter.calls()
    }

    fn reset_calls(&self) {
        self.meter.reset();
    }
}

impl GroupOracle for SingleGroupOracle<'_> {
    fn label_group_batch(&self, indices: &[usize]) -> Vec<GroupLabel> {
        let key = self.table.group_key().expect("validated at construction");
        self.meter.charge(indices.len());
        indices
            .iter()
            .map(|&idx| GroupLabel { group: key.get(idx), value: self.table.statistic(idx) })
            .collect()
    }

    fn group_count(&self) -> usize {
        self.table.group_key().expect("validated at construction").num_groups()
    }
}

/// Cached verdicts for one `(table, predicate)` pair inside a
/// [`LabelStore`]: record index → labeled verdict.
///
/// Handed out as an `Arc` so a [`CachedOracle`] can keep labeling batches
/// after the store's own map lock is released. The inner `RwLock` makes
/// lookups concurrent: the batch pipeline's workers only take the write
/// lock for the misses they actually labeled.
#[derive(Debug, Default)]
pub struct PredicateCache {
    // abae-lint: allow(hash_iter) -- per-record hot-path cache, keyed lookups and keyed inserts only; never iterated, so its order cannot reach output
    labels: RwLock<HashMap<usize, Labeled>>,
}

impl PredicateCache {
    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.labels.read().expect("no panics while holding the cache lock").len()
    }

    /// Whether the cache holds no verdicts yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A cross-query memo table of oracle verdicts, keyed by
/// `(table, predicate expression, record index)`.
///
/// The paper's cost model counts oracle invocations because the oracle —
/// a DNN or a human labeler — dominates query cost by orders of magnitude
/// (§5.1). The oracle is also *deterministic per record*: `O(x)` and
/// `f(x)` do not change between queries. A dashboard that issues
/// `SELECT AVG(views)`, then `SELECT COUNT(*)` over the same table and
/// predicate therefore re-buys verdicts it already owns. `LabelStore`
/// keeps those verdicts: wrap the per-query oracle in a [`CachedOracle`]
/// over the store's entry for that `(table, predicate)` pair, and only
/// records never labeled before reach (and charge) the real oracle.
///
/// All interior state is behind locks, so a store shared by reference —
/// e.g. owned by a query catalog that executors borrow — works without
/// outer synchronization, including under the batch-parallel labeling
/// pipeline. Lifetime hit/miss totals are kept as atomics for reporting
/// (`EXPLAIN`, dashboards); per-query counts live on the [`CachedOracle`].
#[derive(Debug, Default)]
pub struct LabelStore {
    entries: Mutex<BTreeMap<(String, String), Arc<PredicateCache>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LabelStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cache entry for `(table, predicate)`, creating it on
    /// first use. `predicate` should be a canonical rendering of the
    /// predicate expression (the same query must produce the same key).
    pub fn entry(&self, table: &str, predicate: &str) -> Arc<PredicateCache> {
        let mut entries = self.entries.lock().expect("no panics while holding the store lock");
        Arc::clone(entries.entry((table.to_string(), predicate.to_string())).or_default())
    }

    /// Number of verdicts cached for `(table, predicate)` (0 when the pair
    /// has never been queried).
    pub fn cached_verdicts(&self, table: &str, predicate: &str) -> usize {
        let entries = self.entries.lock().expect("no panics while holding the store lock");
        entries.get(&(table.to_string(), predicate.to_string())).map_or(0, |e| e.len())
    }

    /// Lifetime cache hits across every [`CachedOracle`] over this store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime cache misses (records that reached a real oracle).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every cached entry for `table` (all predicates). Must be
    /// called when a table's data is replaced, so verdicts bought against
    /// the old data can never answer queries over the new data.
    pub fn invalidate_table(&self, table: &str) {
        let mut entries = self.entries.lock().expect("no panics while holding the store lock");
        entries.retain(|(t, _), _| t != table);
    }

    fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }
}

/// An [`Oracle`] adapter that consults a [`PredicateCache`] before charging
/// the wrapped oracle: cache hits are answered from the store for free,
/// misses are labeled through the inner oracle's `label_batch` and written
/// back.
///
/// Invocation accounting stays exact: [`CachedOracle::calls`] forwards to
/// the inner oracle, so algorithms that meter spend via `oracle.calls()`
/// automatically report only the *misses* — the invocations that actually
/// happened. Per-wrapper hit/miss counts (for one query's result report)
/// are available via [`CachedOracle::hits`] / [`CachedOracle::misses`];
/// the same counts are added to the store's lifetime totals.
///
/// Hits are answered once per labeling request: [`Oracle::stored_labels`]
/// returns every record of the request the store already holds, counting
/// them as hits, and the batch pipeline cuts only the misses into
/// `label_batch` calls. `label_batch` still checks its own batch, so a
/// record another session labeled after the request's lookup is answered
/// from the store, never charged twice. The draws of one query are without
/// replacement, so concurrent batches never share a record index and every
/// record is labeled at most once; results are bit-identical to the
/// uncached oracle for any thread count or batch size.
pub struct CachedOracle<'a, O> {
    inner: O,
    cache: Arc<PredicateCache>,
    store: &'a LabelStore,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a, O: Oracle> CachedOracle<'a, O> {
    /// Wraps `inner` with the store's cache entry for `(table, predicate)`.
    pub fn new(inner: O, store: &'a LabelStore, table: &str, predicate: &str) -> Self {
        Self {
            inner,
            cache: store.entry(table, predicate),
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cache hits since this wrapper was created (records answered without
    /// an oracle invocation).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since this wrapper was created (records that charged
    /// the inner oracle).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Consumes the wrapper, returning the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Oracle> Oracle for CachedOracle<'_, O> {
    fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
        // Pass 1 under the read lock: answer hits, collect misses.
        let mut out: Vec<Option<Labeled>> = vec![None; indices.len()];
        let mut miss_pos: Vec<usize> = Vec::new();
        let mut miss_ids: Vec<usize> = Vec::new();
        {
            let map = self.cache.labels.read().expect("no panics while holding the cache lock");
            for (pos, &idx) in indices.iter().enumerate() {
                match map.get(&idx) {
                    Some(&label) => out[pos] = Some(label),
                    None => {
                        miss_pos.push(pos);
                        miss_ids.push(idx);
                    }
                }
            }
        }
        // Pass 2: label the misses through the real oracle, write back.
        if !miss_ids.is_empty() {
            let labeled = self.inner.label_batch(&miss_ids);
            let mut map =
                self.cache.labels.write().expect("no panics while holding the cache lock");
            for ((&pos, idx), label) in miss_pos.iter().zip(miss_ids).zip(labeled) {
                map.insert(idx, label);
                out[pos] = Some(label);
            }
        }
        let hits = (indices.len() - miss_pos.len()) as u64;
        let misses = miss_pos.len() as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        self.store.record(hits, misses);
        out.into_iter().map(|l| l.expect("every index answered by hit or miss path")).collect()
    }

    fn stored_labels(&self, indices: &[usize]) -> Vec<(usize, Labeled)> {
        let stored: Vec<(usize, Labeled)> = {
            let map = self.cache.labels.read().expect("no panics while holding the cache lock");
            indices
                .iter()
                .enumerate()
                .filter_map(|(pos, idx)| map.get(idx).map(|&label| (pos, label)))
                .collect()
        };
        let hits = stored.len() as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.store.record(hits, 0);
        stored
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn reset_calls(&self) {
        self.inner.reset_calls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::builder("t", vec![1.0, 2.0, 3.0])
            .predicate("p", vec![true, false, true], vec![0.9, 0.1, 0.8])
            .group_key(vec!["g0".into(), "g1".into()], vec![Some(0), None, Some(1)])
            .build()
            .unwrap()
    }

    #[test]
    fn predicate_oracle_labels_and_counts() {
        let t = table();
        let o = PredicateOracle::new(&t, "p").unwrap();
        assert_eq!(o.calls(), 0);
        let l = o.label(0);
        assert!(l.matches);
        assert_eq!(l.value, 1.0);
        let l = o.label(1);
        assert!(!l.matches);
        assert_eq!(o.calls(), 2);
        o.reset_calls();
        assert_eq!(o.calls(), 0);
    }

    #[test]
    fn batch_labels_match_per_record_labels_and_charge_len() {
        let t = table();
        let o = PredicateOracle::new(&t, "p").unwrap();
        let batch = o.label_batch(&[0, 1, 2]);
        assert_eq!(o.calls(), 3);
        o.reset_calls();
        let singles: Vec<Labeled> = (0..3).map(|i| o.label(i)).collect();
        assert_eq!(batch, singles);
        assert_eq!(o.calls(), 3);
    }

    #[test]
    fn empty_batch_charges_nothing() {
        let t = table();
        let o = PredicateOracle::new(&t, "p").unwrap();
        assert!(o.label_batch(&[]).is_empty());
        assert_eq!(o.calls(), 0);
    }

    #[test]
    fn predicate_oracle_unknown_name_errors() {
        let t = table();
        assert!(PredicateOracle::new(&t, "zzz").is_err());
    }

    #[test]
    fn fn_oracle_wraps_closures() {
        let o = FnOracle::new(|idx| Labeled { matches: idx % 2 == 0, value: idx as f64 });
        assert!(o.label(0).matches);
        assert!(!o.label(1).matches);
        assert_eq!(o.label(4).value, 4.0);
        assert_eq!(o.calls(), 3);
    }

    #[test]
    fn composed_expression_counts_once_per_record() {
        // A conjunction of two predicates is still one oracle invocation.
        let t = table();
        let p = t.predicate("p").unwrap().labels_vec();
        let stats = t.statistics().to_vec();
        let o = FnOracle::new(move |idx| Labeled {
            matches: p[idx] && stats[idx] > 1.5,
            value: stats[idx],
        });
        assert!(!o.label(0).matches); // p true but stat 1.0
        assert!(o.label(2).matches);
        assert_eq!(o.calls(), 2);
    }

    #[test]
    fn counters_are_exact_under_concurrent_batches() {
        let o = FnOracle::new(|idx| Labeled { matches: true, value: idx as f64 });
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for start in 0..50usize {
                        let ids: Vec<usize> = (start..start + 4).collect();
                        o.label_batch(&ids);
                    }
                });
            }
        });
        assert_eq!(o.calls(), 8 * 50 * 4);
    }

    #[test]
    fn group_oracle_labels_groups() {
        let t = table();
        let o = SingleGroupOracle::new(&t).unwrap();
        assert_eq!(o.group_count(), 2);
        assert_eq!(o.label_group(0).group, Some(0));
        assert_eq!(o.label_group(1).group, None);
        assert_eq!(o.label_group(2).group, Some(1));
        assert_eq!(o.calls(), 3);
    }

    #[test]
    fn group_oracle_predicate_view_shares_the_counter() {
        let t = table();
        let o = SingleGroupOracle::new(&t).unwrap();
        // Oracle view: matches ⇔ some group.
        let l = o.label_batch(&[0, 1]);
        assert!(l[0].matches && !l[1].matches);
        // Group view continues the same count.
        o.label_group_batch(&[2]);
        assert_eq!(o.calls(), 3);
        o.reset_calls();
        assert_eq!(o.calls(), 0);
    }

    #[test]
    fn group_oracle_requires_group_key() {
        let t = Table::builder("t", vec![1.0]).build().unwrap();
        assert!(SingleGroupOracle::new(&t).is_none());
    }

    #[test]
    fn invocations_count_batches_not_records() {
        let t = table();
        let o = PredicateOracle::new(&t, "p").unwrap();
        o.label_batch(&[0, 1, 2]);
        o.label_batch(&[0]);
        o.label_batch(&[]); // empty batches are not dispatches
        assert_eq!(o.calls(), 4);
        assert_eq!(o.invocations(), 2);
        o.reset_calls();
        assert_eq!((o.calls(), o.invocations()), (0, 0));
    }

    #[test]
    fn group_oracle_attributes_spend_per_instance_under_shared_batching() {
        // The coalescing batcher shares device *invocations* across
        // sessions, but each session labels its own records through its
        // own oracle instance: simulate two sessions' group-by queries
        // running concurrently and assert neither instance's meter ever
        // includes the other's records — QueryResult budget arithmetic
        // relies on exactly this.
        let t = table();
        let a = SingleGroupOracle::new(&t).unwrap();
        let b = SingleGroupOracle::new(&t).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..100 {
                    a.label_group_batch(&[0, 1, 2]);
                }
            });
            scope.spawn(|| {
                for _ in 0..100 {
                    b.label_group_batch(&[2, 0]);
                }
            });
        });
        assert_eq!(a.calls(), 300, "session A charged only its own records");
        assert_eq!(b.calls(), 200, "session B charged only its own records");
        assert_eq!(a.invocations(), 100);
        assert_eq!(b.invocations(), 100);
    }

    #[test]
    fn with_latency_preserves_the_running_count() {
        let t = table();
        let o = PredicateOracle::new(&t, "p").unwrap();
        o.label(0);
        let o = o.with_latency(Duration::from_micros(1));
        assert_eq!(o.calls(), 1, "configuring latency must not reset accounting");
    }

    #[test]
    fn cached_oracle_answers_hits_without_charging() {
        let t = table();
        let store = LabelStore::new();
        let inner = PredicateOracle::new(&t, "p").unwrap();
        let cached = CachedOracle::new(inner, &store, "t", "p");
        // Cold: every record is a miss and charges the inner oracle.
        let cold = cached.label_batch(&[0, 1, 2]);
        assert_eq!(cached.calls(), 3);
        assert_eq!((cached.hits(), cached.misses()), (0, 3));
        // Warm: the same records are free and bit-identical.
        let warm = cached.label_batch(&[0, 1, 2]);
        assert_eq!(warm, cold);
        assert_eq!(cached.calls(), 3, "hits must not charge the oracle");
        assert_eq!((cached.hits(), cached.misses()), (3, 3));
        // Mixed batch: only the unseen record charges.
        cached.label_batch(&[2, 0, 1, 0]);
        assert_eq!(cached.calls(), 3);
        assert_eq!(store.cached_verdicts("t", "p"), 3);
        assert_eq!((store.hits(), store.misses()), (7, 3));
    }

    #[test]
    fn stored_labels_return_held_verdicts_in_position_order_as_hits() {
        let t = table();
        let store = LabelStore::new();
        let plain = PredicateOracle::new(&t, "p").unwrap();
        assert!(plain.stored_labels(&[0, 1, 2]).is_empty(), "a plain oracle holds nothing");
        let cached = CachedOracle::new(plain, &store, "t", "p");
        let held = cached.label_batch(&[2, 0]);
        let stored = cached.stored_labels(&[1, 0, 2, 1]);
        assert_eq!(stored, vec![(1, held[1]), (2, held[0])]);
        // The returned records count as hits and charge nothing; the
        // misses are left for `label_batch`.
        assert_eq!(cached.calls(), 2);
        assert_eq!((cached.hits(), cached.misses()), (2, 2));
        assert_eq!((store.hits(), store.misses()), (2, 2));
    }

    #[test]
    fn store_survives_the_wrapper_and_serves_new_queries() {
        let t = table();
        let store = LabelStore::new();
        let first = {
            let cached =
                CachedOracle::new(PredicateOracle::new(&t, "p").unwrap(), &store, "t", "p");
            cached.label_batch(&[0, 2])
        };
        // A fresh oracle (new query) over the same store entry: all hits.
        let cached = CachedOracle::new(PredicateOracle::new(&t, "p").unwrap(), &store, "t", "p");
        let again = cached.label_batch(&[0, 2]);
        assert_eq!(again, first);
        assert_eq!(cached.calls(), 0, "a warm store answers repeat queries for free");
        assert_eq!((cached.hits(), cached.misses()), (2, 0));
    }

    #[test]
    fn store_keys_tables_and_predicates_separately() {
        let t = table();
        let store = LabelStore::new();
        let on_p = CachedOracle::new(PredicateOracle::new(&t, "p").unwrap(), &store, "t", "p");
        on_p.label_batch(&[0, 1]);
        // Different predicate key: verdicts must not leak across entries.
        let negated = FnOracle::new(|idx| Labeled { matches: idx != 0, value: 9.0 });
        let on_not_p = CachedOracle::new(negated, &store, "t", "NOT p");
        let l = on_not_p.label_batch(&[0]);
        assert!(!l[0].matches, "entry for `NOT p` must consult its own oracle");
        assert_eq!(store.cached_verdicts("t", "p"), 2);
        assert_eq!(store.cached_verdicts("t", "NOT p"), 1);
        assert_eq!(store.cached_verdicts("other", "p"), 0);
    }

    #[test]
    fn invalidate_table_drops_every_predicate_of_that_table_only() {
        let t = table();
        let store = LabelStore::new();
        for (tbl, pred) in [("t", "p"), ("t", "q"), ("u", "p")] {
            let o = CachedOracle::new(PredicateOracle::new(&t, "p").unwrap(), &store, tbl, pred);
            o.label_batch(&[0, 1]);
        }
        store.invalidate_table("t");
        assert_eq!(store.cached_verdicts("t", "p"), 0);
        assert_eq!(store.cached_verdicts("t", "q"), 0);
        assert_eq!(store.cached_verdicts("u", "p"), 2, "other tables keep their verdicts");
    }

    #[test]
    fn cached_oracle_is_exact_under_concurrent_batches() {
        // Distinct indices across threads (as without-replacement draws
        // guarantee): every record charges exactly once, and the verdicts
        // match the inner oracle's.
        let store = LabelStore::new();
        let inner = FnOracle::new(|idx| Labeled { matches: idx % 2 == 0, value: idx as f64 });
        let cached = CachedOracle::new(inner, &store, "t", "p");
        std::thread::scope(|scope| {
            for worker in 0..8usize {
                let cached = &cached;
                scope.spawn(move || {
                    let ids: Vec<usize> = (worker * 100..(worker + 1) * 100).collect();
                    for chunk in ids.chunks(7) {
                        cached.label_batch(chunk);
                    }
                });
            }
        });
        assert_eq!(cached.calls(), 800);
        assert_eq!((cached.hits(), cached.misses()), (0, 800));
        assert_eq!(store.cached_verdicts("t", "p"), 800);
        let warm = cached.label_batch(&[5]);
        assert_eq!(warm[0], Labeled { matches: false, value: 5.0 });
        assert_eq!(cached.calls(), 800);
    }

    #[test]
    fn latency_knob_sleeps_per_invocation() {
        let o = FnOracle::new(|idx| Labeled { matches: true, value: idx as f64 })
            .with_latency(Duration::from_millis(2));
        // abae-lint: allow(wall_clock) -- this test exists to measure the simulated oracle latency; the clock is the subject, not an input to results
        let start = std::time::Instant::now();
        o.label_batch(&[0, 1, 2, 3, 4]);
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert_eq!(o.calls(), 5);
    }
}
