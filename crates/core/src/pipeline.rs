//! Batch-parallel oracle labeling with deterministic output ordering.
//!
//! The paper's oracle is a DNN invoked in batches on accelerators (§5.1),
//! so the labeling hot path should look like batched model serving: chunk
//! the records a sampler has drawn into fixed-size batches and label the
//! batches concurrently. This module is that pipeline. The key contract is
//! **scheduling independence**: all randomness (which records to draw)
//! stays on the caller's thread, batches carry their position, and results
//! are reassembled in input order — so for a fixed seed the estimates, CIs,
//! and `oracle_calls` of every algorithm are bit-identical whether the
//! pipeline runs on 1 thread or 8 (`tests/parallel_determinism.rs` asserts
//! exactly this).
//!
//! [`ExecOptions`] carries the two knobs — worker thread count and batch
//! size — and is threaded through every algorithm config
//! ([`crate::config::AbaeConfig::exec`], [`crate::groupby::GroupByConfig::exec`],
//! [`crate::adaptive::AdaptiveConfig::exec`]) as well as the query executor
//! and `abae-cli`. Defaults honor the `ABAE_THREADS` / `ABAE_BATCH`
//! environment variables so whole test runs can be flipped between serial
//! and parallel execution (the CI matrix runs both).

use abae_data::{GroupLabel, GroupOracle, Labeled, Oracle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Execution options for the batch labeling pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecOptions {
    /// Worker threads labeling batches. `0` and `1` both mean the calling
    /// thread labels every batch itself.
    pub threads: usize,
    /// Records per oracle batch (clamped to at least 1). This is the batch
    /// size handed to [`Oracle::label_batch`] — the analogue of a DNN
    /// serving batch. [`label_all`] answers the records the oracle already
    /// holds ([`Oracle::stored_labels`]) first and cuts only the misses
    /// into batches of this size, so with a warm label store a batch
    /// carries up to `batch_size` misses however many hits lie between
    /// them. Progressive runs also snapshot every `batch_size` draws by
    /// default, hits included.
    pub batch_size: usize,
}

impl ExecOptions {
    /// Default batch size when `ABAE_BATCH` is unset.
    pub const DEFAULT_BATCH: usize = 256;

    /// Creates options with explicit knobs.
    pub const fn new(threads: usize, batch_size: usize) -> Self {
        Self { threads, batch_size }
    }

    /// Single-threaded labeling (still batch-chunked).
    pub const fn sequential() -> Self {
        Self { threads: 1, batch_size: Self::DEFAULT_BATCH }
    }

    /// Returns `self` with the worker-thread knob replaced. Builder-style
    /// helper for call sites that own a resolved default — e.g. the query
    /// engine resolves [`ExecOptions::default`] once at build time and
    /// layers explicit flags on top, instead of re-reading the environment
    /// per call.
    pub const fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns `self` with the batch-size knob replaced (clamped to at
    /// least 1 record per batch at the point of use).
    pub const fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Reads `ABAE_THREADS` and `ABAE_BATCH` from the environment;
    /// unset or unparsable values fall back to 1 thread and
    /// [`Self::DEFAULT_BATCH`] records per batch.
    pub fn from_env() -> Self {
        let parse = |key: &str, default: usize| {
            std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
        };
        Self {
            threads: parse("ABAE_THREADS", 1),
            batch_size: parse("ABAE_BATCH", Self::DEFAULT_BATCH).max(1),
        }
    }

    /// Worker count actually used for `n_batches` batches.
    fn workers(&self, n_batches: usize) -> usize {
        self.threads.max(1).min(n_batches)
    }
}

/// The default is read from the environment once per process (`ABAE_THREADS`
/// / `ABAE_BATCH`), so `..Default::default()` configs — including every
/// existing test — pick up the CI matrix's thread count without code
/// changes. Determinism makes this safe: results do not depend on the value.
impl Default for ExecOptions {
    fn default() -> Self {
        static FROM_ENV: OnceLock<ExecOptions> = OnceLock::new();
        *FROM_ENV.get_or_init(ExecOptions::from_env)
    }
}

/// Maps `ids` through `f` in batches of `opts.batch_size`, fanning batches
/// across `opts.threads` scoped workers, and returns the concatenated
/// results **in input order** regardless of scheduling.
///
/// `f` must return exactly one output per input (asserted), which is what
/// keeps budget accounting exact when `f` charges an oracle per record.
pub fn map_batched<T, F>(ids: &[usize], opts: &ExecOptions, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&[usize]) -> Vec<T> + Sync,
{
    let batch = opts.batch_size.max(1);
    let chunks: Vec<&[usize]> = ids.chunks(batch).collect();
    let workers = opts.workers(chunks.len());

    let out = if workers <= 1 {
        let mut out = Vec::with_capacity(ids.len());
        for chunk in chunks {
            out.extend(f(chunk));
        }
        out
    } else {
        // Work queue over batch indices: claim order is scheduling-dependent
        // but each batch's output lands in its own slot, so reassembly is
        // deterministic.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Vec<T>>> = chunks.iter().map(|_| Mutex::new(Vec::new())).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= chunks.len() {
                        break;
                    }
                    let labeled = f(chunks[j]);
                    *slots[j].lock().expect("no panics while holding a batch slot") = labeled;
                });
            }
        });
        let mut out = Vec::with_capacity(ids.len());
        for slot in slots {
            out.extend(slot.into_inner().expect("worker panics propagate via scope"));
        }
        out
    };
    assert_eq!(out.len(), ids.len(), "batch labeler must return one output per input");
    out
}

/// Labels `ids` with `oracle` through the batch pipeline; the returned
/// labels are in `ids` order.
///
/// The labels the oracle already holds ([`Oracle::stored_labels`]: a warm
/// label store's hits) are answered once for the whole request, and only
/// the misses are cut into batches of `opts.batch_size`, in input order.
/// A warm store therefore sends full device batches instead of one thin
/// batch per `batch_size` draws. An oracle that holds nothing takes the
/// same path with zero hits.
pub fn label_all<O: Oracle + ?Sized>(
    oracle: &O,
    ids: &[usize],
    opts: &ExecOptions,
) -> Vec<Labeled> {
    let stored = oracle.stored_labels(ids);
    let mut hit_positions = stored.iter().map(|&(pos, _)| pos).peekable();
    let misses: Vec<usize> = ids
        .iter()
        .enumerate()
        .filter(|&(pos, _)| hit_positions.next_if_eq(&pos).is_none())
        .map(|(_, &id)| id)
        .collect();
    assert!(
        hit_positions.next().is_none(),
        "stored_labels must return in-range positions in ascending order"
    );
    let mut labeled = map_batched(&misses, opts, |chunk| oracle.label_batch(chunk)).into_iter();
    let mut stored = stored.into_iter().peekable();
    (0..ids.len())
        .map(|pos| match stored.next_if(|&(p, _)| p == pos) {
            Some((_, label)) => label,
            None => labeled.next().expect("map_batched returns one label per miss"),
        })
        .collect()
}

/// Labels `ids` with a [`GroupOracle`] through the batch pipeline; the
/// returned group labels are in `ids` order.
pub fn label_groups_all<O: GroupOracle + ?Sized>(
    oracle: &O,
    ids: &[usize],
    opts: &ExecOptions,
) -> Vec<GroupLabel> {
    map_batched(ids, opts, |chunk| oracle.label_group_batch(chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abae_data::FnOracle;

    fn oracle() -> FnOracle<impl Fn(usize) -> Labeled + Sync> {
        FnOracle::new(|i| Labeled { matches: i % 3 == 0, value: (i * 7 % 11) as f64 })
    }

    #[test]
    fn output_order_is_input_order_for_every_thread_count() {
        let o = oracle();
        let ids: Vec<usize> = (0..1000).rev().collect();
        let reference = label_all(&o, &ids, &ExecOptions::new(1, 64));
        for threads in [2, 3, 8] {
            for batch in [1, 7, 64, 2048] {
                let got = label_all(&o, &ids, &ExecOptions::new(threads, batch));
                assert_eq!(got, reference, "threads={threads} batch={batch}");
            }
        }
        // Spot-check against the oracle function itself.
        assert_eq!(reference[0].value, (999 * 7 % 11) as f64);
    }

    #[test]
    fn every_id_is_charged_exactly_once() {
        let o = oracle();
        let ids: Vec<usize> = (0..777).collect();
        label_all(&o, &ids, &ExecOptions::new(8, 13));
        assert_eq!(o.calls(), 777);
    }

    #[test]
    fn empty_input_spawns_nothing_and_returns_empty() {
        let o = oracle();
        assert!(label_all(&o, &[], &ExecOptions::new(8, 32)).is_empty());
        assert_eq!(o.calls(), 0);
    }

    #[test]
    fn zero_knobs_are_clamped() {
        let o = oracle();
        let ids: Vec<usize> = (0..10).collect();
        let got = label_all(&o, &ids, &ExecOptions::new(0, 0));
        assert_eq!(got.len(), 10);
        assert_eq!(o.calls(), 10);
    }

    #[test]
    fn from_env_defaults_are_sane() {
        // Cannot mutate the environment safely in a parallel test binary;
        // just check the fallback shape.
        let opts = ExecOptions::default();
        assert!(opts.batch_size >= 1);
        let seq = ExecOptions::sequential();
        assert_eq!(seq.threads, 1);
    }

    #[test]
    fn builder_helpers_replace_one_knob_at_a_time() {
        let base = ExecOptions::new(2, 128);
        assert_eq!(base.with_threads(8), ExecOptions::new(8, 128));
        assert_eq!(base.with_batch_size(32), ExecOptions::new(2, 32));
    }

    /// Records every batch handed to the wrapped oracle.
    struct Recording<O> {
        inner: O,
        batches: Mutex<Vec<Vec<usize>>>,
    }

    impl<O: Oracle> Oracle for Recording<O> {
        fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
            self.batches.lock().unwrap().push(indices.to_vec());
            self.inner.label_batch(indices)
        }

        fn calls(&self) -> u64 {
            self.inner.calls()
        }

        fn reset_calls(&self) {
            self.inner.reset_calls()
        }
    }

    /// Hides `stored_labels`, which restores the per-chunk path: every
    /// chunk of draws reaches the wrapped oracle's `label_batch`.
    struct PerChunk<O>(O);

    impl<O: Oracle> Oracle for PerChunk<O> {
        fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
            self.0.label_batch(indices)
        }

        fn calls(&self) -> u64 {
            self.0.calls()
        }

        fn reset_calls(&self) {
            self.0.reset_calls()
        }
    }

    #[test]
    fn warm_store_hits_are_answered_per_request_and_only_misses_are_batched() {
        use abae_data::{CachedOracle, LabelStore};

        // 1000 distinct draws in scrambled order; the store holds the
        // two thirds whose id is not a multiple of 3.
        let ids: Vec<usize> = (0..1000).map(|i| i * 7919 % 5000).collect();
        let held = |id: &usize| id % 3 != 0;
        let misses: Vec<usize> = ids.iter().copied().filter(|id| !held(id)).collect();
        let warm_store = || {
            let store = LabelStore::new();
            let warm: Vec<usize> = ids.iter().copied().filter(held).collect();
            CachedOracle::new(oracle(), &store, "t", "p").label_batch(&warm);
            store
        };
        let recording = || Recording { inner: oracle(), batches: Mutex::new(Vec::new()) };

        for threads in [1, 8] {
            for batch in [1, 7, 256, 4096] {
                let opts = ExecOptions::new(threads, batch);
                let (packed_store, per_chunk_store) = (warm_store(), warm_store());
                let packed = CachedOracle::new(recording(), &packed_store, "t", "p");
                let per_chunk =
                    PerChunk(CachedOracle::new(oracle(), &per_chunk_store, "t", "p"));

                let got = label_all(&packed, &ids, &opts);
                let want = label_all(&per_chunk, &ids, &opts);
                assert_eq!(got, want, "threads={threads} batch={batch}");
                let chunked = &per_chunk.0;
                assert_eq!((packed.hits(), packed.misses()), (chunked.hits(), chunked.misses()));
                assert_eq!(
                    (packed.hits(), packed.misses()),
                    ((ids.len() - misses.len()) as u64, misses.len() as u64)
                );
                assert_eq!(
                    (packed_store.hits(), packed_store.misses()),
                    (per_chunk_store.hits(), per_chunk_store.misses())
                );
                assert_eq!(packed.calls(), per_chunk.calls());

                // The inner oracle saw only the misses, in input order, cut
                // into ⌈misses / batch⌉ full batches (workers may record
                // them out of order).
                let mut batches = packed.into_inner().batches.into_inner().unwrap();
                batches.sort_by_key(|b| misses.iter().position(|id| *id == b[0]));
                let cut: Vec<Vec<usize>> = misses.chunks(batch).map(<[usize]>::to_vec).collect();
                assert_eq!(batches.len(), misses.len().div_ceil(batch));
                assert_eq!(batches, cut, "threads={threads} batch={batch}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn out_of_order_stored_labels_are_rejected() {
        struct Unordered;
        impl Oracle for Unordered {
            fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
                indices.iter().map(|&i| Labeled { matches: true, value: i as f64 }).collect()
            }
            fn stored_labels(&self, _: &[usize]) -> Vec<(usize, Labeled)> {
                let label = Labeled { matches: false, value: 0.0 };
                vec![(1, label), (0, label)]
            }
            fn calls(&self) -> u64 {
                0
            }
            fn reset_calls(&self) {}
        }
        label_all(&Unordered, &[10, 11, 12], &ExecOptions::new(1, 2));
    }

    #[test]
    fn map_batched_respects_batch_boundaries() {
        let sizes = Mutex::new(Vec::new());
        let ids: Vec<usize> = (0..100).collect();
        let out = map_batched(&ids, &ExecOptions::new(1, 32), |chunk| {
            sizes.lock().unwrap().push(chunk.len());
            chunk.to_vec()
        });
        assert_eq!(out, ids);
        assert_eq!(*sizes.lock().unwrap(), vec![32, 32, 32, 4]);
    }
}
