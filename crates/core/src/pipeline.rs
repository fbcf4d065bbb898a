//! Batch-parallel oracle labeling and split bootstrap replicates, both
//! with deterministic output ordering.
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
//! [`ExecOptions`] carries the two labeling knobs — worker thread count and
//! batch size — and is threaded through every algorithm config
//! ([`crate::config::AbaeConfig::exec`], [`crate::groupby::GroupByConfig::exec`],
//! [`crate::adaptive::AdaptiveConfig::exec`]) as well as the query executor
//! and `abae-cli`. Defaults honor the `ABAE_THREADS` / `ABAE_BATCH`
//! environment variables so whole test runs can be flipped between serial
//! and parallel execution (the CI matrix runs both).
//!
//! The final bootstrap of a progressive run that spends its cap splits
//! the same way, with no knob. A run is cut into blocks of 64
//! replicates; block `j` starts at its exact position in the caller's RNG
//! stream by jump-ahead ([`rand::rngs::StdRng::strided`]); workers on the
//! cores of `available_parallelism()` that no other replicate run holds
//! claim blocks; and the estimates are reassembled in replicate order.
//! Each replicate reads the words it would have read on one thread, so
//! the CIs and the caller's next RNG output are the same bits on any core
//! count.
//!
//! A blocking statement's one bootstrap stays on the calling thread
//! (`ReplicateThreads`). On a shared VM the second vCPU is not always
//! there: measured on a 2-vCPU host, a second busy thread added anywhere
//! from nothing to a full core of throughput, the state flipping every few
//! seconds. A statement whose only heavy step is one 5–10 ms bootstrap
//! then ran at two speeds from one run to the next. A progressive run's
//! snapshots are closed-form, so the split serves its one bootstrap, at
//! the end of a run that spends its cap.

use abae_data::{GroupLabel, GroupOracle, Labeled, Oracle};
use rand::rngs::StdRng;
use rand::Rng;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Execution options for the batch labeling pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecOptions {
    /// Worker threads labeling batches. `0` and `1` both mean the calling
    /// thread labels every batch itself. This knob labels only: a
    /// progressive run's bootstrap replicates use the cores
    /// `available_parallelism()` reports, whatever it is set to (see the
    /// module docs).
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

/// Runs `f(j)` for every `j` in `0..n` on up to `workers` threads — the
/// calling thread plus scoped helpers — that claim indices from a shared
/// counter, and returns the outputs in index order. Claim order depends on
/// scheduling, but each output lands in its own slot, so reassembly does
/// not; a helper that gets no core simply claims fewer indices.
fn claim_each<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Relaxed: the counter publishes no data; each slot's mutex and the
    // scope's join order the outputs.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let j = next.fetch_add(1, Ordering::Relaxed);
        if j >= n {
            break;
        }
        let out = f(j);
        *slots[j].lock().expect("no panics while holding a slot") = Some(out);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker panics propagate via scope")
                .expect("every index below n is claimed")
        })
        .collect()
}

/// Maps `ids` through `f` in batches of `opts.batch_size`, fanning batches
/// across `opts.threads` workers, and returns the concatenated results
/// **in input order** regardless of scheduling.
///
/// `f` must return exactly one output per input (asserted), which is what
/// keeps budget accounting exact when `f` charges an oracle per record.
pub fn map_batched<T, F>(ids: &[usize], opts: &ExecOptions, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&[usize]) -> Vec<T> + Sync,
{
    let chunks: Vec<&[usize]> = ids.chunks(opts.batch_size.max(1)).collect();
    let mut out = Vec::with_capacity(ids.len());
    for part in claim_each(chunks.len(), opts.threads, |j| f(chunks[j])) {
        out.extend(part);
    }
    assert_eq!(out.len(), ids.len(), "batch labeler must return one output per input");
    out
}

/// Replicates per block of a split bootstrap run: a multiple of every lane
/// count of the bootstrap kernel (8, 4, 2, 1), so a block's lanes group
/// its replicates exactly as one unsplit run would.
const REPLICATE_BLOCK: usize = 64;

/// The work floor, in resampled draws (`trials × draws`), below which a
/// replicate run stays on the calling thread: spawning a helper and
/// jumping to the block starts would cost more than about a tenth of the
/// kernel's time.
const SPLIT_FLOOR_DRAWS: u64 = 1 << 17;

/// Which threads run a bootstrap's replicates (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplicateThreads {
    /// The calling thread alone: a blocking statement's bootstrap.
    Calling,
    /// The calling thread plus helpers on the cores no other replicate run
    /// holds: the final bootstrap of a progressive run that spends its cap.
    FreeCores,
}

/// A bootstrap replicate kernel: any number of replicates from any RNG.
pub(crate) trait Replicates: Sync {
    /// Statistics each replicate estimates.
    fn statistics(&self) -> usize;

    /// Runs `reps` replicates on `rng`, reading exactly the `draws` words
    /// per replicate passed to [`replicates`] (one integer `gen_range` per
    /// resampled draw), and returns each statistic's estimates in
    /// replicate order.
    fn run<G: Rng + ?Sized>(&self, reps: usize, rng: &mut G) -> Vec<Vec<f64>>;
}

/// The cores this process may run on, read once per process;
/// `available_parallelism()` follows `taskset` and cgroup limits.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Workers of the split replicate runs in progress, process-wide. A run
/// takes only the cores no other run holds, so concurrent statements
/// (two connections bootstrapping at once) do not oversubscribe the
/// cores with helpers. Relaxed: the count publishes no data, and the
/// worker count never changes a result.
static REPLICATING: AtomicUsize = AtomicUsize::new(0);

/// A split run's hold on `REPLICATING`, released on drop, unwinding
/// included.
struct Held(usize);

impl Held {
    /// Holds the cores no other run holds, at least the calling thread's
    /// and at most `blocks`.
    fn take(blocks: usize) -> Self {
        let mut workers = 1;
        let _ = REPLICATING.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
            workers = cores().saturating_sub(busy).clamp(1, blocks.max(1));
            Some(busy + workers)
        });
        Held(workers)
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        REPLICATING.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Runs `trials` replicates of `kernel`, each reading `draws` words of
/// `rng`'s stream, and returns every statistic's estimates in replicate
/// order. [`ReplicateThreads::FreeCores`] runs of at least
/// `SPLIT_FLOOR_DRAWS` resampled draws use the cores of
/// `available_parallelism()` that no other run holds; other runs, and
/// generators that cannot jump ([`rand::RngCore::jumpable`]), stay on the
/// calling thread. Either way the estimates and the caller's stream
/// afterwards are the bits of one unsplit run.
pub(crate) fn replicates<K: Replicates, R: Rng + ?Sized>(
    kernel: &K,
    trials: usize,
    draws: usize,
    threads: ReplicateThreads,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    let resampled = (trials as u64).saturating_mul(draws as u64);
    if threads == ReplicateThreads::Calling || resampled < SPLIT_FLOOR_DRAWS {
        return replicates_on(1, kernel, trials, draws, rng);
    }
    let held = Held::take(trials.div_ceil(REPLICATE_BLOCK));
    replicates_on(held.0, kernel, trials, draws, rng)
}

/// [`replicates`] on a given worker count (tests force 1, 2 and 4). Block
/// `j` holds replicates `64j..` and starts `64j · draws` words into the
/// caller's stream; afterwards the stream is advanced by exactly
/// `trials · draws` words. One worker runs every replicate in one kernel
/// call on the caller's generator itself.
pub(crate) fn replicates_on<K: Replicates, R: Rng + ?Sized>(
    workers: usize,
    kernel: &K,
    trials: usize,
    draws: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    let blocks = trials.div_ceil(REPLICATE_BLOCK);
    let reps = |j: usize| REPLICATE_BLOCK.min(trials - j * REPLICATE_BLOCK);
    let parts: Vec<Vec<Vec<f64>>> = match rng.jumpable() {
        Some(base) if workers.min(blocks) > 1 => {
            let block_words = (REPLICATE_BLOCK as u64).saturating_mul(draws as u64);
            let starts: Vec<StdRng> = base.strided(block_words).take(blocks).collect();
            let parts =
                claim_each(blocks, workers, |j| kernel.run(reps(j), &mut starts[j].clone()));
            base.jump((trials as u64).saturating_mul(draws as u64));
            parts
        }
        _ => return kernel.run(trials, rng),
    };
    let mut out = vec![Vec::with_capacity(trials); kernel.statistics()];
    for part in parts {
        for (estimates, block) in out.iter_mut().zip(part) {
            estimates.extend(block);
        }
    }
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
