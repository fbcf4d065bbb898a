//! The shared, thread-safe query engine.
//!
//! An [`Engine`] is the process-wide answer service the paper's analysts
//! query: it owns the tables, the predicate bindings, the cross-query
//! label store, and the tuning defaults, all behind an `Arc` so cloning a
//! handle is one reference-count bump. The engine is `Send + Sync` —
//! any number of threads can serve [`crate::Session`]s against one engine
//! concurrently, and the label store (internally locked, with hit/miss
//! accounting) is shared by all of them.
//!
//! Determinism contract: every session's RNG stream is derived from the
//! engine seed and the session id alone, so a session's results depend
//! only on *its own* statement sequence — never on how other sessions'
//! work interleaves with it (`tests/engine_sessions.rs` pins 8 concurrent
//! sessions against a serial replay, bit for bit).
//!
//! Build one with [`EngineBuilder`]:
//!
//! ```
//! use abae_query::Engine;
//! use abae_data::Table;
//!
//! let n = 400;
//! let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
//! let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.9 } else { 0.1 }).collect();
//! let table = Table::builder("emails", (0..n).map(|i| (i % 7) as f64).collect::<Vec<_>>())
//!     .predicate("is_spam", labels, proxy)
//!     .build()
//!     .unwrap();
//! let engine = Engine::builder().table(table).label_cache(true).seed(7).build();
//! let mut session = engine.session();
//! let r = session
//!     .execute("SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT 100")
//!     .unwrap();
//! assert!(!r.rows.is_empty());
//! ```

use crate::catalog::Catalog;
use crate::plan::ExecCtx;
use crate::session::Session;
use abae_core::batcher::{BatcherOptions, BatcherStats, OracleBatcher};
use abae_core::pipeline::ExecOptions;
use abae_data::{LabelStore, Table};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Engine-owned tuning defaults, applied to every statement a session
/// executes. The engine resolves [`ExecOptions`] (which honors
/// `ABAE_THREADS`/`ABAE_BATCH`) **once** at build time and owns the value
/// from then on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOptions {
    /// Strata count `K` for every query (Figure 10 default: 5).
    pub strata: usize,
    /// Stage-1 fraction `C` (Figure 11 default: 0.5).
    pub stage1_fraction: f64,
    /// Bootstrap resamples `β` per CI.
    pub bootstrap_trials: usize,
    /// Oracle-labeling execution knobs (worker threads, batch size).
    /// Results are identical for any value.
    pub exec: ExecOptions,
    /// Oracle batcher (cross-session governor) configuration: coalescing
    /// on/off, simulated per-invocation overhead, batch capacity, and the
    /// default per-session fair-share quota. Results are identical for
    /// any value — the batcher changes invocation grouping and timing
    /// only, never what a session labels.
    pub batcher: BatcherOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            strata: 5,
            stage1_fraction: 0.5,
            bootstrap_trials: 1000,
            exec: ExecOptions::default(),
            batcher: BatcherOptions::default(),
        }
    }
}

/// SplitMix64-style finalizer used to derive independent RNG streams from
/// (engine seed, stream tag, index) without any shared state. The same
/// mixing constants as the workspace PRNG's seeder, applied per component,
/// so nearby ids land in unrelated streams.
fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream tags keep session streams and prepared-statement streams from
/// ever colliding, whatever the ids.
const SESSION_STREAM: u64 = 0x5E55_1001;
const PREPARED_STREAM: u64 = 0x5E55_2002;

#[derive(Debug)]
struct EngineInner {
    catalog: Catalog,
    options: EngineOptions,
    seed: u64,
    /// Next auto-assigned session id.
    sessions: AtomicU64,
    /// The process-wide oracle admission controller every session's
    /// labeling routes through.
    batcher: OracleBatcher,
}

/// One engine-wide observability snapshot: session count, the batcher's
/// lifetime counters, the label store's lifetime hit/miss totals, the
/// strata cache's counters, and the per-session oracle spend ledger.
/// Returned by [`Engine::stats`]; the benches serialize it into their
/// artifacts and `EXPLAIN` prints the batcher portion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Sessions auto-assigned by [`Engine::session`] so far.
    pub sessions_opened: u64,
    /// The oracle batcher's lifetime counters (requests, invocations,
    /// shared batches, coalesced requests, cache-served records).
    pub batcher: BatcherStats,
    /// Lifetime label-store hits (0 when the store is disabled).
    pub label_hits: u64,
    /// Lifetime label-store misses (0 when the store is disabled).
    pub label_misses: u64,
    /// Stratifications the catalog's strata cache built on a miss (two
    /// sessions missing one key at once both count).
    pub strata_builds: u64,
    /// Strata-cache lookups answered by a cached stratification instead of
    /// a sort: one per scalar run and one per group of a `GROUP BY` run.
    pub strata_hits: u64,
    /// §3.3 combination entries the strata cache evicted, least recently
    /// used first, to stay within its bound.
    pub strata_evictions: u64,
    /// Record indices the strata cache holds — its memory gauge, 8 bytes
    /// each.
    pub strata_cached_records: u64,
    /// Records labeled through admission per session, in session-id
    /// order — the fair-share spend ledger.
    pub per_session_spend: Vec<(u64, u64)>,
}

/// A shareable, thread-safe query engine: tables, bindings, label store,
/// and tuning defaults behind an `Arc`. Clone handles freely — all clones
/// serve the same catalog and the same label cache. See the
/// [module docs](self) for the determinism contract and an example.
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Opens a session with the next auto-assigned id (0, 1, 2, … in
    /// creation order). Each session owns a deterministic RNG stream
    /// derived from the engine seed and its id.
    pub fn session(&self) -> Session {
        let id = self.inner.sessions.fetch_add(1, Ordering::Relaxed);
        Session::new(self.clone(), id)
    }

    /// Opens a session with an explicit id. Two sessions with the same id
    /// (on this engine or an identically seeded one) replay identical RNG
    /// streams — the reproducibility hook tests and debuggers use.
    pub fn session_with_id(&self, id: u64) -> Session {
        Session::new(self.clone(), id)
    }

    /// The engine's catalog (tables, bindings, label store). Immutable
    /// after build; the label store inside is internally synchronized.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// The engine's label store, when built with `label_cache(true)`.
    pub fn label_store(&self) -> Option<&LabelStore> {
        self.inner.catalog.label_store()
    }

    /// The engine-owned tuning defaults.
    pub fn options(&self) -> &EngineOptions {
        &self.inner.options
    }

    /// The engine seed every session/prepared stream derives from.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// How many sessions [`Engine::session`] has auto-assigned so far.
    pub fn sessions_opened(&self) -> u64 {
        self.inner.sessions.load(Ordering::Relaxed)
    }

    /// The engine's oracle batcher — the cross-session admission
    /// controller every session's labeling routes through. Exposed for
    /// observability (counters, per-session spend) and for the quota
    /// knob; queries go through it automatically.
    pub fn batcher(&self) -> &OracleBatcher {
        &self.inner.batcher
    }

    /// Overrides the per-batch fair-share record quota for one session
    /// (`0` restores the engine default). A larger quota is a larger
    /// guaranteed share of every contended batch — the priority knob for
    /// multi-tenant deployments.
    pub fn set_session_quota(&self, session: u64, records: usize) {
        self.inner.batcher.set_session_quota(session, records);
    }

    /// One observability snapshot: sessions opened, batcher counters,
    /// label-store totals, strata-cache counters, and the per-session
    /// oracle spend ledger.
    pub fn stats(&self) -> EngineStats {
        let (label_hits, label_misses) = self
            .label_store()
            .map_or((0, 0), |store| (store.hits(), store.misses()));
        let strata = self.inner.catalog.strata_cache();
        EngineStats {
            sessions_opened: self.sessions_opened(),
            batcher: self.inner.batcher.stats(),
            label_hits,
            label_misses,
            strata_builds: strata.builds(),
            strata_hits: strata.hits(),
            strata_evictions: strata.evictions(),
            strata_cached_records: strata.cached_records(),
            per_session_spend: self.inner.batcher.per_session_spend(),
        }
    }

    /// The context a statement of session `session` runs under: the
    /// engine's batcher admits its labeling and books its spend.
    pub(crate) fn ctx(&self, session: u64) -> ExecCtx<'_> {
        ExecCtx { session, batcher: &self.inner.batcher }
    }

    /// RNG seed for session `id`'s stream.
    pub(crate) fn session_seed(&self, id: u64) -> u64 {
        mix_seed(mix_seed(self.inner.seed, SESSION_STREAM), id)
    }

    /// RNG base seed for prepared statement number `statement` of session
    /// `session`. Every `Prepared::run` restarts from this seed, which is
    /// what makes an identical re-run redraw the same records (and, with a
    /// warm label cache, cost zero oracle calls).
    pub(crate) fn prepared_seed(&self, session: u64, statement: u64) -> u64 {
        mix_seed(mix_seed(mix_seed(self.inner.seed, PREPARED_STREAM), session), statement)
    }
}

/// Builds an [`Engine`]: tables, predicate bindings, label-cache policy,
/// tuning defaults, and the seed policy, then freezes them behind an
/// `Arc`. Adopt an existing [`Catalog`] wholesale with
/// [`EngineBuilder::from_catalog`].
#[derive(Debug)]
pub struct EngineBuilder {
    catalog: Catalog,
    options: EngineOptions,
    label_cache: bool,
    seed: u64,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// A builder with the paper's default knobs, no tables, the label
    /// cache off, and seed `0xABAE`.
    pub fn new() -> Self {
        Self {
            catalog: Catalog::new(),
            options: EngineOptions::default(),
            label_cache: false,
            seed: 0xABAE,
        }
    }

    /// Adopts an existing catalog (tables, bindings, and — if enabled —
    /// its label store and cached verdicts).
    pub fn from_catalog(catalog: Catalog) -> Self {
        let label_cache = catalog.label_store().is_some();
        Self { catalog, label_cache, ..Self::new() }
    }

    /// Registers a table under its own name (replacing any previous table
    /// with that name).
    pub fn table(mut self, table: Table) -> Self {
        self.catalog.register_table(table);
        self
    }

    /// Binds a predicate atom key (e.g. `hair_color=blonde`) to a
    /// predicate column of `table`.
    pub fn bind_predicate(
        mut self,
        table: impl Into<String>,
        atom_key: impl Into<String>,
        column: impl Into<String>,
    ) -> Self {
        self.catalog.bind_predicate(table, atom_key, column);
        self
    }

    /// Enables (or disables) the cross-query oracle label cache shared by
    /// every session of the engine.
    pub fn label_cache(mut self, on: bool) -> Self {
        self.label_cache = on;
        self
    }

    /// Strata count `K`.
    pub fn strata(mut self, k: usize) -> Self {
        self.options.strata = k;
        self
    }

    /// Stage-1 budget fraction `C`.
    pub fn stage1_fraction(mut self, c: f64) -> Self {
        self.options.stage1_fraction = c;
        self
    }

    /// Bootstrap resamples `β` per CI.
    pub fn bootstrap_trials(mut self, trials: usize) -> Self {
        self.options.bootstrap_trials = trials;
        self
    }

    /// Oracle-labeling execution knobs. When not set, the builder resolves
    /// [`ExecOptions::default`] (which honors `ABAE_THREADS`/`ABAE_BATCH`)
    /// once at build time.
    pub fn exec(mut self, exec: ExecOptions) -> Self {
        self.options.exec = exec;
        self
    }

    /// Turns cross-session coalescing of oracle invocations on or off
    /// (off by default). Concurrent sessions labeling the same
    /// `(table, predicate)` then share device invocations; per-session
    /// results are bit-identical either way.
    pub fn governor(mut self, on: bool) -> Self {
        self.options.batcher.coalesce = on;
        self
    }

    /// Simulated fixed cost per oracle invocation, charged once per
    /// (possibly shared) batch and serialized across invocations — the
    /// `with_latency`-style knob for the *dispatch* side of the cost
    /// model. Zero (the default) charges nothing.
    pub fn oracle_overhead(mut self, overhead: Duration) -> Self {
        self.options.batcher.invocation_overhead = overhead;
        self
    }

    /// Replaces the whole batcher options bundle (coalescing, overhead,
    /// batch capacity, default fair-share quota).
    pub fn batcher(mut self, batcher: BatcherOptions) -> Self {
        self.options.batcher = batcher;
        self
    }

    /// Replaces the whole options bundle.
    pub fn options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// The engine seed; every session and prepared-statement RNG stream
    /// derives from it deterministically.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Freezes the configuration into a shareable [`Engine`].
    pub fn build(mut self) -> Engine {
        if self.label_cache {
            self.catalog.enable_label_cache();
        } else {
            self.catalog.disable_label_cache();
        }
        Engine {
            inner: Arc::new(EngineInner {
                batcher: OracleBatcher::new(self.options.batcher),
                catalog: self.catalog,
                options: self.options,
                seed: self.seed,
                sessions: AtomicU64::new(0),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let labels = vec![true, false, true, false];
        let proxy = vec![0.9, 0.1, 0.8, 0.2];
        Table::builder("t", vec![1.0, 2.0, 3.0, 4.0])
            .predicate("p", labels, proxy)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_is_send_sync_and_cheaply_clonable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Engine>();
        let engine = Engine::builder().table(table()).build();
        let clone = engine.clone();
        // Clones share the inner state, not copies of it.
        assert!(Arc::ptr_eq(&engine.inner, &clone.inner));
    }

    #[test]
    fn sessions_get_sequential_ids_and_distinct_streams() {
        let engine = Engine::builder().table(table()).seed(1).build();
        let s0 = engine.session();
        let s1 = engine.session();
        assert_eq!((s0.id(), s1.id()), (0, 1));
        assert_eq!(engine.sessions_opened(), 2);
        assert_ne!(engine.session_seed(0), engine.session_seed(1));
        // Session and prepared streams never collide, even for equal ids.
        assert_ne!(engine.session_seed(3), engine.prepared_seed(3, 0));
    }

    #[test]
    fn builder_adopts_a_catalog_with_its_label_store() {
        let mut cat = Catalog::new();
        cat.register_table(table());
        cat.bind_predicate("t", "spamish", "p");
        cat.enable_label_cache();
        let engine = EngineBuilder::from_catalog(cat).build();
        assert!(engine.label_store().is_some(), "adopted store must survive build");
        assert_eq!(engine.catalog().resolve("t", "spamish"), Some("p".to_string()));
        // And label_cache(false) drops it explicitly.
        let mut cat = Catalog::new();
        cat.register_table(table());
        cat.enable_label_cache();
        let engine = EngineBuilder::from_catalog(cat).label_cache(false).build();
        assert!(engine.label_store().is_none());
    }

    #[test]
    fn mix_seed_separates_nearby_inputs() {
        let s: Vec<u64> = (0..64).map(|i| mix_seed(0xABAE, i)).collect();
        let mut uniq = s.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), s.len(), "64 consecutive ids must map to 64 distinct seeds");
    }

    #[test]
    fn engine_options_defaults_match_the_paper() {
        let o = EngineOptions::default();
        assert_eq!(o.strata, 5);
        assert!((o.stage1_fraction - 0.5).abs() < 1e-12);
        assert_eq!(o.bootstrap_trials, 1000);
    }
}
