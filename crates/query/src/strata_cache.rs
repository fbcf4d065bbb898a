//! The stratification cache: `ABaeInit` once per resident score vector.
//!
//! Algorithm 1 lines 1–4 sort the table by proxy score into `K` quantile
//! strata. The result depends only on the scores and `K` — not on the
//! budget, the aggregates, the bindings or the RNG — yet re-sorting a
//! large table was most of a prepared re-run's time. The catalog
//! therefore keeps one shared [`Stratification`] per (table, resident
//! score vector, `K`), where a resident score vector is a table's proxy
//! column ([`ScoreSource::Column`]) or a registered trained model
//! ([`ScoreSource::Model`]). §3.3 combinations are materialized per
//! statement, so they are stratified per run and never cached.
//!
//! * **Never stale.** Column entries are keyed by (table, column); a
//!   table's columns change only through `Catalog::register_table`, which
//!   drops the table's entries. Model entries are keyed by the model's
//!   `Arc` address and hold a clone of the `Arc`, so the address cannot be
//!   reused while the entry lives.
//! * **Bounded.** One entry per resident score vector and `K`: 8 bytes
//!   per record. An entry whose model nothing else references any more
//!   (a `CREATE PROXY` replaced it and no statement holds it) is pruned.
//! * **No lock held while sorting.** A miss sorts outside the lock; two
//!   sessions that miss one key at once may both build, and the first
//!   insert is kept. Either way the answer is the same, since equal
//!   inputs give equal stratifications.

use crate::plan::ScoreSource;
use abae_core::Stratification;
use abae_data::TrainedProxy;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The resident score vector an entry stratified.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum SourceKey {
    /// A proxy column, by resolved name.
    Column(String),
    /// A trained model, by the address of its `Arc`.
    Model(usize),
}

/// Cache key: (table, score vector, `K`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    table: String,
    source: SourceKey,
    k: usize,
}

/// A model that nothing but the cache references any more: a
/// `CREATE PROXY` replaced it and no statement holds it.
fn orphaned(model: &Option<Arc<TrainedProxy>>) -> bool {
    model.as_ref().is_some_and(|m| Arc::strong_count(m) == 1)
}

#[derive(Debug)]
struct Entry {
    /// The model the key's address names, held so that the address cannot
    /// be reused (`None` for a column).
    model: Option<Arc<TrainedProxy>>,
    strata: Arc<Stratification>,
}

/// The catalog's thread-safe stratification cache: one shared
/// [`Stratification`] per (table, proxy column or trained model, `K`),
/// so statements over a resident score vector stop re-sorting the table.
/// Its counters are engine-lifetime, served by [`crate::EngineStats`],
/// `SHOW STATS` and `EXPLAIN`.
#[derive(Debug, Default)]
pub struct StrataCache {
    entries: RwLock<BTreeMap<Key, Entry>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

/// The cache key for `source`, with the model it names, or `None` for a
/// score vector that is not resident (a §3.3 combination).
fn resident(
    table: &str,
    source: &ScoreSource,
    k: usize,
) -> Option<(Key, Option<Arc<TrainedProxy>>)> {
    let (key, model) = match source {
        ScoreSource::Column { name, .. } => (SourceKey::Column(name.clone()), None),
        ScoreSource::Model(model) => {
            (SourceKey::Model(Arc::as_ptr(model) as usize), Some(Arc::clone(model)))
        }
        ScoreSource::Combined { .. } => return None,
    };
    Some((Key { table: table.to_string(), source: key, k }, model))
}

impl StrataCache {
    /// Stratifications built on a miss. Two sessions that miss one key at
    /// once both count.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Lookups answered by a cached stratification.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Record indices held across all entries — the memory gauge (8 bytes
    /// each).
    pub fn cached_records(&self) -> u64 {
        self.read().values().map(|e| e.strata.total() as u64).sum()
    }

    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<Key, Entry>> {
        self.entries.read().expect("no panics while holding the strata cache lock")
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<Key, Entry>> {
        self.entries.write().expect("no panics while holding the strata cache lock")
    }

    /// The stratification of `source`'s scores over `table` into `k`
    /// quantile strata: shared from the cache for a resident score vector,
    /// built for this call alone for a §3.3 combination. The caller has
    /// validated `k` (a zero `k` panics in the sort).
    pub(crate) fn strata(
        &self,
        table: &str,
        source: &ScoreSource,
        k: usize,
    ) -> Arc<Stratification> {
        let Some((key, model)) = resident(table, source, k) else {
            return Arc::new(Stratification::by_proxy_quantile(source.scores(), k));
        };
        if let Some(hit) = self.cached(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let strata = Arc::new(Stratification::by_proxy_quantile(source.scores(), k));
        self.builds.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.write();
        entries.retain(|_, e| !orphaned(&e.model));
        Arc::clone(&entries.entry(key).or_insert(Entry { model, strata }).strata)
    }

    /// Records held by `source`'s cached stratification into `k` strata,
    /// or `None` when nothing is cached for it. Counts nothing and builds
    /// nothing: this is `EXPLAIN`'s view.
    pub(crate) fn peek(&self, table: &str, source: &ScoreSource, k: usize) -> Option<usize> {
        let (key, _) = resident(table, source, k)?;
        self.cached(&key).map(|strata| strata.total())
    }

    fn cached(&self, key: &Key) -> Option<Arc<Stratification>> {
        self.read().get(key).map(|e| Arc::clone(&e.strata))
    }

    /// Drops entries whose model nothing else references any more, e.g.
    /// after `CREATE PROXY` replaced it.
    pub(crate) fn prune(&self) {
        self.write().retain(|_, e| !orphaned(&e.model));
    }

    /// Drops every entry of `table`, whose data is being replaced.
    pub(crate) fn invalidate_table(&self, table: &str) {
        self.write().retain(|key, _| key.table != table);
    }
}
