//! The stratification cache: `ABaeInit` once per score source.
//!
//! Algorithm 1 lines 1–4 sort the table by proxy score into `K` quantile
//! strata. The result depends only on the scores and `K` — not on the
//! budget, the aggregates, the bindings or the RNG — yet re-sorting the
//! table was most of a warm statement's time. The catalog therefore keeps
//! one shared [`Stratification`] per (table, score source, `K`), for every
//! score source the planner stratifies by:
//!
//! * a proxy column ([`ScoreSource::Column`]), keyed by its name. A bare
//!   atom's identity combination and each `GROUP BY` group's predicate
//!   column are that column's scores, so they share its entry;
//! * a registered trained model ([`ScoreSource::Model`]), keyed by the
//!   address of its `Arc`;
//! * a §3.3 combination of several atoms ([`ScoreSource::Combined`]),
//!   keyed by the plan's canonical predicate key and scored through
//!   [`table_combined_scores`] on a miss.
//!
//! * **Never stale.** A table's columns change only through
//!   `Catalog::register_table`, which drops the table's entries. A model
//!   entry holds a clone of the model's `Arc`, so the address cannot be
//!   reused while the entry lives.
//! * **Bounded.** Column and model entries: one per resident score vector
//!   and `K`, 8 bytes per record. An entry whose model nothing else
//!   references any more (a `CREATE PROXY` replaced it and no statement
//!   holds it) is pruned. Combination entries: at most
//!   [`StrataCache::COMBINED_RECORDS_BOUND`] record indices together; past
//!   it, the least recently used go first. Recency is a logical counter,
//!   written only by combination lookups.
//! * **No lock held while sorting.** A miss sorts outside the lock; two
//!   sessions that miss one key at once may both build, and the first
//!   insert is kept. Either way the answer is the same, since equal
//!   inputs give equal stratifications. A statement holding an evicted
//!   entry's `Arc` keeps it until it finishes.

use crate::plan::ScoreSource;
use abae_core::multipred::{table_combined_scores, PredExpr};
use abae_core::Stratification;
use abae_data::{Table, TableError, TrainedProxy};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The score vector an entry stratified.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum SourceKey {
    /// A proxy column, by resolved name.
    Column(String),
    /// A trained model, by the address of its `Arc`.
    Model(usize),
    /// A §3.3 combination of several atoms, by canonical predicate key.
    Combined(String),
}

/// Cache key: (table, score vector, `K`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    table: String,
    source: SourceKey,
    k: usize,
}

impl Key {
    fn combined(&self) -> bool {
        matches!(self.source, SourceKey::Combined(_))
    }
}

/// A model that nothing but the cache references any more: a
/// `CREATE PROXY` replaced it and no statement holds it.
fn orphaned(model: &Option<Arc<TrainedProxy>>) -> bool {
    model.as_ref().is_some_and(|m| Arc::strong_count(m) == 1)
}

#[derive(Debug)]
struct Entry {
    /// The model the key's address names, held so that the address cannot
    /// be reused (`None` otherwise).
    model: Option<Arc<TrainedProxy>>,
    strata: Arc<Stratification>,
    /// The logical time of the entry's last lookup: the eviction order of
    /// combination entries, never written for the others.
    last_used: AtomicU64,
}

/// The catalog's thread-safe stratification cache: one shared
/// [`Stratification`] per (table, score source, `K`), where a score source
/// is a proxy column, a trained model or a §3.3 combination, so a warm
/// statement sorts nothing. Its counters are engine-lifetime, served by
/// [`crate::EngineStats`], `SHOW STATS` and `EXPLAIN`.
#[derive(Debug)]
pub struct StrataCache {
    entries: RwLock<BTreeMap<Key, Entry>>,
    builds: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    /// The logical clock combination lookups advance.
    clock: AtomicU64,
    /// Record indices combination entries may hold together.
    combined_bound: u64,
}

impl Default for StrataCache {
    fn default() -> Self {
        Self::with_combined_bound(Self::COMBINED_RECORDS_BOUND)
    }
}

impl StrataCache {
    /// Record indices the §3.3 combination entries may hold together:
    /// 2^23, 64 MiB at 8 bytes each. Past it, the least recently used
    /// combination entries are evicted. Column and model entries do not
    /// count against it.
    pub const COMBINED_RECORDS_BOUND: u64 = 1 << 23;

    fn with_combined_bound(combined_bound: u64) -> Self {
        StrataCache {
            entries: RwLock::default(),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            combined_bound,
        }
    }

    /// Stratifications built on a miss. Two sessions that miss one key at
    /// once both count.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Lookups answered by a cached stratification.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Combination entries evicted to stay within
    /// [`StrataCache::COMBINED_RECORDS_BOUND`].
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
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
    /// quantile strata, shared from the cache. `pred_key` is the plan's
    /// canonical predicate key, which names a §3.3 combination. A miss on a
    /// combination scores it through [`table_combined_scores`], whose
    /// errors it returns. The caller has validated `k` (a zero `k` panics
    /// in the sort).
    pub(crate) fn strata(
        &self,
        table: &Table,
        source: &ScoreSource,
        pred_key: &str,
        k: usize,
    ) -> Result<Arc<Stratification>, TableError> {
        let (key, model) = key_of(table, source, pred_key, k);
        self.lookup(key, model, || {
            let sort = |scores: &[f64]| Stratification::by_proxy_quantile(scores, k);
            Ok(match source {
                ScoreSource::Column { scores, .. } => sort(scores.as_slice()),
                ScoreSource::Model(model) => sort(&model.scores),
                ScoreSource::Combined { expr, .. } => sort(&table_combined_scores(table, expr)?),
            })
        })
    }

    /// The stratification of predicate column `column`'s proxy scores over
    /// `table` into `k` quantile strata — a `GROUP BY` group's — shared
    /// with every statement on that column. The caller has validated `k`.
    pub(crate) fn column_strata(&self, table: &Table, column: usize, k: usize) -> Arc<Stratification> {
        let predicate = &table.predicates()[column];
        let key = column_key(table, predicate.name(), k);
        let built = self.lookup(key, None, || {
            Ok::<_, Infallible>(Stratification::by_proxy_quantile(predicate.proxy(), k))
        });
        match built {
            Ok(strata) => strata,
            Err(never) => match never {},
        }
    }

    /// Records held by `source`'s cached stratification into `k` strata,
    /// or `None` when nothing is cached for it. Counts nothing, builds
    /// nothing and leaves recency alone: this is `EXPLAIN`'s view.
    pub(crate) fn peek(
        &self,
        table: &Table,
        source: &ScoreSource,
        pred_key: &str,
        k: usize,
    ) -> Option<usize> {
        self.held(&key_of(table, source, pred_key, k).0)
    }

    /// [`StrataCache::peek`] for predicate column `column` of `table`.
    pub(crate) fn peek_column(&self, table: &Table, column: usize, k: usize) -> Option<usize> {
        self.held(&column_key(table, table.predicates()[column].name(), k))
    }

    fn held(&self, key: &Key) -> Option<usize> {
        self.read().get(key).map(|e| e.strata.total())
    }

    /// The entry under `key`, built by `build` on a miss. Only a
    /// combination lookup writes recency, and only a combination insert
    /// evicts.
    fn lookup<E>(
        &self,
        key: Key,
        model: Option<Arc<TrainedProxy>>,
        build: impl FnOnce() -> Result<Stratification, E>,
    ) -> Result<Arc<Stratification>, E> {
        let cached = self.read().get(&key).map(|e| {
            if key.combined() {
                e.last_used.store(self.tick(), Ordering::Relaxed);
            }
            Arc::clone(&e.strata)
        });
        if let Some(hit) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let strata = Arc::new(build()?);
        self.builds.fetch_add(1, Ordering::Relaxed);
        let combined = key.combined();
        let last_used = AtomicU64::new(if combined { self.tick() } else { 0 });
        let mut entries = self.write();
        entries.retain(|_, e| !orphaned(&e.model));
        let strata =
            Arc::clone(&entries.entry(key).or_insert(Entry { model, strata, last_used }).strata);
        if combined {
            self.evict_past_bound(&mut entries);
        }
        Ok(strata)
    }

    /// The next value of the logical clock.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evicts combination entries, least recently used first, until they
    /// hold at most the bound.
    fn evict_past_bound(&self, entries: &mut BTreeMap<Key, Entry>) {
        loop {
            let combined = entries.iter().filter(|(key, _)| key.combined());
            let held: u64 = combined.clone().map(|(_, e)| e.strata.total() as u64).sum();
            if held <= self.combined_bound {
                return;
            }
            let Some(lru) = combined
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(key, _)| key.clone())
            else {
                return;
            };
            entries.remove(&lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
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

/// The key of predicate column `name` of `table`.
fn column_key(table: &Table, name: &str, k: usize) -> Key {
    Key { table: table.name().to_string(), source: SourceKey::Column(name.to_string()), k }
}

/// The cache key for `source`, with the model it names. A bare atom's
/// identity combination is keyed by its column, so it shares the column's
/// entry.
fn key_of(
    table: &Table,
    source: &ScoreSource,
    pred_key: &str,
    k: usize,
) -> (Key, Option<Arc<TrainedProxy>>) {
    let (source, model) = match source {
        ScoreSource::Column { name, .. } => (SourceKey::Column(name.clone()), None),
        ScoreSource::Model(model) => {
            (SourceKey::Model(Arc::as_ptr(model) as usize), Some(Arc::clone(model)))
        }
        ScoreSource::Combined { columns, expr: PredExpr::Pred(_) } => {
            (SourceKey::Column(columns[0].clone()), None)
        }
        ScoreSource::Combined { .. } => (SourceKey::Combined(pred_key.to_string()), None),
    };
    (Key { table: table.name().to_string(), source, k }, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::engine::EngineOptions;
    use crate::parser::parse_query;
    use crate::plan::{plan_query, run_plan, Bindings, ExecCtx, PlanKind};
    use crate::result::QueryResult;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 400;

    fn table() -> Table {
        let p: Vec<bool> = (0..N).map(|i| i % 3 == 0).collect();
        let q: Vec<bool> = (0..N).map(|i| i % 5 < 2).collect();
        let score = |labels: &[bool], salt: usize| -> Vec<f64> {
            labels
                .iter()
                .enumerate()
                .map(|(i, &l)| if l { 0.6 } else { 0.2 } + ((i * 7919 + salt) % 97) as f64 / 400.0)
                .collect()
        };
        let (p_scores, q_scores) = (score(&p, 0), score(&q, 31));
        Table::builder("t", (0..N).map(|i| (i % 7) as f64).collect())
            .predicate("p", p, p_scores)
            .predicate("q", q, q_scores)
            .build()
            .unwrap()
    }

    /// A catalog over [`table`] whose combination entries may hold two
    /// tables' worth of record indices.
    fn catalog(combined_bound: u64) -> Catalog {
        let mut catalog = Catalog::new();
        catalog.register_table(table());
        catalog.set_strata_cache(StrataCache::with_combined_bound(combined_bound));
        catalog
    }

    fn run(catalog: &Catalog, sql: &str, seed: u64) -> QueryResult {
        let plan = plan_query(catalog, &parse_query(sql).unwrap()).unwrap();
        let opts = EngineOptions { bootstrap_trials: 40, ..EngineOptions::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let bindings = Bindings::default();
        run_plan(catalog, &plan, &opts, &bindings, &mut rng, &ExecCtx::for_tests(), None).unwrap()
    }

    fn select(predicate: &str) -> String {
        format!("SELECT AVG(x), COUNT(*) FROM t WHERE {predicate} ORACLE LIMIT 120")
    }

    #[test]
    fn least_recently_used_combinations_go_first_and_answers_stay() {
        let bounded = catalog(2 * N as u64);
        let unbounded = catalog(StrataCache::COMBINED_RECORDS_BOUND);
        let cache = bounded.strata_cache();
        let counts = || (cache.builds(), cache.hits(), cache.evictions(), cache.cached_records());
        let (a, b, c) = (select("p AND q"), select("p OR q"), select("NOT p AND q"));
        // (statement, builds, hits, evictions, tables' worth held) after it
        // runs.
        let steps = [
            (&a, 1, 0, 0, 1),
            (&b, 2, 0, 0, 2),
            (&a, 2, 1, 0, 2), // `a` is now more recent than `b` ...
            (&c, 3, 1, 1, 2), // ... so `b` makes room for `c`
            (&a, 3, 2, 1, 2),
            (&b, 4, 2, 2, 2), // `c` is the least recent now
            (&a, 4, 3, 2, 2),
        ];
        for (seed, (sql, builds, hits, evictions, held)) in steps.into_iter().enumerate() {
            let seed = seed as u64;
            assert_eq!(run(&bounded, sql, seed), run(&unbounded, sql, seed), "{sql}");
            assert_eq!(counts(), (builds, hits, evictions, held * N as u64), "step {seed}");
        }
        assert_eq!((unbounded.strata_cache().builds(), unbounded.strata_cache().evictions()), (3, 0));

        // Column entries, a bare atom's included, do not count against the
        // bound and are never evicted.
        run(&bounded, &select("p"), 9);
        run(&bounded, &format!("{} USING q", select("p AND q")), 9);
        assert_eq!(counts(), (6, 3, 2, 4 * N as u64));
    }

    #[test]
    fn an_evicted_stratification_stays_whole_for_its_holder() {
        let catalog = catalog(N as u64);
        let table = catalog.table("t").unwrap();
        let source = |sql: &str| match plan_query(&catalog, &parse_query(sql).unwrap()).unwrap().kind {
            PlanKind::Scalar { source, pred_key, .. } => (source, pred_key),
            other => panic!("expected a scalar plan, got {other:?}"),
        };
        let cache = catalog.strata_cache();
        let (held_source, held_key) = source(&select("p AND q"));
        let held = cache.strata(table, &held_source, &held_key, 5).unwrap();
        let (other, other_key) = source(&select("p OR q"));
        cache.strata(table, &other, &other_key, 5).unwrap();
        assert_eq!((cache.evictions(), cache.cached_records()), (1, N as u64));
        assert_eq!(cache.peek(table, &held_source, &held_key, 5), None, "evicted");
        let combined = table_combined_scores(table, &PredExpr::and(PredExpr::Pred(0), PredExpr::Pred(1)));
        assert_eq!(*held, Stratification::by_proxy_quantile(&combined.unwrap(), 5));
    }
}
