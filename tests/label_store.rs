//! Cross-query label-cache acceptance tests (the `LabelStore` in
//! `abae-data`, wired through `Catalog::enable_label_cache` and served by
//! the `Engine`/`Session` API):
//!
//! * a repeated identical query spends **0** extra oracle calls against a
//!   warm store, with the hits/misses surfaced in `QueryResult`;
//! * cached results are bit-identical to uncached, for any thread count of
//!   the labeling pipeline;
//! * different queries over the same (table, predicate) share verdicts;
//! * replacing a table drops its verdicts so stale labels never answer
//!   queries over new data;
//! * answering a request's store hits up front and packing only its misses
//!   into batches changes invocation counts, never answers or spend.

use abae::core::multipred::{expression_oracle, PredExpr};
use abae::core::pipeline::ExecOptions;
use abae::core::two_stage::run_abae_stratified;
use abae::core::{
    AbaeConfig, Aggregate, BatcherOptions, BootstrapConfig, GovernedOracle, OracleBatcher,
    Stratification,
};
use abae::data::{CachedOracle, LabelStore, Labeled, Oracle, Table};
use abae::query::{Catalog, Engine, EngineBuilder, QueryResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

fn spam_table(n: usize) -> Table {
    let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
    let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
    let values: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
    Table::builder("emails", values)
        .predicate("is_spam", labels, proxy)
        .build()
        .unwrap()
}

/// One engine per test: tables frozen, label cache on/off per builder.
fn engine(n: usize, cache: bool, seed: u64, exec: ExecOptions) -> Engine {
    Engine::builder()
        .table(spam_table(n))
        .label_cache(cache)
        .bootstrap_trials(100)
        .seed(seed)
        .exec(exec)
        .build()
}

/// Runs `sql` on a fresh session with a fixed id, so every call replays
/// the same RNG stream (the engine-API analogue of re-seeding an RNG).
fn run(engine: &Engine, sql: &str, session_id: u64) -> QueryResult {
    engine.session_with_id(session_id).execute(sql).expect("query executes")
}

const SQL: &str = "SELECT AVG(nb_links) FROM emails WHERE is_spam \
                   ORACLE LIMIT 2000 WITH PROBABILITY 0.95";

#[test]
fn warm_store_answers_repeat_queries_for_zero_oracle_calls() {
    let engine = engine(20_000, true, 1, ExecOptions::sequential());

    let cold = run(&engine, SQL, 0);
    assert!(cold.oracle_calls > 0);
    assert_eq!(cold.cache_hits, 0, "a cold store has nothing to hit");
    assert_eq!(
        cold.cache_misses, cold.oracle_calls,
        "every labeled record was a miss and charged the oracle"
    );

    // Same query, same session id, warm store: the identical records are
    // drawn, every verdict is cached, and the oracle is never invoked.
    let warm = run(&engine, SQL, 0);
    assert_eq!(warm.oracle_calls, 0, "a warm store must answer entirely from cache");
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.cache_hits, cold.cache_misses);

    // The answers are bit-identical: estimates, CIs, group rows.
    assert_eq!(warm.rows, cold.rows);
    assert_eq!(warm.groups, cold.groups);

    // The store reports the lifetime totals.
    let store = engine.label_store().expect("cache enabled");
    assert_eq!(store.misses(), cold.cache_misses);
    assert_eq!(store.hits(), warm.cache_hits);
}

#[test]
fn different_aggregates_share_the_same_verdicts() {
    // A Figure-1-style dashboard: three scalar queries over the same table
    // and predicate. With the store on, only the first pays the oracle.
    let engine = engine(20_000, true, 3, ExecOptions::sequential());

    let avg = run(&engine, SQL, 0);
    assert!(avg.oracle_calls > 0);
    for sql in [
        "SELECT COUNT(*) FROM emails WHERE is_spam ORACLE LIMIT 2000 WITH PROBABILITY 0.95",
        "SELECT SUM(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 2000 WITH PROBABILITY 0.95",
    ] {
        // Same session id → same proxy stratification → identical draws:
        // every record needed by the later query is already cached.
        let r = run(&engine, sql, 0);
        assert_eq!(r.oracle_calls, 0, "{sql} should be answered from cache");
        assert_eq!(r.cache_misses, 0);
    }
}

#[test]
fn cached_results_are_bit_identical_across_thread_counts() {
    // The uncached reference result.
    let reference = run(&engine(20_000, false, 5, ExecOptions::sequential()), SQL, 0);
    for exec in [ExecOptions::new(1, 64), ExecOptions::new(8, 7)] {
        let engine = engine(20_000, true, 5, exec);
        let cold = run(&engine, SQL, 0);
        let warm = run(&engine, SQL, 0);
        // Caching changes spend accounting, never answers — cold, warm,
        // and uncached agree bit-for-bit at every thread/batch setting.
        assert_eq!(cold.rows, reference.rows, "{exec:?} cold");
        assert_eq!(warm.rows, reference.rows, "{exec:?} warm");
        assert_eq!(cold.oracle_calls, reference.oracle_calls, "{exec:?}");
        assert_eq!(warm.oracle_calls, 0, "{exec:?}");
    }
}

#[test]
fn replacing_a_table_invalidates_its_cached_verdicts() {
    // Verdicts bought against v1 of a table must never answer queries
    // over v2: `Catalog::register_table` drops *every* store entry for
    // that table name — whatever the predicate key — before the
    // replacement engine is ever built.
    let mut catalog = Catalog::new();
    catalog.register_table(spam_table(10_000));
    catalog.enable_label_cache();
    {
        // Buy v1 verdicts through the store's public adapter under
        // several predicate keys (invalidation is per-table, so the key
        // spelling is irrelevant — the query layer's real key is just
        // another entry of this table).
        use abae::data::{CachedOracle, Oracle as _, PredicateOracle};
        let table = catalog.table("emails").expect("registered");
        let store = catalog.label_store().expect("cache enabled");
        for key in ["k1", "k2"] {
            let oracle = PredicateOracle::new(table, "is_spam").expect("column exists");
            let cached = CachedOracle::new(oracle, store, "emails", key);
            let ids: Vec<usize> = (0..500).collect();
            cached.label_batch(&ids);
            assert_eq!(store.cached_verdicts("emails", key), 500);
        }
    }

    // v2: same shape, inverted labels — different data under the same name.
    let n = 10_000;
    let labels: Vec<bool> = (0..n).map(|i| i % 4 != 0).collect();
    let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
    let values: Vec<f64> = (0..n).map(|i| (i % 9) as f64 + 100.0).collect();
    catalog.register_table(
        Table::builder("emails", values).predicate("is_spam", labels, proxy).build().unwrap(),
    );
    let store = catalog.label_store().expect("cache survives");
    for key in ["k1", "k2"] {
        assert_eq!(
            store.cached_verdicts("emails", key),
            0,
            "register_table must drop the replaced table's `{key}` verdicts"
        );
    }

    // A query over v2 through an engine adopting the catalog labels
    // fresh; rerunning it proves the query layer's own key round-trips
    // through the store (warm second run), so the first run's zero hits
    // demonstrates invalidation, not a key mismatch.
    let engine = EngineBuilder::from_catalog(catalog).bootstrap_trials(100).seed(13).build();
    let sql = "SELECT AVG(x) FROM emails WHERE is_spam ORACLE LIMIT 1000";
    let v2 = run(&engine, sql, 0);
    assert_eq!(v2.cache_hits, 0, "stale v1 verdicts must not serve v2 queries");
    assert!(v2.oracle_calls > 0, "v2 must be labeled fresh");
    assert!(
        v2.estimate() > 50.0,
        "estimate {} reflects v1's statistic, not v2's",
        v2.estimate()
    );
    let warm = run(&engine, sql, 0);
    assert_eq!(warm.oracle_calls, 0, "the v2 verdicts themselves are cached normally");
    assert_eq!(warm.cache_hits, v2.cache_misses);
}

#[test]
fn disabling_the_cache_restores_fresh_labeling() {
    // Two engines over the same data and seed, cache on vs off: the
    // cacheless engine pays full price on every run with zeroed cache
    // accounting, and the answers agree bit for bit.
    let sql = "SELECT AVG(x) FROM emails WHERE is_spam ORACLE LIMIT 1000";
    let cached = engine(10_000, true, 9, ExecOptions::sequential());
    let first = run(&cached, sql, 0);
    assert!(first.cache_misses > 0);

    let fresh = engine(10_000, false, 9, ExecOptions::sequential());
    for _ in 0..2 {
        let r = run(&fresh, sql, 0);
        assert_eq!(r.oracle_calls, first.oracle_calls, "fresh labeling pays full price");
        assert_eq!((r.cache_hits, r.cache_misses), (0, 0));
        assert_eq!(r.rows, first.rows, "caching never changes answers");
    }
}

/// Hides [`Oracle::stored_labels`] from the pipeline: the per-chunk path,
/// where every chunk of draws reaches the store's `label_batch`.
struct PerChunk<'a, O>(&'a O);

impl<O: Oracle> Oracle for PerChunk<'_, O> {
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

/// Forwards everything and records each labeling request's size and the
/// number of records the store answered for it.
struct Requests<O> {
    inner: O,
    seen: Mutex<Vec<(usize, usize)>>,
}

impl<O: Oracle> Oracle for Requests<O> {
    fn label_batch(&self, indices: &[usize]) -> Vec<Labeled> {
        self.inner.label_batch(indices)
    }

    fn stored_labels(&self, indices: &[usize]) -> Vec<(usize, Labeled)> {
        let stored = self.inner.stored_labels(indices);
        self.seen.lock().unwrap().push((indices.len(), stored.len()));
        stored
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }

    fn reset_calls(&self) {
        self.inner.reset_calls()
    }
}

#[test]
fn packed_misses_match_the_per_chunk_path_bit_for_bit() {
    // The stack a scalar statement labels through —
    // `CachedOracle<GovernedOracle<expression oracle>>` — running a
    // blocking three-aggregate statement over a store a different draw
    // left partly warm. The per-chunk run hides `stored_labels` behind an
    // outer wrapper; everything but the invocation count must agree.
    let table = spam_table(20_000);
    let expr = PredExpr::Pred(0);
    let strata = Stratification::by_proxy_quantile(table.predicates()[0].proxy(), 5);
    let aggs = [Aggregate::Count, Aggregate::Sum, Aggregate::Avg];
    for exec in [ExecOptions::default(), ExecOptions::new(1, 7), ExecOptions::new(8, 256)] {
        let config = AbaeConfig {
            strata: 5,
            budget: 2000,
            bootstrap: BootstrapConfig { trials: 100, alpha: 0.05 },
            exec,
            ..Default::default()
        };
        let run = |hide: bool| {
            let store = LabelStore::new();
            let warm = CachedOracle::new(
                expression_oracle(&table, &expr).unwrap(),
                &store,
                "emails",
                "is_spam",
            );
            let mut rng = StdRng::seed_from_u64(11);
            run_abae_stratified(&strata, &warm, &config, &aggs, None, &mut rng, |_| {}).unwrap();

            let batcher = OracleBatcher::new(BatcherOptions::default());
            let governed = GovernedOracle::new(
                expression_oracle(&table, &expr).unwrap(),
                Some(&batcher),
                "emails/is_spam",
                3,
            );
            let cached = Requests {
                inner: CachedOracle::new(governed, &store, "emails", "is_spam"),
                seen: Mutex::new(Vec::new()),
            };
            let mut rng = StdRng::seed_from_u64(12);
            let result = if hide {
                run_abae_stratified(
                    &strata,
                    &PerChunk(&cached),
                    &config,
                    &aggs,
                    None,
                    &mut rng,
                    |_| {},
                )
            } else {
                run_abae_stratified(&strata, &cached, &config, &aggs, None, &mut rng, |_| {})
            }
            .unwrap();
            let counts = (cached.inner.hits(), cached.inner.misses(), store.hits(), store.misses());
            let requests = cached.seen.into_inner().unwrap();
            (result, counts, batcher.stats(), batcher.per_session_spend(), requests)
        };

        let (packed, counts, stats, spend, requests) = run(false);
        let (per_chunk, chunk_counts, chunk_stats, chunk_spend, _) = run(true);
        assert_eq!(packed, per_chunk, "{exec:?}");
        assert_eq!(packed.oracle_calls, per_chunk.oracle_calls, "{exec:?}");
        assert_eq!(counts, chunk_counts, "{exec:?}: hits and misses, per query and lifetime");
        assert_eq!(spend, chunk_spend, "{exec:?}: per-session spend");
        assert_eq!(stats.labeled_records, chunk_stats.labeled_records, "{exec:?}");
        let (hits, misses) = (counts.0, counts.1);
        assert!(hits > 0 && misses > 0, "{exec:?}: the store must be partly warm");

        // One request per stage; each packs its misses into full batches.
        let batch = exec.batch_size.max(1);
        assert_eq!(requests.len(), 2, "{exec:?}: stage 1 and stage 2");
        let expected: usize = requests.iter().map(|&(n, held)| (n - held).div_ceil(batch)).sum();
        assert_eq!(stats.invocations, expected as u64, "{exec:?}");
        assert!(stats.invocations <= chunk_stats.invocations, "{exec:?}");
        assert_eq!(requests.iter().map(|&(_, held)| held as u64).sum::<u64>(), hits);
    }
}
