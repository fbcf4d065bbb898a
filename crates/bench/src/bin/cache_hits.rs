//! Cross-query label-cache hit-rate sweep (beyond the paper's figures).
//!
//! A Figure-1-style dashboard issues several aggregates over the same
//! table and predicate; the paper's cost model says every one of those
//! oracle invocations is the dominant expense. With the catalog's
//! `LabelStore` enabled, each round of queries reuses the verdicts bought
//! by earlier rounds, so the marginal cost of a repeated dashboard decays
//! toward zero. This binary measures that decay: per round, the oracle
//! calls actually spent, the cache hits, the cumulative hit rate, and the
//! device invocations the misses took (the engine batcher's counter).
//! Store hits are answered once per labeling request and only the misses
//! are cut into batches, so invocations fall with the miss count instead
//! of staying at one per chunk of draws.
//!
//! Each round runs in a fresh session (its own deterministic RNG stream
//! derived from the engine seed), so the sampled records differ between
//! rounds — the hit rate measured here is the realistic partial-overlap
//! case, not the trivial identical-replay case (which
//! `tests/label_store.rs` pins at exactly 0 extra calls).

use abae_bench::artifact::emit_artifact;
use abae_bench::config::ExpConfig;
use abae_data::emulators::{trec05p, EmulatorOptions};
use abae_query::Engine;

fn main() {
    let cfg = ExpConfig::from_env();
    cfg.banner(
        "cache_hits — cross-query label-cache hit-rate sweep",
        "beyond the paper: LabelStore (cf. §5.1 oracle-dominated cost)",
    );

    let table = trec05p(&EmulatorOptions { scale: cfg.scale.max(0.02), seed: cfg.seed });
    let records = table.len();
    let engine = Engine::builder().table(table).label_cache(true).seed(cfg.seed).build();

    // The dashboard: one multi-aggregate query (one labeling pass answers
    // all three) plus a narrower follow-up at a smaller budget.
    let dashboard = [
        "SELECT COUNT(*), SUM(links), AVG(links) FROM trec05p WHERE is_spam \
         ORACLE LIMIT 4000 WITH PROBABILITY 0.95",
        "SELECT AVG(links) FROM trec05p WHERE is_spam ORACLE LIMIT 2000",
    ];

    let rounds = cfg.trials.clamp(2, 25);
    println!("dataset    : trec05p emulator, {records} records");
    println!("dashboard  : {} statements/round, {rounds} rounds\n", dashboard.len());
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>15} {:>15}",
        "round", "oracle", "hits", "misses", "invocations", "round hit%", "cumulative hit%"
    );

    let store = engine.label_store().expect("cache enabled above");
    let mut points: Vec<String> = Vec::new();
    for round in 0..rounds {
        // A fresh session per round = a fresh deterministic RNG stream,
        // so the sampled records differ between rounds.
        let mut session = engine.session();
        let invocations_before = engine.stats().batcher.invocations;
        let (mut calls, mut hits, mut misses) = (0u64, 0u64, 0u64);
        for sql in &dashboard {
            let r = session.execute(sql).expect("dashboard query executes");
            calls += r.oracle_calls;
            hits += r.cache_hits;
            misses += r.cache_misses;
        }
        let invocations = engine.stats().batcher.invocations - invocations_before;
        let lifetime = store.hits() + store.misses();
        let round_pct = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
        let cumulative_pct = 100.0 * store.hits() as f64 / lifetime.max(1) as f64;
        println!(
            "{:>5} {:>12} {:>12} {:>12} {:>12} {:>14.1}% {:>14.1}%",
            round + 1,
            calls,
            hits,
            misses,
            invocations,
            round_pct,
            cumulative_pct,
        );
        points.push(format!(
            "{{\"round\":{},\"oracle_calls\":{calls},\"hits\":{hits},\"misses\":{misses},\
             \"invocations\":{invocations},\"round_hit_pct\":{round_pct:.2},\
             \"cumulative_hit_pct\":{cumulative_pct:.2}}}",
            round + 1,
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    emit_artifact(
        "cache_hits",
        &format!(
            "{{\"bench\":\"cache_hits\",\"records\":{records},\"rounds\":{rounds},\
             \"seed\":{},\"nproc\":{nproc},\"batch_size\":{},\"verdicts_cached\":{},\
             \"points\":[{}]}}",
            cfg.seed,
            engine.options().exec.batch_size,
            store.misses(),
            points.join(",")
        ),
        cfg.scale == ExpConfig::default().scale && rounds == 25,
    );

    println!(
        "\nverdicts cached: {} distinct records ({:.1}% of the table) — every one paid for once",
        store.misses(),
        100.0 * store.misses() as f64 / records as f64
    );
    println!("expected shape : round 1 hits come only from intra-round reuse (the second");
    println!("                 statement re-draws records the first already labeled); later");
    println!("                 rounds climb as the store covers the proxy-favored strata,");
    println!("                 and oracle spend and device invocations per round decay.");
}
