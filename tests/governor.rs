//! Oracle-batcher (governor) acceptance tests — the cross-session
//! coalescing contract:
//!
//! * **bit-identity** — per-session estimates, CIs, and oracle-call
//!   accounting are identical with the governor off (serial replay) and
//!   on (concurrent sessions sharing device invocations), at 1/4/8
//!   concurrent sessions, in-process and over the Postgres wire. The
//!   batcher changes invocation grouping and timing only.
//! * **fair-share admission** — a greedy tenant under a per-session
//!   quota cannot starve fair tenants, and the batcher's per-session
//!   spend ledger agrees exactly with each session's own accounting.
//! * **cache-aware scheduling** — label-store hits are served without
//!   consuming batch slots: a warm replay admits nothing and reports its
//!   hits as `cache_served`.
//!
//! The engines here build with default [`ExecOptions`], so CI's
//! `ABAE_THREADS=1/8` matrix exercises every test at both thread counts.

use abae::core::BatcherOptions;
use abae::core::pipeline::ExecOptions;
use abae::data::Table;
use abae::query::{Engine, QueryResult};
use abae::server::{Server, WireClient};
use std::time::Duration;

/// Deterministic corpus: ~25% positives, informative proxy.
fn spam_table(n: usize) -> Table {
    let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
    let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
    let values: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
    Table::builder("emails", values)
        .predicate("is_spam", labels, proxy)
        .build()
        .unwrap()
}

fn engine(seed: u64, governor: bool, overhead: Duration) -> Engine {
    Engine::builder()
        .table(spam_table(20_000))
        .bootstrap_trials(50)
        .seed(seed)
        .governor(governor)
        .oracle_overhead(overhead)
        .build()
}

/// Each session's statement mix depends on its id, so sessions genuinely
/// differ and a cross-session mixup cannot cancel out.
fn statement_mix(session_id: u64) -> Vec<String> {
    let budget = 600 + 150 * (session_id % 3);
    vec![
        format!("SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT {budget}"),
        format!(
            "SELECT COUNT(*), SUM(nb_links) FROM emails WHERE is_spam ORACLE LIMIT {}",
            budget / 2
        ),
    ]
}

/// Runs session ids 1..=n serially, one statement mix each.
fn run_serial(engine: &Engine, sessions: usize) -> Vec<Vec<QueryResult>> {
    (1..=sessions as u64)
        .map(|id| {
            let mut session = engine.session_with_id(id);
            statement_mix(id)
                .iter()
                .map(|sql| session.execute(sql).expect("serial query"))
                .collect()
        })
        .collect()
}

/// Runs the same session ids concurrently, one OS thread each.
fn run_concurrent(engine: &Engine, sessions: usize) -> Vec<Vec<QueryResult>> {
    std::thread::scope(|scope| {
        let join: Vec<_> = (1..=sessions as u64)
            .map(|id| {
                let mut session = engine.session_with_id(id);
                scope.spawn(move || {
                    statement_mix(id)
                        .iter()
                        .map(|sql| session.execute(sql).expect("concurrent query"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        join.into_iter().map(|h| h.join().expect("session thread")).collect()
    })
}

/// The tentpole contract: coalescing under a serialized 50µs device cost
/// changes nothing a session can observe — estimates, CIs, and oracle
/// accounting replay bit-identically against a governor-less serial run,
/// at every concurrency level.
#[test]
fn governed_concurrent_sessions_match_ungoverned_serial_replay() {
    let baseline = engine(42, false, Duration::ZERO);
    let governed = engine(42, true, Duration::from_micros(50));
    for sessions in [1usize, 4, 8] {
        let serial = run_serial(&baseline, sessions);
        let concurrent = run_concurrent(&governed, sessions);
        assert_eq!(
            serial, concurrent,
            "{sessions} governed concurrent sessions must replay the serial results"
        );
    }
    // The governed engine really did route everything through admission:
    // the ledger covers every labeled record, per session.
    let stats = governed.stats();
    let ledger_total: u64 = stats.per_session_spend.iter().map(|&(_, n)| n).sum();
    assert_eq!(ledger_total, stats.batcher.labeled_records);
    assert!(stats.batcher.requests >= stats.batcher.invocations);
    // Every request either rode alone (a solo invocation) or rode in a
    // shared batch (counted in coalesced_requests, leader included).
    assert_eq!(
        stats.batcher.requests,
        (stats.batcher.invocations - stats.batcher.shared_batches)
            + stats.batcher.coalesced_requests,
    );
}

/// GROUP BY routes through the same admission path (its own governor key)
/// and must obey the same bit-identity contract.
fn grouped_table(n: usize) -> Table {
    let key: Vec<Option<u16>> = (0..n)
        .map(|i| match i % 5 {
            0 => Some(0),
            1 => Some(1),
            _ => None,
        })
        .collect();
    let mut labels: Vec<Vec<bool>> = vec![Vec::new(); 2];
    let mut proxies: Vec<Vec<f64>> = vec![Vec::new(); 2];
    for g in &key {
        for j in 0..2u16 {
            let member = *g == Some(j);
            labels[j as usize].push(member);
            proxies[j as usize].push(if member { 0.8 } else { 0.2 });
        }
    }
    let values: Vec<f64> = key
        .iter()
        .enumerate()
        .map(|(i, g)| g.map_or(0.0, |g| 10.0 * (g + 1) as f64) + (i % 3) as f64)
        .collect();
    Table::builder("images", values)
        .predicate("is_gray", std::mem::take(&mut labels[0]), std::mem::take(&mut proxies[0]))
        .predicate("is_blond", std::mem::take(&mut labels[1]), std::mem::take(&mut proxies[1]))
        .group_key(vec!["gray".into(), "blond".into()], key)
        .build()
        .unwrap()
}

#[test]
fn groupby_is_bit_identical_under_the_governor() {
    let build = |governor: bool| {
        Engine::builder()
            .table(grouped_table(10_000))
            .bind_predicate("images", "hair=gray", "is_gray")
            .bind_predicate("images", "hair=blond", "is_blond")
            .bootstrap_trials(50)
            .seed(7)
            .governor(governor)
            .oracle_overhead(if governor { Duration::from_micros(50) } else { Duration::ZERO })
            .build()
    };
    let sql = "SELECT AVG(smile), hair FROM images \
               WHERE hair(img) = 'gray' OR hair(img) = 'blond' \
               GROUP BY hair(img) ORACLE LIMIT 1200";
    let baseline = build(false);
    let governed = build(true);
    let serial: Vec<QueryResult> = (1..=4u64)
        .map(|id| baseline.session_with_id(id).execute(sql).expect("serial group-by"))
        .collect();
    let concurrent: Vec<QueryResult> = std::thread::scope(|scope| {
        let join: Vec<_> = (1..=4u64)
            .map(|id| {
                let mut s = governed.session_with_id(id);
                scope.spawn(move || s.execute(sql).expect("concurrent group-by"))
            })
            .collect();
        join.into_iter().map(|h| h.join().expect("thread")).collect()
    });
    assert_eq!(serial, concurrent);
    assert!(governed.stats().batcher.labeled_records > 0, "group-by must route through admission");
}

/// Bit-identity over the Postgres wire: the same session ids on a plain
/// and a governed server answer byte-identical rows (the server renders
/// floats in shortest-round-trip form, so string equality is bit
/// equality). Clients connect sequentially — accept order is session-id
/// order — then query concurrently.
#[test]
fn wire_results_are_bit_identical_with_the_governor_on() {
    let sql = "SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 500";
    let rows_by_session = |governor: bool| {
        let server = Server::bind(
            engine(11, governor, if governor { Duration::from_micros(50) } else { Duration::ZERO }),
            "127.0.0.1:0",
        )
        .expect("bind")
        .spawn()
        .expect("spawn server");
        let addr = server.addr();
        let mut clients: Vec<WireClient> = (0..4)
            .map(|_| WireClient::connect(addr).expect("connect"))
            .collect();
        let mut results: Vec<(u32, Vec<Vec<Option<String>>>)> = std::thread::scope(|scope| {
            let join: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    scope.spawn(move || {
                        let pid = client.backend_pid();
                        let out = client.query(sql).expect("wire query");
                        assert!(out.error.is_none(), "{:?}", out.error);
                        (pid, out.rows)
                    })
                })
                .collect();
            join.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        server.shutdown();
        results.sort_by_key(|&(pid, _)| pid);
        results
    };
    assert_eq!(rows_by_session(false), rows_by_session(true));
}

/// `SHOW STATS` surfaces the batcher counters, the per-session spend
/// ledger and the strata cache's counters over the wire.
#[test]
fn show_stats_reports_the_governor_over_the_wire() {
    let server = Server::bind(engine(13, true, Duration::ZERO), "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn server");
    let mut client = WireClient::connect(server.addr()).expect("connect");
    let out = client
        .query(
            "SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 300 USING is_spam; \
             SHOW STATS",
        )
        .expect("query + stats");
    assert!(out.error.is_none(), "{:?}", out.error);
    let stat = |name: &str| -> u64 {
        out.rows
            .iter()
            .find(|row| row[0].as_deref() == Some(name))
            .and_then(|row| row[1].as_deref())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("SHOW STATS missing `{name}`: {:?}", out.rows))
    };
    assert_eq!(stat("sessions_opened"), 1);
    assert!(stat("batcher.requests") > 0, "labeling must route through admission");
    assert_eq!(stat("batcher.labeled_records"), stat("session.0.oracle_spend"));
    let strata = ["builds", "hits", "records"].map(|s| stat(&format!("strata_cache.{s}")));
    assert_eq!(strata, [1, 0, 20_000], "one stratification of the is_spam column");
    assert!(out.tags.iter().any(|t| t.starts_with("SHOW STATS")), "{:?}", out.tags);
    server.shutdown();
}

/// Starvation regression: a greedy tenant with a double budget, capped by
/// a per-session quota inside bounded shared batches, cannot keep fair
/// tenants from completing — and the batcher's ledger attributes every
/// tenant's spend exactly as the tenant's own `QueryResult`s counted it.
#[test]
fn quotas_prevent_starvation_and_keep_spend_exact() {
    let engine = Engine::builder()
        .table(spam_table(20_000))
        .bootstrap_trials(50)
        .seed(23)
        .exec(ExecOptions::default().with_batch_size(32))
        .batcher(
            BatcherOptions::default()
                .with_coalesce(true)
                .with_invocation_overhead(Duration::from_micros(100))
                .with_max_batch_records(64),
        )
        .build();
    let greedy_id = 99u64;
    engine.set_session_quota(greedy_id, 16);

    let (greedy_spend, fair_spends) = std::thread::scope(|scope| {
        let greedy = {
            let mut s = engine.session_with_id(greedy_id);
            scope.spawn(move || {
                (0..2)
                    .map(|_| {
                        s.execute("SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 2000")
                            .expect("greedy query")
                            .oracle_calls
                    })
                    .sum::<u64>()
            })
        };
        let fair: Vec<_> = (1..=2u64)
            .map(|id| {
                let mut s = engine.session_with_id(id);
                scope.spawn(move || {
                    (0..4)
                        .map(|_| {
                            s.execute(
                                "SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 300",
                            )
                            .expect("fair query")
                            .oracle_calls
                        })
                        .sum::<u64>()
                })
            })
            .collect();
        (
            greedy.join().expect("greedy thread"),
            fair.into_iter().map(|h| h.join().expect("fair thread")).collect::<Vec<u64>>(),
        )
    });

    let ledger: std::collections::BTreeMap<u64, u64> =
        engine.stats().per_session_spend.into_iter().collect();
    assert_eq!(ledger.get(&greedy_id), Some(&greedy_spend), "greedy ledger entry");
    for (id, spend) in (1..=2u64).zip(&fair_spends) {
        assert!(*spend > 0, "fair tenant {id} starved");
        assert_eq!(ledger.get(&id), Some(spend), "fair tenant {id} ledger entry");
    }
}

/// Cache-aware scheduling: with the label store warm, a prepared replay
/// draws the identical records, is answered entirely from the store, and
/// admits **nothing** — the hits are reported as `cache_served` instead
/// of consuming batch slots.
#[test]
fn warm_cache_replays_bypass_admission() {
    let engine = Engine::builder()
        .table(spam_table(20_000))
        .bootstrap_trials(50)
        .label_cache(true)
        .seed(31)
        .governor(true)
        .build();
    let stmt = engine
        .session()
        .prepare("SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 400")
        .expect("statement plans");
    let cold = stmt.run().expect("cold run");
    assert!(cold.cache_misses > 0);
    let after_cold = engine.stats();
    assert_eq!(after_cold.batcher.labeled_records, cold.cache_misses);

    let warm = stmt.run().expect("warm run");
    assert_eq!(warm.rows, cold.rows, "replay is bit-identical");
    assert_eq!(warm.oracle_calls, 0, "warm replay is free");
    let after_warm = engine.stats();
    assert_eq!(
        after_warm.batcher.labeled_records, after_cold.batcher.labeled_records,
        "store hits must not consume batch slots"
    );
    assert_eq!(
        after_warm.batcher.cache_served - after_cold.batcher.cache_served,
        warm.cache_hits,
        "hits are accounted as cache-served"
    );
}

/// `EXPLAIN` prints the governor line for engine sessions — coalescing
/// state and live counters — and stays side-effect-free.
#[test]
fn explain_prints_the_governor_state() {
    let sql = "SELECT AVG(nb_links) FROM emails WHERE is_spam ORACLE LIMIT 400";
    let on = engine(5, true, Duration::ZERO);
    let plan = on.session().explain(sql).expect("explain");
    assert!(plan.contains("coalescing on"), "{plan}");
    let off = engine(5, false, Duration::ZERO);
    let plan = off.session().explain(sql).expect("explain");
    assert!(plan.contains("coalescing off"), "{plan}");
    // Counters show up once traffic exists.
    let mut session = on.session_with_id(1);
    session.execute(sql).expect("query");
    let plan = session.explain(sql).expect("explain after traffic");
    let stats = on.stats();
    assert!(
        plan.contains(&format!("{} invocations for {} requests", stats.batcher.invocations, stats.batcher.requests)),
        "{plan}"
    );
}
