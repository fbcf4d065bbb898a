//! `qps` — query throughput vs concurrent session count, in-process and
//! over the Postgres wire.
//!
//! The ROADMAP's north star is a serving system, so the interesting
//! number is not records/sec through one labeling pipeline (see the
//! `throughput` bin) but **queries/sec across many clients sharing one
//! engine and one label cache**. This sweep opens N sessions, hands each
//! its own OS thread, and measures the dashboard-refresh workload four
//! ways:
//!
//! * **prepared** — each session prepares one statement and re-runs it
//!   (the fastest in-process path; no re-parsing or re-planning).
//! * **execute** — each session re-parses and re-plans per query via
//!   `Session::run`, which is exactly the work a wire query triggers —
//!   the apples-to-apples in-process baseline for the wire mode.
//! * **wire** — N real TCP connections to an in-process `abae-server`,
//!   each a `WireClient` sending the same SQL; quantifies the serving
//!   overhead (framing + socket round-trip) the ROADMAP asks to track.
//! * **tenants** — a fairness scenario rather than a sweep: one greedy
//!   tenant running double-budget queries shares a *governed* engine
//!   (oracle batcher coalescing on, simulated invocation cost, bounded
//!   batches, the greedy session quota-capped) with three fair tenants;
//!   records per-tenant oracle spend and p50/p95 query latency, and
//!   asserts the batcher's spend ledger matches each tenant's own accounting
//!   with nobody starved.
//! * **isolated** — each thread gets its own *private* engine (own
//!   catalog, own label store, zero shared state). This is the control
//!   for the scaling diagnosis: if shared-engine qps matches
//!   isolated-engine qps at every session count, the scaling ceiling is
//!   hardware parallelism, not a shared-lock serialization point.
//!
//! A warm-up query seeds each label store, so all modes are dominated by
//! real estimation work (stratification + bootstrap), not simulated
//! oracle latency.
//!
//! Output: one JSON object per line (machine-readable, like a metrics
//! scrape), after the human banner; the artifact gains a
//! `wire_overhead` series comparing wire qps to the execute baseline at
//! each session count.
//!
//! ```sh
//! cargo run --release -p abae_bench --bin qps
//! ABAE_QPS_QUERIES=100 ABAE_SCALE=0.2 cargo run --release -p abae_bench --bin qps
//! ABAE_QPS_MODES=prepared,wire cargo run --release -p abae_bench --bin qps
//! ```

use abae_bench::artifact::emit_artifact;
use abae_bench::config::ExpConfig;
use abae_data::emulators::{trec05p, EmulatorOptions};
use abae_query::Engine;
use abae_server::{Server, WireClient};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

const SESSION_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// (oracle_calls, cache_hits, cache_misses) summed over one thread's runs.
type Accounting = (u64, u64, u64);

fn add(a: Accounting, b: Accounting) -> Accounting {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2)
}

/// One sweep over [`SESSION_COUNTS`]: `run(n)` performs `n × queries` and
/// returns per-thread accounting; this wrapper times it and renders the
/// per-point JSON (speedup is relative to the sweep's own 1-session
/// point). Returns (points, qps-by-session-count).
fn run_sweep(
    mode: &str,
    queries_per_session: usize,
    mut run: impl FnMut(usize) -> Vec<Accounting>,
) -> (Vec<String>, Vec<f64>) {
    let mut baseline_qps: Option<f64> = None;
    let mut points = Vec::new();
    let mut qps_series = Vec::new();
    for &sessions in &SESSION_COUNTS {
        let start = Instant::now();
        let per_session = run(sessions);
        let elapsed = start.elapsed();
        let queries = (sessions * queries_per_session) as f64;
        let qps = queries / elapsed.as_secs_f64();
        let speedup = qps / *baseline_qps.get_or_insert(qps);
        let (calls, hits, misses) =
            per_session.into_iter().fold((0, 0, 0), add);
        let point = format!(
            "{{\"bench\":\"qps\",\"mode\":\"{mode}\",\"sessions\":{sessions},\
             \"queries\":{},\"elapsed_ms\":{:.3},\"qps\":{:.1},\
             \"speedup\":{:.3},\"oracle_calls\":{calls},\
             \"cache_hits\":{hits},\"cache_misses\":{misses}}}",
            sessions * queries_per_session,
            elapsed.as_secs_f64() * 1e3,
            qps,
            speedup,
        );
        println!("{point}");
        points.push(point);
        qps_series.push(qps);
    }
    (points, qps_series)
}

fn main() {
    let cfg = ExpConfig::from_env();
    cfg.banner(
        "qps — queries/sec vs concurrent session count (in-process and over the wire)",
        "beyond the paper: Engine/Session serving (cf. ROADMAP north star)",
    );
    let queries_per_session = env_usize("ABAE_QPS_QUERIES", 20);
    let budget = env_usize("ABAE_QPS_BUDGET", 2000);
    let greedy_queries = env_usize("ABAE_QPS_GREEDY_QUERIES", 4);
    let fair_queries = env_usize("ABAE_QPS_FAIR_QUERIES", 8);
    let all_modes = "prepared,execute,wire,isolated,tenants";
    let modes = std::env::var("ABAE_QPS_MODES").unwrap_or_else(|_| all_modes.to_string());
    let default_scale = cfg.scale == ExpConfig::default().scale
        && (queries_per_session, budget, greedy_queries, fair_queries) == (20, 2000, 4, 8)
        && modes == all_modes;
    let enabled = |m: &str| modes.split(',').any(|s| s.trim() == m);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);

    let scale = cfg.scale.max(0.02);
    let table = trec05p(&EmulatorOptions { scale, seed: cfg.seed });
    let records = table.len();
    let engine = Engine::builder().table(table).label_cache(true).seed(cfg.seed).build();
    let sql = format!(
        "SELECT COUNT(*), AVG(links) FROM trec05p WHERE is_spam ORACLE LIMIT {budget}"
    );

    // Warm the label store once so the sweep measures serving throughput,
    // not first-touch oracle labeling.
    let warm = engine.session().execute(&sql).expect("warm-up query executes");
    eprintln!(
        "# warm-up: {} oracle calls over {records} records; \
         {queries_per_session} queries/session at budget {budget}; {nproc} cores",
        warm.oracle_calls
    );

    // Shared-engine sweep on the prepared path (the historical series).
    let mut prepared_points = Vec::new();
    if enabled("prepared") {
        (prepared_points, _) = run_sweep("prepared", queries_per_session, |n| {
            let mut handles: Vec<_> = (0..n).map(|_| engine.session()).collect();
            std::thread::scope(|scope| {
                let join: Vec<_> = handles
                    .iter_mut()
                    .map(|session| {
                        let sql = &sql;
                        scope.spawn(move || {
                            let stmt = session.prepare(sql).expect("statement plans");
                            let mut acct = (0, 0, 0);
                            for _ in 0..queries_per_session {
                                let r = stmt.run().expect("prepared statement runs");
                                acct = add(acct, (r.oracle_calls, r.cache_hits, r.cache_misses));
                            }
                            acct
                        })
                    })
                    .collect();
                join.into_iter().map(|h| h.join().expect("session thread")).collect()
            })
        });
    }

    // Shared-engine sweep on the parse-per-query path — what one wire
    // query costs minus the network, so the wire overhead is attributable.
    let mut execute_points = Vec::new();
    let mut execute_qps = Vec::new();
    if enabled("execute") {
        (execute_points, execute_qps) = run_sweep("execute", queries_per_session, |n| {
            let mut handles: Vec<_> = (0..n).map(|_| engine.session()).collect();
            std::thread::scope(|scope| {
                let join: Vec<_> = handles
                    .iter_mut()
                    .map(|session| {
                        let sql = &sql;
                        scope.spawn(move || {
                            let mut acct = (0, 0, 0);
                            for _ in 0..queries_per_session {
                                let r = session.execute(sql).expect("query runs");
                                acct = add(acct, (r.oracle_calls, r.cache_hits, r.cache_misses));
                            }
                            acct
                        })
                    })
                    .collect();
                join.into_iter().map(|h| h.join().expect("session thread")).collect()
            })
        });
    }

    // Over-the-wire sweep: same engine, but every query crosses a real
    // TCP socket through the pgwire server. Connection setup happens
    // outside the timed region — the series prices the per-query serving
    // overhead, not the handshake.
    let mut wire_points = Vec::new();
    let mut wire_qps = Vec::new();
    if enabled("wire") {
        let server = Server::bind(engine.clone(), "127.0.0.1:0")
            .expect("bind ephemeral port")
            .spawn()
            .expect("spawn pgwire server");
        let addr = server.addr();
        (wire_points, wire_qps) = run_sweep("wire", queries_per_session, |n| {
            let mut clients: Vec<_> = (0..n)
                .map(|_| WireClient::connect(addr).expect("wire client connects"))
                .collect();
            std::thread::scope(|scope| {
                let join: Vec<_> = clients
                    .iter_mut()
                    .map(|client| {
                        let sql = &sql;
                        scope.spawn(move || {
                            let mut acct = (0, 0, 0);
                            for _ in 0..queries_per_session {
                                let out = client.query(sql).expect("wire query runs");
                                assert!(out.error.is_none(), "wire query failed: {:?}", out.error);
                                // Accounting rides in the result columns.
                                let col = |i| {
                                    out.text(0, i)
                                        .and_then(|v| v.parse::<u64>().ok())
                                        .unwrap_or(0)
                                };
                                acct = add(acct, (col(5), col(6), col(7)));
                            }
                            acct
                        })
                    })
                    .collect();
                join.into_iter().map(|h| h.join().expect("client thread")).collect()
            })
        });
        server.shutdown();
    }

    // Isolated control: one *private* engine per thread — no shared label
    // store, no shared catalog, no shared anything — on the prepared
    // path, warmed before the clock so every measured run replays cached
    // draws exactly like the shared `prepared` sweep's repeat runs. The
    // only remaining difference from `prepared` is whether the label
    // store's locks are shared across threads; if this curve matches the
    // shared-engine curve, the scaling ceiling is hardware parallelism,
    // not a shared-lock serialization point.
    let mut isolated_points = Vec::new();
    if enabled("isolated") {
        // All setup — private table generation, engine build, warm-up run —
        // happens before the sweep so the timed region measures nothing
        // but `stmt.run()` (re-runs are deterministic replays, so reusing
        // the statements across sweep points changes nothing).
        let max_sessions = SESSION_COUNTS.iter().copied().max().unwrap_or(1);
        let mut stmts: Vec<_> = (0..max_sessions)
            .map(|_| {
                let table = trec05p(&EmulatorOptions { scale, seed: cfg.seed });
                let private = Engine::builder()
                    .table(table)
                    .label_cache(true)
                    .seed(cfg.seed)
                    .build();
                let stmt = private
                    .session()
                    .prepare(&sql)
                    .expect("private statement plans");
                stmt.run().expect("private warm-up");
                stmt
            })
            .collect();
        (isolated_points, _) = run_sweep("isolated", queries_per_session, |n| {
            std::thread::scope(|scope| {
                let join: Vec<_> = stmts[..n]
                    .iter_mut()
                    .map(|stmt| {
                        scope.spawn(move || {
                            let mut acct = (0, 0, 0);
                            for _ in 0..queries_per_session {
                                let r = stmt.run().expect("prepared statement runs");
                                acct = add(acct, (r.oracle_calls, r.cache_hits, r.cache_misses));
                            }
                            acct
                        })
                    })
                    .collect();
                join.into_iter().map(|h| h.join().expect("session thread")).collect()
            })
        });
    }

    // Multi-tenant fairness scenario: one greedy tenant hammering
    // double-budget queries shares a *governed* oracle (coalescing on,
    // 100µs serialized cost per invocation, bounded batches) with three
    // fair tenants refreshing small dashboards. The batcher's fair-share
    // admission — FIFO order, front ticket always admitted, the greedy
    // session quota-capped per contended batch — must keep the fair
    // tenants flowing while every tenant's oracle spend stays exactly
    // attributable. Recorded: per-tenant spend and p50/p95 query latency.
    let mut tenants_json = String::new();
    if enabled("tenants") {
        use abae_query::BatcherOptions;
        use std::time::Duration;

        let greedy_id: u64 = 1000;
        let fair_ids: [u64; 3] = [1, 2, 3];
        let greedy_budget = budget * 2;
        let fair_budget = (budget / 5).max(100);

        let table = trec05p(&EmulatorOptions { scale, seed: cfg.seed });
        // Pipeline chunks of 32 records keep every ticket within the
        // 64-record batch cap, so contended batches actually carry more
        // than one tenant and the greedy quota has something to cap.
        let tenant_engine = Engine::builder()
            .table(table)
            .seed(cfg.seed)
            .bootstrap_trials(50)
            .exec(abae_core::pipeline::ExecOptions::default().with_batch_size(32))
            .batcher(
                BatcherOptions::default()
                    .with_coalesce(true)
                    .with_invocation_overhead(Duration::from_micros(100))
                    .with_max_batch_records(64),
            )
            .build();
        // The priority knob: cap the greedy tenant's guaranteed share of
        // every contended batch so it cannot crowd the fair tenants out.
        tenant_engine.set_session_quota(greedy_id, 16);

        let tenant_sql = |tenant_budget: usize| {
            format!(
                "SELECT COUNT(*), AVG(links) FROM trec05p WHERE is_spam \
                 ORACLE LIMIT {tenant_budget}"
            )
        };
        // Per-tenant run: latency per query plus the tenant's own
        // oracle-call accounting, to check against the batcher's ledger.
        let drive = |mut session: abae_query::Session, sql: String, queries: usize| {
            let mut latencies = Vec::with_capacity(queries);
            let mut spend = 0u64;
            for _ in 0..queries {
                let start = Instant::now();
                let r = session.execute(&sql).expect("tenant query runs");
                latencies.push(start.elapsed());
                spend += r.oracle_calls;
            }
            latencies.sort_unstable();
            (latencies, spend)
        };
        let pct = |sorted: &[std::time::Duration], p: usize| {
            sorted[(sorted.len() * p / 100).min(sorted.len() - 1)].as_secs_f64() * 1e3
        };

        let (greedy_run, fair_runs) = std::thread::scope(|scope| {
            let greedy = {
                let session = tenant_engine.session_with_id(greedy_id);
                let sql = tenant_sql(greedy_budget);
                scope.spawn(move || drive(session, sql, greedy_queries))
            };
            let fair: Vec<_> = fair_ids
                .iter()
                .map(|&id| {
                    let session = tenant_engine.session_with_id(id);
                    let sql = tenant_sql(fair_budget);
                    scope.spawn(move || drive(session, sql, fair_queries))
                })
                .collect();
            (
                greedy.join().expect("greedy tenant thread"),
                fair.into_iter()
                    .map(|h| h.join().expect("fair tenant thread"))
                    .collect::<Vec<_>>(),
            )
        });

        // The batcher's per-session ledger must agree exactly with each
        // tenant's own accounting — spend attribution survives coalescing.
        let stats = tenant_engine.stats();
        let ledger: std::collections::BTreeMap<u64, u64> =
            stats.per_session_spend.iter().copied().collect();
        assert_eq!(ledger.get(&greedy_id), Some(&greedy_run.1), "greedy spend ledger");
        for (&id, run) in fair_ids.iter().zip(&fair_runs) {
            assert_eq!(ledger.get(&id), Some(&run.1), "fair tenant {id} spend ledger");
            assert!(run.1 > 0, "fair tenant {id} starved: zero oracle spend");
            assert_eq!(run.0.len(), fair_queries, "fair tenant {id} dropped queries");
        }

        let fair_points: Vec<String> = fair_ids
            .iter()
            .zip(&fair_runs)
            .map(|(&id, (lat, spend))| {
                format!(
                    "{{\"session\":{id},\"queries\":{fair_queries},\
                     \"budget\":{fair_budget},\"oracle_spend\":{spend},\
                     \"p50_ms\":{:.3},\"p95_ms\":{:.3}}}",
                    pct(lat, 50),
                    pct(lat, 95)
                )
            })
            .collect();
        tenants_json = format!(
            "{{\"greedy\":{{\"session\":{greedy_id},\"queries\":{greedy_queries},\
             \"budget\":{greedy_budget},\"quota_records\":16,\"oracle_spend\":{},\
             \"p50_ms\":{:.3},\"p95_ms\":{:.3}}},\
             \"fair\":[{}],\
             \"invocations\":{},\"shared_batches\":{},\"coalesced_requests\":{},\
             \"no_starvation\":true}}",
            greedy_run.1,
            pct(&greedy_run.0, 50),
            pct(&greedy_run.0, 95),
            fair_points.join(","),
            stats.batcher.invocations,
            stats.batcher.shared_batches,
            stats.batcher.coalesced_requests,
        );
        println!("{{\"bench\":\"qps\",\"mode\":\"tenants\",\"tenants\":{tenants_json}}}");
    }

    // Wire overhead per session count: execute (in-process, parse per
    // query) vs wire (same work over TCP).
    let mut overhead = Vec::new();
    for (i, &sessions) in SESSION_COUNTS.iter().enumerate() {
        if let (Some(&ip), Some(&w)) = (execute_qps.get(i), wire_qps.get(i)) {
            let point = format!(
                "{{\"sessions\":{sessions},\"in_process_qps\":{ip:.1},\
                 \"wire_qps\":{w:.1},\"overhead\":{:.3}}}",
                ip / w
            );
            println!("{point}");
            overhead.push(point);
        }
    }

    emit_artifact(
        "qps",
        &format!(
            "{{\"bench\":\"qps\",\"records\":{records},\"budget\":{budget},\
             \"queries_per_session\":{queries_per_session},\"seed\":{},\
             \"nproc\":{nproc},\
             \"points\":[{}],\
             \"execute_points\":[{}],\
             \"wire_points\":[{}],\
             \"isolated_points\":[{}],\
             \"wire_overhead\":[{}],\
             \"tenants\":{}}}",
            cfg.seed,
            prepared_points.join(","),
            execute_points.join(","),
            wire_points.join(","),
            isolated_points.join(","),
            overhead.join(","),
            if tenants_json.is_empty() { "null".to_string() } else { tenants_json }
        ),
        default_scale,
    );
    eprintln!(
        "# expected shape: qps tracks min(sessions, cores) — on a multi-core box the \
         curves grow to the core count; on a 1-core box every curve is flat at \
         speedup ~1.0, and the isolated-engines control matching the shared-engine \
         curves is the proof that the ceiling is hardware parallelism, not a shared \
         lock. Wire overhead prices pgwire framing + TCP round-trip against the \
         identical in-process call."
    );
}
