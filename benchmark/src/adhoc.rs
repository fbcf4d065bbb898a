//! `adhoc_wire`: two analysts sending ad-hoc SELECTs over pgwire.
//!
//! Two connections to `abae_server::Server` over loopback, one session
//! each, each sending a seeded stream of SELECTs drawn from one shared
//! mix: single and multi-aggregate statements over `trec05p` (52,578
//! records), some `USING` a proxy trained in set-up by `CREATE PROXY …
//! USING logistic CALIBRATED`, and `has_car`/`red_light` AND/OR/NOT
//! predicates over `night-street` at 0.1 scale (97,313 records). Budgets
//! are 1k–5k, the label store is on, and the batcher coalesces with a
//! simulated 1 ms per-invocation device cost. The mix is walked in blocks
//! of ten statements per (table, predicate), and both streams follow the
//! same block sequence, so the two connections label the same key at the
//! same time, which is when the batcher can share an invocation.

use crate::common::{derive, engine_builder, Answer, Cell, Kind, Phase, SetupTimes, Stmt, Truth};
use crate::replay::{self, session_seed, Counts};
use crate::trace::{attribute, Layers, Recorder, Span};
use crate::{Args, Report, Traced};
use abae_core::{BatcherOptions, BatcherStats};
use abae_data::emulators::{night_street, trec05p, EmulatorOptions};
use abae_query::{Engine, StatementOutcome};
use abae_server::{QueryOutcome, Server, WireClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Client connections (the host has 2 cores).
pub const CONNECTIONS: usize = 2;

/// Session that trains the proxy in set-up (connections get 0 and 1).
const SETUP_SESSION: u64 = 1000;

/// Statements per connection per second of `--seconds` (the two
/// connections answer 36–44 statements/s together on a 2-core Xeon VM).
const RATE: f64 = 18.0;

/// Statements per (table, predicate) block.
const BLOCK: usize = 10;

/// Set-ups per run. A set-up takes about a second (table builds and proxy
/// training) and varies by ±20% from one to the next, so `setup_s` takes
/// the median of five.
const SETUPS: usize = 5;

/// Simulated device cost of one oracle invocation.
const DEVICE_COST: Duration = Duration::from_millis(1);

const TRAIN: &str =
    "CREATE PROXY spamnet ON trec05p(is_spam) USING logistic CALIBRATED TRAIN LIMIT 2000";

/// One (table, predicate) of the mix with the SELECT lists and `USING`
/// clauses its statements draw from.
struct Key {
    table: &'static str,
    predicate: &'static str,
    aggregates: &'static [&'static str],
    using: &'static [&'static str],
}

const KEYS: [Key; 6] = [
    Key {
        table: "trec05p",
        predicate: "is_spam",
        aggregates: &[
            "AVG(links)",
            "COUNT(*), SUM(links), AVG(links)",
            "PERCENTAGE(links)",
            "SUM(links), AVG(links)",
        ],
        using: &["", " USING spamnet", " USING is_spam_kw2"],
    },
    Key {
        table: "trec05p",
        predicate: "is_spam_kw3",
        aggregates: &["AVG(links)", "COUNT(*)", "SUM(links), COUNT(*)"],
        using: &["", " USING spamnet"],
    },
    Key {
        table: "night-street",
        predicate: "has_car AND red_light",
        aggregates: &["AVG(cars)", "COUNT(*), AVG(cars)", "SUM(cars)"],
        using: &["", " USING has_car"],
    },
    Key {
        table: "night-street",
        predicate: "has_car OR red_light",
        aggregates: &["AVG(cars)", "COUNT(*), SUM(cars)"],
        using: &[""],
    },
    Key {
        table: "night-street",
        predicate: "has_car AND NOT red_light",
        aggregates: &["AVG(cars)", "SUM(cars), COUNT(*)"],
        using: &[""],
    },
    Key {
        table: "night-street",
        predicate: "NOT has_car AND red_light",
        aggregates: &["COUNT(*)", "AVG(cars), COUNT(*)"],
        using: &[""],
    },
];

/// Each connection's SQL stream: a shared, seeded sequence of key blocks;
/// within a block every connection draws its own aggregates, `USING`
/// clause and budget (1000–5000 in steps of 500).
fn streams(seed: u64, per_connection: usize) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 20));
    let blocks = per_connection.div_ceil(BLOCK);
    let mut sequence = Vec::with_capacity(blocks + KEYS.len());
    while sequence.len() < blocks {
        let mut cycle: Vec<usize> = (0..KEYS.len()).collect();
        crate::common::shuffle(&mut cycle, &mut rng);
        sequence.extend(cycle);
    }
    (0..CONNECTIONS)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(derive(seed, 21 + c as u64));
            (0..per_connection)
                .map(|i| {
                    let key = &KEYS[sequence[i / BLOCK]];
                    let aggs = key.aggregates[rng.gen_range(0..key.aggregates.len())];
                    let using = key.using[rng.gen_range(0..key.using.len())];
                    let budget = 1000 + 500 * rng.gen_range(0..9usize);
                    format!(
                        "SELECT {aggs} FROM {} WHERE {} ORACLE LIMIT {budget}{using}",
                        key.table, key.predicate
                    )
                })
                .collect()
        })
        .collect()
}

/// Statements each connection sends.
fn per_connection(seconds: u64) -> usize {
    ((RATE * seconds as f64).round() as usize).max(20)
}

/// Builds the tables and the engine and trains the proxy.
fn set_up(seed: u64, start: Instant) -> (Engine, SetupTimes) {
    let spam = trec05p(&EmulatorOptions::default());
    let video = night_street(&EmulatorOptions {
        scale: 0.1,
        ..EmulatorOptions::default()
    });
    let table_s = start.elapsed().as_secs_f64();
    let engine = engine_builder(derive(seed, 13))
        .table(spam)
        .table(video)
        .label_cache(true)
        .batcher(
            BatcherOptions::default()
                .with_coalesce(true)
                .with_invocation_overhead(DEVICE_COST),
        )
        .build();
    let proxy_start = Instant::now();
    let trained = engine
        .session_with_id(SETUP_SESSION)
        .run(TRAIN)
        .expect("proxy trains");
    let StatementOutcome::ProxyCreated(proxy) = trained else {
        panic!("CREATE PROXY answers with the trained proxy")
    };
    let times = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        table_s,
        proxy_s: proxy_start.elapsed().as_secs_f64(),
        warmup_s: 0.0,
        oracle_calls: proxy.oracle_spend,
    };
    (engine, times)
}

/// The rows of a wire answer, parsed back to bit-identical floats.
fn wire_answer(out: &QueryOutcome) -> Option<Answer> {
    if out.error.is_some() || out.rows.is_empty() {
        return None;
    }
    let cells = (0..out.rows.len())
        .map(|r| {
            let ci = match (out.f64(r, 2), out.f64(r, 3)) {
                (Some(lo), Some(hi)) => Some((lo, hi)),
                _ => None,
            };
            out.f64(r, 1).map(|estimate| Cell { estimate, ci })
        })
        .collect::<Option<Vec<_>>>()?;
    let oracle_calls = out.text(0, 5)?.parse().ok()?;
    Some(Answer {
        cells,
        oracle_calls,
    })
}

/// One connection's timed stream: latency and answer per statement.
struct Connection {
    pid: u64,
    latencies_ms: Vec<f64>,
    answers: Vec<Option<Answer>>,
}

/// Runs the workload.
pub fn run(args: &Args, process_start: Instant) -> Report {
    let (engine, setups) =
        crate::set_up_repeatedly(process_start, SETUPS, |start| set_up(args.seed, start));
    let per_connection = per_connection(args.seconds);
    let sqls = streams(args.seed, per_connection);
    let mut truth = Truth::default();
    let stmts: Vec<Vec<Stmt>> = sqls
        .iter()
        .map(|s| {
            s.iter()
                .map(|sql| replay::statement(engine.catalog(), &mut truth, sql.clone()))
                .collect()
        })
        .collect();

    let server = Server::bind(engine.clone(), "127.0.0.1:0")
        .and_then(Server::spawn)
        .expect("server binds a loopback port");
    let mut clients: Vec<WireClient> = (0..CONNECTIONS)
        .map(|_| WireClient::connect(server.addr()).expect("client connects"))
        .collect();
    let started = Instant::now();
    let connections: Vec<Connection> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&sqls)
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let mut conn = Connection {
                        pid: u64::from(client.backend_pid()),
                        latencies_ms: Vec::with_capacity(stream.len()),
                        answers: Vec::with_capacity(stream.len()),
                    };
                    for sql in stream {
                        let t = Instant::now();
                        let out = client.query(sql);
                        conn.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        conn.answers.push(out.ok().as_ref().and_then(wire_answer));
                    }
                    conn
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    for client in clients {
        let _ = client.terminate();
    }
    server.shutdown();

    let mut phase = Phase {
        wall_s,
        ..Phase::default()
    };
    for (conn, stmts) in connections.iter().zip(&stmts) {
        phase.latencies_ms.extend(&conn.latencies_ms);
        for (i, (stmt, answer)) in stmts.iter().zip(&conn.answers).enumerate() {
            phase.attempted += 1;
            let Some(answer) = answer else {
                phase.failed += 1;
                continue;
            };
            phase.oracle_calls += answer.oracle_calls;
            phase.tally.add(stmt, answer);
            if let Err(e) = crate::common::check(stmt, answer) {
                phase.fail_check(format!(
                    "connection {} statement {i}: {e}: {}",
                    conn.pid, stmt.sql
                ));
            }
        }
    }

    let traced = if args.trace {
        Some(traced_phase(args.seed, &sqls, &connections))
    } else {
        replay_check(&engine, &sqls, &connections, &mut phase);
        None
    };
    let conditions = {
        let catalog = engine.catalog();
        let tables: Vec<(&str, usize)> = ["trec05p", "night-street"]
            .iter()
            .map(|t| (*t, catalog.table(t).expect("registered").len()))
            .collect();
        let stats = engine.stats();
        let hits = stats.label_hits as f64 / (stats.label_hits + stats.label_misses).max(1) as f64;
        crate::conditions(&tables, &format!("{per_connection} per connection"))
            .with("connections", crate::report::Json::Int(CONNECTIONS as u64))
            .with("label_store", crate::report::Json::Str("on".into()))
            .with("label_store_hit_ratio", crate::report::Json::Num(hits))
            .with(
                "batcher",
                crate::report::Json::Str(
                    "coalescing on, 1 ms simulated device cost per invocation".into(),
                ),
            )
    };
    Report {
        phase,
        setups,
        conditions,
        traced,
    }
}

/// The pgwire contract: each connection's answers are bit-identical to
/// an in-process replay of its statements on `session_with_id(pid)`.
fn replay_check(
    engine: &Engine,
    sqls: &[Vec<String>],
    connections: &[Connection],
    phase: &mut Phase,
) {
    let errors: Vec<Option<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter()
            .zip(sqls)
            .map(|(conn, stream)| {
                scope.spawn(move || {
                    let mut session = engine.session_with_id(conn.pid);
                    for (i, (sql, wire)) in stream.iter().zip(&conn.answers).enumerate() {
                        let local = session.execute(sql).map(|r| Answer::from_result(&r));
                        match (local, wire) {
                            (Ok(local), Some(wire)) if local.same_rows(wire) => {}
                            (Err(_), None) => {}
                            _ => {
                                return Some(format!(
                                "connection {} statement {i} differs from its in-process replay",
                                conn.pid
                            ))
                            }
                        }
                    }
                    None
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    for e in errors.into_iter().flatten() {
        phase.fail_check(e);
    }
}

/// Per-connection output of the traced replay.
struct TracedConnection {
    answers: Vec<Answer>,
    counts: Vec<Counts>,
    scored: Vec<f64>,
    spans: Vec<Span>,
}

/// Replays each connection's statements through the layer entry points,
/// both connections at once, on a freshly set-up engine with the same
/// seed (so its label store starts as cold as the timed phase's), on the
/// session streams of the connections' ids.
fn replay_traced(
    seed: u64,
    sqls: &[Vec<String>],
    pids: &[u64],
) -> (BatcherStats, BatcherStats, Vec<TracedConnection>) {
    let (engine, _) = set_up(seed, Instant::now());
    let engine_seed = derive(seed, 13);
    let epoch = Instant::now();
    let before = engine.batcher().stats();
    let conns: Vec<TracedConnection> = std::thread::scope(|scope| {
        let engine = &engine;
        let handles: Vec<_> = sqls
            .iter()
            .zip(pids)
            .map(|(stream, &pid)| {
                scope.spawn(move || {
                    let rec = Recorder::new(epoch);
                    let mut rng = StdRng::seed_from_u64(session_seed(engine_seed, pid));
                    let mut out = TracedConnection {
                        answers: Vec::new(),
                        counts: vec![Counts::default(); stream.len()],
                        scored: Vec::new(),
                        spans: Vec::new(),
                    };
                    for (i, sql) in stream.iter().enumerate() {
                        rec.begin_statement(i as u32);
                        let (answer, scored) = rec.span("statement", || {
                            let q = rec.span("query.parse", || replay::parse(sql));
                            let plan = rec.span("query.plan", || replay::plan(engine.catalog(), q));
                            let answer = replay::execute(
                                engine,
                                &plan,
                                pid,
                                &mut rng,
                                &rec,
                                &mut out.counts[i],
                            );
                            (answer, plan.records_scored() as f64)
                        });
                        out.answers.push(answer);
                        out.scored.push(scored);
                    }
                    out.spans = rec.into_spans();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced replay thread"))
            .collect()
    });
    (before, engine.batcher().stats(), conns)
}

/// The traced replay of the timed phase's statements, with `wire.ms` per
/// statement: the wire round trip of the timed phase minus the in-process
/// run of the same statement on the same session id.
fn traced_phase(seed: u64, sqls: &[Vec<String>], connections: &[Connection]) -> Traced {
    let pids: Vec<u64> = connections.iter().map(|c| c.pid).collect();
    let (before, after, conns) = replay_traced(seed, sqls, &pids);
    let mut traced = Traced::default();
    for (c, (conn, wire)) in conns.into_iter().zip(connections).enumerate() {
        let layers = attribute(&conn.spans);
        for (i, answer) in conn.answers.iter().enumerate() {
            traced.push(
                Kind::Scalar,
                &layers,
                i as u32,
                &conn.counts[i],
                conn.scored[i],
            );
            let root_ms = traced.stmts.last().map_or(0.0, |(_, l)| l.root_ms);
            traced.wire_ms.push(wire.latencies_ms[i] - root_ms);
            if !wire.answers[i]
                .as_ref()
                .is_some_and(|w| w.same_rows(answer))
            {
                traced.mismatches += 1;
            }
        }
        traced.spans.extend(conn.spans.into_iter().map(|mut s| {
            s.stmt += (c as u32) * 1_000_000;
            s
        }));
    }
    traced.set_batcher(before, after);
    let priced = priced(sqls[0].len());
    traced.per_record_ms = cost_per_record(
        traced
            .stmts
            .chunks(sqls[0].len())
            .flat_map(|conn| &conn[..priced])
            .map(|(_, l)| l),
    );
    traced
}

/// Statements per connection over which an oracle label is priced: the
/// first quarter of the stream. Every workload's traced run prices labels
/// on this same prefix, so their oracle-call equivalents share one price.
fn priced(per_connection: usize) -> usize {
    per_connection / 4
}

/// Oracle-plus-admission time per labeled record, ms.
fn cost_per_record<'a>(layers: impl Iterator<Item = &'a Layers>) -> f64 {
    let (ms, records) = layers.fold((0.0, 0.0), |(ms, n), l| {
        (ms + l.oracle_ms + l.batcher_ms, n + l.oracle_calls)
    });
    ms / f64::max(records, 1.0)
}

/// Prices one oracle label for the other workloads' §3.1 comparison: a
/// traced replay of the first quarter of this workload's streams for the
/// same seed and length (both connections at once, as in its own traced
/// run), returning oracle-plus-admission time per labeled record, ms.
pub fn oracle_cost_per_record(args: &Args) -> f64 {
    let sqls = streams(args.seed, priced(per_connection(args.seconds)));
    let pids: Vec<u64> = (0..CONNECTIONS as u64).collect();
    let (_, _, conns) = replay_traced(args.seed, &sqls, &pids);
    let layers: Vec<_> = conns
        .iter()
        .flat_map(|c| attribute(&c.spans).into_values())
        .collect();
    cost_per_record(layers.iter())
}
