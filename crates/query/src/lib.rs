//! SQL-dialect frontend for ABae (paper Figure 1).
//!
//! ```sql
//! SELECT agg [, agg ...] FROM table_name WHERE filter_predicate
//! [GROUP BY key]
//! ORACLE LIMIT o USING proxy
//! WITH PROBABILITY p
//! -- agg := {AVG | SUM | COUNT | PERCENTAGE} ({field | EXPR(field) | *})
//! ```
//!
//! The `SELECT` list may name several aggregates; all of them are answered
//! from **one** shared sampling-and-labeling pass, so a three-aggregate
//! query spends exactly the oracle budget of a one-aggregate query
//! ([`QueryResult::rows`] carries one row per aggregate). When the
//! catalog's cross-query label cache is on ([`Catalog::enable_label_cache`]),
//! repeated queries over the same table and predicate reuse cached oracle
//! verdicts and spend budget only on unseen records.
//!
//! The `WHERE` clause is a boolean expression (`NOT` / `AND` / `OR`,
//! parentheses) over *expensive predicate atoms* such as
//! `contains_candidate(frame, 'Biden')` or `hair_color(img) = 'blonde'`.
//! Atoms are resolved against a [`catalog::Catalog`]: first by exact
//! predicate-column name, then through explicit bindings registered by the
//! application (e.g. binding the atom `hair_color=blonde` to the table's
//! `blonde_hair` column).
//!
//! Pipeline: [`lexer`] → [`parser`] → [`ast::Query`] → one shared planner
//! (`plan`) → `abae-core` (single predicate, multi-predicate, or group-by)
//! → estimates with bootstrap CIs.
//!
//! # The proxy subsystem
//!
//! Stratification scores come from a [`ScoreSource`], not a hardwired
//! proxy column: a precomputed column, the §3.3 combination of the
//! predicates' own columns, or a model trained **in-engine**:
//!
//! ```sql
//! CREATE PROXY spamnet ON emails(is_spam) USING logistic CALIBRATED TRAIN LIMIT 1000;
//! SELECT AVG(links) FROM emails WHERE is_spam ORACLE LIMIT 5000 USING spamnet;
//! SHOW PROXIES FROM emails;
//! ```
//!
//! `CREATE PROXY` draws and labels a training sample through the oracle
//! (charging the budget, and sharing the engine's label store so queries
//! reuse the verdicts), fits the named [`abae_ml::ProxyModel`] family —
//! or auto-selects one by the paper's §3.4 predicted-MSE rule when
//! `USING` is omitted — scores the whole table in parallel batches, and
//! registers the artifact with the engine's catalog. `EXPLAIN` reports
//! the proxy provenance (column vs model, training spend, ECE). These
//! statements run through [`Session::run`], which answers with a
//! [`StatementOutcome`].
//!
//! # The Engine/Session API
//!
//! The serving surface is a shareable [`Engine`] (built once via
//! [`EngineBuilder`]: tables, bindings, label-cache policy, tuning
//! defaults, seed) and per-client [`Session`] handles:
//!
//! * [`Engine`] is `Send + Sync` and cheaply clonable — one engine serves
//!   any number of concurrent sessions, all sharing the cross-query label
//!   store (hit/miss accounted).
//! * [`Session::execute`] / [`Session::explain`] run one statement;
//!   each session owns a deterministic RNG stream derived from the engine
//!   seed and session id, so per-session results are bit-identical
//!   however sessions interleave.
//! * [`Session::prepare`] parses and plans **once**; the returned
//!   [`Prepared`] re-executes via [`Prepared::run`] with no re-parsing,
//!   binding `?` placeholders (`ORACLE LIMIT ?`, `WITH PROBABILITY ?`,
//!   `UNTIL CI WIDTH < ?`) through [`Prepared::with_budget`] /
//!   [`Prepared::with_probability`] / [`Prepared::with_ci_width`].
//! * Every statement fetches its stratification from one cache per
//!   catalog ([`Catalog::strata_cache`]), keyed by (table, score source,
//!   `K`): a proxy column (named by `USING`, by a bare atom, or as a
//!   `GROUP BY` group's), a trained model, or a §3.3 combination, whose
//!   entries are bounded and evicted least recently used first. A warm
//!   statement sorts nothing; answers are bit-identical either way.
//!
//! # Anytime queries
//!
//! `UNTIL CI WIDTH < x MAX ORACLE LIMIT n` makes a query *anytime*:
//! labeling proceeds in budget chunks and stops at the first chunk
//! boundary where the answer's CI is narrower than `x`, spending at most
//! `n` oracle calls. [`Prepared::run_progressive`] and
//! [`Session::execute_progressive`] additionally surface every
//! intermediate answer as a [`QuerySnapshot`] stream; without an early
//! stop, the final snapshot is bit-identical to the blocking answer for
//! any thread count or chunk size.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod catalog;
mod ddl;
pub mod display;
pub mod engine;
pub mod lexer;
pub mod parser;
mod plan;
pub mod prepared;
pub mod result;
pub mod session;
mod strata_cache;

pub use ast::{
    AggFunc, AggItem, BoolExpr, CreateProxyStmt, Placeholders, ProxyFamily, Query, Statement,
};
pub use catalog::Catalog;
pub use ddl::DEFAULT_TRAIN_LIMIT;
pub use abae_core::batcher::{BatcherOptions, BatcherStats, OracleBatcher};
pub use engine::{Engine, EngineBuilder, EngineOptions, EngineStats};
pub use parser::{parse_query, parse_statement};
pub use plan::ScoreSource;
pub use prepared::{Prepared, ProgressiveRun};
pub use result::{AggRow, GroupRow, QueryError, QueryResult, QuerySnapshot, StatementOutcome};
pub use session::Session;
pub use strata_cache::StrataCache;
