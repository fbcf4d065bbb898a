//! The traced replay: a statement re-executed through each layer's public
//! entry points, with a span around every call, producing the same answer
//! bits as the engine.
//!
//! The engine's planner is private, so the plan is rebuilt here from the
//! same public pieces it uses: `parse_statement`, the catalog's atom
//! resolution, `BoolExpr::to_pred_expr`, and the score source (a proxy
//! column, a trained model from `catalog().proxy_registry()`, or
//! `multipred::table_combined_scores`). Execution calls
//! `Stratification::by_proxy_quantile`, `run_two_stage` and
//! `stratified_bootstrap_cis` (the three steps of the engine's blocking
//! path), or the progressive executors `run_abae_multi_progressive` and
//! `groupby_single_oracle_progressive`, with the engine's RNG stream
//! derivation mirrored so the answers can be compared bit for bit.

use crate::common::{derive, group_truth, Answer, Cell, Kind, Stmt, Truth};
use crate::trace::{Recorder, Timed};
use abae_core::bootstrap::stratified_bootstrap_cis;
use abae_core::groupby::{groupby_single_oracle_progressive, GroupByConfig, GroupSnapshot};
use abae_core::multipred::{expression_oracle, table_combined_scores, PredExpr};
use abae_core::two_stage::{
    run_abae_multi_progressive, run_two_stage, ProgressiveOptions, Snapshot,
};
use abae_core::{
    combine_estimate, AbaeConfig, Aggregate, BootstrapConfig, GovernedOracle, Stratification,
};
use abae_data::{CachedOracle, Oracle, SingleGroupOracle, Table, TrainedProxy};
use abae_query::{parse_statement, AggFunc, Catalog, Engine, Query, Statement};
use rand::rngs::StdRng;
use std::sync::Arc;

/// RNG seed of session `id`'s execute stream (the engine's derivation,
/// mirrored so the replay draws exactly the records the engine drew).
pub fn session_seed(engine_seed: u64, id: u64) -> u64 {
    derive(derive(engine_seed, 0x5E55_1001), id)
}

/// RNG seed every run of prepared statement `statement` of session
/// `session` restarts from.
pub fn prepared_seed(engine_seed: u64, session: u64, statement: u64) -> u64 {
    derive(derive(derive(engine_seed, 0x5E55_2002), session), statement)
}

/// Stratification scores of a scalar plan.
pub enum Scores<'e> {
    /// A precomputed proxy column (`USING <column>`).
    Column(&'e [f64]),
    /// The §3.3 combination of the predicates' proxies, materialized.
    Combined(Vec<f64>),
    /// A model trained by `CREATE PROXY`.
    Model(Arc<TrainedProxy>),
}

impl Scores<'_> {
    /// The scores, one per record.
    pub fn as_slice(&self) -> &[f64] {
        match self {
            Scores::Column(s) => s,
            Scores::Combined(s) => s,
            Scores::Model(m) => &m.scores,
        }
    }
}

/// The physical shape of a planned statement.
pub enum Shape<'e> {
    /// Scalar: lowered predicate, its label-store key, and the scores.
    Scalar {
        /// Lowered predicate.
        expr: PredExpr,
        /// Canonical `(table, predicate)` key rendering.
        pred_key: String,
        /// Stratification scores.
        scores: Scores<'e>,
    },
    /// Single-oracle `GROUP BY`: one proxy per group, in group order.
    GroupBy {
        /// Per-group proxies.
        proxies: Vec<&'e [f64]>,
    },
}

/// A statement planned against a catalog.
pub struct Plan<'e> {
    /// The parsed query.
    pub query: Query,
    /// The `FROM` table.
    pub table: &'e Table,
    /// Strategy and inputs.
    pub shape: Shape<'e>,
}

impl Plan<'_> {
    /// Records the plan's score source had to compute (0 when the scores
    /// are a stored column or a trained model's).
    pub fn records_scored(&self) -> usize {
        match &self.shape {
            Shape::Scalar {
                scores: Scores::Combined(s),
                ..
            } => s.len(),
            _ => 0,
        }
    }
}

/// Parses a `SELECT`.
pub fn parse(sql: &str) -> Query {
    match parse_statement(sql) {
        Ok(Statement::Select(q)) => q,
        other => panic!("benchmark statement is not a SELECT: {sql}: {other:?}"),
    }
}

/// Lowers a query's predicate against its table (atom → predicate index).
pub fn lower(catalog: &Catalog, query: &Query) -> PredExpr {
    let table = catalog
        .table(&query.table)
        .expect("benchmark tables are registered");
    query.predicate.to_pred_expr(&|key: &str| {
        let col = catalog
            .resolve(&query.table, key)
            .expect("benchmark atoms resolve");
        table.predicate_index(&col).expect("resolved columns exist")
    })
}

/// Plans `query` the way the engine does: resolve atoms, pick the
/// strategy, materialize the stratification scores.
pub fn plan(catalog: &Catalog, query: Query) -> Plan<'_> {
    let table = catalog
        .table(&query.table)
        .expect("benchmark tables are registered");
    let shape = if query.group_by.is_some() {
        let proxies = query
            .predicate
            .atom_keys()
            .iter()
            .map(|key| {
                let col = catalog
                    .resolve(&query.table, key)
                    .expect("benchmark atoms resolve");
                table
                    .predicate(&col)
                    .expect("resolved columns exist")
                    .proxy()
            })
            .collect();
        Shape::GroupBy { proxies }
    } else {
        let expr = lower(catalog, &query);
        let scores = match query.proxy.as_deref() {
            Some(p) => match catalog.resolve(&query.table, p) {
                Some(col) => Scores::Column(table.predicate(&col).expect("proxy column").proxy()),
                None => Scores::Model(
                    catalog
                        .proxy_registry()
                        .get(&query.table, p)
                        .expect("trained proxy"),
                ),
            },
            None => Scores::Combined(table_combined_scores(table, &expr).expect("valid expr")),
        };
        Shape::Scalar {
            pred_key: format!("{expr:?}"),
            expr,
            scores,
        }
    };
    Plan {
        query,
        table,
        shape,
    }
}

/// Counts a traced statement contributes beyond its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Records sorted by stratification.
    pub records_sorted: f64,
    /// Draws resampled by bootstraps (trials × draws, summed).
    pub resampled: f64,
}

fn scale(func: AggFunc, v: f64) -> f64 {
    if func == AggFunc::Percentage {
        v * 100.0
    } else {
        v
    }
}

fn cell(func: AggFunc, estimate: f64, ci: Option<abae_stats::ConfidenceInterval>) -> Cell {
    Cell {
        estimate: scale(func, estimate),
        ci: ci.map(|c| (scale(func, c.lo), scale(func, c.hi))),
    }
}

/// Runs a planned statement through the layer entry points inside the
/// current root span, with the engine's oracle stack — label store (when
/// the engine has one), batcher admission on `session`, innermost oracle —
/// each wrapped in a [`Timed`] layer. `rng` must be the stream the engine
/// used for the statement. Statements with `UNTIL` run progressively.
/// `counts` receives the records sorted and the draws resampled.
pub fn execute(
    engine: &Engine,
    plan: &Plan<'_>,
    session: u64,
    rng: &mut StdRng,
    rec: &Recorder,
    counts: &mut Counts,
) -> Answer {
    let opts = engine.options();
    let q = &plan.query;
    let probability = q.probability;
    let width = q.until_width;
    let progressive = ProgressiveOptions {
        chunk: None,
        target_ci_width: width,
    };
    let bootstrap = BootstrapConfig {
        trials: opts.bootstrap_trials,
        alpha: 1.0 - probability,
    };
    let trials = opts.bootstrap_trials as f64;
    let funcs: Vec<AggFunc> = q.aggs.iter().map(|a| a.func).collect();
    match &plan.shape {
        Shape::Scalar {
            expr,
            pred_key,
            scores,
        } => {
            let scores = scores.as_slice();
            counts.records_sorted = scores.len() as f64;
            let config = AbaeConfig {
                strata: opts.strata,
                budget: q.oracle_limit,
                stage1_fraction: opts.stage1_fraction,
                bootstrap,
                exec: opts.exec,
                ..Default::default()
            };
            let aggs: Vec<Aggregate> = funcs.iter().map(|f| f.to_core()).collect();
            let innermost = Timed::new(
                expression_oracle(plan.table, expr).expect("valid expr"),
                rec,
                "oracle",
            );
            let governed = Timed::new(
                GovernedOracle::new(
                    innermost,
                    Some(engine.batcher()),
                    format!("{}/{pred_key}", q.table),
                    session,
                ),
                rec,
                "batcher",
            );
            let (answers, calls) = match engine.label_store() {
                Some(store) => {
                    let cached = Timed::new(
                        CachedOracle::new(governed, store, &q.table, pred_key),
                        rec,
                        "cache",
                    );
                    run_scalar(
                        scores,
                        &cached,
                        &config,
                        &aggs,
                        &progressive,
                        rng,
                        rec,
                        counts,
                    )
                }
                None => run_scalar(
                    scores,
                    &governed,
                    &config,
                    &aggs,
                    &progressive,
                    rng,
                    rec,
                    counts,
                ),
            };
            let cells = funcs
                .iter()
                .zip(answers)
                .map(|(&f, (e, ci))| cell(f, e, ci))
                .collect();
            Answer {
                cells,
                oracle_calls: calls,
            }
        }
        Shape::GroupBy { proxies } => {
            counts.records_sorted = proxies.iter().map(|p| p.len() as f64).sum();
            let cfg = GroupByConfig {
                strata: opts.strata,
                budget: q.oracle_limit,
                stage1_fraction: opts.stage1_fraction,
                exec: opts.exec,
                ..Default::default()
            };
            let oracle = Timed::new(
                GovernedOracle::new(
                    Timed::new(
                        SingleGroupOracle::new(plan.table).expect("grouped table"),
                        rec,
                        "oracle",
                    ),
                    Some(engine.batcher()),
                    format!("{}//group-oracle", q.table),
                    session,
                ),
                rec,
                "batcher",
            );
            assert!(
                width.is_some(),
                "the benchmark's GROUP BY statements are progressive"
            );
            let mut resampled = 0.0;
            let result = rec.span("progressive", || {
                groupby_single_oracle_progressive(
                    proxies,
                    &oracle,
                    &cfg,
                    &bootstrap,
                    &progressive,
                    rng,
                    |snap: &GroupSnapshot| {
                        rec.mark_since_last_exit("snapshot");
                        resampled += trials * snap.budget_spent as f64;
                    },
                )
            });
            let result = result.expect("valid group-by config");
            counts.resampled = resampled;
            let func = funcs[0];
            let cells = result
                .groups
                .iter()
                .map(|g| cell(func, g.estimate, g.ci))
                .collect();
            Answer {
                cells,
                oracle_calls: result.oracle_calls,
            }
        }
    }
}

type Answers = (Vec<(f64, Option<abae_stats::ConfidenceInterval>)>, u64);

#[allow(clippy::too_many_arguments)]
fn run_scalar<O: Oracle>(
    scores: &[f64],
    oracle: &O,
    config: &AbaeConfig,
    aggs: &[Aggregate],
    progressive: &ProgressiveOptions,
    rng: &mut StdRng,
    rec: &Recorder,
    counts: &mut Counts,
) -> Answers {
    if progressive.target_ci_width.is_some() {
        scalar_progressive(scores, oracle, config, aggs, progressive, rng, rec, counts)
    } else {
        scalar_blocking(scores, oracle, config, aggs, rng, rec, counts)
    }
}

/// The engine's blocking path (`run_abae_multi_with_ci`), step by step.
fn scalar_blocking<O: Oracle>(
    scores: &[f64],
    oracle: &O,
    config: &AbaeConfig,
    aggs: &[Aggregate],
    rng: &mut StdRng,
    rec: &Recorder,
    counts: &mut Counts,
) -> Answers {
    let strat = rec.span("strata", || {
        Stratification::by_proxy_quantile(scores, config.strata)
    });
    let primary = aggs.first().copied().unwrap_or(Aggregate::Avg);
    let run = rec
        .span("two_stage", || {
            run_two_stage(&strat, oracle, config, primary, rng)
        })
        .expect("valid config");
    let cis = rec.span("bootstrap", || {
        stratified_bootstrap_cis(&run.samples, &strat.sizes(), aggs, &config.bootstrap, rng)
    });
    let draws: usize = run.samples.iter().map(Vec::len).sum();
    counts.resampled = config.bootstrap.trials as f64 * draws as f64;
    let answers = aggs
        .iter()
        .zip(cis)
        .map(|(&a, ci)| (combine_estimate(a, &run.strata), ci))
        .collect();
    (answers, run.oracle_calls)
}

/// The engine's progressive path. Stratification is bundled inside the
/// executor; [`shadow_strata`] times it separately.
#[allow(clippy::too_many_arguments)]
fn scalar_progressive<O: Oracle>(
    scores: &[f64],
    oracle: &O,
    config: &AbaeConfig,
    aggs: &[Aggregate],
    progressive: &ProgressiveOptions,
    rng: &mut StdRng,
    rec: &Recorder,
    counts: &mut Counts,
) -> Answers {
    let trials = config.bootstrap.trials as f64;
    let mut resampled = 0.0;
    let result = rec.span("progressive", || {
        run_abae_multi_progressive(
            scores,
            oracle,
            config,
            aggs,
            progressive,
            rng,
            |snap: &Snapshot| {
                rec.mark_since_last_exit("snapshot");
                resampled += trials * snap.budget_spent as f64;
            },
        )
    });
    let result = result.expect("valid progressive config");
    counts.resampled = resampled;
    (
        result.answers.iter().map(|a| (a.estimate, a.ci)).collect(),
        result.oracle_calls,
    )
}

/// Times the stratification a progressive executor bundled, on the same
/// scores, as a `strata.shadow` span. Call it after the statement's root
/// span has closed, so the repeat is not counted in the statement's time;
/// attribution subtracts it from the executor's self time.
pub fn shadow_strata(plan: &Plan<'_>, k: usize, rec: &Recorder) {
    if plan.query.until_width.is_none() {
        return;
    }
    match &plan.shape {
        Shape::Scalar { scores, .. } => {
            rec.span("strata.shadow", || {
                Stratification::by_proxy_quantile(scores.as_slice(), k)
            });
        }
        Shape::GroupBy { proxies } => {
            for p in proxies {
                rec.span("strata.shadow", || Stratification::by_proxy_quantile(p, k));
            }
        }
    }
}

/// A workload statement with its exact answers computed from the table's
/// ground truth: the AND/OR/NOT truth of the predicate for scalar
/// aggregates, per-group averages for `GROUP BY` (the single-oracle
/// executor answers every group-by aggregate as an average), ×100 for
/// `PERCENTAGE`.
pub fn statement(catalog: &Catalog, truth: &mut Truth, sql: String) -> Stmt {
    let q = parse(&sql);
    let table = catalog
        .table(&q.table)
        .expect("benchmark tables are registered");
    let (kind, exact) = if q.group_by.is_some() {
        let percent = if q.primary_agg().func == AggFunc::Percentage {
            100.0
        } else {
            1.0
        };
        (
            Kind::GroupBy,
            group_truth(table)
                .into_iter()
                .map(|v| percent * v)
                .collect(),
        )
    } else {
        let expr = lower(catalog, &q);
        (
            Kind::Scalar,
            q.aggs
                .iter()
                .map(|a| truth.aggregate(table, &expr, a.func))
                .collect(),
        )
    };
    let until = q.until_width.map(|w| (w, q.oracle_limit as u64));
    Stmt {
        sql,
        kind,
        exact,
        until,
    }
}
