//! The one planner behind every execution surface.
//!
//! `parse → plan → run` is split so that planning (catalog resolution,
//! proxy-score selection, strategy choice) happens **once** per statement
//! and the product — a [`QueryPlan`] — is consumed by every caller:
//!
//! * [`crate::Session::execute`] plans and runs in one call;
//! * [`crate::Prepared`] keeps the plan and re-runs it under new bindings
//!   without re-parsing or re-planning;
//! * `EXPLAIN` ([`explain_plan`]) renders the *same* plan `run_plan`
//!   executes, so the printed strategy, budget split, and cache occupancy
//!   can never drift from what actually runs.
//!
//! All randomness stays in the caller-supplied RNG; planning itself is
//! deterministic and spends no oracle calls.

use crate::ast::Query;
use crate::catalog::Catalog;
use crate::engine::EngineOptions;
use crate::result::{AggRow, GroupRow, QueryError, QueryResult, QuerySnapshot};
use abae_core::batcher::{GovernedOracle, OracleBatcher};
use abae_core::config::{AbaeConfig, Aggregate, BootstrapConfig};
use abae_core::groupby::{
    self, groupby_single_oracle_stratified, single_oracle_pilot, GroupByConfig, GroupSnapshot,
};
use abae_core::multipred::{expression_oracle, PredExpr};
use abae_core::two_stage::{run_abae_stratified, ProgressiveOptions, Snapshot};
use abae_core::Stratification;
use abae_data::columnar::F64Column;
use abae_data::{CachedOracle, SingleGroupOracle, Table, TrainedProxy};
use abae_stats::bootstrap::ConfidenceInterval;
use rand::Rng;
use std::sync::Arc;

/// Execution context a statement runs under: which session is asking, and
/// the engine's oracle batcher (the cross-session admission controller).
///
/// Every labeling oracle the planner builds is wrapped in a
/// [`GovernedOracle`] carrying this context, so concurrent sessions'
/// label requests for the same `(table, predicate)` can be coalesced into
/// shared invocations and per-session spend is attributed on the batcher's
/// ledger.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    /// Requesting session id.
    pub session: u64,
    /// The engine's batcher.
    pub batcher: &'a OracleBatcher,
}

#[cfg(test)]
impl ExecCtx<'static> {
    /// Session 0 over a default batcher, for tests that run the planner
    /// without an engine.
    pub fn for_tests() -> Self {
        static BATCHER: std::sync::OnceLock<OracleBatcher> = std::sync::OnceLock::new();
        let batcher = BATCHER.get_or_init(|| OracleBatcher::new(Default::default()));
        ExecCtx { session: 0, batcher }
    }
}

/// The batcher coalescing key for a scalar query: requests coalesce only
/// when both the table and the canonical predicate rendering agree —
/// i.e. when the same oracle model would serve both.
pub(crate) fn governor_key(table: &str, pred_key: &str) -> String {
    format!("{table}/{pred_key}")
}

/// The coalescing key for group-by labeling: the single group oracle is
/// per-table, so the key carries a marker no predicate rendering can
/// produce instead of a predicate.
fn governor_group_key(table: &str) -> String {
    format!("{table}//group-oracle")
}

/// Where a scalar plan's stratification scores come from.
///
/// The seed engine hardwired "stratification scores = the predicate's
/// `proxy` column"; this abstraction is what lets one planner serve
/// precomputed columns, the §3.3 combination of several columns, and
/// proxies trained *in-engine* (`CREATE PROXY`) whose full-table score
/// vector was materialized in parallel batches through `core::pipeline`
/// at training time. Execution stratifies by it through the catalog's
/// [`crate::StrataCache`], which scores a combination only on a miss.
/// `EXPLAIN` renders [`ScoreSource::describe`], so the reported
/// provenance always matches the scores execution stratifies by.
#[derive(Debug, Clone)]
pub enum ScoreSource {
    /// A precomputed proxy column of the table (`USING <column>`).
    Column {
        /// Resolved column name.
        name: String,
        /// The column's scores — an `Arc`-backed columnar view, so
        /// binding it into a plan is O(1), not a copy.
        scores: F64Column,
    },
    /// The §3.3 combination of the predicates' own columns (the default
    /// when `USING` is omitted; for a single bare atom the combination is
    /// the identity, which stratifies like `USING <column>`).
    Combined {
        /// The combined predicate columns, in atom order.
        columns: Vec<String>,
        /// The lowered predicate whose columns' scores the §3.3 rules
        /// combine. Nothing is scored at plan time: the strata cache
        /// scores the combination on a miss.
        expr: PredExpr,
    },
    /// A catalog-registered trained model (`USING <model>`); the scores
    /// were computed over the whole table when `CREATE PROXY` ran.
    Model(
        /// The registered artifact.
        Arc<TrainedProxy>,
    ),
}

impl ScoreSource {
    /// One-line provenance for `EXPLAIN`: column vs model, and for models
    /// the training spend and measured calibration error.
    pub fn describe(&self) -> String {
        match self {
            ScoreSource::Column { name, .. } => {
                format!("column `{name}` (precomputed scores)")
            }
            ScoreSource::Combined { columns, .. } => format!(
                "predicate column{} {} combined by the \u{a7}3.3 rules",
                if columns.len() == 1 { "" } else { "s" },
                columns
                    .iter()
                    .map(|c| format!("`{c}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            ScoreSource::Model(p) => format!(
                "trained model `{}` — {}{}{}; {} training labels, {} oracle calls spent, \
                 ECE {:.4}",
                p.name,
                p.summary,
                if p.calibrated { ", calibrated" } else { "" },
                if p.auto_selected { ", family auto-selected (\u{a7}3.4)" } else { "" },
                p.train_limit,
                p.oracle_spend,
                p.ece,
            ),
        }
    }
}

/// Physical strategy chosen for a query, with everything resolved at plan
/// time that does not depend on run-time bindings.
#[derive(Debug, Clone)]
pub(crate) enum PlanKind {
    /// Scalar (non-grouped) query: one lowered predicate expression, the
    /// stratification score source (named `USING` proxy — column or
    /// trained model — or the §3.3 combination), and the canonical
    /// label-store key.
    Scalar {
        /// Lowered predicate over resolved column indices.
        expr: PredExpr,
        /// Stratification scores and their provenance.
        source: ScoreSource,
        /// Canonical label-store key for `(table, predicate)`.
        pred_key: String,
    },
    /// `GROUP BY` query in the single-oracle setting.
    GroupBy {
        /// Group names, in the table's group order.
        groups: Vec<String>,
        /// Each group's predicate column index, in group order: the column
        /// of the atom whose `= '<name>'` literal names the group.
        columns: Vec<usize>,
    },
}

/// A planned query: parsed text plus catalog resolution, ready to run any
/// number of times. Owns no table borrows, so it can outlive the planning
/// call and cross threads (the engine's tables are immutable after build).
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    /// The parsed query.
    pub query: Query,
    /// Resolved predicate column names, in atom order.
    pub column_names: Vec<String>,
    /// The chosen physical strategy.
    pub kind: PlanKind,
}

/// Run-time parameter bindings for a plan's `?` placeholders. A bound
/// value also overrides a literal, which is how `Prepared::with_budget`
/// re-runs a fully literal statement under a new budget.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Bindings {
    /// Bound oracle budget (`ORACLE LIMIT ?`).
    pub oracle_limit: Option<usize>,
    /// Bound success probability (`WITH PROBABILITY ?`).
    pub probability: Option<f64>,
    /// Bound early-stop CI width target (`UNTIL CI WIDTH < ?`).
    pub until_width: Option<f64>,
}

/// The effective oracle budget under `bindings`, or an unbound-placeholder
/// error.
fn effective_budget(query: &Query, bindings: &Bindings) -> Result<usize, QueryError> {
    match (bindings.oracle_limit, query.placeholders.oracle_limit) {
        (Some(n), _) => Ok(n),
        (None, false) => Ok(query.oracle_limit),
        (None, true) => Err(QueryError::UnboundParameter("ORACLE LIMIT ?")),
    }
}

/// The effective success probability under `bindings`, or an
/// unbound-placeholder error.
fn effective_probability(query: &Query, bindings: &Bindings) -> Result<f64, QueryError> {
    match (bindings.probability, query.placeholders.probability) {
        (Some(p), _) => Ok(p),
        (None, false) => Ok(query.probability),
        (None, true) => Err(QueryError::UnboundParameter("WITH PROBABILITY ?")),
    }
}

/// The effective early-stop CI width target under `bindings` (`None` when
/// the query has no `UNTIL CI WIDTH` clause), or an unbound-placeholder
/// error.
fn effective_width(query: &Query, bindings: &Bindings) -> Result<Option<f64>, QueryError> {
    match (bindings.until_width, query.placeholders.until_width) {
        (Some(w), _) => Ok(Some(w)),
        (None, false) => Ok(query.until_width),
        (None, true) => Err(QueryError::UnboundParameter("UNTIL CI WIDTH < ?")),
    }
}

/// Renders a lowered predicate expression as its label-store key. The one
/// rendering shared by execution, proxy training, and `EXPLAIN`, so plan
/// occupancy always reads the entry execution writes — and verdicts bought
/// while training a proxy are the same entries later queries hit.
pub(crate) fn predicate_key(expr: &PredExpr) -> String {
    format!("{expr:?}")
}

/// Every proxy name a table answers `USING` with: predicate columns in
/// table order, then binding aliases (sorted), then trained artifacts in
/// registration order.
pub(crate) fn available_proxies(catalog: &Catalog, table: &Table) -> Vec<String> {
    let mut names: Vec<String> =
        table.predicates().iter().map(|p| p.name().to_string()).collect();
    let later = catalog
        .bound_keys(table.name())
        .into_iter()
        .chain(catalog.proxy_registry().names(table.name()));
    for name in later {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// Plans `query` against `catalog`: resolves every predicate atom to a
/// column, picks the physical strategy and the stratification score
/// source. Scores nothing: execution fetches the strata from the catalog's
/// cache. Fails with the same errors execution would, so `prepare` and
/// `EXPLAIN` surface problems before any budget is spent.
pub(crate) fn plan_query(catalog: &Catalog, query: &Query) -> Result<QueryPlan, QueryError> {
    let table = catalog
        .table(&query.table)
        .ok_or_else(|| QueryError::UnknownTable(query.table.clone()))?;

    // Resolve every atom to a predicate column index.
    let keys = query.predicate.atom_keys();
    let mut columns = Vec::with_capacity(keys.len());
    let mut column_names = Vec::with_capacity(keys.len());
    for key in &keys {
        let col = catalog.resolve(&query.table, key).ok_or_else(|| {
            QueryError::UnresolvedPredicate { atom: key.clone(), table: query.table.clone() }
        })?;
        columns.push(table.predicate_index(&col).map_err(QueryError::Table)?);
        column_names.push(col);
    }
    let index_of = |key: &str| -> usize {
        let pos = keys.iter().position(|k| k == key).expect("key collected above");
        columns[pos]
    };

    let kind = if query.group_by.is_some() {
        if query.aggs.len() > 1 {
            return Err(QueryError::Unsupported(
                "GROUP BY with a multi-aggregate SELECT list".to_string(),
            ));
        }
        let group_key = table.group_key().ok_or_else(|| {
            QueryError::Unsupported(format!("table `{}` has no group key", query.table))
        })?;
        let groups = group_key.names().to_vec();
        if columns.len() != groups.len() {
            return Err(QueryError::Unsupported(format!(
                "group-by query names {} predicates but table `{}` has {} groups",
                columns.len(),
                query.table,
                groups.len()
            )));
        }
        let columns = group_columns(query, &groups, &columns)?;
        PlanKind::GroupBy { groups, columns }
    } else {
        let expr = query.predicate.to_pred_expr(&index_of);
        // Stratification scores: the `USING` proxy when one is named — a
        // precomputed column/binding first, then a trained model from the
        // catalog's registry (an unresolvable name is an error listing
        // what exists, not a silent fallback) — otherwise the §3.3
        // combination of the predicates' own proxies.
        let source = match query.proxy.as_deref() {
            Some(p) => match catalog.resolve(&query.table, p) {
                Some(col) => ScoreSource::Column {
                    scores: table.predicate(&col).map_err(QueryError::Table)?.proxy_column().clone(),
                    name: col,
                },
                None => match catalog.proxy_registry().get(&query.table, p) {
                    Some(model) => ScoreSource::Model(model),
                    None => {
                        return Err(QueryError::UnknownProxy {
                            proxy: p.to_string(),
                            table: query.table.clone(),
                            available: available_proxies(catalog, table),
                        })
                    }
                },
            },
            None => ScoreSource::Combined { columns: column_names.clone(), expr: expr.clone() },
        };
        let pred_key = predicate_key(&expr);
        PlanKind::Scalar { expr, source, pred_key }
    };

    Ok(QueryPlan { query: query.clone(), column_names, kind })
}

/// Pairs every group with the atom whose `= '<name>'` literal names it and
/// returns the atoms' columns (`columns`, in atom order) in group order, so
/// a statement may name its groups in any order. An atom that names no
/// group, or a group named twice, is [`QueryError::Unsupported`] listing
/// the table's groups. The caller has checked that there are as many atoms
/// as groups, so every group ends up with exactly one column.
fn group_columns(
    query: &Query,
    groups: &[String],
    columns: &[usize],
) -> Result<Vec<usize>, QueryError> {
    let unsupported = |what: String| {
        QueryError::Unsupported(format!(
            "{what} (table `{}` has groups {})",
            query.table,
            groups.iter().map(|g| format!("'{g}'")).collect::<Vec<_>>().join(", ")
        ))
    };
    let mut by_group: Vec<Option<usize>> = vec![None; groups.len()];
    for (atom, &column) in query.predicate.atoms().into_iter().zip(columns) {
        let named = atom.comparison.as_deref().and_then(|c| c.strip_prefix('='));
        let Some(g) = named.and_then(|name| groups.iter().position(|g| g == name)) else {
            return Err(unsupported(format!("group-by atom `{}` names no group", atom.key())));
        };
        if by_group[g].replace(column).is_some() {
            return Err(unsupported(format!(
                "group-by query names group '{}' twice",
                groups[g]
            )));
        }
    }
    Ok(by_group.into_iter().flatten().collect())
}

/// Executes a plan with the given knobs and bindings. The RNG is the only
/// source of randomness; for a fixed stream the result is bit-identical
/// regardless of thread count, cache state, or concurrent sessions.
///
/// Every statement kind makes one executor call, in anytime mode when the
/// statement has an `UNTIL CI WIDTH` clause or `observer` is set: the
/// observer then sees an intermediate answer after every labeling chunk
/// (closed-form CIs that read no RNG), and the run may stop before the
/// budget cap. Unless a target stops it early, the result is bit-identical
/// to a blocking run with the same stream.
pub(crate) fn run_plan<R: Rng + ?Sized>(
    catalog: &Catalog,
    plan: &QueryPlan,
    opts: &EngineOptions,
    bindings: &Bindings,
    rng: &mut R,
    ctx: &ExecCtx<'_>,
    mut observer: Option<&mut dyn FnMut(&QuerySnapshot)>,
) -> Result<QueryResult, QueryError> {
    let query = &plan.query;
    let budget = effective_budget(query, bindings)?;
    let probability = effective_probability(query, bindings)?;
    let width = effective_width(query, bindings)?;
    let table = catalog
        .table(&query.table)
        .ok_or_else(|| QueryError::UnknownTable(query.table.clone()))?;

    match &plan.kind {
        PlanKind::Scalar { expr, source, pred_key } => {
            // The per-query expression oracle, governed: every batch it
            // labels is admitted to a (possibly cross-session-shared)
            // invocation first. Layered *inside* the cached oracle below,
            // so records the label store answers never consume a batch
            // slot: they are answered once per labeling request and only
            // the misses are cut into batches (cache-aware scheduling).
            let oracle = GovernedOracle::new(
                expression_oracle(table, expr).map_err(QueryError::Table)?,
                Some(ctx.batcher),
                governor_key(&query.table, pred_key),
                ctx.session,
            );
            let config = AbaeConfig {
                strata: opts.strata,
                budget,
                stage1_fraction: opts.stage1_fraction,
                bootstrap: BootstrapConfig {
                    trials: opts.bootstrap_trials,
                    alpha: 1.0 - probability,
                },
                exec: opts.exec,
                ..Default::default()
            };
            // Without an `UNTIL` target or an observer the run is blocking.
            let progressive = (width.is_some() || observer.is_some())
                .then_some(ProgressiveOptions { chunk: None, target_ci_width: width });
            // Validate before stratifying, as core does: an invalid
            // statement fails with the same error and sorts nothing.
            config.validate().map_err(QueryError::Config)?;
            if let Some(p) = &progressive {
                p.validate().map_err(QueryError::Config)?;
            }
            let strata = catalog
                .strata_cache()
                .strata(table, source, pred_key, config.strata)
                .map_err(QueryError::Table)?;
            // One labeling pass answers every aggregate of the SELECT list.
            let aggs: Vec<Aggregate> = query.aggs.iter().map(|a| a.func.to_core()).collect();
            let emit = |snap: &Snapshot| {
                if let Some(obs) = observer.as_deref_mut() {
                    obs(&QuerySnapshot {
                        rows: rows_from_answers(query, &snap.answers),
                        groups: None,
                        budget_spent: snap.budget_spent,
                        done: snap.done,
                    });
                }
            };
            let anytime = progressive.as_ref();
            let (multi, cache_hits, cache_misses) = match catalog.label_store() {
                // Cross-query reuse: route labeling through the store's
                // entry for this (table, predicate) pair — cached verdicts
                // are free.
                Some(store) => {
                    let cached = CachedOracle::new(oracle, store, &query.table, pred_key);
                    let multi =
                        run_abae_stratified(&strata, &cached, &config, &aggs, anytime, rng, emit);
                    (multi, cached.hits(), cached.misses())
                }
                None => {
                    let multi =
                        run_abae_stratified(&strata, &oracle, &config, &aggs, anytime, rng, emit);
                    (multi, 0, 0)
                }
            };
            let multi = multi.map_err(QueryError::Config)?;
            if cache_hits > 0 {
                // Cache-served records never reached the batcher; report
                // them so EXPLAIN/stats show the slots the warm store saved.
                ctx.batcher.note_cache_served(cache_hits);
            }
            let rows = agg_rows(query, &multi);
            Ok(QueryResult::new(rows, multi.oracle_calls, cache_hits, cache_misses, None))
        }
        PlanKind::GroupBy { groups, columns } => run_groupby(
            catalog,
            query,
            table,
            groups,
            columns,
            budget,
            probability,
            width,
            opts,
            rng,
            ctx,
            observer,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_groupby<R: Rng + ?Sized>(
    catalog: &Catalog,
    query: &Query,
    table: &Table,
    groups: &[String],
    columns: &[usize],
    budget: usize,
    probability: f64,
    width: Option<f64>,
    opts: &EngineOptions,
    rng: &mut R,
    ctx: &ExecCtx<'_>,
    mut observer: Option<&mut dyn FnMut(&QuerySnapshot)>,
) -> Result<QueryResult, QueryError> {
    let agg = query.primary_agg().clone();
    // Governed like the scalar path: each batch of group labels is
    // admitted before labeling; the instance is per-query, so its meter
    // charges only this session's records even when invocations are
    // shared across sessions.
    let oracle = GovernedOracle::new(
        SingleGroupOracle::new(table).expect("group key validated at plan time"),
        Some(ctx.batcher),
        governor_group_key(&query.table),
        ctx.session,
    );
    let cfg = GroupByConfig {
        strata: opts.strata,
        budget,
        stage1_fraction: opts.stage1_fraction,
        exec: opts.exec,
        ..Default::default()
    };
    let bootstrap = BootstrapConfig { trials: opts.bootstrap_trials, alpha: 1.0 - probability };
    // Without an `UNTIL` target or an observer the run is blocking.
    let progressive = (width.is_some() || observer.is_some())
        .then_some(ProgressiveOptions { chunk: None, target_ci_width: width });
    // Check before stratifying, with core's checks in core's order, so an
    // invalid statement fails with the same error and sorts nothing.
    groupby::check(&cfg, &bootstrap, progressive.as_ref(), groups.len())
        .map_err(QueryError::GroupBy)?;
    // One shared stratification per group, by the group's own predicate
    // column, in group order.
    let strata: Vec<Arc<Stratification>> = columns
        .iter()
        .map(|&c| catalog.strata_cache().column_strata(table, c, cfg.strata))
        .collect();

    // Builds the query-level rows (group rows plus the summary aggregate
    // row) from core per-group estimates, applying PERCENTAGE scaling.
    let to_rows = |estimates: &[abae_core::groupby::GroupEstimateWithCi]| {
        let rows: Vec<GroupRow> = estimates
            .iter()
            .map(|e| GroupRow {
                name: groups[e.group as usize].clone(),
                estimate: scale_percentage(agg.func, e.estimate),
                ci: e.ci.map(|ci| scale_percentage_ci(agg.func, ci)),
            })
            .collect();
        let mean = rows.iter().map(|r| r.estimate).sum::<f64>() / rows.len().max(1) as f64;
        let summary = AggRow {
            func: agg.func,
            expr: agg.expr.clone(),
            estimate: mean,
            ci: None,
        };
        (summary, rows)
    };

    let result = groupby_single_oracle_stratified(
        &strata,
        &oracle,
        &cfg,
        &bootstrap,
        progressive.as_ref(),
        rng,
        |snap: &GroupSnapshot| {
            if let Some(obs) = observer.as_deref_mut() {
                let (summary, rows) = to_rows(&snap.groups);
                obs(&QuerySnapshot {
                    rows: vec![summary],
                    groups: Some(rows),
                    budget_spent: snap.budget_spent,
                    done: snap.done,
                });
            }
        },
    )
    .map_err(QueryError::GroupBy)?;
    let (summary, rows) = to_rows(&result.groups);
    Ok(QueryResult::new(vec![summary], result.oracle_calls, 0, 0, Some(rows)))
}

/// `EXPLAIN`: renders the physical plan — the chosen algorithm, the
/// resolved predicate columns, the budget split, and the label-cache state
/// — without spending any oracle calls. This consumes the *same*
/// [`QueryPlan`] that [`run_plan`] executes; there is no second planning
/// path for the human-readable output to drift from.
pub(crate) fn explain_plan(
    catalog: &Catalog,
    plan: &QueryPlan,
    opts: &EngineOptions,
    bindings: &Bindings,
    ctx: &ExecCtx<'_>,
) -> Result<String, QueryError> {
    let query = &plan.query;
    let table = catalog
        .table(&query.table)
        .ok_or_else(|| QueryError::UnknownTable(query.table.clone()))?;
    let keys = query.predicate.atom_keys();
    let mut lines = Vec::new();
    lines.push(format!("query  : {query}"));
    lines.push(format!("table  : {} ({} records)", table.name(), table.len()));
    for (key, col) in keys.iter().zip(&plan.column_names) {
        lines.push(format!("atom   : {key} -> predicate column `{col}`"));
    }
    let strategy = match &plan.kind {
        PlanKind::GroupBy { groups, .. } => format!(
            "ABae-GroupBy (single oracle, minimax allocation over {} groups)",
            groups.len()
        ),
        PlanKind::Scalar { .. } if keys.len() > 1 => {
            "ABae-MultiPred (combined proxy scores, one oracle call per record)".to_string()
        }
        PlanKind::Scalar { .. } => "ABae two-stage stratified sampling".to_string(),
    };
    lines.push(format!("plan   : {strategy}"));
    // Proxy provenance: which scores stratify the sampling, and — for
    // in-engine-trained models — what the training cost and measured
    // calibration error were.
    if let PlanKind::Scalar { source, .. } = &plan.kind {
        lines.push(format!("proxy  : {}", source.describe()));
    }
    if query.aggs.len() > 1 {
        lines.push(format!(
            "aggs   : {} aggregates answered from one shared labeling pass",
            query.aggs.len()
        ));
    }
    // The split comes from the same helper execution uses (`stage_split`
    // for scalar plans, the shared uniform pilot for GROUP BY), so the
    // printed plan cannot drift from what actually runs. An unbound
    // placeholder budget has no split yet — say so instead of guessing.
    match effective_budget(query, bindings) {
        Ok(limit) => lines.push(match &plan.kind {
            PlanKind::GroupBy { groups, .. } => {
                let pilot = single_oracle_pilot(limit, opts.stage1_fraction, table.len());
                format!(
                    "budget : {limit} oracle calls = pilot ({pilot} uniform draws shared by {} \
                     group stratifications) + stage 2 ({}, minimax across groups)",
                    groups.len(),
                    limit.saturating_sub(pilot),
                )
            }
            PlanKind::Scalar { .. } => {
                let split =
                    abae_sampling::budget::stage_split(limit, opts.stage1_fraction, opts.strata);
                format!(
                    "budget : {} oracle calls = stage 1 ({} strata x {}) + stage 2 ({})",
                    limit, opts.strata, split.n1_per_stratum, split.n2_total,
                )
            }
        }),
        Err(_) => lines.push(
            "budget : ? oracle calls (placeholder — bind with Prepared::with_budget)".to_string(),
        ),
    }
    // The stopping rule, when the query is anytime: the budget above is a
    // cap, and labeling halts at the first chunk boundary (pilot complete)
    // where every CI is narrower than the target. Snapshots, the stopping
    // one included, carry closed-form CIs; only a run that spends its cap
    // pays for the bootstrap the `ci` line describes.
    let intervals = format!(
        "snapshots carry a closed-form (delta-method) CI at confidence {}, and a run \
         that spends its cap ends with the percentile bootstrap",
        effective_probability(query, bindings).map_or_else(|_| "?".to_string(), |p| p.to_string()),
    );
    match effective_width(query, bindings) {
        Ok(Some(w)) => lines.push(format!(
            "stop   : UNTIL CI WIDTH < {w} — anytime execution in chunks of {}; \
             the oracle limit is a cap, not a target; {intervals}",
            opts.exec.batch_size,
        )),
        Ok(None) => {}
        Err(_) => lines.push(format!(
            "stop   : UNTIL CI WIDTH < ? (placeholder — bind with Prepared::with_ci_width); \
             {intervals}"
        )),
    }
    // Whether execution sorts the table: every score source shares one
    // cached stratification, built by the first run that needs it.
    let cache = catalog.strata_cache();
    let k = opts.strata;
    match &plan.kind {
        PlanKind::Scalar { source, pred_key, .. } => {
            let cached = cache.peek(table, source, pred_key, k);
            lines.push(strata_line("", cached, table.len(), k));
        }
        PlanKind::GroupBy { groups, columns } => {
            for (group, &c) in groups.iter().zip(columns) {
                let label = format!(
                    "group '{group}' by column `{}`: ",
                    table.predicates()[c].name()
                );
                lines.push(strata_line(&label, cache.peek_column(table, c, k), table.len(), k));
            }
        }
    }
    lines.push(match (catalog.label_store(), &plan.kind) {
        (Some(_), PlanKind::GroupBy { .. }) => {
            // GROUP BY labeling keeps its own within-query cache but does
            // not consult the cross-query store; say so rather than
            // implying reuse that execution won't deliver.
            "cache  : label store enabled, but not used by GROUP BY \
             (grouped labeling caches within the query only)"
                .to_string()
        }
        (Some(store), PlanKind::Scalar { pred_key, .. }) => format!(
            "cache  : label store enabled — {} verdicts cached for this predicate \
             ({} hits / {} misses lifetime); hits are answered per labeling request, \
             misses labeled in batches of up to {}",
            store.cached_verdicts(&query.table, pred_key),
            store.hits(),
            store.misses(),
            opts.exec.batch_size.max(1),
        ),
        (None, _) => "cache  : label store disabled (Catalog::enable_label_cache)".to_string(),
    });
    // The engine's oracle batcher: coalescing mode and the engine-lifetime
    // counters.
    let stats = ctx.batcher.stats();
    lines.push(if ctx.batcher.options().coalesce {
        format!(
            "oracle : governed, coalescing on — {} invocations for {} requests \
             ({} shared batches, {} requests coalesced, {} records cache-served)",
            stats.invocations,
            stats.requests,
            stats.shared_batches,
            stats.coalesced_requests,
            stats.cache_served,
        )
    } else {
        format!(
            "oracle : governed, coalescing off — every request is its own \
             invocation ({} so far, {} records cache-served)",
            stats.invocations, stats.cache_served,
        )
    });
    match effective_probability(query, bindings) {
        Ok(p) => lines.push(format!(
            "ci     : percentile bootstrap, {} resamples, confidence {}",
            opts.bootstrap_trials, p
        )),
        Err(_) => lines.push(format!(
            "ci     : percentile bootstrap, {} resamples, confidence ? \
             (placeholder — bind with Prepared::with_probability)",
            opts.bootstrap_trials
        )),
    }
    Ok(lines.join("\n"))
}

/// One `EXPLAIN` `strata` line: cached over how many records, or not
/// cached yet. Counts, never times.
fn strata_line(label: &str, cached: Option<usize>, records: usize, k: usize) -> String {
    match cached {
        Some(held) => format!(
            "strata : {label}cached — {k} strata over {held} records, shared by every \
             statement on this score source"
        ),
        None => format!(
            "strata : {label}not cached yet — the first run sorts {records} records into {k} \
             strata and caches them"
        ),
    }
}

/// Builds the per-aggregate result rows, applying `PERCENTAGE` scaling to
/// estimate and CI alike.
fn agg_rows(query: &Query, multi: &abae_core::two_stage::MultiAggResult) -> Vec<AggRow> {
    rows_from_answers(query, &multi.answers)
}

/// The row-building shared by final results and progressive snapshots, so
/// an intermediate snapshot scales `PERCENTAGE` exactly like the answer it
/// converges to.
fn rows_from_answers(query: &Query, answers: &[abae_core::AggAnswer]) -> Vec<AggRow> {
    query
        .aggs
        .iter()
        .zip(answers)
        .map(|(item, answer)| AggRow {
            func: item.func,
            expr: item.expr.clone(),
            estimate: scale_percentage(item.func, answer.estimate),
            ci: answer.ci.map(|ci| scale_percentage_ci(item.func, ci)),
        })
        .collect()
}

/// `PERCENTAGE(expr)` is `AVG(expr)` scaled to percent: the statistic is
/// expected to be a 0/1 indicator, and the scaling depends only on the
/// aggregate — never on the value — so the CI scales identically and
/// always brackets the estimate.
fn scale_percentage(agg: crate::ast::AggFunc, estimate: f64) -> f64 {
    if agg == crate::ast::AggFunc::Percentage {
        estimate * 100.0
    } else {
        estimate
    }
}

/// Scales a CI the same way [`scale_percentage`] scales the estimate, so
/// `lo <= estimate <= hi` is preserved.
fn scale_percentage_ci(
    agg: crate::ast::AggFunc,
    ci: ConfidenceInterval,
) -> ConfidenceInterval {
    if agg == crate::ast::AggFunc::Percentage {
        ConfidenceInterval { lo: ci.lo * 100.0, hi: ci.hi * 100.0, confidence: ci.confidence }
    } else {
        ci
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use abae_data::Table;
    use rand::SeedableRng;

    fn catalog() -> Catalog {
        let n = 400;
        let labels: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
        let proxy: Vec<f64> = labels.iter().map(|&l| if l { 0.9 } else { 0.1 }).collect();
        let values: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let t = Table::builder("t", values).predicate("p", labels, proxy).build().unwrap();
        let mut cat = Catalog::new();
        cat.register_table(t);
        cat
    }

    #[test]
    fn planning_is_free_and_reusable() {
        let cat = catalog();
        let q = parse_query("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 10").unwrap();
        let plan = plan_query(&cat, &q).unwrap();
        assert_eq!(plan.column_names, vec!["p".to_string()]);
        // The plan holds the lowered predicate, not 400 scores: the strata
        // cache scores and sorts on the first run, and planning sorted
        // nothing.
        match &plan.kind {
            PlanKind::Scalar { source: ScoreSource::Combined { columns, expr }, .. } => {
                assert_eq!(columns, &vec!["p".to_string()]);
                assert_eq!(expr, &PredExpr::Pred(0));
            }
            other => panic!("expected a scalar plan over the combination, got {other:?}"),
        }
        assert_eq!(cat.strata_cache().builds(), 0);
        // The plan is Clone + Send: a prepared statement can own it.
        fn assert_send<T: Send + Clone>(_: &T) {}
        assert_send(&plan);
    }

    /// 900 records in groups 'gray' (`is_gray`) and 'blond' (`is_blond`),
    /// with `hair=<name>` bound to each group's column, `hair=fair` to
    /// `is_blond` and `tint=gray` to `is_gray`.
    fn grouped_engine() -> crate::Engine {
        let n = 900;
        let key: Vec<Option<u16>> =
            (0..n).map(|i| [Some(0), Some(1), None][i % 3]).collect();
        let column = |g: u16| -> (Vec<bool>, Vec<f64>) {
            let labels: Vec<bool> = key.iter().map(|&k| k == Some(g)).collect();
            let proxy = labels
                .iter()
                .enumerate()
                .map(|(i, &l)| if l { 0.6 } else { 0.2 } + ((i * 37 + 11 * g as usize) % 29) as f64 / 90.0)
                .collect();
            (labels, proxy)
        };
        let ((gray, gray_proxy), (blond, blond_proxy)) = (column(0), column(1));
        let t = Table::builder("images", (0..n).map(|i| (i % 11) as f64).collect())
            .predicate("is_gray", gray, gray_proxy)
            .predicate("is_blond", blond, blond_proxy)
            .group_key(vec!["gray".into(), "blond".into()], key)
            .build()
            .unwrap();
        crate::Engine::builder()
            .table(t)
            .bind_predicate("images", "hair=gray", "is_gray")
            .bind_predicate("images", "hair=blond", "is_blond")
            .bind_predicate("images", "hair=fair", "is_blond")
            .bind_predicate("images", "tint=gray", "is_gray")
            .bootstrap_trials(50)
            .seed(17)
            .build()
    }

    #[test]
    fn group_by_pairs_each_atom_with_the_group_it_names() {
        let engine = grouped_engine();
        let sql = |atoms: &str| {
            format!(
                "SELECT AVG(x), hair FROM images WHERE {atoms} GROUP BY hair(img) \
                 ORACLE LIMIT 400"
            )
        };
        let in_order = sql("hair(img) = 'gray' OR hair(img) = 'blond'");
        let swapped = sql("hair(img) = 'blond' OR hair(img) = 'gray'");
        for statement in [&in_order, &swapped] {
            let plan = plan_query(engine.catalog(), &parse_query(statement).unwrap()).unwrap();
            match plan.kind {
                PlanKind::GroupBy { columns, .. } => assert_eq!(columns, vec![0, 1], "{statement}"),
                other => panic!("expected a GROUP BY plan, got {other:?}"),
            }
        }
        let answer = |statement: &str| engine.session_with_id(3).execute(statement).unwrap();
        assert_eq!(answer(&swapped), answer(&in_order));

        for (atoms, why) in [
            ("hair(img) = 'gray' OR hair(img) = 'fair'", "atom `hair=fair` names no group"),
            ("is_gray OR is_blond", "atom `is_gray` names no group"),
            ("hair(img) = 'gray' OR tint(img) = 'gray'", "names group 'gray' twice"),
        ] {
            let err = plan_query(engine.catalog(), &parse_query(&sql(atoms)).unwrap()).unwrap_err();
            match err {
                QueryError::Unsupported(msg) => {
                    assert!(msg.contains(why), "{msg}");
                    assert!(msg.ends_with("(table `images` has groups 'gray', 'blond')"), "{msg}");
                }
                other => panic!("expected Unsupported for {atoms}, got {other:?}"),
            }
        }
    }

    #[test]
    fn unbound_placeholders_fail_at_run_not_plan() {
        let cat = catalog();
        let q = parse_query("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT ?").unwrap();
        let plan = plan_query(&cat, &q).expect("placeholders plan fine");
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let err = run_plan(
            &cat,
            &plan,
            &EngineOptions::default(),
            &Bindings::default(),
            &mut rng,
            &ExecCtx::for_tests(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::UnboundParameter("ORACLE LIMIT ?")), "{err}");
        // Binding the parameter makes the same plan runnable.
        let bound = Bindings { oracle_limit: Some(50), ..Default::default() };
        let opts = EngineOptions::default();
        let r =
            run_plan(&cat, &plan, &opts, &bound, &mut rng, &ExecCtx::for_tests(), None).unwrap();
        assert!(r.oracle_calls <= 50);
    }

    #[test]
    fn unknown_proxy_listing_includes_binding_aliases() {
        let mut cat = catalog();
        cat.bind_predicate("t", "spamish", "p");
        let q = parse_query("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 10 USING nope").unwrap();
        match plan_query(&cat, &q).unwrap_err() {
            QueryError::UnknownProxy { available, .. } => {
                assert_eq!(available, vec!["p".to_string(), "spamish".to_string()]);
            }
            other => panic!("expected UnknownProxy, got {other:?}"),
        }
        // The alias also *resolves* — the listing matches what works.
        let q = parse_query("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 10 USING spamish").unwrap();
        assert!(plan_query(&cat, &q).is_ok());
    }

    #[test]
    fn bindings_override_literals() {
        let cat = catalog();
        let q = parse_query(
            "SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 4 WITH PROBABILITY 0.95",
        )
        .unwrap();
        let plan = plan_query(&cat, &q).unwrap();
        assert_eq!(effective_budget(&plan.query, &Bindings::default()).unwrap(), 4);
        let b = Bindings {
            oracle_limit: Some(2),
            probability: Some(0.9),
            until_width: Some(0.25),
        };
        assert_eq!(effective_budget(&plan.query, &b).unwrap(), 2);
        assert_eq!(effective_probability(&plan.query, &b).unwrap(), 0.9);
        assert_eq!(effective_width(&plan.query, &b).unwrap(), Some(0.25));
        // No clause, no binding → no early stopping.
        assert_eq!(effective_width(&plan.query, &Bindings::default()).unwrap(), None);
    }

    #[test]
    fn unbound_width_placeholder_fails_at_run() {
        let cat = catalog();
        let q = parse_query(
            "SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < ? MAX ORACLE LIMIT 50",
        )
        .unwrap();
        let plan = plan_query(&cat, &q).expect("placeholders plan fine");
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let err = run_plan(
            &cat,
            &plan,
            &EngineOptions::default(),
            &Bindings::default(),
            &mut rng,
            &ExecCtx::for_tests(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::UnboundParameter("UNTIL CI WIDTH < ?")), "{err}");
        let bound = Bindings { until_width: Some(1000.0), ..Default::default() };
        let opts = EngineOptions::default();
        let r =
            run_plan(&cat, &plan, &opts, &bound, &mut rng, &ExecCtx::for_tests(), None).unwrap();
        assert!(r.oracle_calls <= 50);
    }
}
