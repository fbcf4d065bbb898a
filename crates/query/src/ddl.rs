//! Proxy-management statements: `CREATE PROXY` and `SHOW PROXIES`.
//!
//! `CREATE PROXY` closes the loop the paper leaves outside the system:
//! instead of shipping a precomputed proxy column with the dataset, the
//! engine *trains* one. Execution, in order:
//!
//! 1. draw `TRAIN LIMIT` records uniformly without replacement with the
//!    session's RNG stream (so train-then-query replays bit-identically);
//! 2. label the draw through the predicate's oracle — charging the budget
//!    exactly like a query's labeling pass, and routed through the
//!    engine's label store when enabled, so training verdicts are the same
//!    cache entries later queries hit for free;
//! 3. fit the requested [`abae_ml::ProxyModel`] family (wrapped in
//!    [`abae_ml::Calibrated`] when `CALIBRATED` was asked for) — or, with
//!    `USING` omitted, fit *every* family on the same draw and keep the
//!    §3.4 predicted-MSE winner ([`abae_core::proxy_select`]), which costs
//!    no extra oracle calls because the pilot labels are shared;
//! 4. score the whole table in batches through
//!    [`abae_core::pipeline::map_batched`] — scoring parallelizes across
//!    `ABAE_THREADS` workers and reassembles in record order, so the
//!    materialized score column is bit-identical at any thread count;
//! 5. measure the expected calibration error of the fitted scores on the
//!    training draw and register the [`TrainedProxy`] artifact with the
//!    catalog, where `USING <name>` and `EXPLAIN` find it.

use crate::ast::{CreateProxyStmt, ProxyFamily};
use crate::catalog::Catalog;
use crate::engine::EngineOptions;
use crate::plan::{governor_key, predicate_key, ExecCtx};
use crate::result::QueryError;
use abae_core::batcher::GovernedOracle;
use abae_core::multipred::{expression_oracle, PredExpr};
use abae_core::pipeline;
use abae_core::proxy_select::{rank_proxies, PilotSample};
use abae_data::columnar::StrColumn;
use abae_data::{CachedOracle, Labeled, Oracle, TrainedProxy};
use abae_ml::calibration::expected_calibration_error;
use abae_ml::proxy::{Calibrated, KeywordModel, LogisticModel, ProxyModel};
use abae_sampling::wor::sample_without_replacement;
use rand::Rng;
use std::sync::Arc;

/// Training labels bought when `TRAIN LIMIT` is omitted.
pub const DEFAULT_TRAIN_LIMIT: usize = 1_000;

/// Reliability bins used for the artifact's recorded ECE.
const ECE_BINS: usize = 10;

/// Fits one family (optionally Platt-calibrated) on the training draw.
fn fit_family(
    family: ProxyFamily,
    calibrated: bool,
    texts: &[&str],
    labels: &[bool],
) -> Result<Box<dyn ProxyModel>, QueryError> {
    fn boxed<M: ProxyModel + 'static>(
        mut model: M,
        texts: &[&str],
        labels: &[bool],
    ) -> Result<Box<dyn ProxyModel>, QueryError> {
        model.fit(texts, labels).map_err(QueryError::Train)?;
        Ok(Box::new(model))
    }
    match (family, calibrated) {
        (ProxyFamily::Keyword, false) => boxed(KeywordModel::new(), texts, labels),
        (ProxyFamily::Keyword, true) => {
            boxed(Calibrated::new(KeywordModel::new()), texts, labels)
        }
        (ProxyFamily::Logistic, false) => boxed(LogisticModel::new(), texts, labels),
        (ProxyFamily::Logistic, true) => {
            boxed(Calibrated::new(LogisticModel::new()), texts, labels)
        }
    }
}

/// Scores every record of the table through the batch pipeline, reading
/// texts straight out of the columnar string arena (zero-copy `&str`
/// views; no per-record `String` is materialized). Proxy scores must land
/// in `[0, 1]` (the table builder's invariant); the models emit sigmoid
/// outputs, and the clamp only guards float edges.
fn score_table(
    model: &dyn ProxyModel,
    texts: &StrColumn,
    opts: &EngineOptions,
) -> Vec<f64> {
    let all: Vec<usize> = (0..texts.len()).collect();
    pipeline::map_batched(&all, &opts.exec, |chunk| {
        let batch: Vec<&str> = chunk.iter().map(|&i| texts.get(i)).collect();
        model.score_batch(&batch).into_iter().map(|s| s.clamp(0.0, 1.0)).collect()
    })
}

/// Executes `CREATE PROXY`, registering the artifact with the catalog.
/// The RNG is the calling session's stream; everything else is
/// deterministic, so results are bit-identical for any thread count.
pub(crate) fn run_create_proxy<R: Rng + ?Sized>(
    catalog: &Catalog,
    stmt: &CreateProxyStmt,
    opts: &EngineOptions,
    rng: &mut R,
    ctx: &ExecCtx<'_>,
) -> Result<Arc<TrainedProxy>, QueryError> {
    let table = catalog
        .table(&stmt.table)
        .ok_or_else(|| QueryError::UnknownTable(stmt.table.clone()))?;
    // `USING <name>` resolution gives columns and bindings priority over
    // trained artifacts, so a shadowed artifact would be unreachable —
    // paid for but never used. Reject the name up front.
    if catalog.resolve(&stmt.table, &stmt.name).is_some() {
        return Err(QueryError::Unsupported(format!(
            "proxy name `{}` is already a predicate column or binding of `{}` — \
             queries would resolve `USING {}` to it instead of the trained model; \
             pick another name",
            stmt.name, stmt.table, stmt.name
        )));
    }
    let column = catalog.resolve(&stmt.table, &stmt.predicate).ok_or_else(|| {
        QueryError::UnresolvedPredicate {
            atom: stmt.predicate.clone(),
            table: stmt.table.clone(),
        }
    })?;
    let pred_idx = table.predicate_index(&column).map_err(QueryError::Table)?;
    let texts = table.texts().ok_or_else(|| {
        QueryError::Unsupported(format!(
            "table `{}` has no text payloads to train a proxy on",
            stmt.table
        ))
    })?;
    let limit = stmt.train_limit.unwrap_or(DEFAULT_TRAIN_LIMIT).min(table.len());
    if limit == 0 {
        return Err(QueryError::Unsupported("TRAIN LIMIT must be positive".to_string()));
    }

    // Draw and label the training sample. The label-store key is the same
    // one a single-atom query over this predicate uses, so training
    // verdicts and query verdicts share cache entries.
    let expr = PredExpr::Pred(pred_idx);
    let pred_key = predicate_key(&expr);
    let ids = sample_without_replacement(table.len(), limit, rng);
    // Same governor key as a single-atom query over this predicate: the
    // training labeling pass shares oracle invocations with concurrent
    // queries over the same (table, predicate).
    let oracle = GovernedOracle::new(
        expression_oracle(table, &expr).map_err(QueryError::Table)?,
        Some(ctx.batcher),
        governor_key(&stmt.table, &pred_key),
        ctx.session,
    );
    let (labeled, oracle_spend): (Vec<Labeled>, u64) = match catalog.label_store() {
        Some(store) => {
            let cached = CachedOracle::new(oracle, store, &stmt.table, &pred_key);
            let labeled = pipeline::label_all(&cached, &ids, &opts.exec);
            (labeled, cached.calls())
        }
        None => {
            let labeled = pipeline::label_all(&oracle, &ids, &opts.exec);
            (labeled, oracle.calls())
        }
    };
    let labels: Vec<bool> = labeled.iter().map(|l| l.matches).collect();
    let train_texts: Vec<&str> = ids.iter().map(|&i| texts.get(i)).collect();

    // Fit the named family, or fit every family on the shared draw and
    // keep the §3.4 predicted-MSE winner (no extra oracle cost: the pilot
    // labels are reused across candidates, exactly as the paper's proxy
    // selection shares its Stage-1 samples).
    let (model, scores, auto_selected) = match stmt.family {
        Some(family) => {
            let model = fit_family(family, stmt.calibrated, &train_texts, &labels)?;
            let scores = score_table(model.as_ref(), texts, opts);
            (model, scores, false)
        }
        None => {
            let families = [ProxyFamily::Keyword, ProxyFamily::Logistic];
            let mut fitted = Vec::with_capacity(families.len());
            for family in families {
                let model = fit_family(family, stmt.calibrated, &train_texts, &labels)?;
                let scores = score_table(model.as_ref(), texts, opts);
                fitted.push((model, scores));
            }
            let pilot: Vec<PilotSample> = ids
                .iter()
                .zip(&labeled)
                .map(|(&index, &labeled)| PilotSample { index, labeled })
                .collect();
            let candidates: Vec<&[f64]> =
                fitted.iter().map(|(_, s)| s.as_slice()).collect();
            let ranking = rank_proxies(&candidates, &pilot, opts.strata, limit);
            let (model, scores) = fitted.swap_remove(ranking.best());
            (model, scores, true)
        }
    };

    // Calibration diagnostic on the training draw.
    let train_scores: Vec<f64> = ids.iter().map(|&i| scores[i]).collect();
    let ece = expected_calibration_error(&train_scores, &labels, ECE_BINS);

    let proxy = catalog.proxy_registry().register(TrainedProxy {
        name: stmt.name.clone(),
        table: stmt.table.clone(),
        predicate: column,
        summary: model.summary(),
        calibrated: stmt.calibrated,
        scores,
        train_limit: limit,
        oracle_spend,
        ece,
        auto_selected,
    });
    // A model this one replaced keeps its cached strata only while a
    // statement still holds it.
    catalog.strata_cache().prune();
    Ok(proxy)
}

/// Executes `SHOW PROXIES [FROM table]` against the catalog's registry.
pub(crate) fn run_show_proxies(
    catalog: &Catalog,
    table: Option<&str>,
) -> Result<Vec<Arc<TrainedProxy>>, QueryError> {
    match table {
        Some(name) => {
            if catalog.table(name).is_none() {
                return Err(QueryError::UnknownTable(name.to_string()));
            }
            Ok(catalog.proxy_registry().list(name))
        }
        None => Ok(catalog.proxy_registry().list_all()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CreateProxyStmt;
    use abae_data::Table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A text table whose spam class uses a distinct vocabulary; the
    /// precomputed proxy column is deliberately uninformative so tests can
    /// tell trained scores from the column.
    fn text_table(n: usize) -> Table {
        let spam = ["money", "winner", "claim", "free"];
        let ham = ["meeting", "report", "agenda", "notes"];
        let mut texts = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let is_spam = i % 4 == 0;
            let vocab = if is_spam { &spam } else { &ham };
            texts.push(format!("{} {}", vocab[i % 4], vocab[(i / 4) % 4]));
            labels.push(is_spam);
        }
        let values: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        Table::builder("emails", values)
            .predicate("is_spam", labels, vec![0.5; n])
            .texts(texts)
            .build()
            .unwrap()
    }

    fn stmt(family: Option<ProxyFamily>) -> CreateProxyStmt {
        CreateProxyStmt {
            name: "spamnet".to_string(),
            table: "emails".to_string(),
            predicate: "is_spam".to_string(),
            family,
            calibrated: true,
            train_limit: Some(400),
        }
    }

    #[test]
    fn create_proxy_trains_scores_and_registers() {
        let mut catalog = Catalog::new();
        catalog.register_table(text_table(2000));
        let mut rng = StdRng::seed_from_u64(1);
        let opts = EngineOptions::default();
        let proxy =
            run_create_proxy(&catalog, &stmt(Some(ProxyFamily::Logistic)), &opts, &mut rng, &ExecCtx::for_tests())
                .unwrap();
        assert_eq!(proxy.scores.len(), 2000);
        assert_eq!(proxy.train_limit, 400);
        assert_eq!(proxy.oracle_spend, 400, "every training label charges the oracle");
        assert!(proxy.scores.iter().all(|s| (0.0..=1.0).contains(s)));
        assert!(proxy.summary.family.contains("logistic"), "{}", proxy.summary);
        // Registered and discoverable.
        assert_eq!(catalog.proxy_registry().get("emails", "spamnet").unwrap(), proxy);
        // The trained scores separate the classes (the column is flat 0.5).
        let labels = catalog.table("emails").unwrap().predicate("is_spam").unwrap().labels_vec();
        let auc = abae_ml::auc(&proxy.scores, &labels).expect("both classes");
        assert!(auc > 0.95, "trained proxy AUC {auc}");
    }

    #[test]
    fn omitted_family_is_auto_selected_by_predicted_mse() {
        let mut catalog = Catalog::new();
        catalog.register_table(text_table(2000));
        let mut rng = StdRng::seed_from_u64(2);
        let proxy =
            run_create_proxy(&catalog, &stmt(None), &EngineOptions::default(), &mut rng, &ExecCtx::for_tests())
                .unwrap();
        assert!(proxy.auto_selected);
        // Whatever won must be informative on this separable corpus.
        let labels = catalog.table("emails").unwrap().predicate("is_spam").unwrap().labels_vec();
        let auc = abae_ml::auc(&proxy.scores, &labels).expect("both classes");
        assert!(auc > 0.9, "auto-selected proxy AUC {auc} ({})", proxy.summary);
    }

    #[test]
    fn training_is_deterministic_across_thread_counts() {
        use abae_core::pipeline::ExecOptions;
        let run = |threads: usize, batch: usize| {
            let mut catalog = Catalog::new();
            catalog.register_table(text_table(1500));
            let opts = EngineOptions {
                exec: ExecOptions::new(threads, batch),
                ..EngineOptions::default()
            };
            let mut rng = StdRng::seed_from_u64(7);
            run_create_proxy(&catalog, &stmt(Some(ProxyFamily::Keyword)), &opts, &mut rng, &ExecCtx::for_tests())
                .unwrap()
        };
        let reference = run(1, 64);
        for (threads, batch) in [(8, 7), (2, 1024)] {
            let got = run(threads, batch);
            assert_eq!(got.scores, reference.scores, "threads={threads} batch={batch}");
            assert_eq!(got.ece, reference.ece);
            assert_eq!(got.oracle_spend, reference.oracle_spend);
        }
    }

    #[test]
    fn training_shares_label_store_entries_with_queries() {
        let mut catalog = Catalog::new();
        catalog.register_table(text_table(1000));
        catalog.enable_label_cache();
        let mut rng = StdRng::seed_from_u64(3);
        let proxy = run_create_proxy(
            &catalog,
            &CreateProxyStmt { train_limit: Some(300), ..stmt(Some(ProxyFamily::Keyword)) },
            &EngineOptions::default(),
            &mut rng,
            &ExecCtx::for_tests(),
        )
        .unwrap();
        assert_eq!(proxy.oracle_spend, 300);
        let store = catalog.label_store().unwrap();
        assert_eq!(store.misses(), 300, "training verdicts land in the store");
        // Re-training over the same draw is free: the verdicts are cached.
        let mut rng = StdRng::seed_from_u64(3);
        let again = run_create_proxy(
            &catalog,
            &CreateProxyStmt { train_limit: Some(300), ..stmt(Some(ProxyFamily::Keyword)) },
            &EngineOptions::default(),
            &mut rng,
            &ExecCtx::for_tests(),
        )
        .unwrap();
        assert_eq!(again.oracle_spend, 0, "warm store answers the training draw");
        assert_eq!(again.scores, proxy.scores);
    }

    #[test]
    fn error_paths_name_the_problem() {
        let mut catalog = Catalog::new();
        catalog.register_table(text_table(100));
        let opts = EngineOptions::default();
        let mut rng = StdRng::seed_from_u64(4);
        let missing_table =
            CreateProxyStmt { table: "nowhere".to_string(), ..stmt(None) };
        assert!(matches!(
            run_create_proxy(&catalog, &missing_table, &opts, &mut rng, &ExecCtx::for_tests()),
            Err(QueryError::UnknownTable(t)) if t == "nowhere"
        ));
        let missing_pred =
            CreateProxyStmt { predicate: "mystery".to_string(), ..stmt(None) };
        assert!(matches!(
            run_create_proxy(&catalog, &missing_pred, &opts, &mut rng, &ExecCtx::for_tests()),
            Err(QueryError::UnresolvedPredicate { atom, .. }) if atom == "mystery"
        ));
        let zero = CreateProxyStmt { train_limit: Some(0), ..stmt(None) };
        assert!(matches!(
            run_create_proxy(&catalog, &zero, &opts, &mut rng, &ExecCtx::for_tests()),
            Err(QueryError::Unsupported(msg)) if msg.contains("TRAIN LIMIT")
        ));
        // A name that a column or binding already answers would shadow the
        // trained artifact at USING-resolution time — rejected up front.
        let shadowing = CreateProxyStmt { name: "is_spam".to_string(), ..stmt(None) };
        assert!(matches!(
            run_create_proxy(&catalog, &shadowing, &opts, &mut rng, &ExecCtx::for_tests()),
            Err(QueryError::Unsupported(msg)) if msg.contains("already a predicate column")
        ));
        let mut bound = Catalog::new();
        bound.register_table(text_table(100));
        bound.bind_predicate("emails", "spamish", "is_spam");
        let shadowing_binding = CreateProxyStmt { name: "spamish".to_string(), ..stmt(None) };
        assert!(matches!(
            run_create_proxy(&bound, &shadowing_binding, &opts, &mut rng, &ExecCtx::for_tests()),
            Err(QueryError::Unsupported(msg)) if msg.contains("binding")
        ));
        // A table without texts cannot train.
        let mut no_texts = Catalog::new();
        no_texts.register_table(
            Table::builder("emails", vec![1.0; 10])
                .predicate("is_spam", vec![true; 10], vec![0.5; 10])
                .build()
                .unwrap(),
        );
        assert!(matches!(
            run_create_proxy(&no_texts, &stmt(None), &opts, &mut rng, &ExecCtx::for_tests()),
            Err(QueryError::Unsupported(msg)) if msg.contains("text payloads")
        ));
    }

    #[test]
    fn create_proxy_spend_lands_on_the_session_ledger() {
        let engine = crate::Engine::builder().table(text_table(2000)).build();
        let spend = |session: u64| {
            let ledger = engine.stats().per_session_spend;
            ledger.iter().find(|&&(s, _)| s == session).map_or(0, |&(_, n)| n)
        };
        let before = spend(5);
        let outcome = engine
            .session_with_id(5)
            .run("CREATE PROXY spamnet ON emails(is_spam) USING logistic TRAIN LIMIT 400")
            .unwrap();
        let crate::StatementOutcome::ProxyCreated(proxy) = outcome else {
            panic!("expected a trained proxy, got {outcome:?}");
        };
        assert_eq!(proxy.oracle_spend, 400);
        assert_eq!(spend(5) - before, proxy.oracle_spend, "training spend is booked to session 5");
    }

    #[test]
    fn show_proxies_lists_and_validates_the_table() {
        let mut catalog = Catalog::new();
        catalog.register_table(text_table(500));
        let opts = EngineOptions::default();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(run_show_proxies(&catalog, None).unwrap().is_empty());
        run_create_proxy(&catalog, &stmt(Some(ProxyFamily::Keyword)), &opts, &mut rng, &ExecCtx::for_tests())
            .unwrap();
        let listed = run_show_proxies(&catalog, Some("emails")).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "spamnet");
        assert!(matches!(
            run_show_proxies(&catalog, Some("nope")),
            Err(QueryError::UnknownTable(t)) if t == "nope"
        ));
    }
}
