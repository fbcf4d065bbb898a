//! Catalog: table registry and predicate-atom bindings.
//!
//! A query's predicate atoms (`hair_color(img) = 'blonde'`) must resolve to
//! predicate columns of the target table (`blonde_hair`). Resolution is by
//! exact column name first, then by explicit bindings the application
//! registers — the moral equivalent of the paper's setup step where the
//! user supplies the oracle and proxy for each predicate.

use crate::strata_cache::StrataCache;
use abae_data::{LabelStore, ProxyRegistry, Table};
use std::collections::BTreeMap;

/// A registry of tables and atom-key bindings, optionally carrying a
/// cross-query [`LabelStore`] so repeated queries reuse oracle verdicts,
/// and always carrying a [`ProxyRegistry`] of in-engine-trained proxy
/// artifacts (`CREATE PROXY`) and a [`StrataCache`] of the stratifications
/// statements sort by.
///
/// Shared-ownership contract: a catalog is `Send + Sync` (tables and
/// bindings are plain immutable data; the label store, proxy registry and
/// strata cache synchronize internally), which is what lets
/// [`crate::Engine`] freeze one catalog behind an `Arc` and serve it to
/// any number of concurrent sessions. Structural mutation (`register_table`, `bind_predicate`, the
/// cache toggles) is `&mut self` and therefore happens-before the engine
/// is built; proxy registration goes through the internally-locked
/// registry, so sessions can train proxies against a frozen catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    bindings: BTreeMap<(String, String), String>,
    label_store: Option<LabelStore>,
    proxies: ProxyRegistry,
    strata: StrataCache,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table under its own name. Replaces any previous table
    /// with the same name, dropping any label-cache verdicts, trained
    /// proxy artifacts *and* cached stratifications bought against the
    /// replaced table's data — all would otherwise answer queries over the
    /// new data.
    pub fn register_table(&mut self, table: Table) {
        if let Some(store) = &self.label_store {
            store.invalidate_table(table.name());
        }
        self.proxies.invalidate_table(table.name());
        self.strata.invalidate_table(table.name());
        self.tables.insert(table.name().to_string(), table);
    }

    /// Binds a predicate atom key (e.g. `hair_color=blonde`) to a predicate
    /// column (e.g. `blonde_hair`) of `table`.
    pub fn bind_predicate(
        &mut self,
        table: impl Into<String>,
        atom_key: impl Into<String>,
        column: impl Into<String>,
    ) {
        self.bindings.insert((table.into(), atom_key.into()), column.into());
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Resolves an atom key to a predicate column name for `table`.
    pub fn resolve(&self, table: &str, atom_key: &str) -> Option<String> {
        if let Some(t) = self.tables.get(table) {
            if t.predicate(atom_key).is_ok() {
                return Some(atom_key.to_string());
            }
        }
        self.bindings.get(&(table.to_string(), atom_key.to_string())).cloned()
    }

    /// Atom keys explicitly bound for `table`, sorted (deterministic
    /// error listings).
    pub fn bound_keys(&self, table: &str) -> Vec<String> {
        let mut keys: Vec<String> = self
            .bindings
            .keys()
            .filter(|(t, _)| t == table)
            .map(|(_, key)| key.clone())
            .collect();
        keys.sort();
        keys
    }

    /// Enables the cross-query oracle label cache: scalar queries executed
    /// against this catalog memoize every oracle verdict by `(table,
    /// predicate expression, record index)`, so repeated or overlapping
    /// queries spend oracle budget only on unseen records. Idempotent —
    /// calling it again keeps the existing store and its verdicts.
    pub fn enable_label_cache(&mut self) {
        if self.label_store.is_none() {
            self.label_store = Some(LabelStore::new());
        }
    }

    /// Drops the label cache (and every cached verdict), returning queries
    /// to always-fresh labeling.
    pub fn disable_label_cache(&mut self) {
        self.label_store = None;
    }

    /// The label store, when [`Catalog::enable_label_cache`] was called.
    pub fn label_store(&self) -> Option<&LabelStore> {
        self.label_store.as_ref()
    }

    /// The registry of in-engine-trained proxy artifacts. Internally
    /// synchronized: `CREATE PROXY` registers through a shared reference,
    /// so trained proxies appear on a catalog an engine has already
    /// frozen.
    pub fn proxy_registry(&self) -> &ProxyRegistry {
        &self.proxies
    }

    /// The stratification cache every statement shares: one
    /// stratification per (table, score source, `K`), where a score source
    /// is a proxy column (also a bare atom's and a `GROUP BY` group's), a
    /// trained model or a §3.3 combination of several atoms. Combination
    /// entries are bounded by [`StrataCache::COMBINED_RECORDS_BOUND`] and
    /// evicted least recently used first. Internally synchronized, always
    /// on.
    pub fn strata_cache(&self) -> &StrataCache {
        &self.strata
    }

    /// Swaps in `strata`, e.g. a cache with a bound small enough to reach.
    #[cfg(test)]
    pub(crate) fn set_strata_cache(&mut self, strata: StrataCache) {
        self.strata = strata;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::builder("t", vec![1.0, 2.0])
            .predicate("is_spam", vec![true, false], vec![0.9, 0.1])
            .build()
            .unwrap()
    }

    #[test]
    fn exact_column_name_resolves_without_binding() {
        let mut cat = Catalog::new();
        cat.register_table(table());
        assert_eq!(cat.resolve("t", "is_spam"), Some("is_spam".to_string()));
    }

    #[test]
    fn bindings_resolve_canonical_atom_keys() {
        let mut cat = Catalog::new();
        cat.register_table(table());
        cat.bind_predicate("t", "sentiment=strongly positive", "is_spam");
        assert_eq!(
            cat.resolve("t", "sentiment=strongly positive"),
            Some("is_spam".to_string())
        );
    }

    #[test]
    fn unknown_keys_and_tables_resolve_to_none() {
        let mut cat = Catalog::new();
        cat.register_table(table());
        assert_eq!(cat.resolve("t", "nope"), None);
        assert_eq!(cat.resolve("unknown", "is_spam"), None);
        assert!(cat.table("unknown").is_none());
    }

    #[test]
    fn label_cache_knob_is_idempotent_and_droppable() {
        use abae_data::{CachedOracle, FnOracle, Labeled, Oracle as _};
        let mut cat = Catalog::new();
        assert!(cat.label_store().is_none());
        cat.enable_label_cache();
        {
            let store = cat.label_store().unwrap();
            let oracle = CachedOracle::new(
                FnOracle::new(|i| Labeled { matches: true, value: i as f64 }),
                store,
                "t",
                "p",
            );
            oracle.label_batch(&[1, 2, 3]);
        }
        // Re-enabling keeps the store and its verdicts.
        cat.enable_label_cache();
        assert_eq!(cat.label_store().unwrap().cached_verdicts("t", "p"), 3);
        cat.disable_label_cache();
        assert!(cat.label_store().is_none());
    }

    #[test]
    fn catalog_is_send_sync_for_engine_sharing() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Catalog>();
    }

    #[test]
    fn re_registering_replaces() {
        let mut cat = Catalog::new();
        cat.register_table(table());
        let other = Table::builder("t", vec![9.0]).build().unwrap();
        cat.register_table(other);
        assert_eq!(cat.table("t").unwrap().len(), 1);
    }

    #[test]
    fn re_registering_drops_trained_proxies_of_that_table_only() {
        use abae_data::TrainedProxy;
        use abae_ml::ModelSummary;
        let trained = |tbl: &str, name: &str| TrainedProxy {
            name: name.to_string(),
            table: tbl.to_string(),
            predicate: "is_spam".to_string(),
            summary: ModelSummary { family: "keyword".to_string(), params: vec![] },
            calibrated: false,
            scores: vec![0.5, 0.5],
            train_limit: 2,
            oracle_spend: 2,
            ece: 0.0,
            auto_selected: false,
        };
        let mut cat = Catalog::new();
        cat.register_table(table());
        cat.register_table(Table::builder("u", vec![1.0]).build().unwrap());
        cat.proxy_registry().register(trained("t", "a"));
        cat.proxy_registry().register(trained("u", "b"));
        cat.register_table(table()); // replace `t`
        assert!(cat.proxy_registry().get("t", "a").is_none(), "stale scores must drop");
        assert!(cat.proxy_registry().get("u", "b").is_some(), "other tables unaffected");
    }

    #[test]
    fn re_registering_drops_cached_strata_of_that_table_only() {
        let strata = |cat: &Catalog, tbl: &str| {
            cat.strata_cache().column_strata(cat.table(tbl).unwrap(), 0, 2)
        };
        let mut cat = Catalog::new();
        cat.register_table(table());
        cat.register_table(
            Table::builder("u", vec![1.0, 2.0, 3.0])
                .predicate("is_spam", vec![true, false, true], vec![0.7, 0.2, 0.9])
                .build()
                .unwrap(),
        );
        let old = strata(&cat, "t");
        strata(&cat, "u");
        assert_eq!(cat.strata_cache().cached_records(), 2 + 3);
        assert_eq!(cat.strata_cache().builds(), 2);

        // Replace `t` with different data under the same column name.
        cat.register_table(
            Table::builder("t", vec![5.0, 6.0, 7.0, 8.0])
                .predicate("is_spam", vec![true; 4], vec![0.4, 0.3, 0.2, 0.1])
                .build()
                .unwrap(),
        );
        assert_eq!(cat.strata_cache().cached_records(), 3, "only `u` keeps its entry");
        let fresh = strata(&cat, "t");
        assert_eq!(cat.strata_cache().builds(), 3, "the new data is sorted again");
        assert_eq!(fresh.strata(), &[vec![3, 2], vec![1, 0]]);
        assert_ne!(*fresh, *old);
        strata(&cat, "u");
        assert_eq!(cat.strata_cache().hits(), 1, "other tables keep their strata");
    }
}
