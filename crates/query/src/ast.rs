//! Abstract syntax tree for the ABae SQL dialect.

/// Aggregate functions of Figure 1 (`PERCENTAGE` is the paper's celeba
/// query sugar: an `AVG` over a 0/1 indicator, reported in percent —
/// both the estimate and its CI are scaled by 100, unconditionally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `AVG(expr)`
    Avg,
    /// `SUM(expr)`
    Sum,
    /// `COUNT(expr | *)`
    Count,
    /// `PERCENTAGE(expr)` — executed as `AVG`, scaled to percent.
    Percentage,
}

impl AggFunc {
    /// Maps to the core aggregate.
    pub fn to_core(self) -> abae_core::Aggregate {
        match self {
            AggFunc::Avg | AggFunc::Percentage => abae_core::Aggregate::Avg,
            AggFunc::Sum => abae_core::Aggregate::Sum,
            AggFunc::Count => abae_core::Aggregate::Count,
        }
    }
}

/// A predicate atom: a named expensive predicate, possibly written as a
/// function call and/or compared to a literal. The atom's *canonical key*
/// is what the catalog resolves:
///
/// * `is_spam(text)` → `is_spam`
/// * `hair_color(img) = 'blonde'` → `hair_color=blonde`
/// * `count_cars(frame) > 0` → `count_cars>0`
#[derive(Debug, Clone, PartialEq)]
pub struct PredAtom {
    /// Function or column name.
    pub name: String,
    /// Call arguments (recorded for display; resolution uses the key).
    pub args: Vec<String>,
    /// Optional comparison suffix, e.g. `=blonde` or `>0`.
    pub comparison: Option<String>,
}

impl PredAtom {
    /// The canonical key used for catalog resolution.
    pub fn key(&self) -> String {
        match &self.comparison {
            Some(c) => format!("{}{}", self.name, c),
            None => self.name.clone(),
        }
    }
}

/// Boolean filter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr {
    /// An expensive predicate atom.
    Atom(PredAtom),
    /// Logical negation.
    Not(Box<BoolExpr>),
    /// Logical conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Logical disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
}

impl BoolExpr {
    /// Collects the distinct atom keys, left to right.
    pub fn atom_keys(&self) -> Vec<String> {
        self.atoms().iter().map(|a| a.key()).collect()
    }

    /// The first atom of every distinct key, left to right: aligned with
    /// [`BoolExpr::atom_keys`].
    pub fn atoms(&self) -> Vec<&PredAtom> {
        let mut atoms = Vec::new();
        self.collect_atoms(&mut atoms);
        atoms
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a PredAtom>) {
        match self {
            BoolExpr::Atom(a) => {
                let key = a.key();
                if !out.iter().any(|seen| seen.key() == key) {
                    out.push(a);
                }
            }
            BoolExpr::Not(e) => e.collect_atoms(out),
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }

    /// Lowers to a core predicate expression given the atom-key → predicate
    /// index mapping produced by the binder.
    pub fn to_pred_expr(&self, index_of: &dyn Fn(&str) -> usize) -> abae_core::multipred::PredExpr {
        use abae_core::multipred::PredExpr;
        match self {
            BoolExpr::Atom(a) => PredExpr::Pred(index_of(&a.key())),
            BoolExpr::Not(e) => PredExpr::not(e.to_pred_expr(index_of)),
            BoolExpr::And(a, b) => {
                PredExpr::and(a.to_pred_expr(index_of), b.to_pred_expr(index_of))
            }
            BoolExpr::Or(a, b) => {
                PredExpr::or(a.to_pred_expr(index_of), b.to_pred_expr(index_of))
            }
        }
    }
}

/// One aggregate of a `SELECT` list: the function and the aggregated
/// expression as written (`views`, `count_cars(frame)`, `*`). The dataset
/// substrate carries one statistic column per table; the expression is
/// validated for display but not re-computed.
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    /// Aggregate function.
    pub func: AggFunc,
    /// Aggregated expression as written.
    pub expr: String,
}

/// Which tunable clauses were written as `?` placeholders instead of
/// literals. A placeholder query cannot be executed directly — it must be
/// prepared and the parameter bound (`Prepared::with_budget` /
/// `Prepared::with_probability`), which is how a dashboard re-runs one
/// parsed-and-planned statement under many budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Placeholders {
    /// The query was written `ORACLE LIMIT ?`.
    pub oracle_limit: bool,
    /// The query was written `WITH PROBABILITY ?`.
    pub probability: bool,
    /// The query was written `UNTIL CI WIDTH < ?`.
    pub until_width: bool,
}

impl Placeholders {
    /// Whether any clause is an unbound placeholder.
    pub fn any(&self) -> bool {
        self.oracle_limit || self.probability || self.until_width
    }
}

/// A parsed ABae query (Figure 1), extended with multi-aggregate `SELECT`
/// lists: `SELECT COUNT(*), SUM(views), AVG(views) FROM ...` answers every
/// aggregate from one shared labeling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Aggregates of the `SELECT` list, in query order (at least one).
    pub aggs: Vec<AggItem>,
    /// Source table name.
    pub table: String,
    /// Filter over expensive predicates.
    pub predicate: BoolExpr,
    /// Optional group-by key expression.
    pub group_by: Option<String>,
    /// Early-stop CI width target (`UNTIL CI WIDTH < x MAX`): the query
    /// stops spending oracle budget once the confidence interval is
    /// narrower than `x`, capped by the `ORACLE LIMIT` that follows.
    /// `None` when the clause is absent (blocking execution); `Some(0.0)`
    /// when written as the `?` placeholder — check [`Query::placeholders`].
    pub until_width: Option<f64>,
    /// Oracle budget (`ORACLE LIMIT o`; `0` when written as the `?`
    /// placeholder — check [`Query::placeholders`]).
    pub oracle_limit: usize,
    /// Proxy name (`USING proxy`); `None` lets the executor use each
    /// predicate's own proxy column.
    pub proxy: Option<String>,
    /// Success probability (`WITH PROBABILITY p`; the `0.95` default when
    /// written as the `?` placeholder — check [`Query::placeholders`]).
    pub probability: f64,
    /// Which clauses were written as `?` placeholders. Placeholder values
    /// must be bound before execution; the literal fields above hold inert
    /// defaults for them.
    pub placeholders: Placeholders,
}

impl Query {
    /// The first (primary) aggregate of the `SELECT` list.
    pub fn primary_agg(&self) -> &AggItem {
        self.aggs.first().expect("the parser guarantees at least one aggregate")
    }
}

/// Trainable proxy-model family named in `CREATE PROXY ... USING <family>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyFamily {
    /// Learned keyword list (`abae_ml::KeywordModel`).
    Keyword,
    /// Logistic regression over hashed token features
    /// (`abae_ml::LogisticModel`).
    Logistic,
}

impl ProxyFamily {
    /// The family's SQL keyword, lowercase.
    pub fn keyword(self) -> &'static str {
        match self {
            ProxyFamily::Keyword => "keyword",
            ProxyFamily::Logistic => "logistic",
        }
    }
}

/// A parsed `CREATE PROXY` statement:
///
/// ```text
/// CREATE PROXY <name> ON <table>(<predicate>)
///     [USING {keyword | logistic}] [CALIBRATED] [TRAIN LIMIT n]
/// ```
///
/// Execution draws `TRAIN LIMIT` records, labels them through the oracle
/// (charging the budget), fits the named family — or, with `USING`
/// omitted, fits every family and keeps the §3.4 predicted-MSE winner —
/// scores the whole table in parallel batches, and registers the artifact
/// with the engine's catalog so later queries can name it with `USING`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateProxyStmt {
    /// Artifact name later queries reference with `USING <name>`.
    pub name: String,
    /// Table to train and score on.
    pub table: String,
    /// Predicate atom key supplying the training labels (resolved through
    /// the catalog like a `WHERE` atom).
    pub predicate: String,
    /// Model family; `None` auto-selects by predicted MSE (§3.4).
    pub family: Option<ProxyFamily>,
    /// Whether to Platt-calibrate the fitted model on the training draw.
    pub calibrated: bool,
    /// Training labels to buy; `None` uses the engine default.
    pub train_limit: Option<usize>,
}

/// One parsed statement of the dialect: a Figure-1 query, or one of the
/// proxy-management statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT` query.
    Select(Query),
    /// `CREATE PROXY ...` — train and register a proxy model in-engine.
    CreateProxy(CreateProxyStmt),
    /// `SHOW PROXIES [FROM table]` — list registered trained proxies.
    ShowProxies(Option<String>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_keys_are_canonical() {
        let plain = PredAtom { name: "is_spam".into(), args: vec!["text".into()], comparison: None };
        assert_eq!(plain.key(), "is_spam");
        let eq = PredAtom {
            name: "hair_color".into(),
            args: vec!["img".into()],
            comparison: Some("=blonde".into()),
        };
        assert_eq!(eq.key(), "hair_color=blonde");
    }

    #[test]
    fn atom_keys_deduplicate() {
        let atom = |n: &str| {
            BoolExpr::Atom(PredAtom { name: n.into(), args: vec![], comparison: None })
        };
        let expr = BoolExpr::And(
            Box::new(atom("a")),
            Box::new(BoolExpr::Or(Box::new(atom("b")), Box::new(atom("a")))),
        );
        assert_eq!(expr.atom_keys(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn lowering_preserves_structure() {
        use abae_core::multipred::PredExpr;
        let atom = |n: &str| {
            BoolExpr::Atom(PredAtom { name: n.into(), args: vec![], comparison: None })
        };
        let expr = BoolExpr::Not(Box::new(BoolExpr::And(
            Box::new(atom("x")),
            Box::new(atom("y")),
        )));
        let lowered = expr.to_pred_expr(&|key| if key == "x" { 0 } else { 1 });
        assert_eq!(
            lowered,
            PredExpr::not(PredExpr::and(PredExpr::Pred(0), PredExpr::Pred(1)))
        );
    }

    #[test]
    fn percentage_maps_to_avg() {
        assert_eq!(AggFunc::Percentage.to_core(), abae_core::Aggregate::Avg);
        assert_eq!(AggFunc::Count.to_core(), abae_core::Aggregate::Count);
    }
}
