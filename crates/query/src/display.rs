//! SQL rendering and `EXPLAIN`.
//!
//! [`Query`] and [`BoolExpr`] render back to the dialect's syntax (so
//! programmatically built queries can be logged and re-parsed), and
//! [`crate::Session::explain`] describes the physical plan — which
//! algorithm will run, the resolved predicate columns, and how the oracle
//! budget splits across stages — without spending any oracle calls.

use crate::ast::{AggFunc, BoolExpr, CreateProxyStmt, ProxyFamily, Query, Statement};
use std::fmt;

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AggFunc::Avg => "AVG",
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Percentage => "PERCENTAGE",
        };
        write!(f, "{name}")
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Atom(a) => {
                write!(f, "{}", a.name)?;
                if !a.args.is_empty() {
                    write!(f, "({})", a.args.join(", "))?;
                }
                if let Some(cmp) = &a.comparison {
                    // Comparison suffixes store e.g. "=blonde" / ">0";
                    // string literals re-quote for valid SQL.
                    let (op, value) = split_comparison(cmp);
                    if value.parse::<f64>().is_ok() {
                        write!(f, " {op} {value}")?;
                    } else {
                        write!(f, " {op} '{value}'")?;
                    }
                }
                Ok(())
            }
            BoolExpr::Not(e) => write!(f, "NOT ({e})"),
            BoolExpr::And(a, b) => write!(f, "({a} AND {b})"),
            BoolExpr::Or(a, b) => write!(f, "({a} OR {b})"),
        }
    }
}

fn split_comparison(cmp: &str) -> (&str, &str) {
    for op in ["!=", ">=", "<=", "=", ">", "<"] {
        if let Some(rest) = cmp.strip_prefix(op) {
            return (op, rest);
        }
    }
    ("=", cmp)
}

impl fmt::Display for crate::ast::AggItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.func, self.expr)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, item) in self.aggs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        if let Some(key) = &self.group_by {
            write!(f, ", {key}")?;
        }
        write!(f, " FROM {} WHERE {}", self.table, self.predicate)?;
        if let Some(key) = &self.group_by {
            write!(f, " GROUP BY {key}")?;
        }
        if self.placeholders.until_width {
            write!(f, " UNTIL CI WIDTH < ? MAX")?;
        } else if let Some(w) = self.until_width {
            write!(f, " UNTIL CI WIDTH < {w} MAX")?;
        }
        if self.placeholders.oracle_limit {
            write!(f, " ORACLE LIMIT ?")?;
        } else {
            write!(f, " ORACLE LIMIT {}", self.oracle_limit)?;
        }
        if let Some(p) = &self.proxy {
            write!(f, " USING {p}")?;
        }
        if self.placeholders.probability {
            write!(f, " WITH PROBABILITY ?")
        } else {
            write!(f, " WITH PROBABILITY {}", self.probability)
        }
    }
}

impl fmt::Display for ProxyFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.keyword())
    }
}

impl fmt::Display for CreateProxyStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE PROXY {} ON {}({})", self.name, self.table, self.predicate)?;
        if let Some(family) = self.family {
            write!(f, " USING {family}")?;
        }
        if self.calibrated {
            write!(f, " CALIBRATED")?;
        }
        if let Some(limit) = self.train_limit {
            write!(f, " TRAIN LIMIT {limit}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(q) => write!(f, "{q}"),
            Statement::CreateProxy(c) => write!(f, "{c}"),
            Statement::ShowProxies(None) => write!(f, "SHOW PROXIES"),
            Statement::ShowProxies(Some(table)) => write!(f, "SHOW PROXIES FROM {table}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::{parse_query, parse_statement};

    fn roundtrip(sql: &str) {
        let q1 = parse_query(sql).expect("valid input");
        let rendered = format!("{q1}");
        let q2 = parse_query(&rendered)
            .unwrap_or_else(|e| panic!("rendered `{rendered}` failed to parse: {e}"));
        // Semantic equivalence: everything except argument formatting.
        assert_eq!(q1.aggs, q2.aggs);
        assert_eq!(q1.table, q2.table);
        assert_eq!(q1.oracle_limit, q2.oracle_limit);
        assert_eq!(q1.probability, q2.probability);
        assert_eq!(q1.placeholders, q2.placeholders);
        assert_eq!(q1.group_by, q2.group_by);
        assert_eq!(q1.until_width, q2.until_width);
        assert_eq!(q1.predicate.atom_keys(), q2.predicate.atom_keys());
    }

    #[test]
    fn single_predicate_roundtrips() {
        roundtrip("SELECT AVG(views) FROM news WHERE is_spam ORACLE LIMIT 100");
    }

    #[test]
    fn complex_predicates_roundtrip() {
        roundtrip(
            "SELECT AVG(count_cars(frame)) FROM video \
             WHERE count_cars(frame) > 0 AND (red_light(frame) OR NOT fog(frame)) \
             ORACLE LIMIT 1,000 USING proxy WITH PROBABILITY 0.9",
        );
    }

    #[test]
    fn string_comparisons_roundtrip() {
        roundtrip(
            "SELECT PERCENTAGE(smiles(img)), hair FROM faces \
             WHERE hair_color(img) = 'strongly blond' GROUP BY hair_color(img) \
             ORACLE LIMIT 500",
        );
    }

    #[test]
    fn multi_aggregate_lists_roundtrip() {
        roundtrip(
            "SELECT COUNT(*), SUM(views), AVG(views) FROM news WHERE interesting \
             ORACLE LIMIT 2,000 WITH PROBABILITY 0.9",
        );
    }

    #[test]
    fn placeholder_queries_roundtrip() {
        roundtrip("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT ? WITH PROBABILITY ?");
        roundtrip("SELECT COUNT(*) FROM t WHERE p ORACLE LIMIT ?");
        roundtrip("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 100 WITH PROBABILITY ?");
        let q = parse_query("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT ?").unwrap();
        assert!(format!("{q}").contains("ORACLE LIMIT ?"), "{q}");
    }

    #[test]
    fn until_ci_width_queries_roundtrip() {
        roundtrip("SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < 0.5 MAX ORACLE LIMIT 1000");
        roundtrip(
            "SELECT COUNT(frame), person FROM news WHERE seen(frame) GROUP BY person \
             UNTIL CI WIDTH < 2 MAX ORACLE LIMIT 500",
        );
        roundtrip("SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < ? MAX ORACLE LIMIT ?");
        let q = crate::parser::parse_query(
            "select avg(x) from t where p until ci width < 0.5 max oracle limit 1000",
        )
        .unwrap();
        assert_eq!(
            format!("{q}"),
            "SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < 0.5 MAX \
             ORACLE LIMIT 1000 WITH PROBABILITY 0.95"
        );
        let q = crate::parser::parse_query(
            "SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < ? MAX ORACLE LIMIT 10",
        )
        .unwrap();
        assert!(format!("{q}").contains("UNTIL CI WIDTH < ? MAX"), "{q}");
    }

    #[test]
    fn rendering_is_deterministic() {
        let q = parse_query("SELECT SUM(x) FROM t WHERE a AND b OR c ORACLE LIMIT 7").unwrap();
        assert_eq!(format!("{q}"), format!("{q}"));
    }

    fn roundtrip_statement(sql: &str) {
        let s1 = parse_statement(sql).expect("valid input");
        let rendered = format!("{s1}");
        let s2 = parse_statement(&rendered)
            .unwrap_or_else(|e| panic!("rendered `{rendered}` failed to parse: {e}"));
        assert_eq!(s1, s2, "statement roundtrip changed `{sql}` → `{rendered}`");
    }

    #[test]
    fn create_proxy_statements_roundtrip() {
        roundtrip_statement(
            "CREATE PROXY spamnet ON trec05p(is_spam) USING logistic CALIBRATED \
             TRAIN LIMIT 2,000",
        );
        roundtrip_statement("CREATE PROXY kw ON emails(is_spam) USING keyword");
        roundtrip_statement("create proxy auto_pick on emails(is_spam) calibrated");
        roundtrip_statement("CREATE PROXY p ON t(is_spam) TRAIN LIMIT 50;");
    }

    #[test]
    fn show_proxies_statements_roundtrip() {
        roundtrip_statement("SHOW PROXIES");
        roundtrip_statement("show proxies from trec05p");
    }

    #[test]
    fn select_statements_roundtrip_through_the_statement_parser() {
        roundtrip_statement(
            "SELECT AVG(links) FROM trec05p WHERE is_spam ORACLE LIMIT 100 \
             USING spamnet WITH PROBABILITY 0.9",
        );
    }
}
