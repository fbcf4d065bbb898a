//! Recursive-descent parser for the ABae SQL dialect (Figure 1), plus the
//! proxy-management statements.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement := query | create_proxy | show_proxies
//! query    := SELECT agg_item (',' agg_item)* [',' ident] FROM ident
//!             WHERE or_expr
//!             [GROUP BY ident_expr]
//!             [UNTIL CI WIDTH '<' (number | '?') MAX]
//!             ORACLE LIMIT (number | '?') [USING ident]
//!             [WITH PROBABILITY (number | '?')] [';']
//! agg_item := agg '(' agg_expr ')'
//! agg      := AVG | SUM | COUNT | PERCENTAGE
//! or_expr  := and_expr (OR and_expr)*
//! and_expr := not_expr (AND not_expr)*
//! not_expr := NOT not_expr | '(' or_expr ')' | atom
//! atom     := ident ['(' args ')'] [cmp literal]
//! create_proxy := CREATE PROXY ident ON ident '(' ident ')'
//!                 [USING (KEYWORD | LOGISTIC)] [CALIBRATED]
//!                 [TRAIN LIMIT number] [';']
//! show_proxies := SHOW PROXIES [FROM ident] [';']
//! ```
//!
//! The `SELECT` list accepts several aggregates (answered from one shared
//! labeling pass) and, for group-by queries, a trailing projected key as in
//! the paper's `SELECT COUNT(frame), person FROM ...`. A list entry is an
//! aggregate when it is one of the four aggregate names followed by `(`;
//! anything else is the projected key and must come last.

use crate::ast::{
    AggFunc, AggItem, BoolExpr, CreateProxyStmt, Placeholders, PredAtom, ProxyFamily, Query,
    Statement,
};
use crate::lexer::{tokenize, LexError, Token, TokenKind};

/// Parse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// Unexpected token or end of input.
    Unexpected {
        /// What the parser needed.
        expected: String,
        /// What it found (`<eof>` at end of input).
        found: String,
        /// Byte offset.
        offset: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { expected, found, offset } => {
                write!(f, "parse error at byte {offset}: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map(|t| t.offset).unwrap_or(usize::MAX)
    }

    fn found(&self) -> String {
        match self.peek() {
            Some(k) => format!("{k:?}"),
            None => "<eof>".to_string(),
        }
    }

    fn error(&self, expected: &str) -> ParseError {
        ParseError::Unexpected {
            expected: expected.to_string(),
            found: self.found(),
            offset: self.offset(),
        }
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        self.pos += 1;
        t
    }

    /// Consumes an identifier matching `kw` case-insensitively.
    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.error(&format!("keyword {kw}"))),
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(kw))
            && self.bump().is_some()
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error(what)),
        }
    }

    fn number(&mut self, what: &str) -> Result<f64, ParseError> {
        match self.peek() {
            Some(TokenKind::Number(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(n)
            }
            _ => Err(self.error(what)),
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(kind) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    /// Whether the upcoming tokens start another aggregate of the `SELECT`
    /// list: one of the four aggregate names immediately followed by `(`.
    /// (A bare identifier is the group-by projected key instead.)
    fn at_agg_item(&self) -> bool {
        let is_agg_name = matches!(
            self.peek(),
            Some(TokenKind::Ident(s))
                if ["AVG", "SUM", "COUNT", "PERCENTAGE"]
                    .iter()
                    .any(|kw| s.eq_ignore_ascii_case(kw))
        );
        is_agg_name
            && matches!(self.tokens.get(self.pos + 1).map(|t| &t.kind), Some(TokenKind::LParen))
    }

    /// Parses one `SELECT`-list aggregate: `FUNC '(' expr ')'`.
    fn agg_item(&mut self) -> Result<AggItem, ParseError> {
        let func = self.agg_func()?;
        self.expect(&TokenKind::LParen, "`(`")?;
        let expr = self.agg_expr()?;
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok(AggItem { func, expr })
    }

    fn agg_func(&mut self) -> Result<AggFunc, ParseError> {
        let name = self.ident("aggregate function (AVG | SUM | COUNT | PERCENTAGE)")?;
        match name.to_ascii_uppercase().as_str() {
            "AVG" => Ok(AggFunc::Avg),
            "SUM" => Ok(AggFunc::Sum),
            "COUNT" => Ok(AggFunc::Count),
            "PERCENTAGE" => Ok(AggFunc::Percentage),
            other => Err(ParseError::Unexpected {
                expected: "AVG | SUM | COUNT | PERCENTAGE".to_string(),
                found: other.to_string(),
                offset: self.offset(),
            }),
        }
    }

    /// Parses the aggregated expression inside `AGG( ... )` as raw text
    /// (identifier, nested call, or `*`).
    fn agg_expr(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(TokenKind::Star) => {
                self.pos += 1;
                Ok("*".to_string())
            }
            Some(TokenKind::Ident(_)) => {
                let name = self.ident("expression")?;
                if self.peek() == Some(&TokenKind::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&TokenKind::RParen) {
                        loop {
                            args.push(self.ident("argument")?);
                            if self.peek() == Some(&TokenKind::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen, "`)`")?;
                    Ok(format!("{name}({})", args.join(", ")))
                } else {
                    Ok(name)
                }
            }
            _ => Err(self.error("aggregated expression")),
        }
    }

    fn or_expr(&mut self) -> Result<BoolExpr, ParseError> {
        let mut left = self.and_expr()?;
        while self.try_keyword("OR") {
            let right = self.and_expr()?;
            left = BoolExpr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<BoolExpr, ParseError> {
        let mut left = self.not_expr()?;
        while self.try_keyword("AND") {
            let right = self.not_expr()?;
            left = BoolExpr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<BoolExpr, ParseError> {
        if self.try_keyword("NOT") {
            return Ok(BoolExpr::Not(Box::new(self.not_expr()?)));
        }
        if self.peek() == Some(&TokenKind::LParen) {
            self.pos += 1;
            let inner = self.or_expr()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            return Ok(inner);
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<BoolExpr, ParseError> {
        let name = self.ident("predicate")?;
        let mut args = Vec::new();
        if self.peek() == Some(&TokenKind::LParen) {
            self.pos += 1;
            if self.peek() != Some(&TokenKind::RParen) {
                loop {
                    match self.peek() {
                        Some(TokenKind::Ident(s)) => {
                            args.push(s.clone());
                            self.pos += 1;
                        }
                        Some(TokenKind::Str(s)) => {
                            args.push(s.clone());
                            self.pos += 1;
                        }
                        Some(TokenKind::Number(n)) => {
                            args.push(format!("{n}"));
                            self.pos += 1;
                        }
                        _ => return Err(self.error("argument")),
                    }
                    if self.peek() == Some(&TokenKind::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen, "`)`")?;
        }
        // Optional comparison to a literal.
        let comparison = match self.peek() {
            Some(TokenKind::Eq) => {
                self.pos += 1;
                Some(format!("={}", self.literal()?))
            }
            Some(TokenKind::Neq) => {
                self.pos += 1;
                Some(format!("!={}", self.literal()?))
            }
            Some(TokenKind::Gt) => {
                self.pos += 1;
                Some(format!(">{}", self.literal()?))
            }
            Some(TokenKind::Ge) => {
                self.pos += 1;
                Some(format!(">={}", self.literal()?))
            }
            Some(TokenKind::Lt) => {
                self.pos += 1;
                Some(format!("<{}", self.literal()?))
            }
            Some(TokenKind::Le) => {
                self.pos += 1;
                Some(format!("<={}", self.literal()?))
            }
            _ => None,
        };
        Ok(BoolExpr::Atom(PredAtom { name, args, comparison }))
    }

    fn literal(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(TokenKind::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(TokenKind::Number(n)) => {
                let n = *n;
                self.pos += 1;
                // Render integers without the trailing `.0`.
                if n.fract() == 0.0 {
                    Ok(format!("{}", n as i64))
                } else {
                    Ok(format!("{n}"))
                }
            }
            Some(TokenKind::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error("literal")),
        }
    }

    /// Parses a group-by key: identifier with optional call arguments,
    /// returned as the bare name (e.g. `HAIR_COLOR(image)` → `HAIR_COLOR`).
    fn group_key(&mut self) -> Result<String, ParseError> {
        let name = self.ident("group-by key")?;
        if self.peek() == Some(&TokenKind::LParen) {
            self.pos += 1;
            while self.peek() != Some(&TokenKind::RParen) {
                if self.bump().is_none() {
                    return Err(self.error("`)`"));
                }
            }
            self.pos += 1;
        }
        Ok(name)
    }

    /// Consumes an optional trailing semicolon and requires end of input.
    fn finish(&mut self, what: &str) -> Result<(), ParseError> {
        let _ = self.peek() == Some(&TokenKind::Semicolon) && self.bump().is_some();
        if self.peek().is_some() {
            return Err(self.error(what));
        }
        Ok(())
    }

    /// Parses a full `SELECT` query (Figure 1).
    fn query(&mut self) -> Result<Query, ParseError> {
        self.keyword("SELECT")?;
        let mut aggs = vec![self.agg_item()?];

        // Further `SELECT`-list entries: more aggregates (answered from the
        // same labeling pass), then optionally one projected group key (as
        // in the paper's `SELECT COUNT(frame), person FROM ...`), which
        // must be the last entry.
        let mut projected_key: Option<String> = None;
        while self.peek() == Some(&TokenKind::Comma) {
            self.pos += 1;
            if self.at_agg_item() {
                aggs.push(self.agg_item()?);
            } else {
                projected_key = Some(self.ident("aggregate or projected key")?);
                break;
            }
        }

        self.keyword("FROM")?;
        let table = self.ident("table name")?;
        self.keyword("WHERE")?;
        let predicate = self.or_expr()?;

        let mut group_by = None;
        if self.try_keyword("GROUP") {
            self.keyword("BY")?;
            group_by = Some(self.group_key()?);
        } else if projected_key.is_some() {
            return Err(self.error("GROUP BY (query projects a key)"));
        }

        let mut placeholders = Placeholders::default();

        // `UNTIL CI WIDTH < x MAX ORACLE LIMIT n`: stop early once the CI
        // is narrower than `x`, never spending more than `n`. The `MAX`
        // keyword is mandatory — the budget that follows is a cap, not a
        // target.
        let mut until_width = None;
        if self.try_keyword("UNTIL") {
            self.keyword("CI")?;
            self.keyword("WIDTH")?;
            self.expect(&TokenKind::Lt, "`<`")?;
            if self.peek() == Some(&TokenKind::Question) {
                self.pos += 1;
                placeholders.until_width = true;
                until_width = Some(0.0);
            } else {
                until_width = Some(self.number("CI width target or `?`")?);
            }
            self.keyword("MAX")?;
        }

        self.keyword("ORACLE")?;
        self.keyword("LIMIT")?;
        // `ORACLE LIMIT ?` defers the budget to Prepared::with_budget.
        let limit = if self.peek() == Some(&TokenKind::Question) {
            self.pos += 1;
            placeholders.oracle_limit = true;
            0.0
        } else {
            self.number("oracle limit or `?`")?
        };

        let mut proxy = None;
        if self.try_keyword("USING") {
            proxy = Some(self.ident("proxy name")?);
            // Allow a call form `proxy(frame)`.
            if self.peek() == Some(&TokenKind::LParen) {
                self.pos += 1;
                while self.peek() != Some(&TokenKind::RParen) {
                    if self.bump().is_none() {
                        return Err(self.error("`)`"));
                    }
                }
                self.pos += 1;
            }
        }

        let mut probability = 0.95;
        if self.try_keyword("WITH") {
            self.keyword("PROBABILITY")?;
            if self.peek() == Some(&TokenKind::Question) {
                self.pos += 1;
                placeholders.probability = true;
            } else {
                probability = self.number("probability or `?`")?;
            }
        }

        self.finish("end of query")?;

        Ok(Query {
            aggs,
            table,
            predicate,
            group_by,
            until_width,
            oracle_limit: limit.max(0.0) as usize,
            proxy,
            probability,
            placeholders,
        })
    }

    /// Parses `CREATE PROXY name ON table(pred) [USING family]
    /// [CALIBRATED] [TRAIN LIMIT n]`.
    fn create_proxy(&mut self) -> Result<CreateProxyStmt, ParseError> {
        self.keyword("CREATE")?;
        self.keyword("PROXY")?;
        let name = self.ident("proxy name")?;
        self.keyword("ON")?;
        let table = self.ident("table name")?;
        self.expect(&TokenKind::LParen, "`(`")?;
        let predicate = self.ident("predicate name")?;
        self.expect(&TokenKind::RParen, "`)`")?;

        let mut family = None;
        if self.try_keyword("USING") {
            let offset = self.offset();
            let f = self.ident("proxy family (keyword | logistic)")?;
            family = Some(match f.to_ascii_lowercase().as_str() {
                "keyword" => ProxyFamily::Keyword,
                "logistic" => ProxyFamily::Logistic,
                other => {
                    return Err(ParseError::Unexpected {
                        expected: "keyword | logistic".to_string(),
                        found: other.to_string(),
                        offset,
                    })
                }
            });
        }
        let calibrated = self.try_keyword("CALIBRATED");
        let mut train_limit = None;
        if self.try_keyword("TRAIN") {
            self.keyword("LIMIT")?;
            train_limit = Some(self.number("train limit")?.max(0.0) as usize);
        }
        self.finish("end of CREATE PROXY statement")?;
        Ok(CreateProxyStmt { name, table, predicate, family, calibrated, train_limit })
    }

    /// Parses `SHOW PROXIES [FROM table]`.
    fn show_proxies(&mut self) -> Result<Option<String>, ParseError> {
        self.keyword("SHOW")?;
        self.keyword("PROXIES")?;
        let table =
            if self.try_keyword("FROM") { Some(self.ident("table name")?) } else { None };
        self.finish("end of SHOW PROXIES statement")?;
        Ok(table)
    }
}

/// Parses one ABae query.
///
/// ```
/// use abae_query::parse_query;
///
/// let q = parse_query(
///     "SELECT AVG(views) FROM news WHERE contains_candidate(frame, 'Biden') \
///      ORACLE LIMIT 10,000 USING proxy WITH PROBABILITY 0.95",
/// ).unwrap();
/// assert_eq!(q.table, "news");
/// assert_eq!(q.oracle_limit, 10_000);
/// assert_eq!(q.predicate.atom_keys(), vec!["contains_candidate".to_string()]);
/// ```
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(input)?;
    Parser { tokens, pos: 0 }.query()
}

/// Parses one statement of the dialect: a `SELECT` query, `CREATE PROXY`,
/// or `SHOW PROXIES` — dispatched on the leading keyword.
///
/// ```
/// use abae_query::{parse_statement, Statement};
///
/// let s = parse_statement(
///     "CREATE PROXY spamnet ON emails(is_spam) USING logistic CALIBRATED TRAIN LIMIT 1,000",
/// ).unwrap();
/// match s {
///     Statement::CreateProxy(c) => {
///         assert_eq!(c.name, "spamnet");
///         assert_eq!(c.train_limit, Some(1_000));
///         assert!(c.calibrated);
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    match p.peek() {
        Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case("CREATE") => {
            p.create_proxy().map(Statement::CreateProxy)
        }
        Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case("SHOW") => {
            p.show_proxies().map(Statement::ShowProxies)
        }
        _ => p.query().map(Statement::Select),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BoolExpr;

    #[test]
    fn parses_the_tv_news_example() {
        let q = parse_query(
            "SELECT AVG(views) FROM news \
             WHERE contains_candidate(frame, 'Biden') \
             ORACLE LIMIT 10,000 USING proxy(frame) \
             WITH PROBABILITY 0.95",
        )
        .unwrap();
        assert_eq!(q.primary_agg().func, AggFunc::Avg);
        assert_eq!(q.primary_agg().expr, "views");
        assert_eq!(q.aggs.len(), 1);
        assert_eq!(q.table, "news");
        assert_eq!(q.oracle_limit, 10_000);
        assert_eq!(q.proxy.as_deref(), Some("proxy"));
        assert_eq!(q.probability, 0.95);
        match &q.predicate {
            BoolExpr::Atom(a) => {
                assert_eq!(a.name, "contains_candidate");
                assert_eq!(a.args, vec!["frame".to_string(), "Biden".to_string()]);
                assert_eq!(a.key(), "contains_candidate");
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn parses_the_traffic_example_with_conjunction_and_comparison() {
        let q = parse_query(
            "SELECT AVG(count_cars(frame)) FROM video \
             WHERE count_cars(frame) > 0 AND red_light(frame) \
             ORACLE LIMIT 1,000 USING proxy(frame) \
             WITH PROBABILITY 0.95",
        )
        .unwrap();
        assert_eq!(q.primary_agg().expr, "count_cars(frame)");
        match &q.predicate {
            BoolExpr::And(l, r) => {
                match l.as_ref() {
                    BoolExpr::Atom(a) => assert_eq!(a.key(), "count_cars>0"),
                    other => panic!("{other:?}"),
                }
                match r.as_ref() {
                    BoolExpr::Atom(a) => assert_eq!(a.key(), "red_light"),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn parses_group_by_with_projection_and_in_style_or() {
        let q = parse_query(
            "SELECT PERCENTAGE(is_smiling(image)) FROM images \
             WHERE HAIR_COLOR(image) = 'gray' OR HAIR_COLOR(image) = 'blond' \
             GROUP BY HAIR_COLOR(image) \
             ORACLE LIMIT 2000 WITH PROBABILITY 0.95",
        )
        .unwrap();
        assert_eq!(q.primary_agg().func, AggFunc::Percentage);
        assert_eq!(q.group_by.as_deref(), Some("HAIR_COLOR"));
        assert_eq!(
            q.predicate.atom_keys(),
            vec!["HAIR_COLOR=gray".to_string(), "HAIR_COLOR=blond".to_string()]
        );
    }

    #[test]
    fn defaults_probability_when_omitted() {
        let q = parse_query(
            "SELECT COUNT(*) FROM emails WHERE is_spam ORACLE LIMIT 500",
        )
        .unwrap();
        assert_eq!(q.probability, 0.95);
        assert_eq!(q.primary_agg().expr, "*");
        assert!(q.proxy.is_none());
    }

    #[test]
    fn parses_multi_aggregate_select_lists() {
        let q = parse_query(
            "SELECT COUNT(*), SUM(views), AVG(views) FROM news WHERE is_interesting \
             ORACLE LIMIT 5000 WITH PROBABILITY 0.95",
        )
        .unwrap();
        assert_eq!(q.aggs.len(), 3);
        assert_eq!(q.aggs[0], AggItem { func: AggFunc::Count, expr: "*".into() });
        assert_eq!(q.aggs[1], AggItem { func: AggFunc::Sum, expr: "views".into() });
        assert_eq!(q.aggs[2], AggItem { func: AggFunc::Avg, expr: "views".into() });
        assert!(q.group_by.is_none());
    }

    #[test]
    fn multi_aggregate_list_allows_a_trailing_projected_key() {
        // Aggregates, then a projected key, then GROUP BY — all accepted.
        let q = parse_query(
            "SELECT COUNT(frame), AVG(views), person FROM news WHERE seen(frame) \
             GROUP BY person ORACLE LIMIT 100",
        )
        .unwrap();
        assert_eq!(q.aggs.len(), 2);
        assert_eq!(q.group_by.as_deref(), Some("person"));
        // The projected key must be last: a key before an aggregate fails.
        assert!(parse_query(
            "SELECT COUNT(frame), person, AVG(views) FROM news WHERE seen(frame) \
             GROUP BY person ORACLE LIMIT 100",
        )
        .is_err());
        // A lone trailing comma is rejected.
        assert!(parse_query(
            "SELECT COUNT(*), FROM news WHERE seen ORACLE LIMIT 100",
        )
        .is_err());
    }

    #[test]
    fn parses_not_and_parentheses_with_precedence() {
        let q = parse_query(
            "SELECT AVG(x) FROM t WHERE NOT a AND (b OR c) ORACLE LIMIT 100",
        )
        .unwrap();
        // NOT binds tighter than AND; parens force the OR.
        match &q.predicate {
            BoolExpr::And(l, r) => {
                assert!(matches!(l.as_ref(), BoolExpr::Not(_)));
                assert!(matches!(r.as_ref(), BoolExpr::Or(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_queries_with_positions() {
        assert!(parse_query("SELECT MAX(x) FROM t WHERE p ORACLE LIMIT 10").is_err());
        assert!(parse_query("SELECT AVG(x) FROM t ORACLE LIMIT 10").is_err()); // no WHERE
        assert!(parse_query("SELECT AVG(x) FROM t WHERE p").is_err()); // no ORACLE LIMIT
        assert!(parse_query("SELECT AVG(x), k FROM t WHERE p ORACLE LIMIT 5").is_err()); // projection without GROUP BY
        let err = parse_query("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 10 trailing garbage")
            .unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
    }

    #[test]
    fn semicolon_is_accepted() {
        assert!(parse_query("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 10;").is_ok());
    }

    #[test]
    fn placeholders_parse_in_limit_and_probability() {
        let q = parse_query(
            "SELECT AVG(x) FROM t WHERE p ORACLE LIMIT ? WITH PROBABILITY ?",
        )
        .unwrap();
        assert!(q.placeholders.oracle_limit);
        assert!(q.placeholders.probability);
        assert!(q.placeholders.any());
        // Inert defaults back the placeholder fields.
        assert_eq!(q.oracle_limit, 0);
        assert_eq!(q.probability, 0.95);

        // Each placeholder works independently of the other.
        let q = parse_query("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT ?").unwrap();
        assert!(q.placeholders.oracle_limit && !q.placeholders.probability);
        let q = parse_query(
            "SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 100 WITH PROBABILITY ?",
        )
        .unwrap();
        assert!(!q.placeholders.oracle_limit && q.placeholders.probability);
        assert_eq!(q.oracle_limit, 100);
    }

    #[test]
    fn parses_until_ci_width_clause() {
        let q = parse_query(
            "SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < 0.5 MAX ORACLE LIMIT 1000",
        )
        .unwrap();
        assert_eq!(q.until_width, Some(0.5));
        assert!(!q.placeholders.until_width);
        assert_eq!(q.oracle_limit, 1000);

        // Group-by queries accept the clause too (after GROUP BY).
        let q = parse_query(
            "SELECT COUNT(frame), person FROM news WHERE seen(frame) GROUP BY person \
             UNTIL CI WIDTH < 2 MAX ORACLE LIMIT 500",
        )
        .unwrap();
        assert_eq!(q.until_width, Some(2.0));
        assert_eq!(q.group_by.as_deref(), Some("person"));

        // Absent clause → no early stopping.
        let q = parse_query("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 100").unwrap();
        assert_eq!(q.until_width, None);
    }

    #[test]
    fn until_ci_width_placeholder_defers_the_target() {
        let q = parse_query(
            "SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < ? MAX ORACLE LIMIT 1000",
        )
        .unwrap();
        assert!(q.placeholders.until_width);
        assert!(q.placeholders.any());
        assert_eq!(q.until_width, Some(0.0), "inert default backs the placeholder");
    }

    #[test]
    fn until_ci_width_rejects_malformed_clauses() {
        // Missing MAX: the budget cap keyword is mandatory.
        assert!(parse_query(
            "SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < 0.5 ORACLE LIMIT 1000",
        )
        .is_err());
        // Missing `<`.
        assert!(parse_query(
            "SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH 0.5 MAX ORACLE LIMIT 1000",
        )
        .is_err());
        // Missing WIDTH.
        assert!(parse_query(
            "SELECT AVG(x) FROM t WHERE p UNTIL CI < 0.5 MAX ORACLE LIMIT 1000",
        )
        .is_err());
        // Missing the width value entirely.
        assert!(parse_query(
            "SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < MAX ORACLE LIMIT 1000",
        )
        .is_err());
        // The clause must precede ORACLE LIMIT, not follow it.
        assert!(parse_query(
            "SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 1000 UNTIL CI WIDTH < 0.5 MAX",
        )
        .is_err());
        // The dialect has no minus operator, so a negative width cannot
        // even lex.
        assert!(parse_query(
            "SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < -1 MAX ORACLE LIMIT 1000",
        )
        .is_err());
        // Zero parses; it is rejected at run time with BadTargetWidth.
        let q = parse_query(
            "SELECT AVG(x) FROM t WHERE p UNTIL CI WIDTH < 0 MAX ORACLE LIMIT 1000",
        )
        .unwrap();
        assert_eq!(q.until_width, Some(0.0));
    }

    #[test]
    fn placeholders_are_rejected_outside_limit_and_probability() {
        assert!(parse_query("SELECT AVG(?) FROM t WHERE p ORACLE LIMIT 10").is_err());
        assert!(parse_query("SELECT AVG(x) FROM ? WHERE p ORACLE LIMIT 10").is_err());
        assert!(parse_query("SELECT AVG(x) FROM t WHERE ? ORACLE LIMIT 10").is_err());
        assert!(parse_query("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 10 USING ?").is_err());
    }

    #[test]
    fn parse_statement_dispatches_to_select() {
        let s = parse_statement("SELECT AVG(x) FROM t WHERE p ORACLE LIMIT 10").unwrap();
        match s {
            Statement::Select(q) => assert_eq!(q.table, "t"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_create_proxy_with_every_clause() {
        let s = parse_statement(
            "CREATE PROXY spamnet ON trec05p(is_spam) USING logistic CALIBRATED \
             TRAIN LIMIT 2,000;",
        )
        .unwrap();
        match s {
            Statement::CreateProxy(c) => {
                assert_eq!(c.name, "spamnet");
                assert_eq!(c.table, "trec05p");
                assert_eq!(c.predicate, "is_spam");
                assert_eq!(c.family, Some(ProxyFamily::Logistic));
                assert!(c.calibrated);
                assert_eq!(c.train_limit, Some(2_000));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn create_proxy_clauses_are_optional_and_case_insensitive() {
        let s = parse_statement("create proxy p on t(is_spam)").unwrap();
        match s {
            Statement::CreateProxy(c) => {
                assert_eq!(c.family, None, "omitted USING auto-selects the family");
                assert!(!c.calibrated);
                assert_eq!(c.train_limit, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = parse_statement("CREATE PROXY p ON t(is_spam) USING KEYWORD").unwrap();
        match s {
            Statement::CreateProxy(c) => assert_eq!(c.family, Some(ProxyFamily::Keyword)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn create_proxy_rejects_malformed_statements() {
        // Unknown family.
        assert!(parse_statement("CREATE PROXY p ON t(is_spam) USING quantum").is_err());
        // Missing pieces.
        assert!(parse_statement("CREATE PROXY p ON t USING keyword").is_err());
        assert!(parse_statement("CREATE PROXY ON t(is_spam)").is_err());
        assert!(parse_statement("CREATE PROXY p ON t(is_spam) TRAIN 100").is_err());
        // Trailing garbage.
        assert!(parse_statement("CREATE PROXY p ON t(is_spam) extra").is_err());
    }

    #[test]
    fn parses_show_proxies_with_and_without_table() {
        assert_eq!(parse_statement("SHOW PROXIES").unwrap(), Statement::ShowProxies(None));
        assert_eq!(
            parse_statement("show proxies from trec05p;").unwrap(),
            Statement::ShowProxies(Some("trec05p".to_string()))
        );
        assert!(parse_statement("SHOW PROXIES FROM").is_err());
        assert!(parse_statement("SHOW TABLES").is_err());
    }
}

#[cfg(test)]
mod robustness {
    use super::{parse_query, parse_statement};
    use crate::catalog::Catalog;
    use crate::engine::EngineOptions;
    use crate::plan::{explain_plan, plan_query, Bindings, ExecCtx};
    use abae_data::Table;
    use proptest::prelude::*;

    /// What fragment soup can name: table `t` with predicate columns `p`
    /// and `q`, a group key with groups `a` and `b`, and the atoms
    /// `g(x) = 'a'` and `g(x) = 'b'` bound to `p` and `q`.
    fn catalog() -> Catalog {
        let n = 12;
        let key: Vec<Option<u16>> = (0..n).map(|i| [Some(0), Some(1), None][i % 3]).collect();
        let labels = |g: u16| key.iter().map(|&k| k == Some(g)).collect::<Vec<bool>>();
        let proxy = |salt: usize| (0..n).map(|i| ((i * 7 + salt) % n) as f64 / n as f64).collect();
        let t = Table::builder("t", (0..n).map(|i| i as f64).collect())
            .predicate("p", labels(0), proxy(0))
            .predicate("q", labels(1), proxy(5))
            .group_key(vec!["a".into(), "b".into()], key)
            .build()
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.register_table(t);
        catalog.bind_predicate("t", "g=a", "p");
        catalog.bind_predicate("t", "g=b", "q");
        catalog
    }

    proptest! {
        /// The parser must never panic — arbitrary input yields Ok or Err.
        #[test]
        fn parser_never_panics_on_arbitrary_input(input in "\\PC*") {
            let _ = parse_query(&input);
            let _ = parse_statement(&input);
        }

        /// Near-miss inputs built from dialect fragments also must not
        /// panic (these reach deeper parser states than random bytes).
        /// The fragments name a real table, its columns, its group key and
        /// bound atoms, and every `SELECT` that parses also goes through
        /// the planner and `EXPLAIN`, which must not panic either. Neither
        /// spends oracle calls.
        #[test]
        fn parser_never_panics_on_fragment_soup(
            parts in proptest::collection::vec(
                prop_oneof![
                    Just("SELECT"), Just("AVG"), Just("("), Just(")"),
                    Just("FROM"), Just("WHERE"), Just("AND"), Just("OR"),
                    Just("NOT"), Just("GROUP"), Just("BY"), Just("ORACLE"),
                    Just("LIMIT"), Just("USING"), Just("WITH"),
                    Just("PROBABILITY"), Just("x"), Just("1"), Just("0.5"),
                    Just("'s'"), Just(","), Just("="), Just(">"), Just("?"),
                    Just("UNTIL"), Just("CI"), Just("WIDTH"), Just("MAX"), Just("<"),
                    Just("CREATE"), Just("PROXY"), Just("ON"), Just("CALIBRATED"),
                    Just("TRAIN"), Just("SHOW"), Just("PROXIES"),
                    Just("t"), Just("p"), Just("q"), Just("g"), Just("'a'"), Just("'b'"),
                    Just("COUNT(*)"), Just("SELECT AVG(x) FROM t WHERE"),
                    Just("SELECT SUM(x), g FROM t WHERE"), Just("g(x) = 'a'"),
                    Just("g(x) = 'b'"), Just("GROUP BY g(x)"), Just("ORACLE LIMIT 10"),
                    Just("ORACLE LIMIT 0"), Just("UNTIL CI WIDTH < 0.5 MAX"),
                ],
                0..25,
            ),
        ) {
            plan_and_explain(&parts.join(" "));
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        /// The same promise for statements assembled clause by clause, so
        /// that many of them parse and reach the planner and `EXPLAIN`:
        /// each clause is well formed, broken, or names something the
        /// catalog lacks.
        #[test]
        fn planner_never_panics_on_clause_soup(
            select in prop_oneof![
                Just("SELECT AVG(x)"), Just("SELECT COUNT(*), SUM(x)"), Just("SELECT AVG(x), g"),
                Just("SELECT PERCENTAGE(x), AVG(x)"), Just("SELECT SUM(x)"), Just("SELECT"),
            ],
            table in prop_oneof![Just("FROM t"), Just("FROM t"), Just("FROM t"), Just("FROM u")],
            predicate in prop_oneof![
                Just("p"), Just("q"), Just("NOT p"), Just("p AND q"), Just("p OR NOT q"),
                Just("(p OR q) AND NOT p"), Just("g(x) = 'a' OR g(x) = 'b'"),
                Just("g(x) = 'b' OR g(x) = 'a'"), Just("g(x) = 'a' OR g(x) = 'a'"),
                Just("g(x) = 'a' OR p"), Just("g(x) = 'b' AND NOT g(x) = 'a'"),
                Just("g(x) = 'a'"), Just("g(x) = 'c' OR g(x) = 'a'"), Just("r"), Just("p AND"),
            ],
            group in prop_oneof![Just(""), Just("GROUP BY g(x)"), Just("GROUP BY g(x)")],
            until in prop_oneof![
                Just(""), Just("UNTIL CI WIDTH < 0.5 MAX"), Just("UNTIL CI WIDTH < ? MAX"),
            ],
            limit in prop_oneof![
                Just("ORACLE LIMIT 10"), Just("ORACLE LIMIT 0"), Just("ORACLE LIMIT ?"),
                Just("ORACLE LIMIT 99999"),
            ],
            using in prop_oneof![Just(""), Just("USING p"), Just("USING q"), Just("USING nope")],
            probability in prop_oneof![
                Just(""), Just("WITH PROBABILITY 0.9"), Just("WITH PROBABILITY ?"),
                Just("WITH PROBABILITY 7"),
            ],
        ) {
            plan_and_explain(
                &[select, table, "WHERE", predicate, group, until, limit, using, probability]
                    .join(" "),
            );
        }
    }

    /// Parses `input`; when it is a `SELECT`, plans it against [`catalog`]
    /// and, when that succeeds, renders its `EXPLAIN`.
    fn plan_and_explain(input: &str) {
        let _ = parse_statement(input);
        let Ok(query) = parse_query(input) else { return };
        let catalog = catalog();
        if let Ok(plan) = plan_query(&catalog, &query) {
            let opts = EngineOptions::default();
            let _ = explain_plan(&catalog, &plan, &opts, &Bindings::default(), &ExecCtx::for_tests());
        }
    }
}
