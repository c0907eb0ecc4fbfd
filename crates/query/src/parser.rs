//! A small SQL-ish parser, enough for the paper's examples:
//!
//! ```sql
//! select * from FAMILIES where AGE >= :A1;
//! select NAME, AGE from T where AGE between 30 and 32 and CITY = 'NH'
//!   order by AGE limit to 5 rows optimize for fast first;
//! select L.ID, R.X from L, R where L.ID = R.FK and R.X > 10;
//! ```
//!
//! Keywords are case-insensitive; identifiers are case-sensitive.
//! Two-table `FROM` lists introduce a join; columns may be qualified as
//! `TABLE.COLUMN` (required when a plain name is ambiguous between the
//! two tables), and a comparison whose right-hand side is a column
//! reference parses as a column-to-column predicate ([`Expr::ColCmp`]).
//!
//! The lexer walks the statement's bytes and hands the parser one
//! borrowed token at a time: identifiers, string literals and host
//! variables are slices of the input, keywords are compared in place and
//! numbers are parsed straight from their slice. The only allocations are
//! the ones the [`QuerySpec`] keeps — one `String` per name or string
//! literal and one `Vec` per list. Failures are a typed [`ParseError`]
//! naming the byte where parsing stopped, and nesting deeper than
//! [`MAX_NESTING`] is refused instead of recursing without bound.

use std::fmt;

use rdb_core::OptimizeGoal;
use rdb_storage::Value;

use crate::error::QueryError;
use crate::expr::{CmpOp, Expr, Scalar};

/// How deep parentheses and `NOT`s may nest in a WHERE clause. The parser
/// is recursive descent, so this bounds its stack; a deeper statement
/// fails with [`ParseErrorKind::TooDeep`].
pub const MAX_NESTING: usize = 128;

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// True for `select count(*)`: the result is a single count row, and
    /// the retrieval is controlled by an aggregate (total-time goal per
    /// Section 4).
    pub count_star: bool,
    /// Projected column names; `None` for `*`.
    pub projection: Option<Vec<String>>,
    /// Table name (the left side when `join_table` is present).
    pub table: String,
    /// Second table of a two-table `FROM` list (`from A, B`): the join's
    /// right side. `None` for single-table queries.
    pub join_table: Option<String>,
    /// WHERE restriction ([`Expr::True`] when absent).
    pub predicate: Expr,
    /// ORDER BY column.
    pub order_by: Option<String>,
    /// True for ORDER BY ... DESC.
    pub order_desc: bool,
    /// LIMIT TO n ROWS.
    pub limit: Option<usize>,
    /// Explicit OPTIMIZE FOR request.
    pub goal: Option<OptimizeGoal>,
}

/// Why and where a statement failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input (the statement's length when it
    /// ended too early).
    pub at: usize,
    /// What was wrong there.
    pub kind: ParseErrorKind,
}

/// The classes of [`ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A character no token starts with.
    UnexpectedChar(char),
    /// A `'` string literal without its closing quote.
    UnterminatedString,
    /// A `:` not followed by a host-variable name.
    MissingHostVar,
    /// A numeric literal that does not parse (e.g. `1.2.3`, or an integer
    /// beyond `i64`).
    BadNumber,
    /// The grammar needed this here (a keyword, `identifier`, ...).
    Expected(&'static str),
    /// A complete statement followed by more input.
    TrailingInput,
    /// Parentheses and `NOT`s nested deeper than [`MAX_NESTING`].
    TooDeep,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ParseErrorKind::UnterminatedString => f.write_str("unterminated string literal"),
            ParseErrorKind::MissingHostVar => {
                f.write_str("':' must be followed by a host variable name")
            }
            ParseErrorKind::BadNumber => f.write_str("malformed number"),
            ParseErrorKind::Expected(what) => write!(f, "expected {what}"),
            ParseErrorKind::TrailingInput => f.write_str("trailing input"),
            ParseErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_NESTING} levels"),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.kind, self.at)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Float(f64),
    Str(&'a str),
    HostVar(&'a str),
    Star,
    Comma,
    Dot,
    LParen,
    RParen,
    Op(CmpOp),
    Semicolon,
}

impl Tok<'_> {
    fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Words that begin (or continue) a clause and therefore cannot be a
/// column reference on the right-hand side of a comparison.
fn is_clause_keyword(s: &str) -> bool {
    [
        "and", "or", "not", "between", "order", "limit", "optimize", "select", "from", "where",
    ]
    .iter()
    .any(|kw| s.eq_ignore_ascii_case(kw))
}

/// Cuts the statement into tokens on demand. ASCII is classified byte by
/// byte; only a byte past ASCII is decoded into its character.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// The character starting at byte `at`.
    fn char_at(&self, at: usize) -> Option<char> {
        self.src.get(at..)?.chars().next()
    }

    /// End of the run from `at` of the characters `ascii` (for ASCII
    /// bytes) or `other` (for the rest) accepts.
    fn run_end(
        &self,
        mut at: usize,
        ascii: impl Fn(u8) -> bool,
        other: impl Fn(char) -> bool,
    ) -> usize {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(at) {
            if b.is_ascii() {
                if !ascii(b) {
                    break;
                }
                at += 1;
            } else {
                match self.char_at(at) {
                    Some(c) if other(c) => at += c.len_utf8(),
                    _ => break,
                }
            }
        }
        at
    }

    /// End of the identifier characters (letters, digits, `_`) from `at`.
    fn word_end(&self, at: usize) -> usize {
        self.run_end(
            at,
            |b| b.is_ascii_alphanumeric() || b == b'_',
            char::is_alphanumeric,
        )
    }

    /// The next token and the byte it starts at; `None` at the end.
    fn next(&mut self) -> Result<Option<(usize, Tok<'a>)>, ParseError> {
        let (src, bytes) = (self.src, self.src.as_bytes());
        let start = self.run_end(
            self.pos,
            |b| char::from(b).is_whitespace(),
            char::is_whitespace,
        );
        let Some(&b) = bytes.get(start) else {
            self.pos = start;
            return Ok(None);
        };
        let fail = |kind| Err(ParseError { at: start, kind });
        let next_is = |c: u8| bytes.get(start + 1) == Some(&c);
        let (tok, end) = match b {
            b'*' => (Tok::Star, start + 1),
            b',' => (Tok::Comma, start + 1),
            b'.' => (Tok::Dot, start + 1),
            b'(' => (Tok::LParen, start + 1),
            b')' => (Tok::RParen, start + 1),
            b';' => (Tok::Semicolon, start + 1),
            b'=' => (Tok::Op(CmpOp::Eq), start + 1),
            b'<' if next_is(b'=') => (Tok::Op(CmpOp::Le), start + 2),
            b'<' if next_is(b'>') => (Tok::Op(CmpOp::Ne), start + 2),
            b'<' => (Tok::Op(CmpOp::Lt), start + 1),
            b'>' if next_is(b'=') => (Tok::Op(CmpOp::Ge), start + 2),
            b'>' => (Tok::Op(CmpOp::Gt), start + 1),
            b'\'' => {
                let body = &src[start + 1..];
                match body.find('\'') {
                    Some(len) => (Tok::Str(&body[..len]), start + len + 2),
                    None => return fail(ParseErrorKind::UnterminatedString),
                }
            }
            b':' => {
                let end = self.word_end(start + 1);
                if end == start + 1 {
                    return fail(ParseErrorKind::MissingHostVar);
                }
                (Tok::HostVar(&src[start + 1..end]), end)
            }
            b'0'..=b'9' | b'-'
                if b != b'-' || bytes.get(start + 1).is_some_and(u8::is_ascii_digit) =>
            {
                let digits = bytes[start + 1..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit() || **b == b'.')
                    .count();
                let end = start + 1 + digits;
                let text = &src[start..end];
                let tok = if text.contains('.') {
                    text.parse().map(Tok::Float).ok()
                } else {
                    text.parse().map(Tok::Int).ok()
                };
                match tok {
                    Some(tok) => (tok, end),
                    None => return fail(ParseErrorKind::BadNumber),
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let end = self.word_end(start);
                (Tok::Ident(&src[start..end]), end)
            }
            _ => match self.char_at(start) {
                Some(c) if c.is_alphabetic() => {
                    let end = self.word_end(start);
                    (Tok::Ident(&src[start..end]), end)
                }
                c => return fail(ParseErrorKind::UnexpectedChar(c.unwrap_or(char::from(b)))),
            },
        };
        self.pos = end;
        Ok(Some((start, tok)))
    }
}

/// Recursive descent over the lexer with one token of lookahead.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token and the byte it starts at.
    peeked: Option<(usize, Tok<'a>)>,
    /// Parentheses and `NOT`s open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseError> {
        let mut lexer = Lexer { src, pos: 0 };
        let peeked = lexer.next()?;
        Ok(Parser {
            lexer,
            peeked,
            depth: 0,
        })
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.peeked.map(|(_, t)| t)
    }

    /// Moves past the peeked token.
    fn advance(&mut self) -> Result<(), ParseError> {
        self.peeked = self.lexer.next()?;
        Ok(())
    }

    /// A failure at the peeked token (or at the end of the statement).
    fn fail<T>(&self, kind: ParseErrorKind) -> Result<T, ParseError> {
        let at = self.peeked.map_or(self.lexer.src.len(), |(at, _)| at);
        Err(ParseError { at, kind })
    }

    fn expected<T>(&self, what: &'static str) -> Result<T, ParseError> {
        self.fail(ParseErrorKind::Expected(what))
    }

    /// Consumes the peeked token if it is `tok`.
    fn eat(&mut self, tok: Tok<'_>) -> Result<bool, ParseError> {
        let hit = self.peek() == Some(tok);
        if hit {
            self.advance()?;
        }
        Ok(hit)
    }

    /// Consumes the peeked token if it is the keyword `kw`.
    fn eat_kw(&mut self, kw: &str) -> Result<bool, ParseError> {
        let hit = self.peek().is_some_and(|t| t.is_kw(kw));
        if hit {
            self.advance()?;
        }
        Ok(hit)
    }

    fn expect_kw(&mut self, kw: &'static str) -> Result<(), ParseError> {
        if self.eat_kw(kw)? {
            Ok(())
        } else {
            self.expected(kw)
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.advance()?;
                Ok(s)
            }
            _ => self.expected("identifier"),
        }
    }

    /// A possibly-qualified column reference: `C` or `T.C`, kept as one
    /// dotted string (resolution splits it against the catalog).
    fn column_ref(&mut self) -> Result<String, ParseError> {
        let first = self.ident()?;
        if !self.eat(Tok::Dot)? {
            return Ok(first.to_owned());
        }
        Ok([first, ".", self.ident()?].concat())
    }

    fn scalar(&mut self) -> Result<Scalar, ParseError> {
        let scalar = match self.peek() {
            Some(Tok::Int(v)) => Scalar::Literal(Value::Int(v)),
            Some(Tok::Float(v)) => Scalar::Literal(Value::Float(v)),
            Some(Tok::Str(s)) => Scalar::Literal(Value::Str(s.to_owned())),
            Some(Tok::HostVar(name)) => Scalar::HostVar(name.to_owned()),
            _ => return self.expected("literal or :var"),
        };
        self.advance()?;
        Ok(scalar)
    }

    /// `first`, then every further `kw`-separated `operand`: a lone
    /// operand stays as it is, several become one `join`ed list.
    fn chain(
        &mut self,
        first: Expr,
        kw: &str,
        operand: fn(&mut Self) -> Result<Expr, ParseError>,
        join: fn(Vec<Expr>) -> Expr,
    ) -> Result<Expr, ParseError> {
        if !self.eat_kw(kw)? {
            return Ok(first);
        }
        let mut parts = Vec::with_capacity(4);
        parts.push(first);
        loop {
            parts.push(operand(self)?);
            if !self.eat_kw(kw)? {
                return Ok(join(parts));
            }
        }
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.and_expr()?;
        self.chain(first, "or", Self::and_expr, Expr::Or)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.not_expr()?;
        self.chain(first, "and", Self::not_expr, Expr::And)
    }

    /// Consumes the peeked opener (`(` or `NOT`) and parses what it
    /// encloses one level deeper; refuses the opener past [`MAX_NESTING`].
    fn nested(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        if self.depth == MAX_NESTING {
            return self.fail(ParseErrorKind::TooDeep);
        }
        self.advance()?;
        self.depth += 1;
        let expr = inner(self);
        self.depth -= 1;
        expr
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.peek().is_some_and(|t| t.is_kw("not")) {
            self.nested(|p| Ok(Expr::Not(Box::new(p.not_expr()?))))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        if self.peek() == Some(Tok::LParen) {
            return self.nested(|p| {
                let e = p.or_expr()?;
                if p.eat(Tok::RParen)? {
                    Ok(e)
                } else {
                    p.expected("')'")
                }
            });
        }
        let column = self.column_ref()?;
        if self.eat_kw("between")? {
            let lo = self.scalar()?;
            self.expect_kw("and")?;
            let hi = self.scalar()?;
            return Ok(Expr::Between { column, lo, hi });
        }
        let Some(Tok::Op(op)) = self.peek() else {
            return self.expected("comparison operator");
        };
        self.advance()?;
        // A column reference on the right-hand side makes this a
        // column-to-column comparison (the join predicate form) — but only
        // if it is not a keyword starting the next clause.
        if matches!(self.peek(), Some(Tok::Ident(s)) if !is_clause_keyword(s)) {
            let right = self.column_ref()?;
            Ok(Expr::ColCmp {
                left: column,
                op,
                right,
            })
        } else {
            Ok(Expr::Cmp {
                column,
                op,
                rhs: self.scalar()?,
            })
        }
    }
}

/// Parses one query. Failures come back as [`QueryError::Parse`] carrying
/// the typed [`ParseError`].
pub fn parse_query(input: &str) -> Result<QuerySpec, QueryError> {
    parse(input).map_err(QueryError::Parse)
}

fn parse(input: &str) -> Result<QuerySpec, ParseError> {
    let mut p = Parser::new(input)?;
    p.expect_kw("select")?;

    let mut count_star = false;
    let projection = if p.eat(Tok::Star)? {
        None
    } else if p.peek().is_some_and(|t| t.is_kw("count")) {
        p.advance()?;
        for tok in [Tok::LParen, Tok::Star, Tok::RParen] {
            if !p.eat(tok)? {
                return p.expected("count(*)");
            }
        }
        count_star = true;
        None
    } else {
        let mut cols = Vec::with_capacity(4);
        loop {
            cols.push(p.column_ref()?);
            if !p.eat(Tok::Comma)? {
                break Some(cols);
            }
        }
    };

    p.expect_kw("from")?;
    let table = p.ident()?.to_owned();
    let join_table = if p.eat(Tok::Comma)? {
        Some(p.ident()?.to_owned())
    } else {
        None
    };

    let predicate = if p.eat_kw("where")? {
        p.or_expr()?
    } else {
        Expr::True
    };

    let mut order_by = None;
    let mut order_desc = false;
    if p.eat_kw("order")? {
        p.expect_kw("by")?;
        order_by = Some(p.column_ref()?);
        order_desc = p.eat_kw("desc")?;
        if !order_desc {
            p.eat_kw("asc")?;
        }
    }

    let mut limit = None;
    if p.eat_kw("limit")? {
        p.eat_kw("to")?;
        match p.peek() {
            Some(Tok::Int(n)) if n >= 0 => limit = Some(n as usize),
            _ => return p.expected("row count after LIMIT"),
        }
        p.advance()?;
        p.eat_kw("rows")?;
        p.eat_kw("row")?;
    }

    let mut goal = None;
    if p.eat_kw("optimize")? {
        p.expect_kw("for")?;
        if p.eat_kw("fast")? {
            p.expect_kw("first")?;
            goal = Some(OptimizeGoal::FastFirst);
        } else if p.eat_kw("total")? {
            p.expect_kw("time")?;
            goal = Some(OptimizeGoal::TotalTime);
        } else {
            return p.expected("FAST FIRST or TOTAL TIME");
        }
    }

    p.eat(Tok::Semicolon)?;
    if p.peek().is_some() {
        return p.fail(ParseErrorKind::TrailingInput);
    }

    Ok(QuerySpec {
        count_star,
        projection,
        table,
        join_table,
        predicate,
        order_by,
        order_desc,
        limit,
        goal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_query() {
        let q = parse_query("select * from FAMILIES where AGE >= :A1;").unwrap();
        assert_eq!(q.table, "FAMILIES");
        assert!(q.projection.is_none());
        assert_eq!(
            q.predicate,
            Expr::Cmp {
                column: "AGE".into(),
                op: CmpOp::Ge,
                rhs: Scalar::HostVar("A1".into()),
            }
        );
        assert!(q.goal.is_none());
    }

    #[test]
    fn parses_full_clause_set() {
        let q = parse_query(
            "select NAME, AGE from T where AGE between 30 and 32 and CITY = 'NH' \
             order by AGE limit to 5 rows optimize for fast first",
        )
        .unwrap();
        assert_eq!(q.projection, Some(vec!["NAME".into(), "AGE".into()]));
        assert_eq!(q.order_by.as_deref(), Some("AGE"));
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.goal, Some(OptimizeGoal::FastFirst));
        match &q.predicate {
            Expr::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_or_not_parens_precedence() {
        let q = parse_query("select * from T where not (a = 1 or b = 2) and c > 0").unwrap();
        match &q.predicate {
            Expr::And(parts) => {
                assert!(matches!(parts[0], Expr::Not(_)));
                assert!(matches!(parts[1], Expr::Cmp { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = parse_query("select * from T where a = 1 or b = 2 and c = 3").unwrap();
        match &q.predicate {
            Expr::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Expr::And(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_negative_numbers_floats_strings() {
        let q = parse_query("select * from T where a >= -5 and b < 2.5 and c = 'x y'").unwrap();
        match &q.predicate {
            Expr::And(parts) => {
                assert_eq!(
                    parts[0],
                    Expr::cmp("a", CmpOp::Ge, -5i64)
                );
                assert_eq!(parts[1], Expr::cmp("b", CmpOp::Lt, 2.5));
                assert_eq!(parts[2], Expr::cmp("c", CmpOp::Eq, "x y"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_query("select from T").is_err());
        assert!(parse_query("select * from T where a ==").is_err());
        assert!(parse_query("select * from T where a = 'unterminated").is_err());
        assert!(parse_query("select * from T optimize for slow").is_err());
        assert!(parse_query("select * from T where a = 1 garbage").is_err());
    }

    #[test]
    fn optimize_for_total_time() {
        let q = parse_query("select * from T optimize for total time").unwrap();
        assert_eq!(q.goal, Some(OptimizeGoal::TotalTime));
    }

    #[test]
    fn parses_count_star() {
        let q = parse_query("select count(*) from T where a >= 5").unwrap();
        assert!(q.count_star);
        assert!(q.projection.is_none());
        assert!(parse_query("select count(a) from T").is_err());
    }

    #[test]
    fn parses_two_table_from_with_join_predicate() {
        let q = parse_query(
            "select L.ID, R.X from L, R where L.ID = R.FK and R.X > 10 order by L.ID limit 5",
        )
        .unwrap();
        assert_eq!(q.table, "L");
        assert_eq!(q.join_table.as_deref(), Some("R"));
        assert_eq!(q.projection, Some(vec!["L.ID".into(), "R.X".into()]));
        assert_eq!(q.order_by.as_deref(), Some("L.ID"));
        match &q.predicate {
            Expr::And(parts) => {
                assert_eq!(
                    parts[0],
                    Expr::ColCmp {
                        left: "L.ID".into(),
                        op: CmpOp::Eq,
                        right: "R.FK".into(),
                    }
                );
                assert_eq!(parts[1], Expr::cmp("R.X", CmpOp::Gt, 10i64));
            }
            other => panic!("{other:?}"),
        }
        // Single-table queries keep join_table empty.
        let single = parse_query("select * from T where a = 1").unwrap();
        assert_eq!(single.join_table, None);
    }

    #[test]
    fn column_to_column_comparison_in_one_table() {
        let q = parse_query("select * from T where a < b").unwrap();
        assert_eq!(
            q.predicate,
            Expr::ColCmp {
                left: "a".into(),
                op: CmpOp::Lt,
                right: "b".into(),
            }
        );
        // A clause keyword after the operator is not a column reference.
        assert!(parse_query("select * from T where a = order by b").is_err());
    }

    #[test]
    fn between_accepts_host_variables() {
        let q = parse_query("select * from T where a between :lo and :hi").unwrap();
        match &q.predicate {
            Expr::Between { lo, hi, .. } => {
                assert_eq!(lo, &Scalar::HostVar("lo".into()));
                assert_eq!(hi, &Scalar::HostVar("hi".into()));
            }
            other => panic!("{other:?}"),
        }
    }
}
