//! A parser for SQL-ish condition strings.
//!
//! The paper writes every predicate as a SQL condition — Example 1's
//! "few neighbors", Example 2's k-skyband membership, and the general
//! Q3 form all look like
//!
//! ```sql
//! (SELECT COUNT(*) FROM D
//!  WHERE x >= o.x AND y >= o.y AND (x > o.x OR y > o.y)) < 5
//! ```
//!
//! This module turns such strings into [`Expr`] trees so predicates can
//! be supplied as text (configuration files, CLIs, notebooks) instead
//! of hand-built ASTs. Supported grammar, in precedence order (loosest
//! first):
//!
//! ```text
//! expr    := and_expr (OR and_expr)*
//! and     := not_expr (AND not_expr)*
//! not     := NOT not | cmp
//! cmp     := add ((= | <> | != | < | <= | > | >=) add)?
//! add     := mul ((+ | -) mul)*
//! mul     := unary ((* | /) unary)*
//! unary   := - unary | primary
//! primary := NUMBER | 'string' | TRUE | FALSE | NULL
//!          | SQRT(e) | POWER(e, e) | ABS(e)
//!          | o.ident                   -- outer (object) column
//!          | ident                     -- current-row column
//!          | ( SELECT agg FROM ident [WHERE expr] )  -- subquery
//!          | ( expr )
//! agg     := COUNT(*) | SUM(e) | MIN(e) | MAX(e) | AVG(e)
//! ```
//!
//! Keywords are case-insensitive; `o.` is the outer-row qualifier the
//! paper uses. Subquery `FROM` names resolve through a caller-supplied
//! [`TableRegistry`]. Nesting is bounded by [`MAX_CONDITION_DEPTH`].

use crate::error::{TableError, TableResult};
use crate::expr::{AggFunc, AggSubquery, Expr, Func};
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Resolves `FROM` names inside subqueries to tables.
#[derive(Debug, Clone, Default)]
pub struct TableRegistry {
    tables: HashMap<String, Arc<Table>>,
}

impl TableRegistry {
    /// An empty registry (conditions without subqueries parse fine).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table under a name (case-insensitive lookup).
    pub fn register(mut self, name: impl Into<String>, table: Arc<Table>) -> Self {
        self.tables.insert(name.into().to_ascii_lowercase(), table);
        self
    }

    fn resolve(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(&name.to_ascii_lowercase()).cloned()
    }
}

/// How deep a condition may nest: the parser recurses at most this far
/// (once per open `(` — grouping, function call or subquery), and the
/// tree it returns is at most this many nodes high (an operator chain
/// `a AND b AND …` is one node taller per link, `NOT` / unary `-` one
/// per application). Every pass behind the parser — `normalize`,
/// `decompose`, the evaluators, `Display`, `Drop` — recurses over that
/// tree, so this one bound keeps a hostile line (a few KB of `(` or of
/// `x>1 AND `) from overflowing a server thread's stack; real
/// conditions are a handful of levels deep.
pub const MAX_CONDITION_DEPTH: usize = 256;

/// Parse a condition string into an [`Expr`].
///
/// # Errors
///
/// Returns [`TableError::Parse`] with a byte position and message for
/// any lexical or syntactic problem, including unknown `FROM` names and
/// nesting past [`MAX_CONDITION_DEPTH`].
///
/// # Examples
///
/// ```
/// use lts_table::parser::{parse_condition, TableRegistry};
/// let expr = parse_condition("x >= 3 AND NOT (y < 2 OR y > 10)", &TableRegistry::new()).unwrap();
/// ```
pub fn parse_condition(input: &str, registry: &TableRegistry) -> TableResult<Expr> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        registry,
        depth: 0,
        height: 0,
    };
    let expr = p.expr()?;
    if let Some(tok) = p.peek() {
        return Err(err_at(
            tok.pos,
            format!("unexpected trailing `{}`", tok.text()),
        ));
    }
    Ok(expr)
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Number(f64),
    Str(String),
    Ident(String),
    /// Operators and punctuation (`<=`, `(`, `,`, `*`, …).
    Sym(&'static str),
}

#[derive(Debug, Clone, PartialEq)]
struct Token {
    tok: Tok,
    pos: usize,
}

impl Token {
    fn text(&self) -> String {
        match &self.tok {
            Tok::Number(n) => n.to_string(),
            Tok::Str(s) => format!("'{s}'"),
            Tok::Ident(s) => s.clone(),
            Tok::Sym(s) => (*s).to_string(),
        }
    }
}

fn err_at(position: usize, message: impl Into<String>) -> TableError {
    TableError::Parse {
        position,
        message: message.into(),
    }
}

fn tokenize(input: &str) -> TableResult<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' | ')' | ',' | '+' | '-' | '*' | '/' | '=' => {
                let sym = match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    _ => "=",
                };
                out.push(Token {
                    tok: Tok::Sym(sym),
                    pos: i,
                });
                i += 1;
            }
            '<' => {
                let (sym, w) = match bytes.get(i + 1).map(|&b| b as char) {
                    Some('=') => ("<=", 2),
                    Some('>') => ("<>", 2),
                    _ => ("<", 1),
                };
                out.push(Token {
                    tok: Tok::Sym(sym),
                    pos: i,
                });
                i += w;
            }
            '>' => {
                let (sym, w) = match bytes.get(i + 1).map(|&b| b as char) {
                    Some('=') => (">=", 2),
                    _ => (">", 1),
                };
                out.push(Token {
                    tok: Tok::Sym(sym),
                    pos: i,
                });
                i += w;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        tok: Tok::Sym("<>"),
                        pos: i,
                    });
                    i += 2;
                } else {
                    return Err(err_at(i, "expected `!=`"));
                }
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => return Err(err_at(start, "unterminated string literal")),
                        Some(b'\'') => {
                            // SQL-style doubled quote escapes a quote.
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    pos: start,
                });
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                let text = &input[start..i];
                let n: f64 = text
                    .parse()
                    .map_err(|_| err_at(start, format!("invalid number `{text}`")))?;
                out.push(Token {
                    tok: Tok::Number(n),
                    pos: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let mut ident = input[start..i].to_string();
                // Qualified name: `o.x` (outer) or `t.x` (treated as a
                // plain column of the current row).
                if bytes.get(i) == Some(&b'.') {
                    i += 1;
                    let col_start = i;
                    while i < bytes.len()
                        && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    if col_start == i {
                        return Err(err_at(col_start, "expected column name after `.`"));
                    }
                    ident.push('.');
                    ident.push_str(&input[col_start..i]);
                }
                out.push(Token {
                    tok: Tok::Ident(ident),
                    pos: start,
                });
            }
            other => return Err(err_at(i, format!("unexpected character `{other}`"))),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    registry: &'a TableRegistry,
    /// Open `(` the grammar functions are currently recursing under.
    depth: usize,
    /// Height of the tree the last grammar function returned.
    height: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn end_pos(&self) -> usize {
        self.tokens.last().map_or(0, |t| t.pos + 1)
    }

    /// Consume a symbol or fail.
    fn expect_sym(&mut self, sym: &str) -> TableResult<()> {
        match self.next() {
            Some(t) if t.tok == Tok::Sym(match_sym(sym)) => Ok(()),
            Some(t) => Err(err_at(
                t.pos,
                format!("expected `{sym}`, found `{}`", t.text()),
            )),
            None => Err(err_at(
                self.end_pos(),
                format!("expected `{sym}`, found end of input"),
            )),
        }
    }

    /// Peek: is the next token the given (case-insensitive) keyword?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { tok: Tok::Ident(s), .. }) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the given keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> TableResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            let (pos, found) = match self.peek() {
                Some(t) => (t.pos, t.text()),
                None => (self.end_pos(), "end of input".into()),
            };
            Err(err_at(pos, format!("expected `{kw}`, found `{found}`")))
        }
    }

    fn at_sym(&self, sym: &str) -> bool {
        matches!(self.peek(), Some(Token { tok: Tok::Sym(s), .. }) if *s == sym)
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if self.at_sym(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    // -- the nesting bound --------------------------------------------

    /// The error for the token just consumed taking the nest too deep.
    fn too_deep(&self) -> TableError {
        let last = self.tokens.get(self.pos.wrapping_sub(1));
        err_at(
            last.map_or(0, |t| t.pos),
            format!("condition nests deeper than {MAX_CONDITION_DEPTH} levels"),
        )
    }

    /// Parse what follows a just-consumed `(` one recursion level down.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> TableResult<T>) -> TableResult<T> {
        if self.depth == MAX_CONDITION_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    /// Account for a node built over the subtree just parsed and a
    /// sibling subtree of height `sibling` (0 for a unary node).
    fn grow(&mut self, sibling: usize) -> TableResult<()> {
        self.height = self.height.max(sibling) + 1;
        if self.height > MAX_CONDITION_DEPTH {
            return Err(self.too_deep());
        }
        Ok(())
    }

    // -- grammar ------------------------------------------------------

    fn expr(&mut self) -> TableResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("OR") {
            let lhs_height = self.height;
            let rhs = self.and_expr()?;
            self.grow(lhs_height)?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> TableResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword("AND") {
            let lhs_height = self.height;
            let rhs = self.not_expr()?;
            self.grow(lhs_height)?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> TableResult<Expr> {
        let mut nots = 0usize;
        while self.eat_keyword("NOT") {
            nots += 1;
        }
        let mut e = self.cmp_expr()?;
        for _ in 0..nots {
            self.grow(0)?;
            e = e.not();
        }
        Ok(e)
    }

    fn cmp_expr(&mut self) -> TableResult<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Token {
                tok: Tok::Sym(s), ..
            }) => match *s {
                "=" => Some("="),
                "<>" => Some("<>"),
                "<" => Some("<"),
                "<=" => Some("<="),
                ">" => Some(">"),
                ">=" => Some(">="),
                _ => None,
            },
            _ => None,
        };
        let Some(op) = op else { return Ok(lhs) };
        self.pos += 1;
        let lhs_height = self.height;
        let rhs = self.add_expr()?;
        self.grow(lhs_height)?;
        Ok(match op {
            "=" => lhs.eq(rhs),
            "<>" => lhs.ne(rhs),
            "<" => lhs.lt(rhs),
            "<=" => lhs.le(rhs),
            ">" => lhs.gt(rhs),
            _ => lhs.ge(rhs),
        })
    }

    fn add_expr(&mut self) -> TableResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let build = if self.eat_sym("+") {
                Expr::add
            } else if self.eat_sym("-") {
                Expr::sub
            } else {
                return Ok(lhs);
            };
            let lhs_height = self.height;
            let rhs = self.mul_expr()?;
            self.grow(lhs_height)?;
            lhs = build(lhs, rhs);
        }
    }

    fn mul_expr(&mut self) -> TableResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let build = if self.eat_sym("*") {
                Expr::mul
            } else if self.eat_sym("/") {
                Expr::div
            } else {
                return Ok(lhs);
            };
            let lhs_height = self.height;
            let rhs = self.unary()?;
            self.grow(lhs_height)?;
            lhs = build(lhs, rhs);
        }
    }

    fn unary(&mut self) -> TableResult<Expr> {
        let mut negs = 0usize;
        while self.eat_sym("-") {
            negs += 1;
        }
        let mut e = self.primary()?;
        for _ in 0..negs {
            self.grow(0)?;
            e = e.neg();
        }
        Ok(e)
    }

    fn primary(&mut self) -> TableResult<Expr> {
        let Some(token) = self.next() else {
            return Err(err_at(self.end_pos(), "unexpected end of input"));
        };
        // A leaf; the compound arms below overwrite it.
        self.height = 1;
        match token.tok {
            Tok::Number(n) => Ok(Expr::lit(n)),
            Tok::Str(s) => Ok(Expr::Literal(Value::str(s))),
            // Either a subquery or a parenthesized expression.
            Tok::Sym("(") => self.nested(|p| {
                let inner = if p.at_keyword("SELECT") {
                    p.subquery()?
                } else {
                    p.expr()?
                };
                p.expect_sym(")")?;
                Ok(inner)
            }),
            Tok::Ident(name) => self.ident_expr(name, token.pos),
            Tok::Sym(s) => Err(err_at(token.pos, format!("unexpected `{s}`"))),
        }
    }

    fn ident_expr(&mut self, name: String, pos: usize) -> TableResult<Expr> {
        // Keyword literals.
        if name.eq_ignore_ascii_case("TRUE") {
            return Ok(Expr::lit(true));
        }
        if name.eq_ignore_ascii_case("FALSE") {
            return Ok(Expr::lit(false));
        }
        if name.eq_ignore_ascii_case("NULL") {
            return Ok(Expr::Literal(Value::Null));
        }

        // Scalar function call.
        let func = if name.eq_ignore_ascii_case("SQRT") {
            Some((Func::Sqrt, 1))
        } else if name.eq_ignore_ascii_case("POWER") {
            Some((Func::Power, 2))
        } else if name.eq_ignore_ascii_case("ABS") {
            Some((Func::Abs, 1))
        } else {
            None
        };
        if let Some((func, arity)) = func {
            self.expect_sym("(")?;
            let args = self.nested(|p| {
                let mut args = vec![p.expr()?];
                let mut tallest = p.height;
                while p.eat_sym(",") {
                    args.push(p.expr()?);
                    tallest = tallest.max(p.height);
                }
                p.expect_sym(")")?;
                p.grow(tallest)?;
                Ok(args)
            })?;
            if args.len() != arity {
                return Err(err_at(
                    pos,
                    format!("{name} takes {arity} argument(s), got {}", args.len()),
                ));
            }
            return Ok(Expr::Call(func, args));
        }

        // Qualified name: the paper's `o.` prefix marks the outer row;
        // any other qualifier is stripped (single-table subqueries).
        if let Some((qual, col)) = name.split_once('.') {
            if qual.eq_ignore_ascii_case("o") || qual.eq_ignore_ascii_case("outer") {
                return Ok(Expr::outer(col));
            }
            return Ok(Expr::col(col));
        }
        Ok(Expr::col(name))
    }

    /// Parse `SELECT agg FROM name [WHERE expr]`; the opening `(` is
    /// already consumed and the closing `)` is left for the caller.
    fn subquery(&mut self) -> TableResult<Expr> {
        self.expect_keyword("SELECT")?;

        // Aggregate function.
        let Some(tok) = self.next() else {
            return Err(err_at(self.end_pos(), "expected aggregate after SELECT"));
        };
        let Tok::Ident(agg_name) = &tok.tok else {
            return Err(err_at(
                tok.pos,
                format!("expected aggregate, found `{}`", tok.text()),
            ));
        };
        let func = if agg_name.eq_ignore_ascii_case("COUNT") {
            AggFunc::Count
        } else if agg_name.eq_ignore_ascii_case("SUM") {
            AggFunc::Sum
        } else if agg_name.eq_ignore_ascii_case("MIN") {
            AggFunc::Min
        } else if agg_name.eq_ignore_ascii_case("MAX") {
            AggFunc::Max
        } else if agg_name.eq_ignore_ascii_case("AVG") {
            AggFunc::Avg
        } else {
            return Err(err_at(
                tok.pos,
                format!("unknown aggregate `{agg_name}` (COUNT/SUM/MIN/MAX/AVG)"),
            ));
        };
        self.expect_sym("(")?;
        self.height = 0;
        let arg = if func == AggFunc::Count {
            self.expect_sym("*")?;
            None
        } else {
            Some(self.expr()?)
        };
        let arg_height = self.height;
        self.expect_sym(")")?;

        self.expect_keyword("FROM")?;
        let Some(tok) = self.next() else {
            return Err(err_at(self.end_pos(), "expected table name after FROM"));
        };
        let Tok::Ident(table_name) = &tok.tok else {
            return Err(err_at(
                tok.pos,
                format!("expected table name, found `{}`", tok.text()),
            ));
        };
        let Some(table) = self.registry.resolve(table_name) else {
            return Err(err_at(
                tok.pos,
                format!("unknown table `{table_name}` (register it in the TableRegistry)"),
            ));
        };

        self.height = 0;
        let filter = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        self.grow(arg_height)?;
        Ok(Expr::Subquery(Arc::new(AggSubquery {
            table,
            filter,
            func,
            arg,
        })))
    }
}

/// Normalize a symbol so `expect_sym` compares interned strings.
fn match_sym(sym: &str) -> &'static str {
    match sym {
        "(" => "(",
        ")" => ")",
        "," => ",",
        "+" => "+",
        "-" => "-",
        "*" => "*",
        "/" => "/",
        "=" => "=",
        "<" => "<",
        "<=" => "<=",
        ">" => ">",
        ">=" => ">=",
        "<>" => "<>",
        other => unreachable!("unknown symbol `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::RowCtx;
    use crate::table::table_of_floats;

    fn eval_on(expr: &Expr, table: &Table, row: usize) -> Value {
        expr.eval(RowCtx::top(table, row)).unwrap()
    }

    fn points() -> Arc<Table> {
        // Five 2-d points.
        Arc::new(
            table_of_floats(&[
                ("x", &[0.0, 1.0, 2.0, 3.0, 4.0]),
                ("y", &[0.0, 2.0, 1.0, 4.0, 3.0]),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn arithmetic_and_precedence() {
        let t = points();
        let reg = TableRegistry::new();
        let e = parse_condition("1 + 2 * 3 = 7", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 0), Value::Bool(true));
        let e = parse_condition("(1 + 2) * 3 = 9", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 0), Value::Bool(true));
        let e = parse_condition("2 * x + 1 > 4", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 1), Value::Bool(false)); // 3 > 4
        assert_eq!(eval_on(&e, &t, 2), Value::Bool(true)); // 5 > 4
    }

    #[test]
    fn boolean_logic_and_not() {
        let t = points();
        let reg = TableRegistry::new();
        let e = parse_condition("x >= 1 AND NOT (y < 2 OR y > 3)", &reg).unwrap();
        // Row 1: x=1, y=2 → true; row 3: x=3, y=4 → false.
        assert_eq!(eval_on(&e, &t, 1), Value::Bool(true));
        assert_eq!(eval_on(&e, &t, 3), Value::Bool(false));
        // AND binds tighter than OR.
        let e = parse_condition("TRUE OR FALSE AND FALSE", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 0), Value::Bool(true));
    }

    #[test]
    fn functions_and_unary_minus() {
        let t = points();
        let reg = TableRegistry::new();
        let e = parse_condition("SQRT(POWER(-3, 2) + POWER(4, 2)) = 5", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 0), Value::Bool(true));
        let e = parse_condition("ABS(-x) = x", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 2), Value::Bool(true));
    }

    #[test]
    fn parses_example_2_skyband_condition() {
        // The k-skyband membership predicate, verbatim from the paper.
        let t = points();
        let reg = TableRegistry::new().register("D", Arc::clone(&t));
        let e = parse_condition(
            "(SELECT COUNT(*) FROM D \
             WHERE x >= o.x AND y >= o.y AND (x > o.x OR y > o.y)) < 2",
            &reg,
        )
        .unwrap();
        // Dominator counts for the five points: p0 is dominated by
        // p1..p4 minus incomparable ones; verify against brute force.
        let xs = t.floats("x").unwrap();
        let ys = t.floats("y").unwrap();
        for i in 0..t.len() {
            let dominators = (0..t.len())
                .filter(|&j| xs[j] >= xs[i] && ys[j] >= ys[i] && (xs[j] > xs[i] || ys[j] > ys[i]))
                .count();
            let want = dominators < 2;
            let ctx = RowCtx {
                table: &t,
                row: i,
                outer: Some((&t, i)),
            };
            assert_eq!(e.eval_bool(ctx).unwrap(), want, "row {i}");
        }
    }

    #[test]
    fn parses_example_1_neighbors_condition() {
        let t = points();
        let reg = TableRegistry::new().register("D", Arc::clone(&t));
        let e = parse_condition(
            "(SELECT COUNT(*) FROM D \
             WHERE SQRT(POWER(o.x - x, 2) + POWER(o.y - y, 2)) <= 2.0) <= 2",
            &reg,
        )
        .unwrap();
        let xs = t.floats("x").unwrap();
        let ys = t.floats("y").unwrap();
        for i in 0..t.len() {
            let neighbors = (0..t.len())
                .filter(|&j| {
                    let (dx, dy) = (xs[i] - xs[j], ys[i] - ys[j]);
                    (dx * dx + dy * dy).sqrt() <= 2.0
                })
                .count();
            let want = neighbors <= 2;
            let ctx = RowCtx {
                table: &t,
                row: i,
                outer: Some((&t, i)),
            };
            assert_eq!(e.eval_bool(ctx).unwrap(), want, "row {i}");
        }
    }

    #[test]
    fn other_aggregates_parse() {
        let t = points();
        let reg = TableRegistry::new().register("pts", Arc::clone(&t));
        for (cond, expect) in [
            ("(SELECT SUM(x) FROM pts) = 10", true),
            ("(SELECT MIN(y) FROM pts WHERE x > 0) = 1", true),
            ("(SELECT MAX(x) FROM pts) = 4", true),
            ("(SELECT AVG(x) FROM pts) = 2", true),
        ] {
            let e = parse_condition(cond, &reg).unwrap();
            assert_eq!(eval_on(&e, &t, 0), Value::Bool(expect), "{cond}");
        }
    }

    #[test]
    fn string_literals_and_keywords() {
        let t = points();
        let reg = TableRegistry::new();
        let e = parse_condition("'ab''c' = 'ab''c'", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 0), Value::Bool(true));
        let e = parse_condition("true AND NOT false", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 0), Value::Bool(true));
    }

    #[test]
    fn parse_errors_carry_position() {
        let reg = TableRegistry::new();
        for bad in [
            "x >",
            "x + ",
            "(x > 1",
            "SQRT(1, 2) > 0",
            "POWER(1) > 0",
            "x ! y",
            "'unterminated",
            "x @ y",
            "(SELECT COUNT(*) FROM nowhere) > 0",
            "(SELECT MEDIAN(x) FROM nowhere) > 0",
            "x > 1 extra",
            "1..2 > 0",
        ] {
            let r = parse_condition(bad, &reg);
            match r {
                Err(TableError::Parse { message, .. }) => {
                    assert!(!message.is_empty(), "{bad}: empty message")
                }
                other => panic!("`{bad}` should fail to parse, got {other:?}"),
            }
        }
    }

    /// Every recursion site and every chain-building loop, at the
    /// tallest condition [`MAX_CONDITION_DEPTH`] admits (which must
    /// still evaluate, row-wise and vectorized), one level past it, and
    /// at a size that used to overflow the stack.
    #[test]
    fn nesting_is_bounded_at_every_recursion_site_and_chain() {
        // On the stack the REPL and the server's dispatcher parse on:
        // unoptimized frames are six times the optimized ones, and the
        // deepest admitted nest of subqueries needs 2.8 MiB of them.
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(nesting_bound_cases)
            .unwrap()
            .join()
            .unwrap();
    }

    fn nesting_bound_cases() {
        let one = Arc::new(table_of_floats(&[("x", &[2.0])]).unwrap());
        let reg = TableRegistry::new().register("one", Arc::clone(&one));
        let max = MAX_CONDITION_DEPTH;
        let wrap = |open: &str, k: usize, leaf: &str, close: &str| {
            format!("{}{leaf}{}", open.repeat(k), close.repeat(k))
        };
        let chain = |k: usize, term: &str, ops: [&str; 2]| {
            let mut s = term.to_string();
            for i in 1..k {
                s += ops[i % 2];
                s += term;
            }
            s
        };
        // `build(k)` nests or chains `k` levels at one site and
        // `at_bound` is the largest `k` admitted: a `(` costs one
        // recursion level, every node one level of height above its
        // tallest child.
        let check = |site: &str, at_bound: usize, build: &dyn Fn(usize) -> String| {
            let e = parse_condition(&build(at_bound), &reg)
                .unwrap_or_else(|e| panic!("{site} at the bound: {e}"));
            let row_wise = e.eval_bool(RowCtx::top(&one, 0)).unwrap();
            let batch = crate::vector::eval_bool_columnar(&e, &one, None).unwrap();
            assert_eq!(batch, vec![row_wise], "{site}");
            for k in [at_bound + 1, 20_000] {
                match parse_condition(&build(k), &reg) {
                    Err(TableError::Parse { message, .. }) => {
                        assert!(
                            message.contains("nests deeper than 256"),
                            "{site}: {message}"
                        )
                    }
                    other => panic!("{site} at {k} levels should not parse, got {other:?}"),
                }
            }
        };
        check("parentheses", max, &|k| wrap("(", k, "x > 1", ")"));
        let sum = |k| wrap("(SELECT SUM(", k, "x", ") FROM one)") + " > 0";
        check("subqueries", max - 2, &sum);
        check("calls", max - 2, &|k| wrap("ABS(", k, "x", ")") + " > 0");
        check("NOT", max - 1, &|k| wrap("NOT ", k, "FALSE", ""));
        check("unary minus", max - 2, &|k| wrap("-", k, "x", "") + " < 9");
        check("OR chain", max, &|k| chain(k, "FALSE", [" OR ", " OR "]));
        check("AND chain", max - 1, &|k| chain(k, "x>1", [" AND "; 2]));
        check("+/- chain", max - 1, &|k| {
            chain(k, "x", [" + ", " - "]) + " < 9"
        });
        check("*// chain", max - 1, &|k| {
            chain(k, "x", [" * ", " / "]) + " < 9"
        });
        // The error points at the token that went one level too far.
        let err = parse_condition(&"(".repeat(max + 1), &reg).unwrap_err();
        assert!(matches!(err, TableError::Parse { position, .. } if position == max));
    }

    #[test]
    fn case_insensitive_keywords_and_whitespace() {
        let t = points();
        let reg = TableRegistry::new().register("D", Arc::clone(&t));
        let e = parse_condition("( select count(*) from d where x >= o.x ) >= 1", &reg).unwrap();
        let ctx = RowCtx {
            table: &t,
            row: 4,
            outer: Some((&t, 4)),
        };
        assert!(e.eval_bool(ctx).unwrap()); // x=4 dominates itself (>=)
    }

    #[test]
    fn qualified_inner_columns_strip_the_qualifier() {
        let t = points();
        let reg = TableRegistry::new().register("D", Arc::clone(&t));
        let e = parse_condition("(SELECT COUNT(*) FROM D WHERE d.x > 1) = 3", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 0), Value::Bool(true));
    }

    #[test]
    fn scientific_notation_numbers() {
        let t = points();
        let reg = TableRegistry::new();
        let e = parse_condition("1.5e2 = 150", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 0), Value::Bool(true));
        let e = parse_condition("2E-1 = 0.2", &reg).unwrap();
        assert_eq!(eval_on(&e, &t, 0), Value::Bool(true));
    }
}
