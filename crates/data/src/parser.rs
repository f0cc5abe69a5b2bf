//! A hand-written tokenizer and recursive-descent parser for the SBDMS
//! SQL dialect (see [`crate::ast`]).

use sbdms_access::exec::aggregate::AggFunc;
use sbdms_access::exec::expr::{BinOp, UnaryOp};
use sbdms_access::record::Datum;
use sbdms_kernel::error::{Result, ServiceError};

use crate::ast::*;
use crate::schema::{Column, ColumnType};

/// Tokens of the dialect.
#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Symbol(&'static str),
    End,
}

fn err(msg: impl Into<String>) -> ServiceError {
    ServiceError::InvalidInput(format!("SQL: {}", msg.into()))
}

fn negate_if(negated: bool, e: AstExpr) -> AstExpr {
    if negated {
        AstExpr::Unary(UnaryOp::Not, Box::new(e))
    } else {
        e
    }
}

struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn tokenize(sql: &'a str) -> Result<Vec<Token>> {
        let mut lexer = Lexer {
            input: sql.as_bytes(),
            pos: 0,
        };
        let mut tokens = Vec::new();
        loop {
            let t = lexer.next_token()?;
            if t == Token::End {
                tokens.push(t);
                return Ok(tokens);
            }
            tokens.push(t);
        }
    }

    /// The next token and the byte offset it starts at.
    fn next_spanned(&mut self) -> Result<(Token, usize)> {
        while self.peek_byte().is_some_and(|c| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
        let start = self.pos;
        Ok((self.next_token()?, start))
    }

    fn peek_byte(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn next_token(&mut self) -> Result<Token> {
        while let Some(c) = self.peek_byte() {
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let Some(c) = self.peek_byte() else {
            return Ok(Token::End);
        };
        match c {
            b'\'' => {
                self.pos += 1;
                let start = self.pos;
                let mut out = String::new();
                loop {
                    match self.peek_byte() {
                        Some(b'\'') => {
                            // '' escapes a quote.
                            if self.input.get(self.pos + 1) == Some(&b'\'') {
                                out.push_str(
                                    std::str::from_utf8(&self.input[start..self.pos])
                                        .map_err(|_| err("invalid utf8 in string"))?,
                                );
                                out.push('\'');
                                self.pos += 2;
                                return self.continue_string(out);
                            }
                            let s = std::str::from_utf8(&self.input[start..self.pos])
                                .map_err(|_| err("invalid utf8 in string"))?;
                            out.push_str(s);
                            self.pos += 1;
                            return Ok(Token::Str(out));
                        }
                        Some(_) => self.pos += 1,
                        None => return Err(err("unterminated string literal")),
                    }
                }
            }
            b'0'..=b'9' => {
                let start = self.pos;
                let mut is_float = false;
                while let Some(c) = self.peek_byte() {
                    if c.is_ascii_digit() {
                        self.pos += 1;
                    } else if c == b'.' && !is_float {
                        is_float = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let s = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
                if is_float {
                    Ok(Token::Float(s.parse().map_err(|_| err("bad float"))?))
                } else {
                    Ok(Token::Int(s.parse().map_err(|_| err("bad integer"))?))
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while let Some(c) = self.peek_byte() {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let s = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
                Ok(Token::Ident(s.to_string()))
            }
            _ => {
                let two: Option<&[u8]> = self.input.get(self.pos..self.pos + 2);
                let sym2 = match two {
                    Some(b"<=") => Some("<="),
                    Some(b">=") => Some(">="),
                    Some(b"!=") => Some("!="),
                    Some(b"<>") => Some("<>"),
                    _ => None,
                };
                if let Some(s) = sym2 {
                    self.pos += 2;
                    return Ok(Token::Symbol(s));
                }
                let sym = match c {
                    b'(' => "(",
                    b')' => ")",
                    b',' => ",",
                    b'*' => "*",
                    b'=' => "=",
                    b'<' => "<",
                    b'>' => ">",
                    b'+' => "+",
                    b'-' => "-",
                    b'/' => "/",
                    b'%' => "%",
                    b'.' => ".",
                    b';' => ";",
                    b'?' => "?",
                    other => return Err(err(format!("unexpected character `{}`", other as char))),
                };
                self.pos += 1;
                Ok(Token::Symbol(sym))
            }
        }
    }

    fn continue_string(&mut self, mut acc: String) -> Result<Token> {
        let start = self.pos;
        loop {
            match self.peek_byte() {
                Some(b'\'') => {
                    if self.input.get(self.pos + 1) == Some(&b'\'') {
                        acc.push_str(
                            std::str::from_utf8(&self.input[start..self.pos])
                                .map_err(|_| err("invalid utf8 in string"))?,
                        );
                        acc.push('\'');
                        self.pos += 2;
                        return self.continue_string(acc);
                    }
                    let s = std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| err("invalid utf8 in string"))?;
                    acc.push_str(s);
                    self.pos += 1;
                    return Ok(Token::Str(acc));
                }
                Some(_) => self.pos += 1,
                None => return Err(err("unterminated string literal")),
            }
        }
    }
}

/// Parse one SQL statement (a trailing `;` is allowed). Each `?`
/// placeholder becomes [`AstExpr::Param`], numbered from 0 in text
/// order.
pub fn parse(sql: &str) -> Result<Statement> {
    parse_counted(sql).map(|(stmt, _)| stmt)
}

/// [`parse`], also returning how many `?` placeholders the statement
/// has.
pub fn parse_counted(sql: &str) -> Result<(Statement, usize)> {
    let tokens = Lexer::tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        sql,
        params: 0,
    };
    let stmt = p.statement()?;
    p.eat_symbol(";");
    p.expect_end()?;
    Ok((stmt, p.params))
}

/// A statement's text with its literals lifted out into parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Lifted {
    /// The statement's shape: its text with every lifted literal
    /// replaced by `?`, otherwise byte for byte.
    pub text: String,
    /// The values of the shape's `?` placeholders, in text order.
    pub params: Vec<Datum>,
}

/// Lift the integer, float and string literals of `sql` into typed
/// parameters in one pass of the tokenizer, so `k = 7` and `k = 8` share
/// the shape `k = ?`. A prefix `-` and the number after it lift as one
/// negative value (`k = -5` is `k = ?` with `-5`), the same literal the
/// parser folds them into; a `-` is a prefix at the start, after an
/// operator symbol, `(` or `,`, and after a keyword that an expression
/// follows (`PREFIX_KEYWORDS`). A `?` already in the text takes the
/// next value of `given` (the statement's bound parameters); it is an
/// error if the counts differ. A count after LIMIT or OFFSET stays in
/// the text: the planner folds it into the plan, so it is part of the
/// shape.
///
/// Returns `Ok(None)` when the text does not tokenize; parsing the
/// original text then reports the error.
pub fn lift_literals(sql: &str, given: &[Datum]) -> Result<Option<Lifted>> {
    let mut lexer = Lexer {
        input: sql.as_bytes(),
        pos: 0,
    };
    let mut text = String::with_capacity(sql.len());
    let mut params = Vec::new();
    let mut copied = 0;
    let mut used = 0;
    let mut after_count_keyword = false;
    // Whether a `-` here would be a prefix (no operand precedes it).
    let mut operand_expected = true;
    // Where a prefix `-` starts, while the token after it is unseen.
    let mut minus: Option<usize> = None;
    loop {
        let Ok((token, start)) = lexer.next_spanned() else {
            return Ok(None);
        };
        let negative = minus.take();
        let prefix_minus_here = operand_expected && token == Token::Symbol("-");
        operand_expected = match &token {
            Token::Symbol(s) => !matches!(*s, ")" | "?"),
            Token::Ident(word) => PREFIX_KEYWORDS.iter().any(|k| word.eq_ignore_ascii_case(k)),
            _ => false,
        };
        let sign = if negative.is_some() { -1 } else { 1 };
        let value = match token {
            Token::End => break,
            Token::Int(i) if !after_count_keyword => Datum::Int(sign * i),
            Token::Float(x) => Datum::Float(sign as f64 * x),
            Token::Str(s) => Datum::Str(s),
            Token::Symbol("-") if prefix_minus_here && !after_count_keyword => {
                minus = Some(start);
                continue;
            }
            Token::Symbol("?") => {
                let value = given.get(used).cloned().ok_or_else(|| {
                    err(format!(
                        "statement has more `?` placeholders than the {} values given",
                        given.len()
                    ))
                })?;
                used += 1;
                params.push(value);
                continue;
            }
            Token::Ident(word) => {
                after_count_keyword =
                    word.eq_ignore_ascii_case("limit") || word.eq_ignore_ascii_case("offset");
                continue;
            }
            _ => {
                after_count_keyword = false;
                continue;
            }
        };
        after_count_keyword = false;
        let start = if matches!(value, Datum::Str(_)) { start } else { negative.unwrap_or(start) };
        text.push_str(&sql[copied..start]);
        text.push('?');
        copied = lexer.pos;
        params.push(value);
    }
    if used != given.len() {
        return Err(err(format!(
            "statement has {used} `?` placeholders but {} values were given",
            given.len()
        )));
    }
    text.push_str(&sql[copied..]);
    Ok(Some(Lifted { text, params }))
}

/// Keywords an expression follows: a `-` after one of them is a
/// prefix minus, not a subtraction.
const PREFIX_KEYWORDS: [&str; 11] = [
    "select", "distinct", "where", "and", "or", "not", "between", "like", "on", "by", "having",
];

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    sql: &'a str,
    /// `?` placeholders seen so far.
    params: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::End)
    }

    fn next(&mut self) -> Token {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    /// Case-insensitive keyword check without consuming.
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Token::Symbol(s) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(err(format!("expected `{sym}`, found {:?}", self.peek())))
        }
    }

    fn expect_end(&self) -> Result<()> {
        if matches!(self.peek(), Token::End) {
            Ok(())
        } else {
            Err(err(format!("trailing input at {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident(s) => Ok(s.to_lowercase()),
            other => Err(err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("create") {
            return self.create();
        }
        if self.eat_kw("drop") {
            if self.eat_kw("table") {
                return Ok(Statement::DropTable { name: self.ident()? });
            }
            if self.eat_kw("index") {
                let name = self.ident()?;
                self.expect_kw("on")?;
                let table = self.ident()?;
                return Ok(Statement::DropIndex { name, table });
            }
            self.expect_kw("view")?;
            return Ok(Statement::DropView { name: self.ident()? });
        }
        if self.peek_kw("insert") {
            return self.insert();
        }
        if self.peek_kw("update") {
            return self.update();
        }
        if self.peek_kw("delete") {
            return self.delete();
        }
        if self.peek_kw("select") {
            let select = self.select()?;
            return Ok(Statement::Select(Box::new(select)));
        }
        if self.eat_kw("analyze") {
            return Ok(Statement::Analyze { table: self.ident()? });
        }
        if self.eat_kw("explain") {
            let target = if self.peek_kw("update") {
                self.update()?
            } else if self.peek_kw("delete") {
                self.delete()?
            } else {
                Statement::Select(Box::new(self.select()?))
            };
            return Ok(Statement::Explain(Box::new(target)));
        }
        Err(err(format!("unexpected statement start {:?}", self.peek())))
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        if self.eat_kw("table") {
            let name = self.ident()?;
            self.expect_symbol("(")?;
            let mut columns = Vec::new();
            loop {
                let col_name = self.ident()?;
                let ty_name = self.ident()?;
                let ty = ColumnType::parse(&ty_name)
                    .ok_or_else(|| err(format!("unknown type `{ty_name}`")))?;
                let nullable = if self.eat_kw("not") {
                    self.expect_kw("null")?;
                    false
                } else {
                    true
                };
                columns.push(Column {
                    name: col_name,
                    ty,
                    nullable,
                });
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Statement::CreateTable { name, columns });
        }
        if self.eat_kw("index") {
            let name = self.ident()?;
            self.expect_kw("on")?;
            let table = self.ident()?;
            self.expect_symbol("(")?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.ident()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Statement::CreateIndex { name, table, columns });
        }
        self.expect_kw("view")?;
        let name = self.ident()?;
        self.expect_kw("as")?;
        // Capture the query text verbatim from here to the end.
        let text_start = self.current_text_offset();
        let query = self.select()?;
        let query_text = self.sql[text_start..].trim().trim_end_matches(';').to_string();
        if self.params > 0 {
            return Err(err("a view cannot have `?` parameters"));
        }
        Ok(Statement::CreateView {
            name,
            query_text,
            query: Box::new(query),
        })
    }

    /// Best-effort byte offset of the current token in the source; used
    /// only to capture view text, where the remaining input *is* the
    /// query, so scanning for the SELECT keyword suffices.
    fn current_text_offset(&self) -> usize {
        let lower = self.sql.to_lowercase();
        lower.rfind("select").unwrap_or(0)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        let columns = if self.eat_symbol("(") {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            rows.push(row);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut set = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol("=")?;
            set.push((col, self.expr()?));
            if !self.eat_symbol(",") {
                break;
            }
        }
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update { table, set, filter })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let mut select = Select {
            distinct: self.eat_kw("distinct"),
            ..Select::default()
        };

        loop {
            if self.eat_symbol("*") {
                select.items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                };
                select.items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_symbol(",") {
                break;
            }
        }

        if self.eat_kw("from") {
            select.from = Some(self.ident()?);
            select.from_alias = self.table_alias()?;
            while self.eat_kw("join") {
                let table = self.ident()?;
                let alias = self.table_alias()?;
                self.expect_kw("on")?;
                let on = self.expr()?;
                select.joins.push(JoinClause { table, alias, on });
            }
        }
        if self.eat_kw("where") {
            select.filter = Some(self.expr()?);
        }
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                select.group_by.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        if self.eat_kw("having") {
            select.having = Some(self.expr()?);
        }
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                select.order_by.push(OrderKey { expr, asc });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        if self.eat_kw("limit") {
            select.limit = Some(self.unsigned()?);
        }
        if self.eat_kw("offset") {
            select.offset = Some(self.unsigned()?);
        }
        Ok(select)
    }

    fn table_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident()?));
        }
        // A bare identifier that is not a clause keyword is an alias.
        if let Token::Ident(s) = self.peek() {
            let kw = [
                "join", "on", "where", "group", "having", "order", "limit", "offset",
            ];
            if !kw.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                return Ok(Some(self.ident()?));
            }
        }
        Ok(None)
    }

    fn unsigned(&mut self) -> Result<usize> {
        match self.next() {
            Token::Int(i) if i >= 0 => Ok(i as usize),
            other => Err(err(format!("expected non-negative integer, found {other:?}"))),
        }
    }

    // Expression precedence: OR < AND < NOT < comparison/IS < +- < */% < unary < primary
    fn expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = AstExpr::Binary(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = AstExpr::Binary(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            return Ok(AstExpr::Unary(UnaryOp::Not, Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<AstExpr> {
        let left = self.additive()?;
        // IS [NOT] NULL postfix.
        if self.eat_kw("is") {
            let not = self.eat_kw("not");
            self.expect_kw("null")?;
            let op = if not { UnaryOp::IsNotNull } else { UnaryOp::IsNull };
            return Ok(AstExpr::Unary(op, Box::new(left)));
        }
        // [NOT] LIKE / BETWEEN / IN postfix forms.
        let negated = if self.peek_kw("not") {
            // Only consume NOT if a postfix operator follows (otherwise it
            // belongs to a surrounding NOT expression — which cannot occur
            // here, but be conservative).
            let ahead = self.tokens.get(self.pos + 1);
            let is_postfix = matches!(
                ahead,
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("like")
                    || s.eq_ignore_ascii_case("between")
                    || s.eq_ignore_ascii_case("in")
            );
            if is_postfix {
                self.pos += 1;
                true
            } else {
                false
            }
        } else {
            false
        };
        if self.eat_kw("like") {
            let pattern = self.additive()?;
            let like = AstExpr::Binary(BinOp::Like, Box::new(left), Box::new(pattern));
            return Ok(negate_if(negated, like));
        }
        if self.eat_kw("between") {
            // BETWEEN lo AND hi desugars to (left >= lo) AND (left <= hi);
            // the inner AND binds to BETWEEN, not to the logical level.
            let lo = self.additive()?;
            self.expect_kw("and")?;
            let hi = self.additive()?;
            let range = AstExpr::Binary(
                BinOp::And,
                Box::new(AstExpr::Binary(
                    BinOp::Ge,
                    Box::new(left.clone()),
                    Box::new(lo),
                )),
                Box::new(AstExpr::Binary(BinOp::Le, Box::new(left), Box::new(hi))),
            );
            return Ok(negate_if(negated, range));
        }
        if self.eat_kw("in") {
            // IN (v1, v2, ...) desugars to a chain of equality ORs.
            self.expect_symbol("(")?;
            let mut disjunction: Option<AstExpr> = None;
            loop {
                let v = self.expr()?;
                let eq = AstExpr::Binary(BinOp::Eq, Box::new(left.clone()), Box::new(v));
                disjunction = Some(match disjunction {
                    None => eq,
                    Some(d) => AstExpr::Binary(BinOp::Or, Box::new(d), Box::new(eq)),
                });
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(negate_if(negated, disjunction.expect("IN list nonempty")));
        }
        if negated {
            return Err(err("expected LIKE, BETWEEN, or IN after NOT"));
        }
        let op = match self.peek() {
            Token::Symbol("=") => Some(BinOp::Eq),
            Token::Symbol("!=") | Token::Symbol("<>") => Some(BinOp::Ne),
            Token::Symbol("<") => Some(BinOp::Lt),
            Token::Symbol("<=") => Some(BinOp::Le),
            Token::Symbol(">") => Some(BinOp::Gt),
            Token::Symbol(">=") => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(AstExpr::Binary(op, Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Symbol("+") => BinOp::Add,
                Token::Symbol("-") => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = AstExpr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Symbol("*") => BinOp::Mul,
                Token::Symbol("/") => BinOp::Div,
                Token::Symbol("%") => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = AstExpr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<AstExpr> {
        if self.eat_symbol("-") {
            // A minus before a number is part of the literal.
            match *self.peek() {
                Token::Int(i) => {
                    self.pos += 1;
                    return Ok(AstExpr::Literal(Datum::Int(-i)));
                }
                Token::Float(x) => {
                    self.pos += 1;
                    return Ok(AstExpr::Literal(Datum::Float(-x)));
                }
                _ => {}
            }
            let inner = self.unary()?;
            return Ok(AstExpr::Unary(UnaryOp::Neg, Box::new(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.next() {
            Token::Int(i) => Ok(AstExpr::Literal(Datum::Int(i))),
            Token::Float(x) => Ok(AstExpr::Literal(Datum::Float(x))),
            Token::Str(s) => Ok(AstExpr::Literal(Datum::Str(s))),
            Token::Symbol("?") => {
                self.params += 1;
                Ok(AstExpr::Param(self.params - 1))
            }
            Token::Symbol("(") => {
                let inner = self.expr()?;
                self.expect_symbol(")")?;
                Ok(inner)
            }
            Token::Ident(name) => {
                let lower = name.to_lowercase();
                match lower.as_str() {
                    "null" => return Ok(AstExpr::Literal(Datum::Null)),
                    "true" => return Ok(AstExpr::Literal(Datum::Bool(true))),
                    "false" => return Ok(AstExpr::Literal(Datum::Bool(false))),
                    _ => {}
                }
                // Aggregate call?
                let agg = match lower.as_str() {
                    "count" => Some(AggFunc::Count),
                    "sum" => Some(AggFunc::Sum),
                    "avg" => Some(AggFunc::Avg),
                    "min" => Some(AggFunc::Min),
                    "max" => Some(AggFunc::Max),
                    _ => None,
                };
                if let Some(func) = agg {
                    if self.eat_symbol("(") {
                        if func == AggFunc::Count && self.eat_symbol("*") {
                            self.expect_symbol(")")?;
                            return Ok(AstExpr::Agg(AggFunc::CountAll, None));
                        }
                        let arg = self.expr()?;
                        self.expect_symbol(")")?;
                        return Ok(AstExpr::Agg(func, Some(Box::new(arg))));
                    }
                }
                // Qualified column?
                if self.eat_symbol(".") {
                    let col = self.ident()?;
                    return Ok(AstExpr::Column(Some(lower), col));
                }
                Ok(AstExpr::Column(None, lower))
            }
            other => Err(err(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_lift_into_typed_parameters() {
        let lifted = lift_literals(
            "SELECT a FROM t WHERE k = 7 AND s = 'it''s' AND f > 1.5 LIMIT 3 OFFSET 2",
            &[],
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            lifted.text,
            "SELECT a FROM t WHERE k = ? AND s = ? AND f > ? LIMIT 3 OFFSET 2"
        );
        assert_eq!(
            lifted.params,
            vec![Datum::Int(7), Datum::Str("it's".into()), Datum::Float(1.5)]
        );
        // Given values fill the text's own placeholders, in order.
        let lifted = lift_literals("SELECT ? + 1 FROM t WHERE k = ?", &[Datum::Int(4), Datum::Null])
            .unwrap()
            .unwrap();
        assert_eq!(lifted.text, "SELECT ? + ? FROM t WHERE k = ?");
        assert_eq!(lifted.params, vec![Datum::Int(4), Datum::Int(1), Datum::Null]);
        assert!(lift_literals("SELECT ? FROM t", &[]).is_err());
        assert!(lift_literals("SELECT 1 FROM t", &[Datum::Int(1)]).is_err());
        assert_eq!(lift_literals("SELECT 'open", &[]).unwrap(), None);
        let (stmt, n) = parse_counted("SELECT v FROM t WHERE k = ? AND v < ?").unwrap();
        assert_eq!(n, 2);
        let Statement::Select(select) = stmt else { panic!("not a SELECT") };
        assert!(select.to_sql().contains("((k) = (?)) AND ((v) < (?))"), "{}", select.to_sql());
    }

    #[test]
    fn create_table_parses() {
        let stmt = parse(
            "CREATE TABLE Users (id INT NOT NULL, name TEXT, score FLOAT, active BOOL)",
        )
        .unwrap();
        let Statement::CreateTable { name, columns } = stmt else {
            panic!()
        };
        assert_eq!(name, "users");
        assert_eq!(columns.len(), 4);
        assert!(!columns[0].nullable);
        assert!(columns[1].nullable);
        assert_eq!(columns[2].ty, ColumnType::Float);
    }

    #[test]
    fn insert_parses_multi_row() {
        let stmt = parse(
            "INSERT INTO users (id, name) VALUES (1, 'alice'), (2, 'bo''b')",
        )
        .unwrap();
        let Statement::Insert { table, columns, rows } = stmt else {
            panic!()
        };
        assert_eq!(table, "users");
        assert_eq!(columns.unwrap(), vec!["id", "name"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][1], AstExpr::Literal(Datum::Str("bo'b".into())));
    }

    #[test]
    fn select_full_clause_set() {
        let stmt = parse(
            "SELECT DISTINCT name, COUNT(*) AS n FROM users u \
             JOIN orders o ON u.id = o.user_id \
             WHERE score >= 1.5 AND active = true \
             GROUP BY name HAVING n > 2 \
             ORDER BY n DESC, name LIMIT 10 OFFSET 5;",
        )
        .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert!(s.distinct);
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.as_deref(), Some("users"));
        assert_eq!(s.from_alias.as_deref(), Some("u"));
        assert_eq!(s.joins.len(), 1);
        assert_eq!(s.joins[0].alias.as_deref(), Some("o"));
        assert!(s.filter.is_some());
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(!s.order_by[0].asc);
        assert!(s.order_by[1].asc);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(5));
    }

    #[test]
    fn expression_precedence() {
        let stmt = parse("SELECT 1 + 2 * 3").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        let AstExpr::Binary(BinOp::Add, l, r) = expr else {
            panic!("expected add at top: {expr:?}")
        };
        assert_eq!(**l, AstExpr::int(1));
        assert!(matches!(**r, AstExpr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn logical_precedence_and_parens() {
        let stmt = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        // OR is top: a=1 OR (b=2 AND c=3)
        assert!(matches!(
            s.filter.unwrap(),
            AstExpr::Binary(BinOp::Or, _, _)
        ));
        let stmt = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert!(matches!(
            s.filter.unwrap(),
            AstExpr::Binary(BinOp::And, _, _)
        ));
    }

    #[test]
    fn is_null_and_not() {
        let stmt = parse("SELECT * FROM t WHERE x IS NULL AND NOT y IS NOT NULL").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let AstExpr::Binary(BinOp::And, l, r) = s.filter.unwrap() else {
            panic!()
        };
        assert!(matches!(*l, AstExpr::Unary(UnaryOp::IsNull, _)));
        assert!(matches!(*r, AstExpr::Unary(UnaryOp::Not, _)));
    }

    #[test]
    fn aggregates_parse() {
        let stmt = parse("SELECT COUNT(*), SUM(x), AVG(y), MIN(z), MAX(z) FROM t").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.items.len(), 5);
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        assert_eq!(*expr, AstExpr::Agg(AggFunc::CountAll, None));
    }

    #[test]
    fn update_delete_drop() {
        let stmt = parse("UPDATE users SET name = 'x', score = score + 1 WHERE id = 3").unwrap();
        let Statement::Update { set, filter, .. } = stmt else {
            panic!()
        };
        assert_eq!(set.len(), 2);
        assert!(filter.is_some());

        let stmt = parse("DELETE FROM users").unwrap();
        assert!(matches!(stmt, Statement::Delete { filter: None, .. }));

        assert!(matches!(
            parse("DROP TABLE users").unwrap(),
            Statement::DropTable { .. }
        ));
        assert!(matches!(
            parse("DROP VIEW v").unwrap(),
            Statement::DropView { .. }
        ));
    }

    #[test]
    fn create_view_captures_text() {
        let stmt = parse("CREATE VIEW top AS SELECT name FROM users WHERE score > 9").unwrap();
        let Statement::CreateView { name, query_text, query } = stmt else {
            panic!()
        };
        assert_eq!(name, "top");
        assert!(query_text.starts_with("SELECT name"));
        assert_eq!(query.from.as_deref(), Some("users"));
    }

    #[test]
    fn create_index_parses() {
        let stmt = parse("CREATE INDEX users_id ON users (id)").unwrap();
        assert_eq!(
            stmt,
            Statement::CreateIndex {
                name: "users_id".into(),
                table: "users".into(),
                columns: vec!["id".into()]
            }
        );
    }

    #[test]
    fn composite_index_and_drop_index_parse() {
        let stmt = parse("CREATE INDEX ix ON t (a, b, c)").unwrap();
        assert_eq!(
            stmt,
            Statement::CreateIndex {
                name: "ix".into(),
                table: "t".into(),
                columns: vec!["a".into(), "b".into(), "c".into()]
            }
        );
        let stmt = parse("DROP INDEX ix ON t").unwrap();
        assert_eq!(
            stmt,
            Statement::DropIndex {
                name: "ix".into(),
                table: "t".into()
            }
        );
        assert!(parse("CREATE INDEX ix ON t ()").is_err());
        assert!(parse("DROP INDEX ix").is_err());
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse("").is_err());
        assert!(parse("SELEC * FROM t").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("INSERT INTO t VALUES").is_err());
        assert!(parse("SELECT * FROM t WHERE x = 'unterminated").is_err());
        assert!(parse("CREATE TABLE t (x BLOB)").is_err());
        assert!(parse("SELECT * FROM t extra garbage !").is_err());
        assert!(parse("SELECT * FROM t LIMIT -1").is_err());
    }

    #[test]
    fn like_between_in_parse_and_desugar() {
        let stmt = parse("SELECT * FROM t WHERE name LIKE 'a%' AND x BETWEEN 1 AND 5").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let AstExpr::Binary(BinOp::And, l, r) = s.filter.unwrap() else {
            panic!()
        };
        assert!(matches!(*l, AstExpr::Binary(BinOp::Like, _, _)));
        // BETWEEN desugars to (x >= 1) AND (x <= 5).
        let AstExpr::Binary(BinOp::And, lo, hi) = *r else { panic!() };
        assert!(matches!(*lo, AstExpr::Binary(BinOp::Ge, _, _)));
        assert!(matches!(*hi, AstExpr::Binary(BinOp::Le, _, _)));

        let stmt = parse("SELECT * FROM t WHERE x IN (1, 2, 3)").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        // ((x=1) OR (x=2)) OR (x=3)
        assert!(matches!(s.filter.unwrap(), AstExpr::Binary(BinOp::Or, _, _)));

        let stmt = parse("SELECT * FROM t WHERE x NOT IN (1) AND name NOT LIKE '%z'").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let AstExpr::Binary(BinOp::And, l, r) = s.filter.unwrap() else {
            panic!()
        };
        assert!(matches!(*l, AstExpr::Unary(UnaryOp::Not, _)));
        assert!(matches!(*r, AstExpr::Unary(UnaryOp::Not, _)));

        assert!(parse("SELECT * FROM t WHERE x IN ()").is_err());
        assert!(parse("SELECT * FROM t WHERE x NOT 5").is_err());
    }

    #[test]
    fn qualified_columns_and_negatives() {
        let stmt = parse("SELECT u.name FROM users u WHERE u.score < -2.5").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        assert_eq!(*expr, AstExpr::Column(Some("u".into()), "name".into()));
        // A minus before a number folds into the literal: -2.5 parses
        // as the value -2.5, not as Neg(2.5).
        let AstExpr::Binary(BinOp::Lt, _, r) = s.filter.unwrap() else {
            panic!()
        };
        assert_eq!(*r, AstExpr::Literal(Datum::Float(-2.5)));
        // A minus before anything else stays a negation.
        let Statement::Select(s) = parse("SELECT -(2), -x, - -3 FROM t").unwrap() else {
            panic!()
        };
        let exprs: Vec<&AstExpr> = s
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, .. } => expr,
                _ => panic!(),
            })
            .collect();
        assert_eq!(*exprs[0], AstExpr::Unary(UnaryOp::Neg, Box::new(AstExpr::int(2))));
        assert!(matches!(exprs[1], AstExpr::Unary(UnaryOp::Neg, _)));
        assert_eq!(
            *exprs[2],
            AstExpr::Unary(UnaryOp::Neg, Box::new(AstExpr::Literal(Datum::Int(-3))))
        );
    }

    #[test]
    fn prefix_minus_lifts_with_its_number() {
        let lift = |sql: &str| {
            let l = lift_literals(sql, &[]).unwrap().unwrap();
            (l.text, l.params)
        };
        let int = Datum::Int;
        assert_eq!(lift("SELECT v FROM t WHERE k = -5"), ("SELECT v FROM t WHERE k = ?".into(), vec![int(-5)]));
        assert_eq!(lift("SELECT v FROM t WHERE k IN (-1, -2)").1, vec![int(-1), int(-2)]);
        assert_eq!(
            lift("SELECT v FROM t WHERE k BETWEEN -5 AND -3"),
            ("SELECT v FROM t WHERE k BETWEEN ? AND ?".into(), vec![int(-5), int(-3)])
        );
        assert_eq!(lift("SELECT -2.5").1, vec![Datum::Float(-2.5)]);
        // Subtraction keeps its operator and lifts the positive operand.
        assert_eq!(lift("SELECT v - 5 FROM t"), ("SELECT v - ? FROM t".into(), vec![int(5)]));
        assert_eq!(lift("SELECT v -5 FROM t"), ("SELECT v -? FROM t".into(), vec![int(5)]));
        assert_eq!(lift("SELECT (v) - 5 FROM t").1, vec![int(5)]);
        assert_eq!(lift("SELECT 5 - -3"), ("SELECT ? - ?".into(), vec![int(5), int(-3)]));
        assert_eq!(lift("SELECT - -5"), ("SELECT - ?".into(), vec![int(-5)]));
        // A LIMIT count stays in the text, sign and all.
        assert_eq!(lift("SELECT v FROM t LIMIT 3").0, "SELECT v FROM t LIMIT 3");
    }

    #[test]
    fn select_without_from() {
        let stmt = parse("SELECT 1 + 1 AS two").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert!(s.from.is_none());
        let SelectItem::Expr { alias, .. } = &s.items[0] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("two"));
    }
}
