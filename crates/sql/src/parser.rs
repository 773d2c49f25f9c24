//! Recursive-descent parser for the SQL dialect.

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::tokenize;
use crate::token::{Keyword, Spanned, Token};
use pqp_storage::Value;
use std::sync::Arc;

/// Parse a complete query from source text.
pub fn parse_query(src: &str) -> Result<Query> {
    let _span = pqp_obs::span("sql.parse");
    pqp_obs::record("chars", src.len());
    let mut p = Parser::new(src)?;
    pqp_obs::record("tokens", p.tokens.len());
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parse a standalone expression (used by tests and tools).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// A cursor over one source text's tokens, which end in `Eof`; the query
/// grammar here and the statement grammar (`crate::stmt`) parse on it.
pub(crate) struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    pub(crate) fn new(src: &str) -> Result<Parser> {
        Ok(Parser { tokens: tokenize(src)?, pos: 0 })
    }

    pub(crate) fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    pub(crate) fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.next();
            true
        } else {
            false
        }
    }

    pub(crate) fn eat_kw(&mut self, k: Keyword) -> bool {
        self.eat(&Token::Keyword(k))
    }

    pub(crate) fn expect_token(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    pub(crate) fn expect_kw(&mut self, k: Keyword) -> Result<()> {
        self.expect_token(&Token::Keyword(k))
    }

    pub(crate) fn expect_eof(&mut self) -> Result<()> {
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(self.err(format!("trailing input starting at `{}`", self.peek())))
        }
    }

    pub(crate) fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.offset(), msg)
    }

    pub(crate) fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Token::Ident(_) => match self.next() {
                Token::Ident(s) => Ok(s),
                _ => unreachable!(),
            },
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    // query := set_expr [ORDER BY order_items] [LIMIT int]
    pub(crate) fn query(&mut self) -> Result<Query> {
        let body = self.set_expr()?;
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw(Keyword::Desc) {
                    true
                } else {
                    self.eat_kw(Keyword::Asc);
                    false
                };
                order_by.push(OrderByItem { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw(Keyword::Limit) {
            match self.next() {
                Token::Int(n) if n >= 0 => Some(n as u64),
                other => return Err(self.err(format!("expected LIMIT count, found `{other}`"))),
            }
        } else {
            None
        };
        Ok(Query { body, order_by, limit })
    }

    // set_expr := set_primary (UNION [ALL] set_primary)*
    fn set_expr(&mut self) -> Result<SetExpr> {
        let mut left = self.set_primary()?;
        while self.eat_kw(Keyword::Union) {
            let all = self.eat_kw(Keyword::All);
            let right = self.set_primary()?;
            left = SetExpr::Union { left: Box::new(left), right: Box::new(right), all };
        }
        Ok(left)
    }

    // set_primary := select | '(' set_expr ')'
    fn set_primary(&mut self) -> Result<SetExpr> {
        if self.eat(&Token::LParen) {
            let inner = self.set_expr()?;
            self.expect_token(&Token::RParen)?;
            Ok(inner)
        } else {
            Ok(SetExpr::Select(Box::new(self.select()?)))
        }
    }

    // select := SELECT [DISTINCT] items FROM factors [WHERE e] [GROUP BY es] [HAVING e]
    fn select(&mut self) -> Result<Select> {
        self.expect_kw(Keyword::Select)?;
        let distinct = self.eat_kw(Keyword::Distinct);
        let mut projection = Vec::new();
        loop {
            if self.eat(&Token::Star) {
                projection.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = self.alias_opt()?;
                projection.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw(Keyword::From) {
            loop {
                from.push(self.table_factor()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let selection = if self.eat_kw(Keyword::Where) { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw(Keyword::Having) { Some(self.expr()?) } else { None };
        Ok(Select { distinct, projection, from, selection, group_by, having })
    }

    fn alias_opt(&mut self) -> Result<Option<Arc<str>>> {
        if self.eat_kw(Keyword::As) || matches!(self.peek(), Token::Ident(_)) {
            return Ok(Some(self.ident()?.into()));
        }
        Ok(None)
    }

    // table_factor := ident [alias] | '(' query ')' alias
    fn table_factor(&mut self) -> Result<TableFactor> {
        if self.eat(&Token::LParen) {
            let query = self.query()?;
            self.expect_token(&Token::RParen)?;
            let alias = match self.alias_opt()? {
                Some(a) => a,
                None => return Err(self.err("derived table requires an alias")),
            };
            return Ok(TableFactor::Derived { query: Box::new(query), alias });
        }
        let name = self.ident()?.into();
        let alias = self.alias_opt()?;
        Ok(TableFactor::Table { name, alias })
    }

    // Expression precedence: OR < AND < NOT < comparison/IS/IN < +- < */ < unary < primary
    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw(Keyword::Or) {
            let right = self.and_expr()?;
            left = Expr::Binary { left: Box::new(left), op: BinaryOp::Or, right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw(Keyword::And) {
            let right = self.not_expr()?;
            left = Expr::Binary { left: Box::new(left), op: BinaryOp::And, right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw(Keyword::Not) {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        let op = match self.peek() {
            Token::Eq => Some(BinaryOp::Eq),
            Token::NotEq => Some(BinaryOp::NotEq),
            Token::Lt => Some(BinaryOp::Lt),
            Token::LtEq => Some(BinaryOp::LtEq),
            Token::Gt => Some(BinaryOp::Gt),
            Token::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let right = self.additive()?;
            return Ok(Expr::Binary { left: Box::new(left), op, right: Box::new(right) });
        }
        if self.eat_kw(Keyword::Is) {
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // `[NOT] IN (list)`
        let negated = if self.peek() == &Token::Keyword(Keyword::Not)
            && self.peek2() == &Token::Keyword(Keyword::In)
        {
            self.next();
            true
        } else {
            false
        };
        if self.eat_kw(Keyword::In) {
            self.expect_token(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if negated {
            return Err(self.err("expected IN after NOT"));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Plus,
                Token::Minus => BinaryOp::Minus,
                _ => break,
            };
            self.next();
            let right = self.multiplicative()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Mul,
                Token::Slash => BinaryOp::Div,
                _ => break,
            };
            self.next();
            let right = self.unary()?;
            left = Expr::Binary { left: Box::new(left), op, right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            // Fold unary minus into numeric literals; otherwise 0 - e.
            return Ok(match self.unary()? {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                e => Expr::Binary {
                    left: Box::new(Expr::Literal(Value::Int(0))),
                    op: BinaryOp::Minus,
                    right: Box::new(e),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Token::Int(i) => {
                self.next();
                Ok(Expr::Literal(Value::Int(i)))
            }
            Token::Float(f) => {
                self.next();
                Ok(Expr::Literal(Value::Float(f)))
            }
            Token::String(_) => match self.next() {
                Token::String(s) => Ok(Expr::Literal(Value::Str(s.into()))),
                _ => unreachable!(),
            },
            Token::Keyword(Keyword::True) => {
                self.next();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Token::Keyword(Keyword::False) => {
                self.next();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Token::Keyword(Keyword::Null) => {
                self.next();
                Ok(Expr::Literal(Value::Null))
            }
            Token::Keyword(Keyword::Count) => {
                self.next();
                self.function_call("COUNT".to_string())
            }
            Token::LParen => {
                self.next();
                let e = self.expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(_) => {
                let name = self.ident()?;
                if self.peek() == &Token::LParen {
                    return self.function_call(name);
                }
                if self.eat(&Token::Dot) {
                    let col = self.ident()?.into();
                    return Ok(Expr::Column { qualifier: Some(name.into()), name: col });
                }
                Ok(Expr::Column { qualifier: None, name: name.into() })
            }
            other => Err(self.err(format!("expected expression, found `{other}`"))),
        }
    }

    fn function_call(&mut self, name: String) -> Result<Expr> {
        self.expect_token(&Token::LParen)?;
        if self.eat(&Token::Star) {
            self.expect_token(&Token::RParen)?;
            return Ok(Expr::Function { name, args: Vec::new(), wildcard: true });
        }
        let mut args = Vec::new();
        if self.peek() != &Token::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_token(&Token::RParen)?;
        Ok(Expr::Function { name, args, wildcard: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder as b;

    #[test]
    fn simple_spj() {
        let q = parse_query(
            "select MV.title from MOVIE MV, PLAY PL \
             where MV.mid=PL.mid and PL.date='2/7/2003'",
        )
        .unwrap();
        let s = q.as_select().unwrap();
        assert!(!s.distinct);
        assert_eq!(s.projection.len(), 1);
        assert_eq!(s.from.len(), 2);
        let w = s.selection.as_ref().unwrap();
        assert_eq!(w.conjuncts().len(), 2);
    }

    #[test]
    fn precedence_and_or() {
        let e = parse_expr("a = 1 or b = 2 and c = 3").unwrap();
        // OR binds loosest: (a=1) OR ((b=2) AND (c=3))
        let ds = e.disjuncts();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[1].conjuncts().len(), 2);
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            b::binary(
                b::lit(1i64),
                BinaryOp::Plus,
                b::binary(b::lit(2i64), BinaryOp::Mul, b::lit(3i64))
            )
        );
    }

    #[test]
    fn unary_minus_folds() {
        assert_eq!(parse_expr("-5").unwrap(), b::lit(-5i64));
        assert_eq!(parse_expr("-1.5").unwrap(), b::lit(-1.5f64));
    }

    #[test]
    fn not_and_is_null() {
        let e = parse_expr("not x is null").unwrap();
        assert!(matches!(e, Expr::Not(_)));
        let e = parse_expr("x is not null").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn in_list() {
        let e = parse_expr("g in ('comedy', 'thriller')").unwrap();
        let Expr::InList { list, negated: false, .. } = e else { panic!() };
        assert_eq!(list.len(), 2);
        assert!(matches!(parse_expr("g not in (1)").unwrap(), Expr::InList { negated: true, .. }));
    }

    #[test]
    fn count_star_and_having() {
        let q =
            parse_query("select t.title from T t group by t.title having count(*) >= 2").unwrap();
        let s = q.as_select().unwrap();
        assert_eq!(s.group_by.len(), 1);
        let h = s.having.as_ref().unwrap();
        assert!(h.contains_aggregate());
    }

    #[test]
    fn union_all_in_derived_table() {
        // The MQ shape from the paper.
        let q = parse_query(
            "select MV_title from (\
               (select distinct MV.title MV_title from MOVIE MV) \
               union all \
               (select distinct MV.title MV_title from MOVIE MV)\
             ) TEMP group by MV_title having count(*) >= 2",
        )
        .unwrap();
        let s = q.as_select().unwrap();
        let TableFactor::Derived { query, alias } = &s.from[0] else { panic!() };
        assert_eq!(&**alias, "TEMP");
        assert!(matches!(query.body, SetExpr::Union { all: true, .. }));
    }

    #[test]
    fn order_by_and_limit() {
        let q = parse_query("select x from T order by x desc, y limit 10").unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].desc);
        assert!(!q.order_by[1].desc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn distinct_and_wildcard() {
        let q = parse_query("select distinct * from T").unwrap();
        let s = q.as_select().unwrap();
        assert!(s.distinct);
        assert_eq!(s.projection, vec![SelectItem::Wildcard]);
    }

    #[test]
    fn aliases_with_and_without_as() {
        let q = parse_query("select a as x, b y from T as u").unwrap();
        let s = q.as_select().unwrap();
        let SelectItem::Expr { alias, .. } = &s.projection[0] else { panic!() };
        assert_eq!(alias.as_deref(), Some("x"));
        let SelectItem::Expr { alias, .. } = &s.projection[1] else { panic!() };
        assert_eq!(alias.as_deref(), Some("y"));
        assert_eq!(s.from[0].binding_name(), "u");
    }

    #[test]
    fn error_messages_have_position() {
        let e = parse_query("select from T").unwrap_err();
        assert!(e.offset > 0);
        assert!(parse_query("select x from").is_err());
        assert!(parse_query("select x from T where").is_err());
        assert!(parse_query("select x from (select y from T)").is_err(), "derived needs alias");
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_query("select x from T garbage garbage").is_err());
    }

    #[test]
    fn paper_sq_example_parses() {
        let q = parse_query(
            "select distinct MV.title \
             from MOVIE MV, PLAY PL, CAST CA, ACTOR AC, GENRE GN, DIRECTED DD, DIRECTOR DI \
             where MV.mid=PL.mid and PL.date='2/7/2003' and (\
               (MV.mid=GN.mid and GN.genre='comedy' and MV.mid=CA.mid and CA.aid=AC.aid and AC.name='N. Kidman') or \
               (MV.mid=CA.mid and CA.aid=AC.aid and AC.name='N. Kidman' and MV.mid=DD.mid and DD.did=DI.did and DI.name='D. Lynch') or \
               (MV.mid=GN.mid and GN.genre='comedy' and MV.mid=DD.mid and DD.did=DI.did and DI.name='D. Lynch'))",
        )
        .unwrap();
        let s = q.as_select().unwrap();
        assert!(s.distinct);
        assert_eq!(s.from.len(), 7);
        let conjuncts = s.selection.as_ref().unwrap().conjuncts();
        assert_eq!(conjuncts.len(), 3);
        assert_eq!(conjuncts[2].disjuncts().len(), 3);
    }
}
