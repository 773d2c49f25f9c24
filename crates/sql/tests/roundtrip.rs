//! Randomized test: printing any generated AST and re-parsing it yields the
//! same AST (`parse ∘ print = id`). Driven by a seeded PRNG so failures
//! reproduce exactly.

use pqp_obs::rng::{Rng, SmallRng};
use pqp_sql::ast::*;
use pqp_sql::parser::{parse_expr, parse_query};
use pqp_storage::Value;

fn ident(rng: &mut SmallRng) -> String {
    // A mix of friendly identifiers and hostile ones needing quoting.
    match rng.gen_range(0..5u32) {
        0 => "order".to_string(),
        1 => "select".to_string(),
        2 => "1weird".to_string(),
        3 => "has space".to_string(),
        _ => {
            let first = (b'a' + rng.gen_range(0..26u8)) as char;
            let len = rng.gen_range(0..8usize);
            let mut s = String::new();
            s.push(first);
            for _ in 0..len {
                const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789_";
                s.push(TAIL[rng.gen_index(TAIL.len())] as char);
            }
            s
        }
    }
}

fn literal(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..5u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.next_u64() as i64),
        // Finite floats only: NaN/inf have no SQL literal.
        3 => Value::Float(rng.gen_range(-1.0e12..1.0e12)),
        _ => {
            let len = rng.gen_range(0..12usize);
            const CHARS: &[char] = &['a', 'b', 'z', 'A', 'Z', ' ', '\'', '‘', 'q', 'x', 'o', 'e'];
            Value::str((0..len).map(|_| CHARS[rng.gen_index(CHARS.len())]).collect::<String>())
        }
    }
}

fn leaf_expr(rng: &mut SmallRng) -> Expr {
    match rng.gen_range(0..4u32) {
        0 => Expr::Literal(literal(rng)),
        1 => {
            let q = ident(rng);
            Expr::Column { qualifier: Some(q.into()), name: ident(rng).into() }
        }
        2 => Expr::Column { qualifier: None, name: ident(rng).into() },
        _ => Expr::Function { name: "COUNT".into(), args: vec![], wildcard: true },
    }
}

fn arb_expr(rng: &mut SmallRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return leaf_expr(rng);
    }
    match rng.gen_range(0..5u32) {
        0 => {
            const OPS: &[BinaryOp] = &[
                BinaryOp::Eq,
                BinaryOp::NotEq,
                BinaryOp::Lt,
                BinaryOp::LtEq,
                BinaryOp::Gt,
                BinaryOp::GtEq,
                BinaryOp::And,
                BinaryOp::Or,
                BinaryOp::Plus,
                BinaryOp::Minus,
                BinaryOp::Mul,
                BinaryOp::Div,
            ];
            Expr::Binary {
                left: Box::new(arb_expr(rng, depth - 1)),
                op: OPS[rng.gen_index(OPS.len())],
                right: Box::new(arb_expr(rng, depth - 1)),
            }
        }
        1 => Expr::Not(Box::new(arb_expr(rng, depth - 1))),
        2 => Expr::IsNull { expr: Box::new(arb_expr(rng, depth - 1)), negated: rng.gen_bool(0.5) },
        3 => {
            let n = rng.gen_range(1..3usize);
            Expr::InList {
                expr: Box::new(arb_expr(rng, depth - 1)),
                list: (0..n).map(|_| arb_expr(rng, depth - 1)).collect(),
                negated: rng.gen_bool(0.5),
            }
        }
        _ => {
            let n = rng.gen_range(0..3usize);
            Expr::Function {
                name: ident(rng),
                args: (0..n).map(|_| arb_expr(rng, depth - 1)).collect(),
                wildcard: false,
            }
        }
    }
}

fn arb_select(rng: &mut SmallRng) -> Select {
    let n_proj = rng.gen_range(1..3usize);
    let projection = (0..n_proj)
        .map(|_| {
            if rng.gen_bool(0.25) {
                SelectItem::Wildcard
            } else {
                let expr = arb_expr(rng, 3);
                let alias = if rng.gen_bool(0.5) { Some(ident(rng).into()) } else { None };
                SelectItem::Expr { expr, alias }
            }
        })
        .collect();
    let n_from = rng.gen_range(0..3usize);
    let from = (0..n_from)
        .map(|_| {
            let name = ident(rng).into();
            let alias = if rng.gen_bool(0.5) { Some(ident(rng).into()) } else { None };
            TableFactor::Table { name, alias }
        })
        .collect();
    let selection = if rng.gen_bool(0.5) { Some(arb_expr(rng, 3)) } else { None };
    let n_group = rng.gen_range(0..2usize);
    let group_by = (0..n_group).map(|_| arb_expr(rng, 2)).collect();
    let having = if rng.gen_bool(0.3) { Some(arb_expr(rng, 2)) } else { None };
    Select { distinct: rng.gen_bool(0.5), projection, from, selection, group_by, having }
}

fn arb_query(rng: &mut SmallRng) -> Query {
    let n = rng.gen_range(1..4usize);
    let all = rng.gen_bool(0.5);
    let body = (0..n)
        .map(|_| SetExpr::Select(Box::new(arb_select(rng))))
        .reduce(|l, r| SetExpr::Union { left: Box::new(l), right: Box::new(r), all })
        .unwrap();
    let n_order = rng.gen_range(0..2usize);
    let order_by = (0..n_order)
        .map(|_| OrderByItem { expr: arb_expr(rng, 2), desc: rng.gen_bool(0.5) })
        .collect();
    let limit = if rng.gen_bool(0.5) { Some(rng.gen_range(0..1000u64)) } else { None };
    Query { body, order_by, limit }
}

#[test]
fn expr_print_parse_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xE792);
    for _ in 0..512 {
        let e = arb_expr(&mut rng, 4);
        let printed = e.to_string();
        let back = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("failed to re-parse `{printed}`: {err}"));
        assert_eq!(back, e, "printed as `{printed}`");
    }
}

#[test]
fn query_print_parse_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x02E71);
    for _ in 0..512 {
        let q = arb_query(&mut rng);
        let printed = q.to_string();
        let back = parse_query(&printed)
            .unwrap_or_else(|err| panic!("failed to re-parse `{printed}`: {err}"));
        assert_eq!(back, q, "printed as `{printed}`");
    }
}
