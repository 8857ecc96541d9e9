//! Canonical query fingerprints.
//!
//! Equivalent count requests must hit the same query entry, warm state,
//! and cached answer. A request's *identity* is its canonical form:
//!
//! 1. the predicate [`Expr`] is **normalized** ([`normalize`]) —
//!    comparisons are flipped to `<`/`<=`/`=`/`<>` form and the
//!    operand lists of `AND`/`OR` chains are flattened and sorted, so
//!    `a > 3 AND b < 2` and `b < 2 AND a > 3` canonicalize identically;
//! 2. the normalized tree is **rendered** ([`canonical`]) with a
//!    subquery form that includes the scanned table's schema and row
//!    count (the std `Display` elides table identity);
//! 3. the [`fingerprint`] is an FNV-1a hash of
//!    `dataset | table version | canonical string`.
//!
//! The hash is the compact id carried in responses; the catalog keys on
//! the **canonical string** itself, so structurally different queries
//! can never alias even under a 64-bit hash collision.
//!
//! Normalization is semantics-preserving for predicate results:
//! flipping `a > b` to `b < a` evaluates the same operands to the same
//! boolean (including NULL and error cases), and reordering `AND`/`OR`
//! operands cannot change a Kleene three-valued result. The only
//! observable difference is *which* error surfaces when several operands
//! of one conjunction would error — estimation aborts on any error, so
//! cached artifacts never depend on it.

use lts_core::fnv1a;
use lts_table::{BinaryOp, CmpOp, Expr};
use std::fmt::Write as _;
use std::sync::Arc;

/// Normalize an expression to its canonical structural form.
pub fn normalize(expr: &Expr) -> Expr {
    match expr {
        Expr::Literal(_) | Expr::Column(_) | Expr::Outer(_) => expr.clone(),
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(normalize(e))),
        Expr::Call(f, args) => Expr::Call(*f, args.iter().map(normalize).collect()),
        Expr::Subquery(sq) => {
            let mut sq = (**sq).clone();
            sq.filter = sq.filter.as_ref().map(normalize);
            sq.arg = sq.arg.as_ref().map(normalize);
            Expr::Subquery(Arc::new(sq))
        }
        Expr::Binary(op, l, r) => {
            let (l, r) = (normalize(l), normalize(r));
            match op {
                // Flip > / >= into < / <= with swapped operands.
                BinaryOp::Cmp(CmpOp::Gt) => {
                    Expr::Binary(BinaryOp::Cmp(CmpOp::Lt), Box::new(r), Box::new(l))
                }
                BinaryOp::Cmp(CmpOp::Ge) => {
                    Expr::Binary(BinaryOp::Cmp(CmpOp::Le), Box::new(r), Box::new(l))
                }
                // = / <> are symmetric: order operands canonically.
                BinaryOp::Cmp(c @ (CmpOp::Eq | CmpOp::Ne)) => {
                    let (a, b) = order_pair(l, r);
                    Expr::Binary(BinaryOp::Cmp(*c), Box::new(a), Box::new(b))
                }
                // AND/OR chains: flatten, sort operands, rebuild
                // left-associated.
                BinaryOp::And | BinaryOp::Or => {
                    let mut operands = Vec::new();
                    collect_chain(*op, l, &mut operands);
                    collect_chain(*op, r, &mut operands);
                    operands.sort_by_cached_key(render);
                    let mut it = operands.into_iter();
                    let first = it.next().expect("chain has operands");
                    it.fold(first, |acc, e| {
                        Expr::Binary(*op, Box::new(acc), Box::new(e))
                    })
                }
                other => Expr::Binary(*other, Box::new(l), Box::new(r)),
            }
        }
    }
}

fn order_pair(l: Expr, r: Expr) -> (Expr, Expr) {
    if render(&l) <= render(&r) {
        (l, r)
    } else {
        (r, l)
    }
}

fn collect_chain(op: BinaryOp, e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary(o, l, r) if o == op => {
            collect_chain(op, *l, out);
            collect_chain(op, *r, out);
        }
        other => out.push(other),
    }
}

/// Render an expression in the canonical textual form. Identical to
/// the std `Display` except that subqueries name their table by schema
/// and row count instead of the opaque `<table>` placeholder (two
/// queries scanning different tables must not alias).
fn render(expr: &Expr) -> String {
    match expr {
        Expr::Subquery(sq) => {
            let mut out = String::from("(SELECT ");
            let _ = write!(out, "{:?}(", sq.func);
            match &sq.arg {
                Some(arg) => out.push_str(&render(arg)),
                None => out.push('*'),
            }
            out.push_str(") FROM [");
            for (i, field) in sq.table.schema().fields().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{:?}", field.name, field.data_type);
            }
            let _ = write!(out, ";rows={}]", sq.table.len());
            if let Some(filter) = &sq.filter {
                let _ = write!(out, " WHERE {}", render(filter));
            }
            out.push(')');
            out
        }
        Expr::Unary(op, e) => {
            let sym = match op {
                lts_table::UnaryOp::Not => "NOT ",
                lts_table::UnaryOp::Neg => "- ",
            };
            format!("({sym}{})", render(e))
        }
        Expr::Binary(op, l, r) => {
            let sym = match op {
                BinaryOp::Add => "+",
                BinaryOp::Sub => "-",
                BinaryOp::Mul => "*",
                BinaryOp::Div => "/",
                BinaryOp::And => "AND",
                BinaryOp::Or => "OR",
                BinaryOp::Cmp(CmpOp::Eq) => "=",
                BinaryOp::Cmp(CmpOp::Ne) => "<>",
                BinaryOp::Cmp(CmpOp::Lt) => "<",
                BinaryOp::Cmp(CmpOp::Le) => "<=",
                BinaryOp::Cmp(CmpOp::Gt) => ">",
                BinaryOp::Cmp(CmpOp::Ge) => ">=",
            };
            format!("({} {sym} {})", render(l), render(r))
        }
        Expr::Call(f, args) => {
            let rendered: Vec<String> = args.iter().map(render).collect();
            format!("{f:?}({})", rendered.join(", "))
        }
        // Literals / columns / outer refs match the std Display.
        other => other.to_string(),
    }
}

/// The canonical string of a (normalized) expression.
pub fn canonical(expr: &Expr) -> String {
    render(&normalize(expr))
}

/// The 64-bit fingerprint of a request: dataset name, table version,
/// and the canonical predicate. The compact id responses carry; exact
/// identity is the canonical string itself.
pub fn fingerprint(dataset: &str, table_version: u64, canonical_expr: &str) -> u64 {
    let mut bytes = Vec::with_capacity(dataset.len() + canonical_expr.len() + 9);
    bytes.extend_from_slice(dataset.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&table_version.to_le_bytes());
    bytes.extend_from_slice(canonical_expr.as_bytes());
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_table::{table_of_floats, AggFunc};

    fn col(n: &str) -> Expr {
        Expr::col(n)
    }

    #[test]
    fn commuted_conjunctions_alias() {
        let a = col("a").gt(Expr::lit(3.0)).and(col("b").lt(Expr::lit(2.0)));
        let b = col("b").lt(Expr::lit(2.0)).and(col("a").gt(Expr::lit(3.0)));
        assert_eq!(canonical(&a), canonical(&b));
        // Flips render in < / <= form.
        assert!(canonical(&a).contains('<'));
        assert!(!canonical(&a).contains('>'));
    }

    #[test]
    fn flipped_comparisons_alias() {
        let a = col("x").gt(Expr::lit(1.0));
        let b = Expr::lit(1.0).lt(col("x"));
        assert_eq!(canonical(&a), canonical(&b));
        let a = col("x").ge(Expr::lit(1.0));
        let b = Expr::lit(1.0).le(col("x"));
        assert_eq!(canonical(&a), canonical(&b));
        let a = col("x").eq(Expr::lit(1.0));
        let b = Expr::lit(1.0).eq(col("x"));
        assert_eq!(canonical(&a), canonical(&b));
    }

    #[test]
    fn long_chains_flatten_and_sort() {
        let a = col("a")
            .lt(Expr::lit(1.0))
            .and(col("b").lt(Expr::lit(2.0)))
            .and(col("c").lt(Expr::lit(3.0)));
        let b = col("c")
            .lt(Expr::lit(3.0))
            .and(col("a").lt(Expr::lit(1.0)).and(col("b").lt(Expr::lit(2.0))));
        assert_eq!(canonical(&a), canonical(&b));
    }

    #[test]
    fn structurally_different_exprs_do_not_alias() {
        let pairs = [
            (col("x").lt(Expr::lit(1.0)), col("x").le(Expr::lit(1.0))),
            (col("x").lt(Expr::lit(1.0)), col("y").lt(Expr::lit(1.0))),
            (col("a").and(col("b")), col("a").or(col("b"))),
            (
                col("x").lt(Expr::lit(1.0)),
                col("x").lt(Expr::lit(1.0)).not(),
            ),
            // AND vs OR chains over the same operands, nested mixes.
            (
                col("a").and(col("b").or(col("c"))),
                col("a").and(col("b")).or(col("c")),
            ),
        ];
        for (l, r) in pairs {
            assert_ne!(canonical(&l), canonical(&r), "{l} vs {r}");
        }
    }

    #[test]
    fn subquery_tables_are_part_of_the_identity() {
        let t1 = Arc::new(table_of_floats(&[("x", &[1.0, 2.0])]).unwrap());
        let t2 = Arc::new(table_of_floats(&[("x", &[1.0, 2.0, 3.0])]).unwrap());
        let q = |t: &Arc<lts_table::Table>| {
            Expr::subquery(
                Arc::clone(t),
                Some(col("x").lt(Expr::outer("x"))),
                AggFunc::Count,
                None,
            )
            .lt(Expr::lit(1i64))
        };
        assert_ne!(canonical(&q(&t1)), canonical(&q(&t2)));
        assert_eq!(canonical(&q(&t1)), canonical(&q(&t1)));
    }

    #[test]
    fn fingerprint_covers_dataset_and_version() {
        let c = canonical(&col("x").lt(Expr::lit(1.0)));
        assert_eq!(fingerprint("d", 0, &c), fingerprint("d", 0, &c));
        assert_ne!(fingerprint("d", 0, &c), fingerprint("d", 1, &c));
        assert_ne!(fingerprint("d", 0, &c), fingerprint("e", 0, &c));
    }

    #[test]
    fn normalization_preserves_predicate_results() {
        // Evaluate original vs normalized on real rows, including NULL
        // (division by zero) and boundary cases.
        let t = table_of_floats(&[
            ("x", &[0.0, 1.0, 2.0, 3.0, 4.0]),
            ("y", &[4.0, 3.0, 2.0, 1.0, 0.0]),
        ])
        .unwrap();
        let exprs = [
            col("x").gt(col("y")).and(col("x").lt(Expr::lit(3.5))),
            col("x").ge(col("y")).or(col("y").gt(Expr::lit(2.0))),
            col("x")
                .div(col("y"))
                .gt(Expr::lit(0.5))
                .and(col("x").gt(Expr::lit(0.5)))
                .and(col("y").lt(Expr::lit(3.5))),
            col("x").eq(col("y")).not(),
        ];
        for e in exprs {
            let n = normalize(&e);
            for row in 0..t.len() {
                let a = e.eval_bool(lts_table::RowCtx::top(&t, row)).unwrap();
                let b = n.eval_bool(lts_table::RowCtx::top(&t, row)).unwrap();
                assert_eq!(a, b, "row {row} of {e}");
            }
        }
    }
}
