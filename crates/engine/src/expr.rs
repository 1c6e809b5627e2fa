//! Runtime expression evaluation over rows.
//!
//! A [`Schema`] maps (qualifier, column) names to row positions; [`eval`]
//! interprets a bound [`Expr`] against one row plus statement parameters.
//! SQL three-valued logic is observed: comparisons with `NULL` yield `NULL`,
//! `WHERE` treats `NULL` as false ([`is_truthy`]).

use std::collections::HashMap;

use sqlcm_common::{Error, Result, Value};
use sqlcm_sql::{apply_binary, apply_unary, BinOp, Expr, LikeMatcher};

/// Column name resolution for one operator's output rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    /// (binding qualifier, column name) per position. The qualifier is the table
    /// alias for scans and `None` for computed columns.
    cols: Vec<(Option<String>, String)>,
}

impl Schema {
    pub fn new(cols: Vec<(Option<String>, String)>) -> Schema {
        Schema { cols }
    }

    /// Schema of a table scan under binding name `binding`.
    pub fn for_table(binding: &str, column_names: impl IntoIterator<Item = String>) -> Schema {
        Schema {
            cols: column_names
                .into_iter()
                .map(|c| (Some(binding.to_string()), c))
                .collect(),
        }
    }

    /// Unqualified single-column helper.
    pub fn unqualified(names: impl IntoIterator<Item = String>) -> Schema {
        Schema {
            cols: names.into_iter().map(|n| (None, n)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    pub fn columns(&self) -> &[(Option<String>, String)] {
        &self.cols
    }

    /// Output column names (for query results).
    pub fn names(&self) -> Vec<String> {
        self.cols.iter().map(|(_, n)| n.clone()).collect()
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Schema { cols }
    }

    /// Resolve a column reference to its position.
    ///
    /// Unqualified names must be unambiguous; qualified names match binding
    /// qualifier + column. Case-insensitive, like the rest of the engine.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut found = None;
        for (i, (q, n)) in self.cols.iter().enumerate() {
            if !n.eq_ignore_ascii_case(name) {
                continue;
            }
            if let Some(want) = qualifier {
                match q {
                    Some(have) if have.eq_ignore_ascii_case(want) => return Ok(i),
                    _ => continue,
                }
            }
            if found.is_some() {
                return Err(Error::Execution(format!("ambiguous column {name}")));
            }
            found = Some(i);
        }
        found.ok_or_else(|| {
            let full = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            };
            Error::Execution(format!("unknown column {full}"))
        })
    }
}

/// Parameter bindings for one statement execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct Params<'a> {
    pub positional: &'a [Value],
    pub named: Option<&'a HashMap<String, Value>>,
}

impl<'a> Params<'a> {
    pub fn positional(values: &'a [Value]) -> Params<'a> {
        Params {
            positional: values,
            named: None,
        }
    }
}

/// Evaluate `expr` against `row`. Aggregate function calls are a planner bug if
/// they reach here and produce an execution error.
pub fn eval(expr: &Expr, schema: &Schema, row: &[Value], params: &Params) -> Result<Value> {
    Ok(match expr {
        Expr::Literal(v) => v.clone(),
        Expr::Column { qualifier, name } => {
            let idx = schema.resolve(qualifier.as_deref(), name)?;
            row[idx].clone()
        }
        Expr::Param(i) => params
            .positional
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::Execution(format!("missing value for parameter ?{i}")))?,
        Expr::NamedParam(n) => params
            .named
            .and_then(|m| m.get(&n.to_ascii_lowercase()).cloned())
            .ok_or_else(|| Error::Execution(format!("missing value for parameter @{n}")))?,
        Expr::Unary { op, expr } => apply_unary(*op, &eval(expr, schema, row, params)?)?,
        Expr::Binary { left, op, right } => {
            let l = eval(left, schema, row, params)?;
            // AND/OR short-circuit on a deciding left operand; every other
            // outcome needs both sides and is the shared kernel's.
            match (op, l.as_bool()) {
                (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
                (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                _ => {}
            }
            apply_binary(*op, &l, &eval(right, schema, row, params)?)?
        }
        Expr::FuncCall { name, args, star } => {
            if *star {
                return Err(Error::Execution(
                    "aggregate reached row-level evaluation (planner bug)".into(),
                ));
            }
            eval_scalar_func(name, args, schema, row, params)?
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, schema, row, params)?;
            Value::Bool(v.is_null() != *negated)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, schema, row, params)?;
            let p = eval(pattern, schema, row, params)?;
            match (v.as_str(), p.as_str()) {
                (Some(s), Some(pat)) => Value::Bool(LikeMatcher::new(pat).is_match(s) != *negated),
                _ => Value::Null,
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, schema, row, params)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            // SQL 3VL: match ⇒ TRUE; no match but a NULL member ⇒ UNKNOWN.
            let mut saw_null = false;
            let mut found = false;
            for e in list {
                let member = eval(e, schema, row, params)?;
                if member.is_null() {
                    saw_null = true;
                } else if member == v {
                    found = true;
                    break;
                }
            }
            if found {
                Value::Bool(!*negated)
            } else if saw_null {
                Value::Null
            } else {
                Value::Bool(*negated)
            }
        }
    })
}

fn eval_scalar_func(
    name: &str,
    args: &[Expr],
    schema: &Schema,
    row: &[Value],
    params: &Params,
) -> Result<Value> {
    let argv: Vec<Value> = args
        .iter()
        .map(|a| eval(a, schema, row, params))
        .collect::<Result<_>>()?;
    let need = |n: usize| -> Result<()> {
        if argv.len() == n {
            Ok(())
        } else {
            Err(Error::Execution(format!(
                "{name} expects {n} argument(s), got {}",
                argv.len()
            )))
        }
    };
    Ok(match name {
        "ABS" => {
            need(1)?;
            match &argv[0] {
                Value::Int(i) => Value::Int(i.abs()),
                Value::Float(f) => Value::Float(f.abs()),
                Value::Null => Value::Null,
                v => return Err(Error::TypeError(format!("ABS of {v}"))),
            }
        }
        "LENGTH" | "LEN" => {
            need(1)?;
            match &argv[0] {
                Value::Text(s) => Value::Int(s.chars().count() as i64),
                Value::Null => Value::Null,
                v => return Err(Error::TypeError(format!("LENGTH of {v}"))),
            }
        }
        "UPPER" => {
            need(1)?;
            match &argv[0] {
                Value::Text(s) => Value::Text(s.to_uppercase().into()),
                Value::Null => Value::Null,
                v => return Err(Error::TypeError(format!("UPPER of {v}"))),
            }
        }
        "LOWER" => {
            need(1)?;
            match &argv[0] {
                Value::Text(s) => Value::Text(s.to_lowercase().into()),
                Value::Null => Value::Null,
                v => return Err(Error::TypeError(format!("LOWER of {v}"))),
            }
        }
        "COALESCE" => argv
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        other => return Err(Error::Execution(format!("unknown scalar function {other}"))),
    })
}

/// `WHERE` semantics: NULL and FALSE both reject the row.
pub fn is_truthy(v: &Value) -> bool {
    v.as_bool() == Some(true)
}

/// True when `expr` references no columns (only params/literals) — such
/// expressions can be evaluated once at bind time (index seek keys).
pub fn is_row_independent(expr: &Expr) -> bool {
    let mut ok = true;
    expr.walk(&mut |e| {
        if matches!(e, Expr::Column { .. }) {
            ok = false;
        }
    });
    ok
}

/// Split a predicate into its AND-ed conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    fn rec(e: &Expr, out: &mut Vec<Expr>) {
        if let Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } = e
        {
            rec(left, out);
            rec(right, out);
        } else {
            out.push(e.clone());
        }
    }
    rec(expr, &mut out);
    out
}

/// Reassemble conjuncts into one predicate (`None` when empty).
pub fn join_conjuncts(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let mut acc = conjuncts.pop()?;
    while let Some(e) = conjuncts.pop() {
        acc = Expr::bin(e, BinOp::And, acc);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_sql::parse_expression;

    fn schema() -> Schema {
        Schema::new(vec![
            (Some("t".into()), "a".into()),
            (Some("t".into()), "b".into()),
            (Some("u".into()), "a".into()),
        ])
    }

    fn ev(text: &str, row: &[Value]) -> Result<Value> {
        let e = parse_expression(text).unwrap();
        eval(&e, &schema(), row, &Params::default())
    }

    #[test]
    fn resolution() {
        let s = schema();
        assert_eq!(s.resolve(Some("t"), "b").unwrap(), 1);
        assert_eq!(s.resolve(Some("u"), "a").unwrap(), 2);
        assert!(s.resolve(None, "a").is_err(), "ambiguous");
        assert_eq!(s.resolve(None, "b").unwrap(), 1);
        assert!(s.resolve(None, "zz").is_err());
        assert_eq!(s.resolve(Some("T"), "B").unwrap(), 1, "case-insensitive");
    }

    #[test]
    fn arithmetic_and_comparison() {
        let row = vec![Value::Int(10), Value::Float(2.5), Value::Int(0)];
        assert_eq!(ev("t.a + t.b", &row).unwrap(), Value::Float(12.5));
        assert_eq!(ev("t.a > 5 AND t.b < 3", &row).unwrap(), Value::Bool(true));
        assert_eq!(ev("t.a % 3", &row).unwrap(), Value::Int(1));
        // `%` degrades to NULL on a zero divisor (the rule VM's and the
        // constant folder's semantics — one kernel); `/` is the checked one.
        assert_eq!(ev("t.a % 0", &row).unwrap(), Value::Null);
        assert_eq!(ev("t.a % u.a", &row).unwrap(), Value::Null);
        assert!(ev("t.a / 0", &row).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let row = vec![Value::Null, Value::Int(1), Value::Int(0)];
        assert_eq!(ev("t.a > 5", &row).unwrap(), Value::Null);
        assert_eq!(ev("t.a > 5 AND FALSE", &row).unwrap(), Value::Bool(false));
        assert_eq!(ev("t.a > 5 OR TRUE", &row).unwrap(), Value::Bool(true));
        assert_eq!(ev("t.a > 5 OR FALSE", &row).unwrap(), Value::Null);
        assert_eq!(ev("NOT (t.a > 5)", &row).unwrap(), Value::Null);
        assert_eq!(ev("t.a IS NULL", &row).unwrap(), Value::Bool(true));
        assert_eq!(ev("t.b IS NOT NULL", &row).unwrap(), Value::Bool(true));
        assert!(!is_truthy(&Value::Null));
        assert!(!is_truthy(&Value::Bool(false)));
        assert!(is_truthy(&Value::Bool(true)));
    }

    #[test]
    fn short_circuit_skips_errors() {
        // a / 0 would error, but FALSE AND … short-circuits.
        let row = vec![Value::Int(1), Value::Int(0), Value::Int(0)];
        assert!(ev("t.a / t.b = 0", &row).is_err());
        assert_eq!(
            ev("FALSE AND t.a / t.b = 0", &row).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            ev("TRUE OR t.a / t.b = 0", &row).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn scalar_functions() {
        let row = vec![Value::Int(-4), Value::text("héLLo"), Value::Null];
        assert_eq!(ev("ABS(t.a)", &row).unwrap(), Value::Int(4));
        assert_eq!(ev("LENGTH(t.b)", &row).unwrap(), Value::Int(5));
        assert_eq!(ev("UPPER(t.b)", &row).unwrap(), Value::text("HÉLLO"));
        assert_eq!(ev("COALESCE(u.a, t.a)", &row).unwrap(), Value::Int(-4));
        assert!(ev("NOSUCHFN(t.a)", &row).is_err());
    }

    #[test]
    fn params_positional_and_named() {
        let e = parse_expression("t.a = ?").unwrap();
        let row = vec![Value::Int(7), Value::Null, Value::Null];
        let vals = [Value::Int(7)];
        let p = Params::positional(&vals);
        assert_eq!(eval(&e, &schema(), &row, &p).unwrap(), Value::Bool(true));

        let e = parse_expression("t.a = @key").unwrap();
        let mut named = HashMap::new();
        named.insert("key".to_string(), Value::Int(7));
        let p = Params {
            positional: &[],
            named: Some(&named),
        };
        assert_eq!(eval(&e, &schema(), &row, &p).unwrap(), Value::Bool(true));
        // Missing binding errors.
        let p = Params::default();
        assert!(eval(&e, &schema(), &row, &p).is_err());
    }

    #[test]
    fn conjunct_splitting() {
        let e = parse_expression("a = 1 AND b = 2 AND (c = 3 OR d = 4)").unwrap();
        let parts = split_conjuncts(&e);
        assert_eq!(parts.len(), 3);
        let rejoined = join_conjuncts(parts).unwrap();
        assert_eq!(rejoined.atomic_condition_count(), 4);
        assert_eq!(join_conjuncts(vec![]), None);
    }

    #[test]
    fn row_independence() {
        assert!(is_row_independent(&parse_expression("1 + ?").unwrap()));
        assert!(!is_row_independent(&parse_expression("a + 1").unwrap()));
    }
}
