//! The naive references the optimized monitor is checked against, one per
//! layer — test code, not product:
//!
//! * [`eval_condition`] / [`eval_expr`] — the tree walk over the parsed
//!   `Expr`, the executable specification of the condition VM;
//! * [`lat::ReferenceLat`] — one lock, a raw event log per group, every
//!   aggregate recomputed on read;
//! * [`monitor::ReferenceMonitor`] — the whole §5 rule contract in one
//!   linear scan.
//!
//! Included as `mod oracle;` by `crates/core/tests/*` and by `#[path]` from
//! the root package's `tests/monitor_replay.rs` and `sqlcm-bench`'s
//! `t9_expr_vm` and `micro` benches. It is written against `sqlcm_core`'s
//! public, non-hidden API only, and re-implements what that API does not
//! offer — the event → `RuleEvent` mapping, payload assembly, `{Q.N}`
//! substitution, the evicted-row object, LAT-name keying, per-rule counts —
//! so that a bug in one of the monitor's helpers is not shared by its
//! checker.
//!
//! The tree walk resolves `Qualifier.Name` through [`Scope`]: the VM's own
//! [`EvalContext`] (so a differential runs both evaluators on one context),
//! or the reference monitor's own objects and rows.

#![allow(dead_code)]

pub mod lat;
pub mod monitor;

use sqlcm_common::{Error, Result, Value};
use sqlcm_core::rules::EvalContext;
use sqlcm_core::ClassName;
use sqlcm_sql::{BinOp, Expr, LikeMatcher, UnaryOp};

/// What a condition or a template can name: `Qualifier.Name` → a value, or
/// `Err(Error::NoLatRow)` for a LAT whose row the implicit ∃ did not bind.
pub trait Scope {
    fn resolve(&self, qualifier: &str, name: &str) -> Result<Value>;
}

/// The dispatcher's context: objects by class, LAT rows through their
/// bindings, in the order the runtime resolves them.
impl Scope for EvalContext<'_> {
    fn resolve(&self, qualifier: &str, name: &str) -> Result<Value> {
        if let Some(class) = ClassName::parse(qualifier) {
            let Some(obj) = self.objects.iter().find(|o| o.class == class) else {
                return Err(Error::Monitor(format!(
                    "class {qualifier} is not in scope for this event"
                )));
            };
            return obj
                .get(name)
                .cloned()
                .ok_or_else(|| Error::Monitor(format!("class {class} has no attribute {name}")));
        }
        let binding = self
            .lat_rows
            .iter()
            .find(|b| b.name.eq_ignore_ascii_case(qualifier))
            .ok_or_else(|| Error::Monitor(format!("unknown LAT {qualifier}")))?;
        let row = binding.row.ok_or(Error::NoLatRow)?;
        let idx = binding
            .lat
            .column_index(name)
            .ok_or_else(|| Error::Monitor(format!("LAT {qualifier} has no column {name}")))?;
        Ok(row[idx].clone())
    }
}

/// Evaluate a rule condition. Missing LAT rows make the condition false
/// (implicit ∃); genuine errors propagate.
pub fn eval_condition(cond: &Expr, scope: &impl Scope) -> Result<bool> {
    match eval_expr(cond, scope) {
        Ok(v) => Ok(v.as_bool() == Some(true)),
        Err(Error::NoLatRow) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Expression interpreter for conditions — the subset of §5.2: logical and
/// arithmetic operators over attribute and LAT-column references.
pub fn eval_expr(e: &Expr, scope: &impl Scope) -> Result<Value> {
    Ok(match e {
        Expr::Literal(v) => v.clone(),
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => scope.resolve(q, name)?,
            None => {
                return Err(Error::Monitor(format!(
                    "unqualified column {name} in rule condition"
                )))
            }
        },
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, scope)?;
            match op {
                UnaryOp::Neg => Value::Int(0).sub(&v)?,
                UnaryOp::Not => match v.as_bool() {
                    Some(b) => Value::Bool(!b),
                    None => Value::Null,
                },
            }
        }
        Expr::Binary { left, op, right } => {
            // No short-circuit across a missing row: any reference to a
            // missing LAT row poisons the condition to false — "if a matching
            // row doesn't exist, the condition is evaluated to false".
            let l = eval_expr(left, scope)?;
            let r = eval_expr(right, scope)?;
            match op {
                BinOp::Add => l.add(&r)?,
                BinOp::Sub => l.sub(&r)?,
                BinOp::Mul => l.mul(&r)?,
                BinOp::Div => l.div(&r)?,
                BinOp::Mod => match (l.as_i64(), r.as_i64()) {
                    (Some(a), Some(b)) if b != 0 => Value::Int(a % b),
                    _ => Value::Null,
                },
                BinOp::And => match (l.as_bool(), r.as_bool()) {
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                },
                BinOp::Or => match (l.as_bool(), r.as_bool()) {
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                },
                cmp => match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(match cmp {
                        BinOp::Eq => ord.is_eq(),
                        BinOp::NotEq => !ord.is_eq(),
                        BinOp::Lt => ord.is_lt(),
                        BinOp::Gt => ord.is_gt(),
                        BinOp::LtEq => ord.is_le(),
                        BinOp::GtEq => ord.is_ge(),
                        _ => unreachable!(),
                    }),
                },
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, scope)?;
            Value::Bool(v.is_null() != *negated)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_expr(expr, scope)?;
            let p = eval_expr(pattern, scope)?;
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
            let v = eval_expr(expr, scope)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            let mut found = false;
            for e in list {
                let member = eval_expr(e, scope)?;
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
        other => {
            return Err(Error::Monitor(format!(
                "expression {other} is not supported in rule conditions"
            )))
        }
    })
}

/// `SendMail`/`RunExternal` text: each `{Qualifier.Name}` replaced by its
/// value in `scope`; a placeholder that does not resolve, has no dot or is
/// not closed is kept verbatim.
pub fn substitute(template: &str, scope: &impl Scope) -> String {
    let mut out = String::new();
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let after = &rest[open + 1..];
        let Some(close) = after.find('}') else {
            out.push('{');
            rest = after;
            continue;
        };
        let inner = &after[..close];
        let value = inner
            .split_once('.')
            .and_then(|(q, n)| scope.resolve(q, n).ok());
        match value {
            Some(v) => out.push_str(&v.to_string()),
            None => out.push_str(&format!("{{{inner}}}")),
        }
        rest = &after[close + 1..];
    }
    out.push_str(rest);
    out
}
