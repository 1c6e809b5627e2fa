//! Rule actions (paper §5.3) and their execution against the host engine.
//!
//! `Insert`, `Reset`, `Persist`, `SendMail`, `RunExternal`, `Cancel`, `Set` —
//! executed in the order they appear in the rule's action list. `SendMail` and
//! `RunExternal` support `{Class.Attr}` / `{Lat.Column}` substitution from the
//! in-context objects, matching "attribute values from monitored objects and
//! LATs can be substituted into the text string".

use std::sync::Arc;

use sqlcm_common::{QueryType, Result, Value};
use sqlcm_engine::engine::EngineInner;
use sqlcm_engine::exec;
use sqlcm_engine::plan::PhysicalPlan;

use crate::objects::ClassName;
use crate::rules::EvalContext;

/// The actions are declared once, in the analyzer crate.
pub use sqlcm_analyze::Action;

/// Substitute `{Qualifier.Name}` placeholders from the evaluation context.
/// Unresolvable placeholders are kept verbatim (a template typo must not make
/// the action fail).
///
/// On an eviction event, a qualifier naming the LAT of the in-scope evicted
/// row (in any case) reads that row, before any LAT row the condition bound:
/// the event's own object wins, as `{Query.X}` does.
pub fn substitute(template: &str, ctx: &EvalContext) -> String {
    let lookup = |q: &str, n: &str| {
        let evicted = ctx
            .objects
            .iter()
            .find(|o| matches!(&o.class, ClassName::Evicted(lat) if lat.eq_ignore_ascii_case(q)));
        match evicted {
            Some(row) => row.get(n).cloned(),
            None => ctx.resolve(q, n).ok(),
        }
    };
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let after = &rest[open + 1..];
        match after.find('}') {
            Some(close) => {
                let inner = &after[..close];
                match inner.split_once('.') {
                    Some((q, n)) => match lookup(q, n) {
                        Some(v) => out.push_str(&v.to_string()),
                        None => {
                            out.push('{');
                            out.push_str(inner);
                            out.push('}');
                        }
                    },
                    None => {
                        out.push('{');
                        out.push_str(inner);
                        out.push('}');
                    }
                }
                rest = &after[close + 1..];
            }
            None => {
                out.push('{');
                rest = after;
            }
        }
    }
    out.push_str(rest);
    out
}

/// Insert rows into an engine table on behalf of the monitor, under a fresh
/// short transaction. Used by `Persist` (§4.3/§5.3). The reporting table must
/// not itself be under monitored-workload write locks, or Persist can block —
/// the same operational caveat the prototype has.
pub fn persist_rows(engine: &Arc<EngineInner>, table: &str, rows: Vec<Vec<Value>>) -> Result<u64> {
    if rows.is_empty() {
        return Ok(0);
    }
    let t = engine.catalog.table(table)?;
    let text = format!("/*SQLCM*/ INSERT INTO {table}");
    engine.internal_txn(text, QueryType::Insert, |ctx| {
        exec::run_insert(ctx, &t, rows)
    })
}

/// Read all rows of a table on behalf of the monitor (LAT restore).
pub fn read_table(engine: &Arc<EngineInner>, table: &str) -> Result<Vec<Vec<Value>>> {
    let plan = PhysicalPlan::SeqScan {
        table: engine.catalog.table(table)?,
        binding: table.to_string(),
        predicate: None,
    };
    let text = format!("/*SQLCM*/ SELECT * FROM {table}");
    engine.internal_txn(text, QueryType::Select, |ctx| exec::run_select(ctx, &plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::query_object;
    use sqlcm_common::QueryInfo;

    #[test]
    fn template_substitution() {
        let mut q = QueryInfo::synthetic(9, "SELECT x");
        q.duration_micros = 1_500_000;
        q.user = "alice".into();
        let objs = vec![query_object(&q)];
        let ctx = EvalContext {
            objects: &objs,
            lat_rows: &[],
        };
        let s = substitute(
            "user {Query.User} ran '{Query.Query_Text}' in {Query.Duration}s",
            &ctx,
        );
        assert_eq!(s, "user alice ran 'SELECT x' in 1.5s");
        // Unresolvable and malformed placeholders survive verbatim.
        let s = substitute("{Query.Nope} {nodot} {unclosed", &ctx);
        assert_eq!(s, "{Query.Nope} {nodot} {unclosed");
    }

    #[test]
    fn persist_and_read_roundtrip() {
        let engine = sqlcm_engine::Engine::in_memory();
        engine
            .execute_batch("CREATE TABLE report (a INT, b TEXT);")
            .unwrap();
        let inner = engine.handle();
        let n = persist_rows(
            &inner,
            "report",
            vec![
                vec![Value::Int(1), Value::text("x")],
                vec![Value::Int(2), Value::text("y")],
            ],
        )
        .unwrap();
        assert_eq!(n, 2);
        let rows = read_table(&inner, "report").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(persist_rows(&inner, "report", vec![]).unwrap(), 0);
        assert!(persist_rows(&inner, "nope", vec![vec![Value::Int(1)]]).is_err());
    }
}
