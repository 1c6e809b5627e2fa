//! Resolved condition IR: the runtime's compiled form of a rule condition.
//!
//! A [`CondIr`] is the analyzer's folded [`ExprIr`], kept as is, plus one
//! [`Resolved`] entry per entry of its reference pool: `Class.Attribute`
//! becomes a value position ([`Resolved::Attr`]) and `Lat.Column` a
//! `(binding, column)` index pair ([`Resolved::LatCol`]), so per-event
//! evaluation does no string matching — the "lightweight ECA rule engine"
//! property the paper leans on (§2.1: low and controllable overhead beats
//! expressive power).
//!
//! There is no second op arena: bytecode emission ([`crate::vm`]) matches
//! the folded [`sqlcm_sql::IrOp`]s and looks a `Ref` up in the table, and the
//! dispatch plan keys cross-rule common-subexpression slots on the arena's
//! canonical hashes, guarded by [`ExprIr::subtree_eq`].
//!
//! Resolution errors reproduce the legacy compiler's messages and its
//! discovery order: one pre-order walk that stops at the first error, so a
//! left subtree is searched before the right and an unsupported node such as
//! a function call errors *before* its arguments are visited.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use sqlcm_common::{Error, Result};
use sqlcm_sql::{ExprIr, IrOp};

use crate::lat::Lat;
use crate::objects::ClassName;

/// What one qualified column reference resolved to.
#[derive(Debug, Clone)]
pub enum Resolved {
    /// Attribute `index` of the in-scope object of `class`.
    Attr { class: ClassName, index: usize },
    /// Column `index` of the bound row of the rule's `lat_idx`-th referenced
    /// LAT (position in the rule's `condition_refs()` LAT list — and
    /// therefore in `EvalContext::lat_rows`). Rule-local, so a resolved
    /// condition stays valid across dispatch-plan rebuilds.
    LatCol { lat_idx: usize, index: usize },
}

/// A rule condition resolved against the LAT registry, ready for bytecode
/// emission (see [`crate::vm`]). Reads as its arena (`Deref<Target =
/// ExprIr>`), so `cond.root` is the folded root.
#[derive(Debug, Clone)]
pub struct CondIr {
    /// The folded condition.
    pub ir: ExprIr,
    /// Per entry of `ir.refs`, in pool order.
    pub resolved: Vec<Resolved>,
}

impl Deref for CondIr {
    type Target = ExprIr;

    fn deref(&self) -> &ExprIr {
        &self.ir
    }
}

impl CondIr {
    /// Resolve a lowered condition against the current LAT registry.
    /// `cond_lats` is the rule's ordered LAT reference list (from
    /// `Rule::condition_refs`); LAT references resolve to positions in it.
    pub fn from_ir(
        ir: &ExprIr,
        lats: &HashMap<String, Arc<Lat>>,
        cond_lats: &[String],
    ) -> Result<CondIr> {
        let resolved: Vec<Result<Resolved>> = ir
            .refs
            .iter()
            .map(|(qualifier, name)| resolve(qualifier.as_deref(), name, lats, cond_lats))
            .collect();
        let mut first_error = None;
        ir.for_each(ir.root, &mut |id| {
            if first_error.is_some() {
                return;
            }
            first_error = match ir.op(id) {
                IrOp::Ref(r) => resolved[*r as usize].as_ref().err().cloned(),
                IrOp::Param(_) | IrOp::NamedParam(_) => Some(Error::Monitor(
                    "parameters are not allowed in rule conditions".into(),
                )),
                IrOp::FuncCall { .. } => Some(Error::Monitor(format!(
                    "expression {} is not supported in rule conditions",
                    ir.disp(id)
                ))),
                _ => None,
            };
        });
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(CondIr {
            ir: ir.clone(),
            resolved: resolved.into_iter().collect::<Result<_>>()?,
        })
    }
}

fn resolve(
    qualifier: Option<&str>,
    name: &str,
    lats: &HashMap<String, Arc<Lat>>,
    cond_lats: &[String],
) -> Result<Resolved> {
    let q = qualifier
        .ok_or_else(|| Error::Monitor(format!("unqualified column {name} in rule condition")))?;
    if let Some(class) = ClassName::parse(q) {
        let index = crate::objects::static_attr_index(&class, name)
            .ok_or_else(|| Error::Monitor(format!("class {class} has no attribute {name}")))?;
        return Ok(Resolved::Attr { class, index });
    }
    let key = q.to_ascii_lowercase();
    let lat = lats
        .get(&key)
        .ok_or_else(|| Error::Monitor(format!("unknown LAT {q} in rule condition")))?;
    let index = lat
        .column_index(name)
        .ok_or_else(|| Error::Monitor(format!("LAT {q} has no column {name}")))?;
    let lat_idx = cond_lats
        .iter()
        .position(|l| l.eq_ignore_ascii_case(&key))
        .ok_or_else(|| Error::Monitor(format!("LAT {q} missing from rule reference list")))?;
    Ok(Resolved::LatCol { lat_idx, index })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lat::{LatAggFunc, LatSpec};
    use sqlcm_common::ManualClock;
    use sqlcm_sql::parse_expression;

    fn duration_lat() -> Arc<Lat> {
        let (clock, _) = ManualClock::shared(0);
        Arc::new(
            Lat::new(
                LatSpec::new("Duration_LAT")
                    .group_by("Query.Logical_Signature", "Sig")
                    .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration"),
                clock,
            )
            .unwrap(),
        )
    }

    fn resolve(src: &str) -> Result<CondIr> {
        let mut lats = HashMap::new();
        lats.insert("duration_lat".to_string(), duration_lat());
        let ir = ExprIr::lower(&parse_expression(src).unwrap()).fold();
        CondIr::from_ir(&ir, &lats, &["Duration_LAT".to_string()])
    }

    #[test]
    fn resolves_each_pool_entry_once() {
        let c = resolve("Query.Duration > 5 * Duration_LAT.Avg_Duration + Query.Duration").unwrap();
        assert_eq!(
            c.refs,
            vec![
                (Some("Query".to_string()), "Duration".to_string()),
                (Some("Duration_LAT".to_string()), "Avg_Duration".to_string()),
            ]
        );
        assert!(matches!(
            c.resolved[..],
            [
                Resolved::Attr {
                    class: ClassName::Query,
                    ..
                },
                Resolved::LatCol {
                    lat_idx: 0,
                    index: 1
                },
            ]
        ));
    }

    #[test]
    fn resolution_errors_match_the_legacy_compiler() {
        for (src, want) in [
            ("Query.Nope > 1", "class Query has no attribute Nope"),
            ("Ghost_LAT.N > 1", "unknown LAT Ghost_LAT in rule condition"),
            (
                "Duration_LAT.Nope > 1",
                "LAT Duration_LAT has no column Nope",
            ),
            (
                "LENGTH(Query.User) > 1",
                "expression LENGTH(Query.User) is not supported in rule conditions",
            ),
            // A function call errors before its (bad) argument is visited.
            (
                "LENGTH(Query.Nope) > 1",
                "expression LENGTH(Query.Nope) is not supported in rule conditions",
            ),
            // The left operand is resolved before the right.
            (
                "Query.Nope > LENGTH(Query.User)",
                "class Query has no attribute Nope",
            ),
            (
                "Query.Duration > @p",
                "parameters are not allowed in rule conditions",
            ),
            (
                "Duration > 1",
                "unqualified column Duration in rule condition",
            ),
        ] {
            let err = resolve(src).unwrap_err().to_string();
            assert!(err.contains(want), "{src}: {err}");
        }
    }

    #[test]
    fn cross_rule_subtree_equality_uses_lat_names() {
        let a = resolve("Duration_LAT.Avg_Duration > 5").unwrap();
        let b = resolve("duration_lat.avg_duration > 5").unwrap();
        assert_eq!(a.hash_of(a.root), b.hash_of(b.root));
        assert!(a.subtree_eq(a.root, &b, b.root));
        let c = resolve("Duration_LAT.Avg_Duration > 6").unwrap();
        assert!(!a.subtree_eq(a.root, &c, c.root));
    }
}
