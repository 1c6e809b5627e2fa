//! Bridge between core's rule/LAT types and the `sqlcm-analyze` IR.
//!
//! The analyzer deliberately does not depend on this crate (core calls into
//! it at registration time), so rules and LAT specs are lowered into the
//! analyzer's small IR here. The lowering is purely structural — no
//! validation happens in this module. [`rule_ir`] is also where a rule's
//! condition is lowered and folded into the shared expression IR, once: the
//! analyzer passes, the guard verdict and the runtime's condition compiler
//! all read the resulting [`RuleIr`].

use sqlcm_analyze::{ActionIr, AttrIr, Condition, EventIr, LatIr, RuleIr};

use crate::actions::Action;
use crate::lat::{AttrRef, LatSpec};
use crate::rules::{Rule, RuleEvent};

pub use sqlcm_analyze::{rule_guard, Analyzer, Code, Diagnostic, Residual, Severity};

fn attr_ir(attr: &AttrRef) -> AttrIr {
    AttrIr {
        class: attr.class.to_string(),
        attr: attr.attr.clone(),
    }
}

/// Lower a LAT spec to the analyzer IR.
pub fn lat_ir(spec: &LatSpec) -> LatIr {
    LatIr {
        name: spec.name.clone(),
        group_by: spec
            .group_by
            .iter()
            .map(|g| sqlcm_analyze::GroupColumnIr {
                source: attr_ir(&g.source),
                alias: g.alias.clone(),
            })
            .collect(),
        aggregates: spec
            .aggregates
            .iter()
            .map(|a| sqlcm_analyze::AggColumnIr {
                func: a.func,
                source: a.source.as_ref().map(attr_ir),
                alias: a.alias.clone(),
                aging: a.aging.is_some(),
            })
            .collect(),
        bounded: spec.max_rows.is_some() || spec.max_bytes.is_some(),
    }
}

/// Lower a rule event to the analyzer IR.
pub fn event_ir(event: &RuleEvent) -> EventIr {
    let (kind, arg) = match event {
        RuleEvent::QueryStart => ("QueryStart", None),
        RuleEvent::QueryCompile => ("QueryCompile", None),
        RuleEvent::QueryCommit => ("QueryCommit", None),
        RuleEvent::QueryRollback => ("QueryRollback", None),
        RuleEvent::QueryCancel => ("QueryCancel", None),
        RuleEvent::QueryBlocked => ("QueryBlocked", None),
        RuleEvent::BlockReleased => ("BlockReleased", None),
        RuleEvent::TxnBegin => ("TxnBegin", None),
        RuleEvent::TxnCommit => ("TxnCommit", None),
        RuleEvent::TxnRollback => ("TxnRollback", None),
        RuleEvent::Login => ("Login", None),
        RuleEvent::Logout => ("Logout", None),
        RuleEvent::TimerAlarm(t) => ("TimerAlarm", Some(t.clone())),
        RuleEvent::LatEviction(l) => ("LatEviction", Some(l.clone())),
        RuleEvent::MonitorTick => ("MonitorTick", None),
    };
    EventIr {
        kind: kind.to_string(),
        arg,
        payload: event
            .payload_classes()
            .iter()
            .map(|c| c.to_string())
            .collect(),
    }
}

/// Lower an action to the analyzer IR.
pub fn action_ir(action: &Action) -> ActionIr {
    match action {
        Action::Insert { lat } => ActionIr::Insert { lat: lat.clone() },
        Action::Reset { lat } => ActionIr::Reset { lat: lat.clone() },
        Action::PersistLat { table, lat } => ActionIr::PersistLat {
            lat: lat.clone(),
            table: table.clone(),
        },
        Action::PersistObject { table, class, .. } => ActionIr::PersistObject {
            class: class.to_string(),
            table: table.clone(),
        },
        Action::SendMail { .. } => ActionIr::SendMail,
        Action::RunExternal { .. } => ActionIr::RunExternal,
        Action::Cancel { class } => ActionIr::Cancel {
            class: class.to_string(),
        },
        Action::SetTimer { timer, .. } => ActionIr::SetTimer {
            timer: timer.clone(),
        },
    }
}

/// Lower a rule to the analyzer IR.
pub fn rule_ir(rule: &Rule) -> RuleIr {
    RuleIr {
        name: rule.name.clone(),
        event: event_ir(&rule.event),
        condition: rule.condition.as_ref().map(Condition::lower),
        actions: rule.actions.iter().map(action_ir).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lat::LatAggFunc;

    #[test]
    fn event_lowering_keeps_identity_and_payload() {
        let e = event_ir(&RuleEvent::LatEviction("Top".into()));
        assert_eq!(e.kind, "LatEviction");
        assert_eq!(e.arg.as_deref(), Some("Top"));
        assert_eq!(e.payload, vec!["Evicted(Top)".to_string()]);
        let q = event_ir(&RuleEvent::QueryCommit);
        assert_eq!(q.kind, "QueryCommit");
        assert_eq!(q.payload, vec!["Query".to_string()]);
    }

    #[test]
    fn lat_lowering_tracks_bounds_and_aging() {
        let spec = LatSpec::new("L")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .max_rows(10);
        let ir = lat_ir(&spec);
        assert!(ir.bounded);
        assert_eq!(ir.group_by[0].source.class, "Query");
        assert_eq!(ir.aggregates[0].func, LatAggFunc::Count);
        assert!(!ir.aggregates[0].aging);
    }
}
