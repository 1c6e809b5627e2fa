//! Scope analysis of rule conditions: dead class references (W101) and
//! unjoinable LAT references (E003).
//!
//! Both checks encode the engine's evaluation contract precisely:
//!
//! * A class referenced by the condition but absent from the event payload is
//!   resolved by **iterating** a live registry — and registries exist only
//!   for `Query` (active queries), `Blocker`/`Blocked` (blocked pairs) and
//!   `Table` (the catalog). Any other out-of-payload class makes the engine
//!   skip the rule entirely: the rule can never fire (**W101**).
//!
//! * A LAT reference is bound by building the LAT's grouping key from the
//!   in-scope object of the LAT's *source class*. That object exists only
//!   when the source class is in the payload, or when it is iterable **and
//!   the condition names it directly** (iteration sets are built from the
//!   classes the condition references, not from the LATs it probes). When
//!   neither holds, the implicit ∃ of §5.2 fails on every event — missing
//!   row ⇒ false — and the condition is statically unsatisfiable (**E003**).

use crate::diagnostics::{Code, Diagnostic};
use crate::schema::SchemaUniverse;
use crate::RuleIr;

pub fn check_rule(universe: &SchemaUniverse, rule: &RuleIr, diags: &mut Vec<Diagnostic>) {
    let (classes, lats) = rule.refs();
    let payload = rule.event.payload_classes();

    for class in &classes {
        let schema = class.schema().expect("parsed classes are built-in");
        if !payload.contains(class) && !schema.iterable {
            diags.push(
                Diagnostic::new(
                    Code::W101,
                    &rule.name,
                    format!(
                        "rule can never fire: condition references {class}, which is not in \
                         the {} payload and has no iterable registry",
                        rule.event
                    ),
                )
                .with_span(format!("{class}.*"))
                .with_help(format!(
                    "register the rule on an event whose payload carries {class}"
                )),
            );
        }
    }

    for lat_name in &lats {
        // Unknown LATs are E001 territory (typeck); nothing to join against.
        let Some(lat) = universe.lat(lat_name) else {
            continue;
        };
        let Some(source) = &lat.source_class else {
            continue;
        };
        let iterable = source.schema().is_some_and(|c| c.iterable);
        if payload.contains(source) || (iterable && classes.contains(source)) {
            continue;
        }
        let help = if iterable {
            format!(
                "reference a {source} attribute in the condition so the engine iterates live \
                 {source} objects, or register the rule on a {source}-producing event"
            )
        } else {
            format!("register the rule on an event whose payload carries {source}")
        };
        diags.push(
            Diagnostic::new(
                Code::E003,
                &rule.name,
                format!(
                    "LAT {} groups by {source} attributes, but no {source} object is ever in \
                     scope for {}: the lookup finds no row and the condition is statically \
                     false",
                    lat.name, rule.event
                ),
            )
            .with_span(format!("{lat_name}.*"))
            .with_help(help),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, Analyzer, Condition, LatAggFunc, LatSpec, RuleEvent};

    fn duration_lat() -> LatSpec {
        LatSpec::new("Duration_LAT")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")
    }

    fn rule_on(event: RuleEvent, cond: &str) -> RuleIr {
        RuleIr {
            name: "t".into(),
            event,
            condition: Some(Condition::lower(
                &sqlcm_sql::parse_expression(cond).unwrap(),
            )),
            actions: vec![],
        }
    }

    /// Admit a feeder rule so probes of `Duration_LAT` aggregates are not
    /// flagged as reads of a never-written column (W203) — this module only
    /// exercises the scope checks.
    fn admit_feeder(a: &mut Analyzer) {
        let feed = RuleIr {
            name: "feed".into(),
            event: RuleEvent::QueryCommit,
            condition: None,
            actions: vec![Action::insert("Duration_LAT")],
        };
        assert!(a.check_rule(&feed).is_empty());
    }

    #[test]
    fn lat_probe_from_source_payload_is_clean() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&duration_lat()).is_empty());
        admit_feeder(&mut a);
        let diags = a.check_rule(&rule_on(
            RuleEvent::QueryCommit,
            "Query.Duration > 5 * Duration_LAT.Avg_Duration",
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn lat_probe_without_source_in_scope_is_e003() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&duration_lat()).is_empty());
        admit_feeder(&mut a);
        // TxnCommit carries only Transaction; the condition never names Query,
        // so no Query object is ever in scope to build the grouping key.
        let diags = a.check_rule(&rule_on(
            RuleEvent::TxnCommit,
            "Duration_LAT.Avg_Duration > 5",
        ));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::E003);
    }

    #[test]
    fn lat_probe_with_iterated_source_is_clean() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&duration_lat()).is_empty());
        admit_feeder(&mut a);
        // Query is named directly, so the engine iterates active queries and
        // the probe binds per iterated object.
        let diags = a.check_rule(&rule_on(
            RuleEvent::TxnCommit,
            "Query.Duration > 1 AND Duration_LAT.Avg_Duration > 5",
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn non_iterable_class_outside_payload_is_w101() {
        let mut a = Analyzer::new();
        let diags = a.check_rule(&rule_on(RuleEvent::QueryCommit, "Session.Success = FALSE"));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::W101);
    }

    #[test]
    fn iterable_class_outside_payload_is_clean() {
        let mut a = Analyzer::new();
        let diags = a.check_rule(&rule_on(RuleEvent::TxnCommit, "Table.Row_Count > 1000"));
        assert!(diags.is_empty(), "{diags:?}");
    }
}
