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
    let (classes, lats) = rule.refs(universe);
    let in_payload = |c: &str| rule.event.payload.iter().any(|p| p.eq_ignore_ascii_case(c));

    for class in &classes {
        let schema = universe.class(class).expect("canonicalized by expr_refs");
        if !in_payload(class) && !schema.iterable {
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
        let source = lat.source_class.clone();
        if source.is_empty() {
            continue;
        }
        let iterable = universe.class(&source).map(|c| c.iterable).unwrap_or(false);
        let named_in_condition = classes.iter().any(|c| c.eq_ignore_ascii_case(&source));
        if in_payload(&source) || (iterable && named_in_condition) {
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
    use crate::{AggColumnIr, Analyzer, AttrIr, EventIr, GroupColumnIr, LatAggFunc, LatIr};

    fn duration_lat() -> LatIr {
        LatIr {
            name: "Duration_LAT".into(),
            group_by: vec![GroupColumnIr {
                source: AttrIr {
                    class: "Query".into(),
                    attr: "Logical_Signature".into(),
                },
                alias: "Sig".into(),
            }],
            aggregates: vec![AggColumnIr {
                func: LatAggFunc::Avg,
                source: Some(AttrIr {
                    class: "Query".into(),
                    attr: "Duration".into(),
                }),
                alias: "Avg_Duration".into(),
                aging: false,
            }],
            bounded: false,
        }
    }

    fn rule_on(event: &str, payload: &[&str], cond: &str) -> RuleIr {
        RuleIr {
            name: "t".into(),
            event: EventIr {
                kind: event.into(),
                arg: None,
                payload: payload.iter().map(|s| s.to_string()).collect(),
            },
            condition: Some(crate::Condition::lower(
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
            event: EventIr {
                kind: "QueryCommit".into(),
                arg: None,
                payload: vec!["Query".into()],
            },
            condition: None,
            actions: vec![crate::ActionIr::Insert {
                lat: "Duration_LAT".into(),
            }],
        };
        assert!(a.check_rule(&feed).is_empty());
    }

    #[test]
    fn lat_probe_from_source_payload_is_clean() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&duration_lat()).is_empty());
        admit_feeder(&mut a);
        let diags = a.check_rule(&rule_on(
            "QueryCommit",
            &["Query"],
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
            "TxnCommit",
            &["Transaction"],
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
            "TxnCommit",
            &["Transaction"],
            "Query.Duration > 1 AND Duration_LAT.Avg_Duration > 5",
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn non_iterable_class_outside_payload_is_w101() {
        let mut a = Analyzer::new();
        let diags = a.check_rule(&rule_on(
            "QueryCommit",
            &["Query"],
            "Session.Success = FALSE",
        ));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::W101);
    }

    #[test]
    fn iterable_class_outside_payload_is_clean() {
        let mut a = Analyzer::new();
        let diags = a.check_rule(&rule_on(
            "TxnCommit",
            &["Transaction"],
            "Table.Row_Count > 1000",
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }
}
