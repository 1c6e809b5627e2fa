//! Static per-firing cost estimate (W201).
//!
//! The paper's central argument is that monitoring must have *low and
//! controllable* overhead (§2.1, Figure 2). The runtime controls what it can
//! — compiled conditions, in-memory LATs — but a rule author can still attach
//! arbitrarily heavy work to a hot event (persisting a LAT to a table on
//! every `QueryCommit`, say). This pass attaches a unitless cost score to
//! each rule — roughly "hash probes per firing" — and warns when it crosses
//! the analyzer's threshold.
//!
//! The model is deliberately coarse but deterministic:
//!
//! * each distinct LAT probed by the condition: `1 + aging aggregates` (an
//!   aging read folds the block ring);
//! * `Insert`: `1 + aggregate columns + 2 × aging aggregates + 1 if bounded`
//!   (aging inserts touch the ring twice: append + expire; bounded LATs pay
//!   ordering/eviction bookkeeping);
//! * `Reset`, `SetTimer`, `Cancel`: 1;
//! * `PersistObject`: 4, `PersistLat`: 8 (synchronous table writes);
//! * `SendMail`, `RunExternal`: 6 (sink formatting and queueing).
//!
//! A second lint here (W204) flags the sharpest instance of the same
//! problem regardless of total score: an *unconditional* external action
//! (`SendMail`/`RunExternal`) attached to a hot event class. With no
//! condition to thin the firings, every single event pays the sink — and
//! under sink failure, every single event feeds the circuit breaker.
//!
//! A third lint (W205) reports on the dispatch-time guard index: the monitor
//! prunes a rule without evaluating it when its guard (see [`crate::guard`])
//! is violated by the event, so dispatch cost scales with *matching* rules
//! rather than *registered* rules. W205 fires when a rule on a hot event
//! class reads only payload attributes — no LAT — yet gets no guard, i.e. it
//! is residual for a fixable reason.

use crate::diagnostics::{Code, Diagnostic};
use crate::guard::{rule_guard, Residual};
use crate::schema::SchemaUniverse;
use crate::{Action, RuleEvent, RuleIr};

/// Default threshold above which [`Code::W201`] fires.
pub const DEFAULT_COST_THRESHOLD: u32 = 16;

/// Estimate the per-firing cost of a rule; returns the total and a
/// human-readable breakdown.
pub fn rule_cost(universe: &SchemaUniverse, rule: &RuleIr) -> (u32, Vec<String>) {
    let mut total = 0u32;
    let mut parts = Vec::new();
    let (_, lats) = rule.refs();
    let payload = rule.event.payload_classes();
    for name in lats {
        let schema = universe.lat(&name);
        let c = match schema {
            Some(schema) => 1 + schema.aging_aggregates as u32,
            None => 1,
        };
        total += c;
        // The dispatch plan hoists a lookup to event level when the LAT's
        // key class is in the event payload: rules on the same event then
        // share one row snapshot, so the probe cost amortizes across the
        // ruleset instead of accruing per rule. Surfaced here so authors
        // can see which probes the runtime de-duplicates.
        let hoisted = schema
            .and_then(|sc| sc.source_class.as_ref())
            .is_some_and(|class| payload.contains(class));
        if hoisted {
            parts.push(format!("probe {name}: {c} (hoisted: shared per event)"));
        } else {
            parts.push(format!("probe {name}: {c}"));
        }
    }
    for action in &rule.actions {
        let c = match action {
            Action::Insert { lat } => match universe.lat(lat) {
                Some(schema) => {
                    1 + schema.aggregate_count as u32
                        + 2 * schema.aging_aggregates as u32
                        + u32::from(schema.bounded)
                }
                None => 2,
            },
            Action::Reset { .. } | Action::SetTimer { .. } | Action::Cancel { .. } => 1,
            Action::PersistObject { .. } => 4,
            Action::PersistLat { .. } => 8,
            Action::SendMail { .. } | Action::RunExternal { .. } => 6,
        };
        total += c;
        parts.push(format!("{action}: {c}"));
    }
    (total, parts)
}

/// Warn when the rule's estimated per-firing cost exceeds
/// [`DEFAULT_COST_THRESHOLD`].
pub fn check_rule(universe: &SchemaUniverse, rule: &RuleIr, diags: &mut Vec<Diagnostic>) {
    let (total, parts) = rule_cost(universe, rule);
    let threshold = DEFAULT_COST_THRESHOLD;
    if total > threshold {
        diags.push(
            Diagnostic::new(
                Code::W201,
                &rule.name,
                format!(
                    "estimated per-firing cost {total} exceeds threshold {threshold} \
                     ({})",
                    parts.join(", ")
                ),
            )
            .with_help(
                "heavy actions on hot events defeat the low-overhead design; move persists \
                 and external actions behind a timer rule, or raise the analyzer threshold \
                 if the event is rare",
            ),
        );
    }
}

/// Event classes considered "hot": fired on the per-query / per-transaction
/// path, where rates are bounded only by engine throughput. Session
/// lifecycle (`Login`/`Logout`), block release, timer, eviction and monitor
/// events are orders of magnitude rarer and excluded.
fn is_hot(event: &RuleEvent) -> bool {
    match event {
        RuleEvent::QueryStart
        | RuleEvent::QueryCompile
        | RuleEvent::QueryCommit
        | RuleEvent::QueryRollback
        | RuleEvent::QueryCancel
        | RuleEvent::QueryBlocked
        | RuleEvent::TxnBegin
        | RuleEvent::TxnCommit
        | RuleEvent::TxnRollback => true,
        RuleEvent::BlockReleased
        | RuleEvent::Login
        | RuleEvent::Logout
        | RuleEvent::TimerAlarm(_)
        | RuleEvent::LatEviction(_)
        | RuleEvent::MonitorTick => false,
    }
}

/// Warn (W204) when a rule attaches an unconditional external action to a
/// hot event class.
pub fn check_unconditional_external(rule: &RuleIr, diags: &mut Vec<Diagnostic>) {
    if rule.condition.is_some() || !is_hot(&rule.event) {
        return;
    }
    for action in &rule.actions {
        if matches!(action, Action::SendMail { .. } | Action::RunExternal { .. }) {
            diags.push(
                Diagnostic::new(
                    Code::W204,
                    &rule.name,
                    format!(
                        "unconditional {action} on hot event {}: every event pays the \
                         external-sink cost",
                        rule.event
                    ),
                )
                .with_span(action.to_string())
                .with_help(
                    "add a condition to thin the firings, or move the action behind a \
                     timer rule that aggregates over a window",
                ),
            );
        }
    }
}

/// Warn (W205) when a rule on a hot event class has a payload-only condition
/// the guard index cannot use — the fixable flavour of residual.
///
/// Deliberately narrow: a LAT reader's guard, if any, is checked against the
/// row its event hoists, and a LAT threshold compared with arithmetic
/// (Example 1's `Query.Duration > 5 * Duration_LAT.Avg_Duration`) is what
/// monitoring rules look like; iterated-class rules are residual by design,
/// and unconditional rules are W204's territory. Only `FallibleExpr` and
/// `NoGuardAtom` on a condition that reads no LAT mean the author could
/// reshape it and get payload pruning for free.
pub fn check_unindexable(rule: &RuleIr, diags: &mut Vec<Diagnostic>) {
    if !is_hot(&rule.event) || !rule.refs().1.is_empty() {
        return;
    }
    if let Err(r @ (Residual::FallibleExpr | Residual::NoGuardAtom)) = rule_guard(rule) {
        diags.push(
            Diagnostic::new(
                Code::W205,
                &rule.name,
                format!(
                    "condition on hot event {} cannot be guard-indexed: {} — the rule is \
                     evaluated on every event instead of being pruned",
                    rule.event,
                    r.describe()
                ),
            )
            .with_help(
                "add a selective leading conjunct the index can use (attr = const, \
                 attr IN (…), or attr <op> const on a payload attribute), or accept the \
                 always-evaluate cost if the rule must see every event",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analyzer, Condition, LatAggFunc, LatSpec};

    fn cond(src: &str) -> Condition {
        Condition::lower(&sqlcm_sql::parse_expression(src).unwrap())
    }

    fn aging_lat() -> LatSpec {
        LatSpec::new("Win")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .aging(60_000_000, 10_000_000)
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D")
            .aging(60_000_000, 10_000_000)
            .max_rows(10)
    }

    fn rule(name: &str, event: RuleEvent, condition: Option<&str>, actions: Vec<Action>) -> RuleIr {
        RuleIr {
            name: name.into(),
            event,
            condition: condition.map(cond),
            actions,
        }
    }

    fn heavy() -> RuleIr {
        rule(
            "heavy",
            RuleEvent::QueryCommit,
            Some("Win.Avg_D > 1"),
            vec![Action::insert("Win"), Action::persist_lat("t", "Win")],
        )
    }

    #[test]
    fn cost_model_is_deterministic() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&aging_lat()).is_empty());
        // probe Win: 1 + 2 aging = 3; Insert: 1 + 2 aggs + 2*2 aging + 1 bounded = 8;
        // PersistLat: 8. Total 19.
        let (total, parts) = rule_cost(a.universe(), &heavy());
        assert_eq!(total, 19);
        // The probe is keyed by Query, which is in the Query.Commit payload:
        // the dispatch plan hoists it, and the breakdown says so.
        assert!(
            parts[0].contains("(hoisted: shared per event)"),
            "{parts:?}"
        );
    }

    #[test]
    fn probe_outside_event_payload_is_not_marked_hoisted() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&aging_lat()).is_empty());
        let probe = rule(
            "timer_probe",
            RuleEvent::TimerAlarm("t".into()),
            Some("Win.Avg_D > 1"),
            vec![],
        );
        let (_, parts) = rule_cost(a.universe(), &probe);
        assert!(!parts[0].contains("hoisted"), "{parts:?}");
    }

    #[test]
    fn heavy_rule_is_w201_and_light_rule_is_clean() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&aging_lat()).is_empty());
        let mut rule = heavy();
        let diags = a.check_rule(&rule);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::W201);
        assert!(diags[0].message.contains("19"));

        // probe 3 + insert 8 = 11 <= 16: below threshold. The condition also
        // changes so the admitted "heavy" rule doesn't trip W102. (The pair is
        // legitimately order-sensitive — heavy reads Avg_D, light writes it —
        // so only the cost verdict is asserted here.)
        rule.name = "light".into();
        rule.actions = vec![Action::insert("Win")];
        rule.condition = Some(cond("Win.Avg_D > 2"));
        let diags = a.check_rule(&rule);
        assert!(diags.iter().all(|d| d.code != Code::W201), "{diags:?}");
    }

    fn hot_rule(name: &str, condition: Option<&str>) -> RuleIr {
        let mail = Action::send_mail("dba", "x");
        rule(name, RuleEvent::QueryCommit, condition, vec![mail])
    }

    #[test]
    fn w205_fires_only_for_fixable_hot_event_residuals() {
        let mut a = Analyzer::new();
        let diags = a.check_rule(&hot_rule(
            "liketail",
            Some("Query.Query_Text LIKE '%DROP%'"),
        ));
        assert_eq!(
            diags.iter().filter(|d| d.code == Code::W205).count(),
            1,
            "{diags:?}"
        );

        // Indexable hot rule: clean.
        let diags = a.check_rule(&hot_rule("eq", Some("Query.User = 'alice'")));
        assert!(diags.iter().all(|d| d.code != Code::W205), "{diags:?}");

        // LAT-reading hot rules are out of scope: one with a LAT guard, one
        // that compares a threshold through arithmetic (Example 1's shape),
        // one with no atom at all.
        assert!(a.check_lat(&aging_lat()).is_empty());
        for (name, cond) in [
            ("latread", "Win.Avg_D > 3"),
            ("latscaled", "Query.Duration > 5 * Win.Avg_D"),
            ("latnoatom", "Query.Duration > Win.Avg_D"),
        ] {
            let diags = a.check_rule(&hot_rule(name, Some(cond)));
            assert!(
                diags.iter().all(|d| d.code != Code::W205),
                "{name}: {diags:?}"
            );
        }

        // Unindexable condition on a cold event: not flagged.
        let mut cold = hot_rule("cold", Some("Session.User LIKE 'svc%'"));
        cold.event = RuleEvent::Logout;
        let diags = a.check_rule(&cold);
        assert!(diags.iter().all(|d| d.code != Code::W205), "{diags:?}");
    }
}
