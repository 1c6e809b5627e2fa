//! Order-sensitivity and cascade-amplification analysis (W301 / W302).
//!
//! SQLCM evaluates the rules subscribed to an event synchronously in
//! registration order (§5). Registration order is therefore part of the
//! observable semantics — and two whole classes of surprises hide in it:
//!
//! * **W301 — order-sensitive pair.** If an earlier rule *reads* a LAT
//!   column that a later same-event rule *writes*, the reader observes the
//!   state left by the *previous* event, and swapping the two rules would
//!   change what it sees. Read-after-write (the feed-then-react idiom from
//!   the paper's examples: `Insert` first, outlier check second) is the
//!   intended pattern and stays silent; it is the *write-after-read* order —
//!   usually a registration-order accident — that gets flagged, using the
//!   interference relation from [`crate::effects`].
//! * **W302 — cascade amplification.** Rules trigger rules through
//!   `Insert`→`LatEviction` and `SetTimer`→`TimerAlarm` edges. Cycles are
//!   already denied (E004), but an acyclic graph can still fan out: one
//!   event whose rules feed several bounded LATs, each eviction of which is
//!   handled by several rules, multiplies synchronous work per event. The
//!   pass bounds the worst case — every rule fires, every bounded insert
//!   evicts — and warns when a single event can transitively trigger more
//!   than [`crate::Analyzer::cascade_threshold`] rule evaluations.

use crate::depgraph::raised_events;
use crate::diagnostics::{Code, Diagnostic};
use crate::effects::rule_effects;
use crate::schema::SchemaUniverse;
use crate::{RuleEvent, RuleIr};
use std::sync::Arc;

/// W301: warn when the immediately-preceding same-event rule reads columns
/// the new rule writes (swapping the adjacent pair changes behaviour).
pub fn check_order(
    universe: &SchemaUniverse,
    admitted: &[Arc<RuleIr>],
    new: &RuleIr,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(prev) = admitted.iter().rev().find(|r| r.event == new.event) else {
        return;
    };
    let prev_eff = rule_effects(universe, prev);
    let new_eff = rule_effects(universe, new);
    if let Some(conflict) = prev_eff.reads_what_it_writes(&new_eff) {
        diags.push(
            Diagnostic::new(
                Code::W301,
                &new.name,
                format!(
                    "order-sensitive with the adjacent rule `{}` on {}: {conflict}",
                    prev.name, new.event
                ),
            )
            .with_span(format!("after `{}`", prev.name))
            .with_help(
                "the earlier rule reads state this rule mutates, so it sees the \
                 previous event's value; register the writer first if the reader \
                 should observe this event's update",
            ),
        );
    }
}

/// W302: bound the number of rule evaluations one event can transitively
/// trigger, counting multiplicities (several rules per event, one possible
/// eviction per bounded insert, one alarm per `SetTimer`).
pub fn check_amplification(
    universe: &SchemaUniverse,
    admitted: &[Arc<RuleIr>],
    new: &RuleIr,
    threshold: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let all: Vec<&RuleIr> = admitted
        .iter()
        .map(Arc::as_ref)
        .chain(std::iter::once(new))
        .collect();

    // Worst-case evaluations triggered by dispatching `event` once. `depth`
    // guards against a cycle in the not-yet-denied candidate set — E004 is
    // reported on this same `check_rule` call and owns that finding, so a
    // cyclic walk sets `cyclic` and the W302 verdict is suppressed.
    fn evals_for(
        universe: &SchemaUniverse,
        all: &[&RuleIr],
        event: &RuleEvent,
        depth: usize,
        threshold: usize,
        cyclic: &mut bool,
    ) -> usize {
        if depth > all.len() {
            *cyclic = true;
            return 0;
        }
        let mut total = 0usize;
        for rule in all.iter().filter(|r| r.event == *event) {
            total = total.saturating_add(1);
            for raised in raised_events(universe, rule) {
                total = total.saturating_add(evals_for(
                    universe,
                    all,
                    &raised,
                    depth + 1,
                    threshold,
                    cyclic,
                ));
            }
            if *cyclic || total > threshold {
                return total; // early out: the bound is already broken
            }
        }
        total
    }

    let mut cyclic = false;
    let total = evals_for(universe, &all, &new.event, 0, threshold, &mut cyclic);
    if !cyclic && total > threshold {
        diags.push(
            Diagnostic::new(
                Code::W302,
                &new.name,
                format!(
                    "one {} event can transitively trigger more than {threshold} rule \
                     evaluations through eviction/timer cascades",
                    new.event
                ),
            )
            .with_span(new.event.to_string())
            .with_help(
                "reduce fan-out (fewer rules per eviction event, unbounded LATs for \
                 pure accumulators) or raise Analyzer::cascade_threshold if the \
                 amplification is intended",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, Condition, LatAggFunc, LatSpec};

    fn lat(name: &str, bounded: bool) -> LatSpec {
        let spec = LatSpec::new(name)
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N");
        if bounded {
            spec.max_rows(10)
        } else {
            spec
        }
    }

    fn on(event: RuleEvent, name: &str, cond: Option<&str>, actions: Vec<Action>) -> RuleIr {
        RuleIr {
            name: name.into(),
            event,
            condition: cond.map(|c| Condition::lower(&sqlcm_sql::parse_expression(c).unwrap())),
            actions,
        }
    }

    fn on_commit(name: &str, cond: Option<&str>, actions: Vec<Action>) -> RuleIr {
        on(RuleEvent::QueryCommit, name, cond, actions)
    }

    fn on_eviction(name: &str, of: &str, actions: Vec<Action>) -> RuleIr {
        on(RuleEvent::LatEviction(of.into()), name, None, actions)
    }

    #[test]
    fn reader_then_writer_is_w301_but_writer_then_reader_is_not() {
        let mut u = SchemaUniverse::builtin();
        assert!(u.register_lat(&lat("L", false)).is_empty());
        let reader = Arc::new(on_commit("reader", Some("L.N > 5"), vec![]));
        let writer = Arc::new(on_commit("writer", None, vec![Action::insert("L")]));

        let mut diags = Vec::new();
        check_order(&u, std::slice::from_ref(&reader), &writer, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::W301);

        let mut diags = Vec::new();
        check_order(&u, std::slice::from_ref(&writer), &reader, &mut diags);
        assert!(diags.is_empty(), "feed-then-react is the intended idiom");
    }

    #[test]
    fn eviction_fanout_past_threshold_is_w302() {
        let mut u = SchemaUniverse::builtin();
        assert!(u.register_lat(&lat("A", true)).is_empty());
        assert!(u.register_lat(&lat("B", true)).is_empty());
        let mut admitted = vec![Arc::new(on_commit(
            "feed_a",
            None,
            vec![Action::insert("A")],
        ))];
        for i in 0..4 {
            admitted.push(Arc::new(on_eviction(
                &format!("a_spill{i}"),
                "A",
                vec![Action::insert("B")],
            )));
        }
        for i in 0..4 {
            admitted.push(Arc::new(on_eviction(&format!("b_spill{i}"), "B", vec![])));
        }
        let new = on_commit("feed_a2", None, vec![Action::insert("A")]);
        // Each commit insert may evict from A (4 rules, each may evict from B:
        // 4 rules) — 2 · (1 + 4 · (1 + 4)) = 42 evaluations.
        let mut diags = Vec::new();
        check_amplification(&u, &admitted, &new, 16, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::W302);

        let mut diags = Vec::new();
        check_amplification(&u, &admitted, &new, 64, &mut diags);
        assert!(diags.is_empty(), "under the threshold: no warning");
    }
}
