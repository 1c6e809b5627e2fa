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
//!   than [`DEFAULT_CASCADE_THRESHOLD`] rule evaluations.

use crate::admitted::Admitted;
use crate::depgraph::raised_events;
use crate::diagnostics::{Code, Diagnostic};
use crate::effects::{rule_effects, RuleEffects};
use crate::schema::SchemaUniverse;
use crate::{RuleEvent, RuleIr};

/// The worst-case number of rule evaluations one event may transitively
/// trigger before [`Code::W302`] fires.
pub const DEFAULT_CASCADE_THRESHOLD: usize = 64;

/// W301: warn when the immediately-preceding same-event rule reads columns
/// the new rule writes (swapping the adjacent pair changes behaviour).
/// `new_eff` is `new`'s [`rule_effects`].
pub fn check_order(
    universe: &SchemaUniverse,
    admitted: &impl Admitted,
    new: &RuleIr,
    new_eff: &RuleEffects,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(prev) = admitted.on_event(&new.event).next_back() else {
        return;
    };
    let prev_eff = rule_effects(universe, prev);
    if let Some(conflict) = prev_eff.reads_what_it_writes(new_eff) {
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
/// eviction per bounded insert, one alarm per `SetTimer`), against
/// [`DEFAULT_CASCADE_THRESHOLD`].
pub fn check_amplification(
    universe: &SchemaUniverse,
    admitted: &impl Admitted,
    new: &RuleIr,
    diags: &mut Vec<Diagnostic>,
) {
    let threshold = DEFAULT_CASCADE_THRESHOLD;
    /// What the walk reads, fixed for one check: the admitted rules with
    /// `new` after them, of which there are `rules`.
    struct Walk<'a, A> {
        universe: &'a SchemaUniverse,
        admitted: &'a A,
        new: &'a RuleIr,
        rules: usize,
        threshold: usize,
    }

    // Worst-case evaluations triggered by dispatching `event` once. `depth`
    // guards against a cycle in the not-yet-denied candidate set — E004 is
    // reported on this same `check_rule` call and owns that finding, so a
    // cyclic walk sets `cyclic` and the W302 verdict is suppressed.
    fn evals_for<A: Admitted>(
        w: &Walk<'_, A>,
        event: &RuleEvent,
        depth: usize,
        cyclic: &mut bool,
    ) -> usize {
        if depth > w.rules {
            *cyclic = true;
            return 0;
        }
        let mut total = 0usize;
        let new = (w.new.event == *event).then_some(w.new);
        for rule in w.admitted.on_event(event).chain(new) {
            total = total.saturating_add(1);
            for raised in raised_events(w.universe, rule) {
                total = total.saturating_add(evals_for(w, &raised, depth + 1, cyclic));
            }
            if *cyclic || total > w.threshold {
                return total; // early out: the bound is already broken
            }
        }
        total
    }

    let walk = Walk {
        universe,
        admitted,
        new,
        rules: admitted.rule_count() + 1,
        threshold,
    };
    let mut cyclic = false;
    let total = evals_for(&walk, &new.event, 0, &mut cyclic);
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
                 pure accumulators), or accept the warning if the amplification \
                 is intended",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admitted::RuleIndex;
    use crate::{Action, Condition, LatAggFunc, LatSpec};
    use std::sync::Arc;

    fn index(rules: &[RuleIr]) -> RuleIndex {
        let mut index = RuleIndex::default();
        for rule in rules {
            index.insert(Arc::new(rule.clone()));
        }
        index
    }

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
        let reader = on_commit("reader", Some("L.N > 5"), vec![]);
        let writer = on_commit("writer", None, vec![Action::insert("L")]);

        let mut diags = Vec::new();
        let writes = rule_effects(&u, &writer);
        check_order(
            &u,
            &index(std::slice::from_ref(&reader)),
            &writer,
            &writes,
            &mut diags,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::W301);

        let mut diags = Vec::new();
        let reads = rule_effects(&u, &reader);
        check_order(&u, &index(&[writer]), &reader, &reads, &mut diags);
        assert!(diags.is_empty(), "feed-then-react is the intended idiom");
    }

    #[test]
    fn eviction_fanout_past_threshold_is_w302() {
        let mut u = SchemaUniverse::builtin();
        assert!(u.register_lat(&lat("A", true)).is_empty());
        assert!(u.register_lat(&lat("B", true)).is_empty());
        // `fanout` rules on each eviction from A (each may evict from B) and
        // on each from B: a commit insert into A costs
        // 2 · (1 + fanout · (1 + fanout)) evaluations with `feed_a` admitted.
        let diagnose = |fanout: usize| {
            let mut rules = vec![on_commit("feed_a", None, vec![Action::insert("A")])];
            for i in 0..fanout {
                rules.push(on_eviction(
                    &format!("a_spill{i}"),
                    "A",
                    vec![Action::insert("B")],
                ));
                rules.push(on_eviction(&format!("b_spill{i}"), "B", vec![]));
            }
            let new = on_commit("feed_a2", None, vec![Action::insert("A")]);
            let mut diags = Vec::new();
            check_amplification(&u, &index(&rules), &new, &mut diags);
            diags
        };
        // 2 · (1 + 6 · 7) = 86 > 64.
        let diags = diagnose(6);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::W302);
        // 2 · (1 + 5 · 6) = 62 <= 64.
        assert!(diagnose(5).is_empty(), "under the threshold: no warning");
    }
}
