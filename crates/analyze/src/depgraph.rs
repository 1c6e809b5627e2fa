//! Ruleset-level analysis: cascade/termination (E004) and duplicate rules
//! (W102).
//!
//! Rules can trigger rules. The engine has exactly two such channels:
//!
//! * `Insert(L)` into a **bounded** LAT may evict a row, raising
//!   `LatEviction(L)` — which feeds every rule registered on that event;
//! * `SetTimer(t)` arms a timer whose `TimerAlarm(t)` events feed every rule
//!   registered on them.
//!
//! The paper forbids recursive rule chains (§4, Appendix A) precisely because
//! an `Insert` fired from a `LatEviction` rule back into the same LAT can
//! cascade without bound. This module builds the rule → rule trigger graph
//! and rejects any cycle the newly registered rule would close (**E004**).
//! Because rules are admitted one at a time and the admitted set is acyclic,
//! every new cycle must pass through the new rule — a DFS from it suffices.
//!
//! **W102** flags a rule whose event *and* condition are identical to an
//! already-admitted rule: both will fire on exactly the same events, which is
//! almost always a copy-paste mistake.
//!
//! **W105** flags a *partial* overlap W102 misses: two same-event rules with
//! different conditions that share a non-trivial boolean subexpression. When
//! the shared predicate is a guard atom (`Attr <op> const`, or the same on a
//! hoisted LAT column), the dispatch plan's guard index tests it once per
//! event for every rule that carries it; a larger shared subtree is
//! evaluated by each rule that repeats it. The lint nudges the author to
//! factor the predicate if the duplication was accidental.

use crate::admitted::{predicates, Admitted};
use crate::diagnostics::{Code, Diagnostic};
use crate::schema::SchemaUniverse;
use crate::{Action, RuleEvent, RuleIr};
use std::collections::HashSet;
use std::sync::Arc;

/// Events a rule's actions may raise.
pub(crate) fn raised_events(universe: &SchemaUniverse, rule: &RuleIr) -> Vec<RuleEvent> {
    let raised = |action: &Action| match action {
        // Only bounded LATs evict; an unknown LAT is an E001 elsewhere.
        Action::Insert { lat } => universe
            .lat(lat)
            .filter(|schema| schema.bounded)
            .map(|schema| RuleEvent::LatEviction(schema.name.clone())),
        Action::SetTimer { timer, .. } => Some(RuleEvent::TimerAlarm(timer.clone())),
        Action::Reset { .. }
        | Action::PersistLat { .. }
        | Action::PersistObject { .. }
        | Action::SendMail { .. }
        | Action::RunExternal { .. }
        | Action::Cancel { .. } => None,
    };
    rule.actions.iter().filter_map(raised).collect()
}

/// Longest cascade chain an admitted ruleset can produce, measured in
/// *cascaded events*: a root event handled directly is depth 0, every
/// eviction/timer event a handler's actions raise sits one deeper. The
/// runtime's causal traces record the same measure per dispatched event, so
/// observed trace depths must never exceed this bound — the cross-check the
/// trace-tree tests pin.
///
/// The admitted set is acyclic (E004 denies cycles at registration), but the
/// walk still guards against one defensively — a rule on a cycle reports the
/// trivial upper bound `rules.len()` instead of recursing forever.
pub fn max_cascade_depth(universe: &SchemaUniverse, rules: &[Arc<RuleIr>]) -> usize {
    fn depth_of(
        universe: &SchemaUniverse,
        all: &[Arc<RuleIr>],
        i: usize,
        visiting: &mut [bool],
        memo: &mut [Option<usize>],
    ) -> usize {
        if let Some(d) = memo[i] {
            return d;
        }
        if visiting[i] {
            return all.len();
        }
        visiting[i] = true;
        let mut deepest = 0usize;
        for raised in raised_events(universe, &all[i]) {
            for (j, r) in all.iter().enumerate() {
                if r.event == raised {
                    deepest = deepest.max(1 + depth_of(universe, all, j, visiting, memo));
                }
            }
        }
        visiting[i] = false;
        memo[i] = Some(deepest);
        deepest
    }
    let mut visiting = vec![false; rules.len()];
    let mut memo = vec![None; rules.len()];
    (0..rules.len())
        .map(|i| depth_of(universe, rules, i, &mut visiting, &mut memo))
        .max()
        .unwrap_or(0)
}

/// The rules `rule`'s actions can trigger, in the order the cascade walk
/// visits them: per event it raises, the admitted rules on that event, then
/// `new` when it is on it too.
fn successors<'a>(
    universe: &SchemaUniverse,
    admitted: &'a impl Admitted,
    new: &'a RuleIr,
    rule: &RuleIr,
) -> Vec<&'a RuleIr> {
    let mut next = Vec::new();
    for raised in raised_events(universe, rule) {
        next.extend(admitted.on_event(&raised));
        if new.event == raised {
            next.push(new);
        }
    }
    next
}

/// Reject a cascade cycle that `new` would close.
pub fn check_cascades(
    universe: &SchemaUniverse,
    admitted: &impl Admitted,
    new: &RuleIr,
    diags: &mut Vec<Diagnostic>,
) {
    // DFS from the new rule looking for a path back to it.
    let successors = |rule: &RuleIr| successors(universe, admitted, new, rule);
    let mut path = vec![new];
    let mut visited = HashSet::new();
    if let Some(cycle) = dfs(new, new, &successors, &mut visited, &mut path) {
        let names: Vec<&str> = cycle.iter().map(|r| r.name.as_str()).collect();
        diags.push(
            Diagnostic::new(
                Code::E004,
                &new.name,
                format!(
                    "cascade cycle: {} -> {}; rule chains must terminate (the framework \
                     forbids recursive rules)",
                    names.join(" -> "),
                    names[0]
                ),
            )
            .with_help(
                "break the cycle: insert into an unbounded LAT, drop the SetTimer/Insert \
                 action, or register the downstream rule on a different event",
            ),
        );
    }
}

fn dfs<'a>(
    cur: &'a RuleIr,
    target: &RuleIr,
    successors: &impl Fn(&RuleIr) -> Vec<&'a RuleIr>,
    visited: &mut HashSet<*const RuleIr>,
    path: &mut Vec<&'a RuleIr>,
) -> Option<Vec<&'a RuleIr>> {
    for next in successors(cur) {
        if std::ptr::eq(next, target) {
            return Some(path.clone());
        }
        if visited.insert(next) {
            path.push(next);
            if let Some(cycle) = dfs(next, target, successors, visited, path) {
                return Some(cycle);
            }
            path.pop();
        }
    }
    None
}

/// Warn when `new` duplicates an already-admitted rule: same event instance,
/// structurally identical condition, and the same actions. (Same event and
/// condition with *different* actions is the normal fan-out idiom — one
/// event feeding several LATs — and is not flagged.)
pub fn check_duplicates(admitted: &impl Admitted, new: &RuleIr, diags: &mut Vec<Diagnostic>) {
    if let Some(r) = admitted.duplicate_of(new) {
        diags.push(
            Diagnostic::new(
                Code::W102,
                &new.name,
                format!(
                    "duplicates rule `{}`: same event ({}), identical condition and \
                     actions — the work happens twice on every matching event",
                    r.name, new.event
                ),
            )
            .with_help("remove one of the rules"),
        );
    }
}

/// W105 — `new` shares a non-trivial predicate with an already-admitted rule
/// on the same event instance, without being an exact duplicate (identical
/// whole conditions are W102's territory, and same-condition/different-action
/// fan-out is a deliberate idiom left unflagged).
///
/// "Non-trivial" means a boolean-valued subtree of at least 3 IR ops (a
/// comparison with both operands, or anything larger); matching runs over the
/// *folded* IR with canonical structural hashes, with a structural-equality
/// check guarding against hash collisions.
pub fn check_shared_predicates(
    admitted: &impl Admitted,
    new: &RuleIr,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(folded) = new.condition.as_ref().map(|c| c.folded()) else {
        return;
    };
    // Candidate subtrees of the new condition, largest first.
    let mut cands = predicates(folded);
    if cands.is_empty() {
        return;
    }
    cands.sort_by_key(|&c| std::cmp::Reverse(folded.size_of(c)));
    if let Some((r, node)) = admitted.sharing_predicate(new, &cands) {
        diags.push(
            Diagnostic::new(
                Code::W105,
                &new.name,
                format!(
                    "predicate `{}` is duplicated from rule `{}` on the same event ({})",
                    folded.disp(node),
                    r.name,
                    new.event
                ),
            )
            .with_span(folded.render(node))
            .with_help(
                "a shared guard atom is tested once per event for every rule that \
                 carries it, but a larger shared subexpression is evaluated by each \
                 rule that repeats it; if the duplication is accidental, factor the \
                 predicate into a single rule",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analyzer, LatAggFunc, LatSpec};

    fn cond(src: &str) -> Option<crate::Condition> {
        Some(crate::Condition::lower(
            &sqlcm_sql::parse_expression(src).unwrap(),
        ))
    }

    fn lat(name: &str, bounded: bool) -> LatSpec {
        let spec = LatSpec::new(name).group_by("Query.ID", "ID").aggregate(
            LatAggFunc::Max,
            "Query.Duration",
            "D",
        );
        if bounded {
            spec.max_rows(10)
        } else {
            spec
        }
    }

    fn rule(name: &str, event: RuleEvent, actions: Vec<Action>) -> RuleIr {
        RuleIr {
            name: name.into(),
            event,
            condition: None,
            actions,
        }
    }

    fn evicted(lat: &str) -> RuleEvent {
        RuleEvent::LatEviction(lat.into())
    }

    fn alarm(timer: &str) -> RuleEvent {
        RuleEvent::TimerAlarm(timer.into())
    }

    fn set(timer: &str) -> Vec<Action> {
        vec![Action::set_timer(timer, 1_000_000, 1)]
    }

    fn mail() -> Vec<Action> {
        vec![Action::send_mail("dba", "x")]
    }

    #[test]
    fn self_eviction_cycle_is_e004() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&lat("Top", true)).is_empty());
        // Feeding the LAT from its own eviction event recurses forever.
        let diags = a.check_rule(&rule("refill", evicted("Top"), vec![Action::insert("Top")]));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::E004);
        assert!(a.rules().is_empty());
    }

    #[test]
    fn two_rule_timer_cycle_is_e004() {
        let mut a = Analyzer::new();
        assert!(a
            .check_rule(&rule("arm", alarm("tick"), set("tock"),))
            .is_empty());
        let diags = a.check_rule(&rule("rearm", alarm("tock"), set("tick")));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::E004);
        assert!(diags[0].message.contains("rearm"));
        assert!(diags[0].message.contains("arm"));
        // The runtime keys timers exactly: timer `tick` never raises
        // `Timer.Alarm(Tick)`, so re-arming it from that alarm cannot cycle.
        let diags = a.check_rule(&rule("rearm_tick", alarm("Tick"), set("tick")));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn eviction_chain_without_cycle_is_clean() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&lat("A", true)).is_empty());
        assert!(a.check_lat(&lat("B", true)).is_empty());
        assert!(a
            .check_rule(&rule(
                "feed_a",
                RuleEvent::QueryCommit,
                vec![Action::insert("A")],
            ))
            .is_empty());
        // A's evictions feed B; B's evictions go nowhere. Terminating chain.
        let diags = a.check_rule(&rule("spill", evicted("A"), vec![Action::insert("B")]));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unbounded_lat_insert_creates_no_edge() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&lat("Open", false)).is_empty());
        // Unbounded LATs never evict, so the "cycle" cannot actually cascade.
        let diags = a.check_rule(&rule(
            "refill",
            evicted("Open"),
            vec![Action::insert("Open")],
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cascade_depth_bound_follows_the_eviction_chain() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&lat("A", true)).is_empty());
        assert!(a.check_lat(&lat("B", true)).is_empty());
        assert_eq!(a.max_cascade_depth(), 0, "no rules, no cascades");
        assert!(a
            .check_rule(&rule(
                "feed_a",
                RuleEvent::QueryCommit,
                vec![Action::insert("A")],
            ))
            .is_empty());
        // Nothing subscribes to A's evictions yet: the insert raises an
        // event no rule handles, so no *rule chain* extends past depth 0.
        assert_eq!(a.max_cascade_depth(), 0);
        assert!(a
            .check_rule(&rule("spill", evicted("A"), vec![Action::insert("B")],))
            .is_empty());
        assert_eq!(a.max_cascade_depth(), 1, "commit -> eviction(A)");
        assert!(a
            .check_rule(&rule("archive", evicted("B"), mail(),))
            .is_empty());
        assert_eq!(
            a.max_cascade_depth(),
            2,
            "commit -> eviction(A) -> eviction(B)"
        );
    }

    #[test]
    fn cascade_depth_bound_ignores_unbounded_inserts() {
        let mut a = Analyzer::new();
        assert!(a.check_lat(&lat("Open", false)).is_empty());
        assert!(a
            .check_rule(&rule(
                "feed",
                RuleEvent::QueryCommit,
                vec![Action::insert("Open")],
            ))
            .is_empty());
        assert!(a
            .check_rule(&rule("never", evicted("Open"), mail(),))
            .is_empty());
        assert_eq!(a.max_cascade_depth(), 0, "unbounded LATs never evict");
    }

    #[test]
    fn shared_predicate_across_same_event_rules_is_w105() {
        let mut a = Analyzer::new();
        let mut first = rule("one", RuleEvent::QueryCommit, mail());
        first.condition = cond("Query.Duration > 5 AND Query.User = 'admin'");
        assert!(a.check_rule(&first).is_empty());
        let mut second = rule("two", RuleEvent::QueryCommit, mail());
        second.condition = cond("Query.Duration > 5 AND Query.Estimated_Cost > 100");
        let diags = a.check_rule(&second);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::W105);
        assert!(diags[0].message.contains("Query.Duration > 5"));
        assert!(diags[0].message.contains("one"));
        // Warnings do not deny admission.
        assert_eq!(a.rules().len(), 2);
    }

    #[test]
    fn shared_predicate_on_different_events_is_clean() {
        let mut a = Analyzer::new();
        let mut first = rule("one", RuleEvent::QueryCommit, mail());
        first.condition = cond("Query.Duration > 5");
        assert!(a.check_rule(&first).is_empty());
        let mut second = rule("two", RuleEvent::QueryStart, mail());
        second.condition = cond("Query.Duration > 5 AND Query.User = 'x'");
        let diags = a.check_rule(&second);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn duplicate_event_and_condition_is_w102() {
        let mut a = Analyzer::new();
        let mut first = rule("one", RuleEvent::QueryCommit, mail());
        first.condition = cond("Query.Duration > 5");
        assert!(a.check_rule(&first).is_empty());
        let mut second = first.clone();
        second.name = "two".into();
        let diags = a.check_rule(&second);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::W102);
        // Warnings do not deny admission.
        assert_eq!(a.rules().len(), 2);
    }
}
