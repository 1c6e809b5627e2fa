//! Static analysis of SQLCM ECA rules and LAT specifications.
//!
//! The monitoring framework of the paper deliberately keeps its rule language
//! small so that evaluation is cheap (§2.1). The flip side is that a rule
//! that is *well-formed* can still be *useless* — referencing a class the
//! event never supplies, comparing a COUNT with a string, or probing a LAT
//! whose grouping key can never be built from the objects in scope. At
//! runtime those rules silently never fire (missing row ⇒ false, missing
//! class ⇒ skip), which is exactly the kind of bug a monitoring system should
//! not have: the alarm that cannot ring.
//!
//! This crate analyzes rules **at registration time** against a typed schema
//! universe ([`schema::SchemaUniverse`]) and reports [`Diagnostic`]s with
//! stable codes:
//!
//! | code | severity | check |
//! |------|----------|-------|
//! | E001 | error    | unknown LAT / attribute / column reference ([`typeck`]) |
//! | E002 | error    | condition type mismatch, or an expression rule conditions do not support ([`typeck`]) |
//! | E003 | error    | LAT grouping columns unmatched in scope — condition statically false ([`joinability`]) |
//! | E004 | error    | cascade cycle through eviction/timer events ([`depgraph`]) |
//! | E006 | error    | condition provably unsatisfiable under attribute intervals ([`intervals`]) |
//! | W101 | warning  | dead rule: class never in scope ([`joinability`]) |
//! | W102 | warning  | duplicate rule: same event + identical condition ([`depgraph`]) |
//! | W103 | warning  | condition provably tautological ([`intervals`]) |
//! | W104 | warning  | division by a possibly-zero/NULL aggregate ([`intervals`]) |
//! | W105 | warning  | identical predicate duplicated across same-event rules ([`depgraph`]) |
//! | W201 | warning  | estimated per-firing cost above threshold ([`cost`]) |
//! | W203 | warning  | condition reads a LAT column no rule's Insert feeds ([`effects`]) |
//! | W204 | warning  | unconditional external action on a hot event class ([`cost`]) |
//! | W205 | warning  | hot-event payload-only condition the dispatch guard index cannot use ([`cost`], verdict from [`guard`]) |
//! | W301 | warning  | adjacent same-event rules are order-sensitive ([`confluence`]) |
//! | W302 | warning  | one event can trigger more evaluations than the cascade threshold ([`confluence`]) |
//!
//! Beyond lints, the crate owns what a rule *is*, and `sqlcm-core` consumes
//! that one artifact instead of re-deriving it: the rule language itself
//! ([`RuleEvent`], [`Action`], [`ClassName`] and the [`LatSpec`] family, which
//! core re-exports and builds its runtime rules and tables from), the
//! monitored-class attribute tables ([`schema`]), the condition's lowered and
//! folded expression IR ([`Condition`], built once per rule), the dispatch
//! guard verdict ([`guard::rule_guard`] — what the runtime's guard index
//! installs is what W205 reports on).
//!
//! The crate is deliberately independent of `sqlcm-core` (core calls *into*
//! the analyzer).

pub mod admitted;
pub mod confluence;
pub mod cost;
pub mod depgraph;
pub mod diagnostics;
pub mod effects;
pub mod guard;
pub mod intervals;
pub mod joinability;
pub mod lat;
pub mod rule;
pub mod schema;
pub mod typeck;

pub use admitted::{holds, Admitted};
pub use cost::DEFAULT_COST_THRESHOLD;
pub use diagnostics::{has_errors, Code, Diagnostic, Severity};
pub use effects::{rule_effects, LatWriteEffect, RuleEffects};
pub use guard::{rule_guard, Bound, Guard, GuardKind, Guards, LatGuard, Residual};
pub use lat::{AggColumn, AgingSpec, AttrRef, GroupColumn, LatAggFunc, LatSpec};
pub use rule::{Action, RuleEvent};
pub use schema::{ClassName, ClassSchema, LatColumn, LatSchema, SchemaUniverse};

/// Default for [`Analyzer::cascade_threshold`]: the worst-case number of rule
/// evaluations one event may transitively trigger before W302 fires.
pub const DEFAULT_CASCADE_THRESHOLD: usize = 64;

use admitted::RuleIndex;
use sqlcm_sql::{Expr, ExprIr};
use std::sync::Arc;

// ------------------------------------------------------------ rule artifact

/// A rule condition in the shared flat IR, lowered and constant-folded
/// exactly once. Every analyzer pass and the runtime's condition compiler
/// read these two arenas; nothing downstream touches the AST again.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    lowered: ExprIr,
    folded: ExprIr,
}

impl Condition {
    pub fn lower(expr: &Expr) -> Condition {
        let lowered = ExprIr::lower(expr);
        let folded = lowered.fold();
        Condition { lowered, folded }
    }

    /// The condition as written — what type checking and diagnostic spans
    /// are reported against.
    pub fn lowered(&self) -> &ExprIr {
        &self.lowered
    }

    /// The condition after constant folding and guarded boolean
    /// simplification — what the runtime compiles and the guard index sees.
    /// Shares [`Condition::lowered`]'s reference pool verbatim.
    pub fn folded(&self) -> &ExprIr {
        &self.folded
    }
}

/// An ECA rule as the analyzer reads it: its own name, event and actions,
/// and what analysis adds — the condition lowered and folded once.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleIr {
    pub name: String,
    pub event: RuleEvent,
    pub condition: Option<Condition>,
    pub actions: Vec<Action>,
}

impl RuleIr {
    /// The rule's condition references, split as [`expr_refs`] splits them
    /// (both empty for an unconditional rule).
    pub fn refs(&self) -> (Vec<ClassName>, Vec<String>) {
        match &self.condition {
            Some(c) => expr_refs(c.lowered()),
            None => (Vec::new(), Vec::new()),
        }
    }
}

/// Qualifiers referenced by a condition, split the way the runtime splits
/// them: a qualifier naming a monitored class resolves to that class;
/// anything else is assumed to be a LAT name (returned as written,
/// deduplicated case-insensitively).
///
/// Reads the lowered IR's reference pool directly — the pool already holds
/// every qualified column exactly once, in first-appearance order, so no
/// tree walk is needed.
pub fn expr_refs(ir: &ExprIr) -> (Vec<ClassName>, Vec<String>) {
    let mut classes: Vec<ClassName> = Vec::new();
    let mut lats: Vec<String> = Vec::new();
    for (qualifier, _) in &ir.refs {
        let Some(q) = qualifier else { continue };
        match ClassName::parse(q) {
            Some(c) => {
                if !classes.contains(&c) {
                    classes.push(c);
                }
            }
            None => {
                if !lats.iter().any(|l| l.eq_ignore_ascii_case(q)) {
                    lats.push(q.clone());
                }
            }
        }
    }
    (classes, lats)
}

// ------------------------------------------------------------ analyzer

/// Stateful analyzer: a schema universe plus the rules admitted so far,
/// indexed for the cross-rule lints ([`admitted`]).
///
/// Feed it LATs ([`check_lat`](Analyzer::check_lat)) and rules
/// ([`check_rule`](Analyzer::check_rule)) in registration order; each call
/// returns the diagnostics for that item, and items are only admitted into
/// the analyzer's state when they produced no error-severity diagnostics
/// (the same rule a registration gate that denies on errors follows).
#[derive(Debug, Clone)]
pub struct Analyzer {
    universe: SchemaUniverse,
    admitted: RuleIndex,
    /// Worst-case transitive evaluations per event above which
    /// [`Code::W302`] fires.
    pub cascade_threshold: usize,
}

impl Default for Analyzer {
    fn default() -> Analyzer {
        Analyzer::new()
    }
}

impl Analyzer {
    pub fn new() -> Analyzer {
        Analyzer {
            universe: SchemaUniverse::builtin(),
            admitted: RuleIndex::default(),
            cascade_threshold: DEFAULT_CASCADE_THRESHOLD,
        }
    }

    pub fn universe(&self) -> &SchemaUniverse {
        &self.universe
    }

    /// Rules admitted so far.
    pub fn rules(&self) -> &[Arc<RuleIr>] {
        self.admitted.rules()
    }

    /// Check a LAT spec; admits its schema when clean.
    pub fn check_lat(&mut self, lat: &LatSpec) -> Vec<Diagnostic> {
        self.universe.register_lat(lat)
    }

    /// Take a LAT's schema back out (case-insensitive); false when none of
    /// that name was admitted.
    pub fn remove_lat(&mut self, name: &str) -> bool {
        self.universe.remove_lat(name)
    }

    /// Admit a rule without checking — used to seed the analyzer with rules
    /// that were already validated at their own registration time.
    pub fn seed_rule(&mut self, rule: Arc<RuleIr>) {
        self.admitted.insert(rule);
    }

    /// Take an admitted rule — the `Arc` it was admitted as — back out;
    /// false when it is not admitted. The analyzer is then the one the
    /// remaining rules, admitted in their order, would have made.
    pub fn remove_rule(&mut self, rule: &Arc<RuleIr>) -> bool {
        self.admitted.remove(rule)
    }

    /// Run every check on one rule against the current universe and the
    /// rules admitted so far. Pure: does not admit the rule.
    pub fn diagnose(&self, rule: &RuleIr) -> Vec<Diagnostic> {
        self.diagnose_with(&self.admitted, rule)
    }

    /// [`diagnose`](Analyzer::diagnose) with the cross-rule lints asking
    /// `admitted` instead of this analyzer's own rules — how a linear scan
    /// over the same rules is checked against the indexes.
    pub fn diagnose_with(&self, admitted: &impl Admitted, rule: &RuleIr) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        if let Some(cond) = &rule.condition {
            typeck::check_condition(&self.universe, &rule.name, cond.lowered(), &mut diags);
            // Interval reasoning assumes well-typed operands; on a type error
            // the E002 already explains everything the intervals would.
            if !has_errors(&diags) {
                intervals::check_condition(&self.universe, &rule.name, cond, &mut diags);
            }
        }
        self.check_action_targets(rule, &mut diags);
        joinability::check_rule(&self.universe, rule, &mut diags);
        depgraph::check_duplicates(admitted, rule, &mut diags);
        depgraph::check_shared_predicates(admitted, rule, &mut diags);
        depgraph::check_cascades(&self.universe, admitted, rule, &mut diags);
        cost::check_rule(&self.universe, rule, &mut diags);
        cost::check_unconditional_external(rule, &mut diags);
        // Guard/effect/confluence lints describe how the rule will behave
        // once admitted; a rule an error already denies never runs, so
        // piling style warnings on top of the denial is noise.
        if !has_errors(&diags) {
            cost::check_unindexable(rule, &mut diags);
            let effects = rule_effects(&self.universe, rule);
            effects::check_unfed_reads(&self.universe, admitted, rule, &effects, &mut diags);
            confluence::check_order(&self.universe, admitted, rule, &effects, &mut diags);
            confluence::check_amplification(
                &self.universe,
                admitted,
                rule,
                self.cascade_threshold,
                &mut diags,
            );
        }
        diags
    }

    /// [`diagnose`](Analyzer::diagnose) the rule and admit it when no error
    /// was found.
    pub fn check_rule(&mut self, rule: &RuleIr) -> Vec<Diagnostic> {
        let diags = self.diagnose(rule);
        if !has_errors(&diags) {
            self.admitted.insert(Arc::new(rule.clone()));
        }
        diags
    }

    /// Longest cascade chain the admitted ruleset can produce, in cascaded
    /// events (root events are depth 0). Runtime causal traces record the
    /// same measure, so their observed depths must stay within this bound —
    /// the trace-vs-analyzer cross-check. See
    /// [`depgraph::max_cascade_depth`].
    pub fn max_cascade_depth(&self) -> usize {
        depgraph::max_cascade_depth(&self.universe, self.rules())
    }

    /// E001 for actions that target a LAT the universe does not know.
    fn check_action_targets(&self, rule: &RuleIr, diags: &mut Vec<Diagnostic>) {
        for action in &rule.actions {
            if let Some(lat) = action.lat_refs() {
                if self.universe.lat(lat).is_none() {
                    diags.push(
                        Diagnostic::new(
                            Code::E001,
                            &rule.name,
                            format!("action targets unknown LAT `{lat}`"),
                        )
                        .with_span(action.to_string())
                        .with_help("define the LAT before registering rules that use it"),
                    );
                }
            }
        }
    }

    /// Lint a whole ruleset in registration order: every LAT first, then
    /// every rule. Returns all diagnostics.
    pub fn check_ruleset(lats: &[LatSpec], rules: &[RuleIr]) -> Vec<Diagnostic> {
        let mut analyzer = Analyzer::new();
        let mut diags = Vec::new();
        for lat in lats {
            diags.extend(analyzer.check_lat(lat));
        }
        for rule in rules {
            diags.extend(analyzer.check_rule(rule));
        }
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(cond: &str) -> RuleIr {
        RuleIr {
            name: "r".into(),
            event: RuleEvent::QueryCommit,
            condition: Some(Condition::lower(
                &sqlcm_sql::parse_expression(cond).unwrap(),
            )),
            actions: vec![Action::send_mail("dba", "slow")],
        }
    }

    #[test]
    fn clean_rule_is_admitted() {
        let mut a = Analyzer::new();
        let diags = a.check_rule(&rule("Query.Duration > 1.5"));
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(a.rules().len(), 1);
    }

    #[test]
    fn erroneous_rule_is_not_admitted() {
        let mut a = Analyzer::new();
        let diags = a.check_rule(&rule("Nope_LAT.x > 1"));
        assert!(has_errors(&diags));
        assert!(a.rules().is_empty());
    }
}
