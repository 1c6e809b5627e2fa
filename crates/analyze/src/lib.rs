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
//! | W205 | warning  | hot-event condition the dispatch guard index cannot use ([`cost`], verdict from [`guard`]) |
//! | W301 | warning  | adjacent same-event rules are order-sensitive ([`confluence`]) |
//! | W302 | warning  | one event can trigger more evaluations than the cascade threshold ([`confluence`]) |
//!
//! Beyond lints, the crate owns what a rule *is*, and `sqlcm-core` consumes
//! that one artifact instead of re-deriving it: the monitored-class attribute
//! tables ([`schema`]), the condition's lowered and folded expression IR
//! ([`Condition`], built once per rule), the dispatch guard verdict
//! ([`guard::rule_guard`] — what the runtime's guard index installs is what
//! W205 reports on), and the [`effects`] pass's [`RuleEffects`] summaries
//! (column-level read/write sets the dispatch-plan compiler uses to
//! invalidate hoisted LAT row snapshots only when an interposed rule's write
//! set actually intersects the readers' read set).
//!
//! The crate is deliberately independent of `sqlcm-core` (core calls *into*
//! the analyzer); rules and LAT specs arrive as a small IR ([`RuleIr`],
//! [`LatIr`]) that core's `analysis` module builds from its own types.

pub mod confluence;
pub mod cost;
pub mod depgraph;
pub mod diagnostics;
pub mod effects;
pub mod guard;
pub mod intervals;
pub mod joinability;
pub mod schema;
pub mod typeck;

pub use cost::DEFAULT_COST_THRESHOLD;
pub use diagnostics::{has_errors, Code, Diagnostic, Severity};
pub use effects::{rule_effects, LatWriteEffect, RuleEffects};
pub use guard::{rule_guard, Bound, Guard, GuardKind, Residual};
pub use schema::{ClassSchema, LatColumn, LatSchema, SchemaUniverse};

/// Default for [`Analyzer::cascade_threshold`]: the worst-case number of rule
/// evaluations one event may transitively trigger before W302 fires.
pub const DEFAULT_CASCADE_THRESHOLD: usize = 64;

use sqlcm_sql::{Expr, ExprIr};
use std::fmt;
use std::sync::Arc;

// ------------------------------------------------------------ IR

/// A `Class.Attribute` reference in a LAT spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrIr {
    pub class: String,
    pub attr: String,
}

/// Aggregation functions available in LATs (paper §4.3: "in addition to the
/// standard aggregation functions COUNT, SUM, and AVG, SQLCM also supports …
/// STDEV and FIRST and LAST"). The one definition: `sqlcm-core` re-exports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatAggFunc {
    Count,
    Sum,
    Avg,
    StdDev,
    Min,
    Max,
    First,
    Last,
}

/// One grouping column of a LAT spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupColumnIr {
    pub source: AttrIr,
    pub alias: String,
}

/// One aggregate column of a LAT spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggColumnIr {
    pub func: LatAggFunc,
    /// `None` only for `COUNT(*)`.
    pub source: Option<AttrIr>,
    pub alias: String,
    /// True when the aggregate has an aging (moving-window) spec.
    pub aging: bool,
}

/// Analyzer view of a LAT specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatIr {
    pub name: String,
    pub group_by: Vec<GroupColumnIr>,
    pub aggregates: Vec<AggColumnIr>,
    /// True when the LAT has a size bound and can therefore evict rows (and
    /// raise `LatEviction` events).
    pub bounded: bool,
}

/// Analyzer view of a rule's triggering event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventIr {
    /// Event family, e.g. `"QueryCommit"`, `"TimerAlarm"`, `"LatEviction"`.
    pub kind: String,
    /// Timer or LAT name for the parameterized events.
    pub arg: Option<String>,
    /// Class names guaranteed present in the event payload.
    pub payload: Vec<String>,
}

impl EventIr {
    /// True when this event is the `kind(arg)` instance (names matched
    /// case-insensitively, as LAT names are at runtime).
    pub fn is(&self, kind: &str, arg: &str) -> bool {
        self.kind == kind
            && self
                .arg
                .as_deref()
                .is_some_and(|a| a.eq_ignore_ascii_case(arg))
    }

    /// Same event instance as `other`?
    pub fn same_as(&self, other: &EventIr) -> bool {
        self.kind == other.kind
            && match (&self.arg, &other.arg) {
                (None, None) => true,
                (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                _ => false,
            }
    }
}

impl fmt::Display for EventIr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(a) => write!(f, "{}({a})", self.kind),
            None => f.write_str(&self.kind),
        }
    }
}

/// Analyzer view of a rule action — just the parts the checks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionIr {
    Insert { lat: String },
    Reset { lat: String },
    PersistLat { lat: String, table: String },
    PersistObject { class: String, table: String },
    SetTimer { timer: String },
    Cancel { class: String },
    SendMail,
    RunExternal,
}

impl ActionIr {
    /// The LAT this action targets, if any.
    pub fn lat(&self) -> Option<&str> {
        match self {
            ActionIr::Insert { lat }
            | ActionIr::Reset { lat }
            | ActionIr::PersistLat { lat, .. } => Some(lat),
            _ => None,
        }
    }

    fn describe(&self) -> String {
        match self {
            ActionIr::Insert { lat } => format!("Insert({lat})"),
            ActionIr::Reset { lat } => format!("Reset({lat})"),
            ActionIr::PersistLat { lat, table } => format!("PersistLat({lat} -> {table})"),
            ActionIr::PersistObject { class, table } => {
                format!("PersistObject({class} -> {table})")
            }
            ActionIr::SetTimer { timer } => format!("SetTimer({timer})"),
            ActionIr::Cancel { class } => format!("Cancel({class})"),
            ActionIr::SendMail => "SendMail".into(),
            ActionIr::RunExternal => "RunExternal".into(),
        }
    }
}

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

/// Analyzer view of an ECA rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleIr {
    pub name: String,
    pub event: EventIr,
    pub condition: Option<Condition>,
    pub actions: Vec<ActionIr>,
}

impl RuleIr {
    /// The rule's condition references, split as [`expr_refs`] splits them
    /// (both empty for an unconditional rule).
    pub(crate) fn refs(&self, universe: &SchemaUniverse) -> (Vec<String>, Vec<String>) {
        match &self.condition {
            Some(c) => expr_refs(universe, c.lowered()),
            None => (Vec::new(), Vec::new()),
        }
    }
}

// ------------------------------------------------------ reference gathering

/// Qualifiers referenced by a condition, split the way the runtime splits
/// them: a qualifier naming a monitored class resolves to that class
/// (canonical spelling); anything else is assumed to be a LAT name (returned
/// as written, deduplicated case-insensitively).
///
/// Reads the lowered IR's reference pool directly — the pool already holds
/// every qualified column exactly once, in first-appearance order, so no
/// tree walk is needed.
pub(crate) fn expr_refs(universe: &SchemaUniverse, ir: &ExprIr) -> (Vec<String>, Vec<String>) {
    let mut classes: Vec<String> = Vec::new();
    let mut lats: Vec<String> = Vec::new();
    for (qualifier, _) in &ir.refs {
        let Some(q) = qualifier else { continue };
        match universe.class(q) {
            Some(c) => {
                if !classes.iter().any(|x| x == &c.name) {
                    classes.push(c.name.clone());
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

/// Stateful analyzer: a schema universe plus the rules admitted so far.
///
/// Feed it LATs ([`check_lat`](Analyzer::check_lat)) and rules
/// ([`check_rule`](Analyzer::check_rule)) in registration order; each call
/// returns the diagnostics for that item, and items are only admitted into
/// the analyzer's state when they produced no error-severity diagnostics
/// (the same rule a registration gate that denies on errors follows).
#[derive(Debug, Clone)]
pub struct Analyzer {
    universe: SchemaUniverse,
    rules: Vec<Arc<RuleIr>>,
    /// Per-firing cost above which [`Code::W201`] fires.
    pub cost_threshold: u32,
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
            rules: Vec::new(),
            cost_threshold: DEFAULT_COST_THRESHOLD,
            cascade_threshold: DEFAULT_CASCADE_THRESHOLD,
        }
    }

    pub fn universe(&self) -> &SchemaUniverse {
        &self.universe
    }

    /// Rules admitted so far.
    pub fn rules(&self) -> &[Arc<RuleIr>] {
        &self.rules
    }

    /// Check a LAT spec; admits its schema when clean.
    pub fn check_lat(&mut self, lat: &LatIr) -> Vec<Diagnostic> {
        self.universe.register_lat(lat)
    }

    /// Admit a rule without checking — used to seed the analyzer with rules
    /// that were already validated at their own registration time.
    pub fn seed_rule(&mut self, rule: Arc<RuleIr>) {
        self.rules.push(rule);
    }

    /// Run every check on one rule against the current universe and the
    /// rules admitted so far. Pure: does not admit the rule.
    pub fn diagnose(&self, rule: &RuleIr) -> Vec<Diagnostic> {
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
        depgraph::check_duplicates(&self.rules, rule, &mut diags);
        depgraph::check_shared_predicates(&self.rules, rule, &mut diags);
        depgraph::check_cascades(&self.universe, &self.rules, rule, &mut diags);
        cost::check_rule(&self.universe, rule, self.cost_threshold, &mut diags);
        cost::check_unconditional_external(rule, &mut diags);
        // Guard/effect/confluence lints describe how the rule will behave
        // once admitted; a rule an error already denies never runs, so
        // piling style warnings on top of the denial is noise.
        if !has_errors(&diags) {
            cost::check_unindexable(&self.universe, rule, &mut diags);
            effects::check_unfed_reads(&self.universe, &self.rules, rule, &mut diags);
            confluence::check_order(&self.universe, &self.rules, rule, &mut diags);
            confluence::check_amplification(
                &self.universe,
                &self.rules,
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
            self.rules.push(Arc::new(rule.clone()));
        }
        diags
    }

    /// Column-level read/write summary of `rule` against the current
    /// universe. Pure: does not admit the rule or touch analyzer state.
    pub fn effects_of(&self, rule: &RuleIr) -> RuleEffects {
        effects::rule_effects(&self.universe, rule)
    }

    /// Longest cascade chain the admitted ruleset can produce, in cascaded
    /// events (root events are depth 0). Runtime causal traces record the
    /// same measure, so their observed depths must stay within this bound —
    /// the trace-vs-analyzer cross-check. See
    /// [`depgraph::max_cascade_depth`].
    pub fn max_cascade_depth(&self) -> usize {
        depgraph::max_cascade_depth(&self.universe, &self.rules)
    }

    /// E001 for actions that target a LAT the universe does not know.
    fn check_action_targets(&self, rule: &RuleIr, diags: &mut Vec<Diagnostic>) {
        for action in &rule.actions {
            if let Some(lat) = action.lat() {
                if self.universe.lat(lat).is_none() {
                    diags.push(
                        Diagnostic::new(
                            Code::E001,
                            &rule.name,
                            format!("action targets unknown LAT `{lat}`"),
                        )
                        .with_span(action.describe())
                        .with_help("define the LAT before registering rules that use it"),
                    );
                }
            }
        }
    }

    /// Lint a whole ruleset in registration order: every LAT first, then
    /// every rule. Returns all diagnostics.
    pub fn check_ruleset(lats: &[LatIr], rules: &[RuleIr]) -> Vec<Diagnostic> {
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

    #[test]
    fn clean_rule_is_admitted() {
        let mut a = Analyzer::new();
        let rule = RuleIr {
            name: "r".into(),
            event: EventIr {
                kind: "QueryCommit".into(),
                arg: None,
                payload: vec!["Query".into()],
            },
            condition: Some(Condition::lower(
                &sqlcm_sql::parse_expression("Query.Duration > 1.5").unwrap(),
            )),
            actions: vec![ActionIr::SendMail],
        };
        let diags = a.check_rule(&rule);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(a.rules().len(), 1);
    }

    #[test]
    fn erroneous_rule_is_not_admitted() {
        let mut a = Analyzer::new();
        let rule = RuleIr {
            name: "r".into(),
            event: EventIr {
                kind: "QueryCommit".into(),
                arg: None,
                payload: vec!["Query".into()],
            },
            condition: Some(Condition::lower(
                &sqlcm_sql::parse_expression("Nope_LAT.x > 1").unwrap(),
            )),
            actions: vec![],
        };
        let diags = a.check_rule(&rule);
        assert!(has_errors(&diags));
        assert!(a.rules().is_empty());
    }
}
