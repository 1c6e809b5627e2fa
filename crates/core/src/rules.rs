//! ECA rules: events, conditions, and their evaluation semantics (paper §5).
//!
//! A rule is `(Event, Condition, Actions)`. Conditions are ordinary expression
//! trees (parsed by `sqlcm-sql`) over `Class.Attribute` and `Lat.Column`
//! references:
//!
//! * when the condition references a class covered by the event's payload, the
//!   rule's *scope* is the triggering object(s);
//! * classes not covered by the event are iterated — "the engine iterates over
//!   all combinations of objects of the given types currently registered"
//!   (§5.2) — the monitor supplies those live sets;
//! * LAT references bind the row whose grouping columns match the in-context
//!   object; "all references to aggregation table rows are implicitly
//!   ∃-quantified; if a matching row doesn't exist, the condition … is false".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sqlcm_analyze::{expr_refs, Condition, RuleIr};
use sqlcm_common::{Error, Result, Value};
use sqlcm_sql::{parse_expression, Expr, ExprIr};
use sqlcm_telemetry::{Buckets, HistogramSnapshot, ShardedCounter, Stripes};

use crate::actions::Action;
use crate::lat::Lat;
use crate::objects::{ClassName, Object};

/// The events are declared once, in the analyzer crate.
pub use sqlcm_analyze::RuleEvent;

/// Rule-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleStats {
    /// Condition evaluations, the `pruned` ones included: what a linear scan
    /// over every rule would have counted.
    pub evaluations: u64,
    /// Of `evaluations`, those a guard decided without running the
    /// condition (see `EventClock`).
    pub pruned: u64,
    pub fires: u64,
    /// Actions executed (attempted) on behalf of this rule.
    pub actions: u64,
    pub action_errors: u64,
    /// Outcomes the rule's circuit breaker recorded since its window was
    /// last reset (registration, or a successful half-open trial).
    pub breaker_outcomes: u64,
}

/// One dispatcher's share of a rule's books. The first cache line holds
/// every counter an evaluation writes, so an evaluation that does not fire
/// writes that line, and one condition bucket when it is timed, both in its
/// own stripe; the buckets of the two histograms follow.
#[repr(C, align(64))]
#[derive(Default)]
pub(crate) struct RuleStripe {
    /// Evaluations that ran the condition VM.
    /// Its value before an evaluation's increment is that evaluation's index
    /// on the stripe, which the span schedule keys on; `fires` likewise.
    pub evaluations: AtomicU64,
    /// Probed events on which this rule was an in-service candidate.
    pub candidate_events: AtomicU64,
    pub fires: AtomicU64,
    pub executed_actions: AtomicU64,
    pub action_errors: AtomicU64,
    /// Outcomes recorded into the rule's breaker window
    /// (`crate::containment::RuleBreaker`), summed for its position.
    pub outcomes: AtomicU64,
    condition_sum: AtomicU64,
    action_sum: AtomicU64,
    condition: Buckets,
    action: Buckets,
}

// Every counter fits the stripe's first line, and a stripe fits the 1.2 KiB
// a rule may spend per stripe.
const _: () = assert!(std::mem::offset_of!(RuleStripe, action_sum) + 8 <= 64);
const _: () = assert!(std::mem::size_of::<RuleStripe>() <= 1228);

impl RuleStripe {
    /// One timed condition span, in nanoseconds.
    pub fn record_condition(&self, nanos: u64) {
        self.condition.record(&self.condition_sum, nanos);
    }

    /// One timed firing's action span, in nanoseconds.
    pub fn record_action(&self, nanos: u64) {
        self.action.record(&self.action_sum, nanos);
    }
}

/// A rule's books: one [`RuleStripe`] per dispatcher stripe, summed when
/// read — exact once writers are quiescent, like every striped counter.
#[derive(Default)]
pub(crate) struct RuleBooks(Stripes<RuleStripe>);

impl RuleBooks {
    /// The calling thread's stripe.
    pub fn mine(&self) -> &RuleStripe {
        self.0.mine()
    }

    fn sum(&self, field: impl Fn(&RuleStripe) -> &AtomicU64) -> u64 {
        self.0
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Breaker outcomes recorded since the window was last reset.
    pub fn outcomes(&self) -> u64 {
        self.sum(|s| &s.outcomes)
    }

    /// Restart the breaker window's outcome count.
    pub fn reset_outcomes(&self) {
        for s in self.0.iter() {
            s.outcomes.store(0, Ordering::Relaxed);
        }
    }

    /// The condition and action span histograms.
    pub fn latency(&self) -> (HistogramSnapshot, HistogramSnapshot) {
        let mut condition = HistogramSnapshot::default();
        let mut action = HistogramSnapshot::default();
        for s in self.0.iter() {
            s.condition.add_to(&s.condition_sum, &mut condition);
            s.action.add_to(&s.action_sum, &mut action);
        }
        (condition, action)
    }
}

impl std::fmt::Debug for RuleBooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleBooks")
            .field("evaluations", &self.sum(|s| &s.evaluations))
            .field("fires", &self.sum(|s| &s.fires))
            .finish_non_exhaustive()
    }
}

/// A compiled ECA rule.
#[derive(Debug)]
pub struct Rule {
    pub name: String,
    pub event: RuleEvent,
    /// Parsed condition; `None` ⇒ always true.
    pub condition: Option<Expr>,
    pub actions: Vec<Action>,
    enabled: AtomicBool,
    /// Counts and span histograms, striped by dispatcher.
    pub(crate) books: RuleBooks,
    /// The in-service bit and the pruned-evaluation bookkeeping, installed
    /// when a `Sqlcm` registers the rule; `None` on an unregistered rule.
    credit: Option<Credit>,
}

/// The clock of one event class within one monitor: how many of its events
/// had a usable guard-index probe. Such an event evaluates every in-service
/// rule of the class exactly once — the candidates by running them, all
/// others by this tick alone — so dispatch never touches a rule the probe
/// pruned (a rule its LAT guard prunes, once, for the check), and
/// [`Rule::stats`] recovers the rule's pruned evaluations as *ticks while it
/// was creditable − events on which it was a candidate*. Unprobed events
/// (no index, unusable payload) run every rule and do not tick.
#[derive(Debug, Default)]
pub(crate) struct EventClock {
    /// Sharded: concurrent dispatchers of one class never share a line.
    probed: ShardedCounter,
    /// Rules of the class whose credit interval is open — those in service;
    /// changes when a rule is registered, removed, toggled or quarantined.
    creditable: AtomicU64,
}

impl EventClock {
    /// Count one probed event, before any of its rules runs; returns how many
    /// rules the event evaluates (by running or by pruning).
    pub(crate) fn tick(&self) -> u64 {
        self.probed.incr();
        self.creditable.load(Ordering::Relaxed)
    }
}

/// A rule's service state within the monitor that registered it. The rule is
/// *in service* — dispatch runs it, and its class's [`EventClock`] credits it
/// the events that prune it — exactly while it is enabled, registered and not
/// quarantined by its breaker. Both follow from one [`Credit::settle`], so
/// what dispatch pins and what the clock credits are one bit. Touched where
/// one of the three inputs changes, and by readers of the counts; dispatch
/// only loads `in_service`.
#[derive(Debug)]
struct Credit {
    clock: Arc<EventClock>,
    /// Whether the credit interval is open. Written only by `settle`, under
    /// the `span` lock; publishes no other data.
    in_service: AtomicBool,
    span: Mutex<CreditSpan>,
}

#[derive(Debug, Default)]
struct CreditSpan {
    /// Ticks of the closed intervals.
    closed: u64,
    /// Clock reading when the open interval began.
    opened_at: Option<u64>,
    /// Between `Sqlcm::add_rule` and `Sqlcm::remove_rule`.
    registered: bool,
    /// The rule's breaker is open.
    quarantined: bool,
}

impl Credit {
    /// Set the in-service bit from its three inputs and open or close the
    /// credit interval with it. The clock ticks before an event's rules are
    /// pinned, so a rule taken out of service mid-event keeps that event's
    /// tick and one put into service mid-event does not get it — the
    /// per-event pinning of [`Rule::set_enabled`].
    fn settle(&self, span: &mut CreditSpan, enabled: bool) {
        let serve = enabled && span.registered && !span.quarantined;
        self.in_service.store(serve, Ordering::Relaxed);
        match (span.opened_at, serve) {
            (None, true) => {
                span.opened_at = Some(self.clock.probed.get());
                self.clock.creditable.fetch_add(1, Ordering::Relaxed);
            }
            (Some(at), false) => {
                span.closed += self.clock.probed.get().saturating_sub(at);
                span.opened_at = None;
                self.clock.creditable.fetch_sub(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

impl Rule {
    /// Start building a rule. Finish with [`Rule::on`] / [`Rule::when`] /
    /// [`Rule::then`], then register via `Sqlcm::add_rule`.
    pub fn new(name: impl Into<String>) -> Rule {
        Rule {
            name: name.into(),
            event: RuleEvent::QueryCommit,
            condition: None,
            actions: Vec::new(),
            enabled: AtomicBool::new(true),
            books: RuleBooks::default(),
            credit: None,
        }
    }

    /// Set the triggering event (the E of ECA).
    pub fn on(mut self, event: RuleEvent) -> Rule {
        self.event = event;
        self
    }

    /// Set the condition from text, e.g.
    /// `"Query.Duration > 5 * Duration_LAT.Avg_Duration"`. Panics on syntax
    /// errors (rules are authored, not data-driven; prefer failing loudly).
    pub fn when(mut self, condition: &str) -> Rule {
        self.condition = Some(parse_expression(condition).expect("rule condition parses"));
        self
    }

    /// Append an action (the A of ECA); actions run in order (§5.3).
    pub fn then(mut self, action: Action) -> Rule {
        self.actions.push(action);
        self
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Rules can be switched on/off dynamically (§3: "turning off/on rules
    /// based on time of day").
    ///
    /// **Mid-dispatch semantics**: enabled-ness is *snapshotted once per event*,
    /// before any rule for that event runs. A rule disabled while an event is
    /// being dispatched — including by an earlier rule's action in the same
    /// event — still fires for that event; the change takes effect from the
    /// next event on. This keeps "for any given event, all applicable rules
    /// are triggered" deterministic: the applicable set is fixed at event
    /// arrival and cannot be mutated out from under the dispatch loop.
    ///
    /// `Sqlcm::set_rule_enabled` is this call by rule name. Neither rebuilds
    /// the dispatch plan: a disabled rule stays in it, out of service.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
        self.resettle(|_| 0);
    }

    /// Change the service state under its lock and settle it — the flag is
    /// re-read there, so of two racing [`Rule::set_enabled`] calls the later
    /// settle sees the later store. Returns `change`'s result; 0 on a rule
    /// no `Sqlcm` registered, which has no service state.
    fn resettle(&self, change: impl FnOnce(&mut CreditSpan) -> i64) -> i64 {
        let Some(credit) = &self.credit else {
            return 0;
        };
        let mut span = credit.span.lock();
        let out = change(&mut span);
        credit.settle(&mut span, self.is_enabled());
        out
    }

    /// Count this rule's pruned evaluations on `clock` once it is registered.
    pub(crate) fn attach_clock(&mut self, clock: Arc<EventClock>) {
        self.credit = Some(Credit {
            clock,
            in_service: AtomicBool::new(false),
            span: Mutex::new(CreditSpan::default()),
        });
    }

    /// The clock [`Rule::attach_clock`] installed.
    pub(crate) fn clock(&self) -> Option<&Arc<EventClock>> {
        self.credit.as_ref().map(|c| &c.clock)
    }

    /// Whether dispatch runs the rule: enabled, registered and not
    /// quarantined. Read once per candidate per event, when the event pins
    /// the rules it will run.
    pub(crate) fn in_service(&self) -> bool {
        self.credit
            .as_ref()
            .is_some_and(|c| c.in_service.load(Ordering::Relaxed))
    }

    /// The rule enters (`true`) or leaves (`false`) the registry, not
    /// quarantined either way. Returns the change in the number of
    /// quarantined rules: −1 when the removal lifted a quarantine, else 0.
    pub(crate) fn set_registered(&self, on: bool) -> i64 {
        self.resettle(|span| {
            span.registered = on;
            -i64::from(std::mem::take(&mut span.quarantined))
        })
    }

    /// Quarantine the rule iff `breaker_open()` — asked under the span lock,
    /// so of two racing breaker transitions the later one decides — and only
    /// while registered. Returns the change in the number of quarantined
    /// rules (−1, 0 or 1).
    pub(crate) fn set_quarantined(&self, breaker_open: impl FnOnce() -> bool) -> i64 {
        self.resettle(|span| {
            let was = span.quarantined;
            span.quarantined = span.registered && breaker_open();
            i64::from(span.quarantined) - i64::from(was)
        })
    }

    /// Exact on a quiescent read; under concurrent dispatch no stricter than
    /// the relaxed counters it is derived from.
    pub fn stats(&self) -> RuleStats {
        let books = &self.books;
        let evaluated = books.sum(|s| &s.evaluations);
        let pruned = self.credit.as_ref().map_or(0, |credit| {
            let span = credit.span.lock();
            let open = span
                .opened_at
                .map_or(0, |at| credit.clock.probed.get().saturating_sub(at));
            (span.closed + open).saturating_sub(books.sum(|s| &s.candidate_events))
        });
        RuleStats {
            evaluations: evaluated + pruned,
            pruned,
            fires: books.sum(|s| &s.fires),
            actions: books.sum(|s| &s.executed_actions),
            action_errors: books.sum(|s| &s.action_errors),
            breaker_outcomes: books.outcomes(),
        }
    }

    /// The rule as the static analyzer reads it, with its condition lowered
    /// and folded — once per rule: the analyzer's checks, the effect
    /// summary, the guard verdict and the compiled condition all read it.
    pub fn ir(&self) -> RuleIr {
        RuleIr {
            name: self.name.clone(),
            event: self.event.clone(),
            condition: self.condition.as_ref().map(Condition::lower),
            actions: self.actions.clone(),
        }
    }

    /// All qualifiers referenced by the condition, split into monitored classes
    /// and (assumed) LAT names as [`sqlcm_analyze::expr_refs`] splits the
    /// lowered condition's reference pool. Unqualified columns are rejected.
    pub fn condition_refs(&self) -> Result<(Vec<ClassName>, Vec<String>)> {
        let Some(c) = &self.condition else {
            return Ok((Vec::new(), Vec::new()));
        };
        let ir = ExprIr::lower(c);
        if let Some((_, name)) = ir.refs.iter().find(|(q, _)| q.is_none()) {
            return Err(Error::Monitor(format!(
                "unqualified column {name} in condition of rule {}",
                self.name
            )));
        }
        Ok(expr_refs(&ir))
    }
}

/// One LAT bound for a single condition evaluation: the name it was referenced
/// by, the LAT handle, and the row the implicit ∃ bound (`None` ⇒ no matching
/// row ⇒ the condition is false).
///
/// Bindings are *borrowed views*: the dispatcher owns the fetched rows (either
/// in a per-event hoist slot shared by every rule on the event, or in a
/// per-combination scratch buffer) and hands rules a slice of these `Copy`
/// views, so binding construction never allocates.
#[derive(Clone, Copy)]
pub struct LatBinding<'a> {
    /// Lowercased LAT name, as referenced by the condition.
    pub name: &'a str,
    pub lat: &'a Lat,
    pub row: Option<&'a [Value]>,
}

/// Bound evaluation context: in-scope objects plus pre-bound LAT rows.
///
/// `lat_rows` is ordered like the owning rule's `condition_refs()` LAT list, so
/// compiled conditions address bindings by position
/// ([`crate::ir::Resolved::LatCol`]); the trace explainer and template
/// substitution find them by name.
pub struct EvalContext<'a> {
    pub objects: &'a [Object],
    pub lat_rows: &'a [LatBinding<'a>],
}

impl EvalContext<'_> {
    fn object(&self, class: &ClassName) -> Option<&Object> {
        self.objects.iter().find(|o| o.class == *class)
    }

    /// Resolve `Qualifier.Name`. `pub(crate)` so the trace explainer can
    /// re-resolve the condition's references when a sampled evaluation needs
    /// its "why it fired" line.
    pub(crate) fn resolve(&self, qualifier: &str, name: &str) -> Result<Value> {
        if let Some(class) = ClassName::parse(qualifier) {
            if let Some(obj) = self.object(&class) {
                return obj.get(name).cloned().ok_or_else(|| {
                    Error::Monitor(format!("class {class} has no attribute {name}"))
                });
            }
            return Err(Error::Monitor(format!(
                "class {qualifier} is not in scope for this event"
            )));
        }
        // LAT reference.
        match self
            .lat_rows
            .iter()
            .find(|b| b.name.eq_ignore_ascii_case(qualifier))
        {
            Some(LatBinding {
                lat,
                row: Some(row),
                ..
            }) => {
                let idx = lat.column_index(name).ok_or_else(|| {
                    Error::Monitor(format!("LAT {qualifier} has no column {name}"))
                })?;
                Ok(row[idx].clone())
            }
            Some(LatBinding { row: None, .. }) => {
                // No matching row: signalled via a typed error the evaluator
                // maps to FALSE at the condition root (implicit ∃).
                Err(Error::NoLatRow)
            }
            None => Err(Error::Monitor(format!("unknown LAT {qualifier}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condition_refs_classification() {
        let r = Rule::new("r")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration > 5 * Duration_LAT.Avg_Duration AND Blocked.Wait_Time > 1");
        let (classes, lats) = r.condition_refs().unwrap();
        assert!(classes.contains(&ClassName::Query));
        assert!(classes.contains(&ClassName::Blocked));
        assert_eq!(lats, vec!["Duration_LAT"]);
        let r = Rule::new("r").when("orphan > 1");
        let err = r.condition_refs().unwrap_err().to_string();
        assert!(
            err.contains("unqualified column orphan in condition of rule r"),
            "{err}"
        );
    }

    #[test]
    fn enable_disable() {
        let r = Rule::new("r");
        assert!(r.is_enabled());
        r.set_enabled(false);
        assert!(!r.is_enabled());
    }
}
