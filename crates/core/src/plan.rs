//! Compiled dispatch plans: the immutable, published data structure the
//! event hot path runs on.
//!
//! The paper's viability argument (§2.1, §6.2) is that probes are near-free
//! when idle and cheap when active. A mutable registry guarded by RwLocks
//! contradicts that: every event would pay lock acquisitions and index-map
//! clones whether or not anything subscribes. Instead, the plan is a function
//! of the registry: each of its four mutations (`add_rule`/`remove_rule`/
//! `define_lat`/`drop_lat`) publishes a new `DispatchPlan` through the
//! `PlanCell`, and nothing else does — a rule that is disabled or
//! quarantined stays in its plan, out of service (`Rule::in_service`). While
//! the plan is unchanged, dispatch pays one atomic load and a compare per
//! event — no locks, no clones:
//!
//! * `wants()` / `on_event` consult a packed [`ProbeMask`] interest bit;
//! * per event the plan holds the precompiled rule slice in registration
//!   order, with the LAT handles its conditions and actions resolved;
//! * rules on the same event whose conditions read the same LAT share one
//!   **hoist slot** (`HoistSlot`): the row snapshot is fetched once per
//!   event and reused across their condition evaluations — the paper's
//!   grouping idea applied to rule evaluation itself.
//!
//! **The event class is the unit of planning.** Hoist slots, invalidations
//! and the guard index never cross a class, so an `EventPlan` is derived
//! from its class's rules alone (`EventPlan::derive`) and
//! `DispatchPlan::build` — the definition, kept under `#[cfg(test)]` as the
//! differential oracle — is that, for every class. Attach installs the
//! empty plan, and a mutation publishes its predecessor with only the
//! classes it touches replaced (`DispatchPlan::next`); the others are the
//! same `Arc<EventPlan>`. A rule added to a class is planned and emitted
//! alone and *appended* (`EventPlan::appended`) when nothing about the
//! class's existing rules can change — the two plans share them by the
//! block (`Rules`), each hoist slot's writer positions likewise, and the
//! guard index's partitions and entries the rule does not land in
//! (`crate::shared`) — and the class is derived again otherwise.
//!
//! Plans are owned by plain `Arc`s: the cell holds the current one, every
//! thread that dispatches caches the one it last used, and a superseded plan
//! — and each class, block of rules and partition that no newer plan shares
//! — is freed when the last of those lets go of it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sqlcm_analyze::{Action, Guard, LatGuard, RuleIr};
use sqlcm_common::{ProbeKind, ProbeMask};
use sqlcm_telemetry::Label;

use crate::containment::RuleBreaker;
use crate::guard::{GuardIndex, LatCheck};
use crate::ir::{CondIr, Resolved};
use crate::lat::Lat;
use crate::objects::ClassName;
use crate::rules::{EventClock, Rule, RuleEvent};
use crate::shared::Blocks;
use crate::vm::Program;

/// Sentinel in [`PlanRule::lat_slots`]: this LAT reference is not hoistable
/// (its source class is not part of the event payload, so the bound row can
/// differ per object combination) and is fetched per combination instead.
pub(crate) const NO_HOIST: u32 = u32::MAX;

/// A registered rule with everything resolvable at registration time resolved:
/// compiled condition, pre-bound action targets, referenced classes and LATs.
pub(crate) struct Registered {
    pub rule: Arc<Rule>,
    /// The analyzer's view of the rule, lowered once at registration; kept
    /// so later registrations seed their analyzer with it by `Arc` clone.
    pub ir: Arc<RuleIr>,
    /// `ir`'s folded condition resolved at registration (references resolved
    /// to indexes). Bytecode is emitted from this when the rule is planned.
    pub compiled: Option<Arc<CondIr>>,
    /// The analyzer's payload guard for the rule, already in the runtime
    /// layout (class and attribute position); `None` when the probe cannot
    /// decide the rule. Every plan build installs this as is.
    pub guard: Option<Guard>,
    /// The analyzer's LAT guard for the rule, by name: each plan resolves it
    /// against the LATs it binds ([`PlanRule::lat_guard`]).
    pub lat_guard: Option<LatGuard>,
    /// The two guards absorbed every top-level conjunct of the condition
    /// ([`sqlcm_analyze::Guards::decides`]).
    pub decides: bool,
    /// Per action of `ir`, the LAT it targets, resolved at registration and
    /// kept across `drop_lat` / `define_lat`; `None` for an action on no LAT.
    pub action_lats: Vec<Option<Arc<Lat>>>,
    /// Classes the condition references.
    pub cond_classes: Vec<ClassName>,
    /// LAT names the condition references (lowercased, in first-reference
    /// order — the order `crate::ir::Resolved::LatCol::lat_idx` indexes).
    pub cond_lats: Vec<String>,
    /// `rule.name` as the flight recorder carries it, made once here so a
    /// firing clones an `Arc` (and [`EventPlan::label`]) and allocates nothing.
    pub name_label: Label,
    /// Fault-containment circuit breaker. Lives here (not on the plan) so its
    /// sliding window and state survive plan rebuilds; while it is `Open`
    /// the rule is out of service but stays in its plan.
    pub breaker: RuleBreaker,
}

impl Registered {
    /// The rule's actions in order, each with the LAT it was registered
    /// against.
    pub fn actions(&self) -> impl Iterator<Item = (&Action, Option<&Arc<Lat>>)> {
        let lats = self.action_lats.iter().map(Option::as_ref);
        self.ir.actions.iter().zip(lats)
    }
}

/// One shared LAT lookup hoisted to event level: every rule on the event whose
/// condition reads `lat` keyed by an object class the event payload carries
/// shares a single row snapshot, fetched lazily at most once per event.
#[derive(Clone)]
pub(crate) struct HoistSlot {
    pub lat: Arc<Lat>,
    /// Lowercased LAT name (slot identity within the event plan).
    pub name: String,
}

/// One rule within an [`EventPlan`].
#[derive(Clone)]
pub(crate) struct PlanRule {
    pub reg: Arc<Registered>,
    /// Resolved handle per `reg.cond_lats` entry. Empty when `broken`.
    pub lats: Vec<Arc<Lat>>,
    /// Per `reg.cond_lats` entry: index into `EventPlan::hoisted`, or
    /// [`NO_HOIST`] for per-combination fetches. Empty when `broken`.
    pub lat_slots: Vec<u32>,
    /// Hoist slots (indexes into `EventPlan::hoisted`, ascending) this
    /// rule's actions mutate (Insert/Reset targets); cleared after the rule
    /// fires so later rules re-fetch fresh rows, preserving the sequential
    /// read-your-predecessors'-writes semantics of unhoisted dispatch.
    pub invalidates: Vec<u32>,
    /// Condition bytecode, emitted when the rule was planned. `None` when the
    /// rule has no condition or is `broken`.
    pub program: Option<Program>,
    /// Set when the rule cannot run under the current registry (a condition
    /// LAT was dropped, or redefined with another schema); evaluation records
    /// this error instead of running.
    pub broken: Option<String>,
    /// Every class the condition references is in the event class's declared
    /// payload ([`EventPlan::payload`]): the rule evaluates against the
    /// event's objects in place, no §5.2 iteration over live objects.
    pub in_payload: bool,
    /// `reg.lat_guard` resolved against `lats`, when the reference it reads
    /// is hoisted: the class's guard index tests it, once per writer-free
    /// segment of a probed event's walk.
    pub lat_guard: Option<LatCheck>,
    /// The class's guard index tests every guard of a verdict that decides
    /// the condition (`reg.decides`, and the LAT guard is installed): on a
    /// probed event, the index's admission of the rule is its condition's
    /// `TRUE`, and dispatch runs no program for it.
    pub decided: bool,
}

/// An event class's rules in registration order, in the blocks dispatch
/// walks them by: the plan that appends a rule to the class shares them all
/// with this one ([`Blocks`]).
pub(crate) type Rules = Blocks<PlanRule>;

/// All rules subscribed to one event, in registration order, plus the shared
/// lookup slots their conditions hoist to event level.
#[derive(Default)]
pub(crate) struct EventPlan {
    pub rules: Rules,
    /// The classes every event of this class carries
    /// ([`RuleEvent::payload_classes`]).
    pub payload: Vec<ClassName>,
    pub hoisted: Vec<HoistSlot>,
    /// Per hoist slot, the positions of the rules whose `invalidates` names
    /// it, ascending: where the writer-free segments a LAT-guard probe
    /// decides end.
    pub writers: Vec<Blocks<u32>>,
    /// Guard index over this event's rules (see [`crate::guard`]): one probe
    /// per event yields the candidate bitset; non-candidates are provably
    /// non-firing and skip the VM. `None` when no rule is indexable.
    pub guards: Option<GuardIndex>,
    /// Display name in probe convention (`"Query.Commit"`), cached at build
    /// so neither the tracer nor the flight recorder formats an event name
    /// on the dispatch path.
    pub label: Label,
    /// The class's clock, shared by every rule on this event; ticked once per
    /// probed event. `None` only for rules built outside `Sqlcm::add_rule`.
    pub clock: Option<Arc<EventClock>>,
}

/// Resolve one rule against the LAT registry, assign hoist slots and emit
/// its program.
fn plan_rule(
    reg: &Arc<Registered>,
    lats: &HashMap<String, Arc<Lat>>,
    payload: &[ClassName],
    hoisted: &mut Vec<HoistSlot>,
) -> PlanRule {
    let mut pr = PlanRule {
        in_payload: reg.cond_classes.iter().all(|c| payload.contains(c)),
        reg: reg.clone(),
        lats: Vec::with_capacity(reg.cond_lats.len()),
        lat_slots: Vec::with_capacity(reg.cond_lats.len()),
        invalidates: Vec::new(),
        program: None,
        broken: None,
        lat_guard: None,
        decided: false,
    };
    for name in &reg.cond_lats {
        match lats.get(name) {
            Some(lat) => pr.lats.push(lat.clone()),
            None => {
                let why = || format!("rule {} references unknown LAT {name}", reg.rule.name);
                pr.broken.get_or_insert_with(why);
            }
        }
    }
    if pr.broken.is_none() {
        pr.broken = redefined_lat(reg, &pr.lats).map(|lat| {
            format!(
                "rule {} reads LAT {}, which was redefined with a different schema",
                reg.rule.name, lat.spec.name
            )
        });
    }
    if pr.broken.is_some() {
        pr.lats.clear();
        return pr;
    }
    pr.program = reg
        .compiled
        .as_ref()
        .map(|c| Program::emit(c, &HashMap::new()));
    for (name, lat) in reg.cond_lats.iter().zip(&pr.lats) {
        let source = lat.spec.source_class();
        // Hoistable iff the bound object is a payload object: then it is
        // identical in every combination of this event, so one fetch
        // serves every rule and every combination.
        if !payload.contains(source) {
            pr.lat_slots.push(NO_HOIST);
            continue;
        }
        let slot = match hoisted.iter().position(|h| h.name == *name) {
            Some(i) => i,
            None => {
                hoisted.push(HoistSlot {
                    lat: lat.clone(),
                    name: name.clone(),
                });
                hoisted.len() - 1
            }
        };
        pr.lat_slots.push(slot as u32);
    }
    pr.lat_guard = reg.lat_guard.as_ref().and_then(|g| {
        let lat = reg
            .cond_lats
            .iter()
            .position(|l| l.eq_ignore_ascii_case(&g.lat))?;
        let slot = pr.lat_slots[lat];
        Some(LatCheck {
            slot: (slot != NO_HOIST).then_some(slot)?,
            column: pr.lats[lat].column_index(&g.column)?,
            kind: g.kind.clone(),
        })
    });
    pr.decided = reg.decides && reg.lat_guard.is_some() == pr.lat_guard.is_some();
    pr
}

/// The first of `lats` — the registry's current bindings of `reg.cond_lats`
/// — that no longer has a column where `reg`'s condition was compiled to
/// read it: the LAT was dropped and defined again under its name with
/// another schema, and the compiled column positions would read the wrong
/// column of the fresh LAT's rows, or past their end. Each resolved column
/// is checked against its name in the reference pool.
fn redefined_lat<'a>(reg: &Registered, lats: &'a [Arc<Lat>]) -> Option<&'a Arc<Lat>> {
    let compiled = reg.compiled.as_ref()?;
    compiled.refs.iter().zip(&compiled.resolved).find_map(
        |((_, column), resolved)| match resolved {
            Resolved::LatCol { lat_idx, index } => {
                let lat = &lats[*lat_idx];
                (lat.column_index(column) != Some(*index)).then_some(lat)
            }
            Resolved::Attr { .. } => None,
        },
    )
}

/// The hoist slots a fired `reg` clears in Phase C of dispatch: those of
/// the LATs its `Insert`s and `Reset`s target.
fn invalidations_of(reg: &Registered, hoisted: &[HoistSlot]) -> Vec<u32> {
    let mut invalidates: Vec<u32> = Vec::new();
    for (action, lat) in reg.actions() {
        let (Action::Insert { .. } | Action::Reset { .. }, Some(lat)) = (action, lat) else {
            continue;
        };
        let name = lat.spec.name.to_ascii_lowercase();
        if let Some(slot) = hoisted.iter().position(|h| h.name == name) {
            invalidates.push(slot as u32);
        }
    }
    invalidates.sort_unstable();
    invalidates.dedup();
    invalidates
}

impl EventPlan {
    /// Rules the class's guard index prunes on, and rules it always
    /// evaluates.
    fn guard_counts(&self) -> (u64, u64) {
        match &self.guards {
            Some(g) => (u64::from(g.indexed_rules), u64::from(g.residual_rules)),
            None => (0, self.rules.len() as u64),
        }
    }

    /// Plan one event class from its registered rules, in registration
    /// order. Infallible: a rule the LAT registry cannot bind (a condition
    /// LAT was dropped, or redefined with another schema) is carried as
    /// `broken` — evaluation reports the error — rather than silently
    /// dropped.
    fn derive(class: &[&Arc<Registered>], lats: &HashMap<String, Arc<Lat>>) -> EventPlan {
        let Some(first) = class.first() else {
            return EventPlan::default();
        };
        let event = &first.rule.event;
        let payload = event.payload_classes();
        let mut hoisted = Vec::new();
        let mut rules: Vec<PlanRule> = class
            .iter()
            .map(|reg| plan_rule(reg, lats, &payload, &mut hoisted))
            .collect();
        // Invalidations need the *complete* rule set (a writer can be
        // registered before the first reader creates its slot), so they are
        // computed only once every rule of the class is planned.
        let mut writers = vec![Vec::new(); hoisted.len()];
        for (ri, pr) in rules.iter_mut().enumerate() {
            pr.invalidates = invalidations_of(&pr.reg, &hoisted);
            for &slot in &pr.invalidates {
                writers[slot as usize].push(ri as u32);
            }
        }
        EventPlan {
            // Only rules with a live program are indexable.
            guards: GuardIndex::build(&rules),
            rules: rules.into(),
            payload,
            hoisted,
            writers: writers.into_iter().map(Blocks::from).collect(),
            label: event.to_string().into(),
            clock: first.rule.clock().cloned(),
        }
    }

    /// This class with `reg` registered after its rules — what `derive`
    /// over the longer class returns, by planning and emitting `reg` alone
    /// and sharing the existing rules ([`Rules`]) — or `None` when `reg` could
    /// change something about a rule already here and the class has to be
    /// derived again. Everything a last rule can change:
    ///
    /// * the guard index appears with the second rule, and with the first
    ///   indexable one;
    /// * the first reader of a hoistable LAT creates its slot, which the
    ///   earlier writers of that LAT must invalidate (a reader of an existing
    ///   slot shares it and changes nothing, and a writer of one appends its
    ///   position to the slot's `writers`).
    ///
    /// A rule that repeats an earlier rule's condition, or a subtree of it,
    /// changes nothing either: each rule evaluates its own condition.
    ///
    /// A broken rule changes none of this, but registration never produces
    /// one, so it takes the general path too.
    fn appended(
        &self,
        reg: &Arc<Registered>,
        lats: &HashMap<String, Arc<Lat>>,
    ) -> Option<EventPlan> {
        if self.rules.len() < 2 {
            return None;
        }
        let payload = reg.rule.event.payload_classes();
        let mut hoisted = self.hoisted.clone();
        let mut pr = plan_rule(reg, lats, &payload, &mut hoisted);
        if pr.broken.is_some() || hoisted.len() > self.hoisted.len() {
            return None;
        }
        pr.invalidates = invalidations_of(reg, &hoisted);
        let mut writers = self.writers.clone();
        for &slot in &pr.invalidates {
            let slot = &mut writers[slot as usize];
            *slot = slot.with(self.rules.len() as u32);
        }
        let guards = match &self.guards {
            Some(index) => Some(index.appended(&pr)),
            None if GuardIndex::indexes(&pr) => return None,
            None => None,
        };
        Some(EventPlan {
            rules: self.rules.with(pr),
            payload,
            hoisted,
            writers,
            guards,
            label: self.label.clone(),
            clock: self.clock.clone(),
        })
    }
}

/// The registry mutation a plan is published for — what
/// [`DispatchPlan::next`] has to re-derive.
pub(crate) enum Change<'a> {
    /// `add_rule`: the rule is the registry's last.
    Added(&'a Arc<Registered>),
    /// `remove_rule`, of a rule on this event.
    Removed(&'a RuleEvent),
    /// `define_lat` / `drop_lat` of the LAT with this (lowercased) name.
    Lat(&'a str),
}

/// The immutable dispatch plan. Every registry mutation publishes one via
/// [`PlanCell::swap`] — its predecessor's [`DispatchPlan::next`] — and every
/// dispatch thread reads it lock-free. The default is the plan of the empty
/// registry, which attach installs.
#[derive(Default)]
pub(crate) struct DispatchPlan {
    /// Monotone rebuild counter (0 = the empty plan installed at attach).
    pub epoch: u64,
    /// Probe kinds at least one registered rule subscribes to, in service or
    /// not: a rule re-enabled or re-admitted from quarantine needs no
    /// rebuild, and its events must keep flowing for the containment
    /// checkpoint to run. Dispatch pins the in-service rules per event.
    pub probe_mask: ProbeMask,
    /// Plans for the probe events, by [`ProbeKind::index`]. Each behind its
    /// own `Arc`: successive plans share the classes a mutation did not
    /// touch, and a sampled trace can keep the plan of the event it recorded
    /// and explain its pruned rules when read.
    probes: [Arc<EventPlan>; ProbeKind::COUNT],
    /// Plans for the events the monitor raises itself (`Timer.Alarm`, LAT
    /// evictions, `Monitor.Tick`), one per event with a rule. Immutable
    /// after build, so lookups are lock-free.
    dynamics: HashMap<RuleEvent, Arc<EventPlan>>,
    /// Every registered rule in registration order: what telemetry iterates,
    /// and what the containment checkpoint walks for breakers to re-admit.
    /// Shared by the block with the plan this one extends.
    pub rules: Blocks<Arc<Registered>>,
    /// Rules with an extracted guard across every event plan (telemetry).
    pub guard_indexed_rules: u64,
    /// Rules in the always-evaluate residual set across every event plan
    /// (telemetry).
    pub guard_residual_rules: u64,
    /// Rules planned and emitted to make this plan: every rule for `build`,
    /// those of the re-derived classes — or the one appended — for `next`.
    pub rules_planned: u64,
}

impl DispatchPlan {
    /// Compile the registry snapshot into a plan: [`EventPlan::derive`] for
    /// every event class. What the published plan must always equal —
    /// `next` gets there from its predecessor; the differential tests
    /// (`plan::incremental`, `Sqlcm::plan_and_oracle`) check that it does.
    #[cfg(test)]
    pub fn build(
        epoch: u64,
        rules: &[Arc<Registered>],
        lats: &HashMap<String, Arc<Lat>>,
    ) -> DispatchPlan {
        let mut classes: HashMap<&RuleEvent, Vec<&Arc<Registered>>> = HashMap::new();
        for reg in rules {
            classes.entry(&reg.rule.event).or_default().push(reg);
        }
        let mut plan = DispatchPlan {
            epoch,
            rules: rules.to_vec().into(),
            rules_planned: rules.len() as u64,
            ..DispatchPlan::default()
        };
        for (event, class) in classes {
            plan.set_class(event, EventPlan::derive(&class, lats));
        }
        plan.set_probe_mask();
        plan
    }

    /// The plan of the registry one `change` after this plan's: `rules` and
    /// `lats` are the registry with the change applied. Equal to `build`
    /// over them, but only the classes the change touches are planned —
    /// every other class is shared with this plan.
    pub fn next(
        &self,
        rules: &[Arc<Registered>],
        lats: &HashMap<String, Arc<Lat>>,
        change: Change<'_>,
    ) -> DispatchPlan {
        let mut plan = DispatchPlan {
            epoch: self.epoch + 1,
            probe_mask: ProbeMask::EMPTY,
            probes: self.probes.clone(),
            dynamics: self.dynamics.clone(),
            rules: match change {
                Change::Added(reg) => self.rules.with(reg.clone()),
                _ => rules.to_vec().into(),
            },
            guard_indexed_rules: self.guard_indexed_rules,
            guard_residual_rules: self.guard_residual_rules,
            rules_planned: 0,
        };
        let stale: Vec<RuleEvent> = match change {
            Change::Added(reg) => {
                let event = &reg.rule.event;
                let class = self.event_plan(event);
                match class.and_then(|ep| ep.appended(reg, lats)) {
                    Some(ep) => {
                        plan.rules_planned = 1;
                        plan.set_class(event, ep);
                        Vec::new()
                    }
                    None => vec![event.clone()],
                }
            }
            Change::Removed(event) => vec![event.clone()],
            // Only a condition binds a LAT by name when planned; an action
            // keeps the handle it resolved at registration.
            Change::Lat(name) => self
                .classes()
                .filter(|ep| {
                    let mut regs = ep.rules.iter().map(|pr| &pr.reg);
                    regs.any(|reg| reg.cond_lats.iter().any(|l| l == name))
                })
                .map(|ep| ep.rules[0].reg.rule.event.clone())
                .collect(),
        };
        for event in &stale {
            let class: Vec<&Arc<Registered>> =
                rules.iter().filter(|r| r.rule.event == *event).collect();
            plan.rules_planned += class.len() as u64;
            plan.set_class(event, EventPlan::derive(&class, lats));
        }
        plan.set_probe_mask();
        plan
    }

    fn classes(&self) -> impl Iterator<Item = &Arc<EventPlan>> {
        self.probes.iter().chain(self.dynamics.values())
    }

    /// Replace `event`'s class with `ep`, moving the guard counts from the
    /// class it replaces to `ep`.
    fn set_class(&mut self, event: &RuleEvent, ep: EventPlan) {
        let (indexed, residual) = ep.guard_counts();
        self.guard_indexed_rules += indexed;
        self.guard_residual_rules += residual;
        let replaced = match event.probe() {
            Some(kind) => Some(std::mem::replace(
                &mut self.probes[kind.index()],
                Arc::new(ep),
            )),
            None if ep.rules.is_empty() => self.dynamics.remove(event),
            None => self.dynamics.insert(event.clone(), Arc::new(ep)),
        };
        if let Some((indexed, residual)) = replaced.map(|ep| ep.guard_counts()) {
            self.guard_indexed_rules -= indexed;
            self.guard_residual_rules -= residual;
        }
    }

    /// The probe kinds the probe classes subscribe (left empty by `build`
    /// and `next` until every class is set).
    fn set_probe_mask(&mut self) {
        for kind in ProbeKind::ALL {
            if !self.probes[kind.index()].rules.is_empty() {
                self.probe_mask.set(kind);
            }
        }
    }

    /// The event plan for `kind`, if any rule subscribes.
    pub fn event_plan(&self, kind: &RuleEvent) -> Option<&Arc<EventPlan>> {
        let ep = match kind.probe() {
            Some(kind) => &self.probes[kind.index()],
            None => self.dynamics.get(kind)?,
        };
        (!ep.rules.is_empty()).then_some(ep)
    }

    /// Does any registered rule subscribe to this event?
    pub fn has_event(&self, kind: &RuleEvent) -> bool {
        self.event_plan(kind).is_some()
    }

    /// Condense the plan into the public, printable summary.
    pub fn summary(&self) -> PlanSummary {
        let mut groups = Vec::new();
        let mut per_event = |event: String, ep: &EventPlan| {
            for (i, slot) in ep.hoisted.iter().enumerate() {
                let rules: Vec<String> = ep
                    .rules
                    .iter()
                    .filter(|pr| pr.lat_slots.contains(&(i as u32)))
                    .map(|pr| pr.reg.rule.name.clone())
                    .collect();
                groups.push(HoistGroup {
                    event: event.clone(),
                    lat: slot.lat.spec.name.clone(),
                    rules,
                });
            }
        };
        for ep in &self.probes {
            if let Some(pr) = ep.rules.iter().next() {
                per_event(pr.reg.rule.event.to_string(), ep);
            }
        }
        let mut dynamic: Vec<(&RuleEvent, &Arc<EventPlan>)> = self.dynamics.iter().collect();
        dynamic.sort_by_key(|(k, _)| k.to_string());
        for (kind, ep) in dynamic {
            per_event(kind.to_string(), ep);
        }
        groups.sort_by(|a, b| (&a.event, &a.lat).cmp(&(&b.event, &b.lat)));
        PlanSummary {
            epoch: self.epoch,
            rule_count: self.rules.len(),
            guard_indexed_rules: self.guard_indexed_rules,
            guard_residual_rules: self.guard_residual_rules,
            hoist_groups: groups,
        }
    }
}

/// One shared-lookup group in a [`PlanSummary`]: the rules on `event` whose
/// conditions all read `lat` through one hoisted row snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoistGroup {
    /// Event name in probe convention (`"Query.Commit"`).
    pub event: String,
    /// LAT name as defined.
    pub lat: String,
    /// Rule names sharing the slot, in registration order.
    pub rules: Vec<String>,
}

/// Public, owned description of the currently published dispatch plan —
/// surfaced through `Sqlcm::plan_summary` and the `lint_rules` example so
/// operators can see which rules share hoisted lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSummary {
    /// Epoch of the plan this summary describes.
    pub epoch: u64,
    /// Registered rules (enabled or not).
    pub rule_count: usize,
    /// Rules with a payload guard or a LAT guard — skippable when an event,
    /// or the LAT row it hoists, provably cannot match (see `crate::guard`).
    pub guard_indexed_rules: u64,
    /// Rules always evaluated: no condition, fallible arithmetic, non-payload
    /// classes, no indexable atom, or a LAT guard on a LAT the event cannot
    /// hoist.
    pub guard_residual_rules: u64,
    /// Shared-lookup groups, sorted by (event, LAT). Groups with a single
    /// rule still get a slot (one fetch per event either way); groups with
    /// two or more are where hoisting beats per-rule fetching.
    pub hoist_groups: Vec<HoistGroup>,
}

impl PlanSummary {
    /// Groups actually shared by ≥ 2 rules — the hoisting wins.
    pub fn shared_groups(&self) -> impl Iterator<Item = &HoistGroup> {
        self.hoist_groups.iter().filter(|g| g.rules.len() >= 2)
    }
}

/// Publication cell for the current [`DispatchPlan`].
///
/// The plan is handed over under `current`'s mutex; `epoch` only tells a
/// dispatcher *whether* to take it. Each dispatching thread keeps the plan it
/// last used in a [`CachedPlan`] and, while that is still the published one,
/// pays one load and a compare per event — no lock and no write to memory
/// another thread reads. A superseded plan is freed when the last cache
/// holding it is refreshed or its thread exits, so at most one stale plan per
/// thread that has dispatched outlives a publication.
pub(crate) struct PlanCell {
    /// Process-wide identity: a cache filled from another monitor's cell, or
    /// from one that lived at this address before, never matches.
    id: u64,
    /// `current`'s epoch. Stored (`Release`) under the mutex in `swap`, loaded
    /// (`Acquire`) by `plan`: a thread that observes a registration observes
    /// its epoch, and then fetches the plan under the mutex.
    epoch: AtomicU64,
    current: Mutex<Arc<DispatchPlan>>,
}

/// A dispatching thread's reference to the plan it last used.
pub(crate) struct CachedPlan {
    cell: u64,
    plan: Arc<DispatchPlan>,
}

impl PlanCell {
    pub fn new(plan: Arc<DispatchPlan>) -> PlanCell {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        PlanCell {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(plan.epoch),
            current: Mutex::new(plan),
        }
    }

    /// Epoch of the published plan.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The published plan, for readers off the event path: takes the mutex
    /// and a reference.
    pub fn load(&self) -> Arc<DispatchPlan> {
        self.current.lock().clone()
    }

    /// The published plan, through the calling thread's `cache`. A refresh
    /// drops the superseded plan — freeing it, if this was its last holder.
    pub fn plan<'a>(&self, cache: &'a mut Option<CachedPlan>) -> &'a DispatchPlan {
        let epoch = self.epoch();
        if !matches!(&*cache, Some(c) if c.cell == self.id && c.plan.epoch == epoch) {
            *cache = Some(CachedPlan {
                cell: self.id,
                plan: self.load(),
            });
        }
        &cache.as_ref().expect("filled above").plan
    }

    /// Publish a new plan. The superseded one is released after the mutex,
    /// so freeing it never holds up a dispatcher's refresh.
    pub fn swap(&self, plan: Arc<DispatchPlan>) {
        let superseded = {
            let mut current = self.current.lock();
            self.epoch.store(plan.epoch, Ordering::Release);
            std::mem::replace(&mut *current, plan)
        };
        drop(superseded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lat::{LatAggFunc, LatSpec};
    use sqlcm_common::ManualClock;

    fn test_lat(name: &str) -> Arc<Lat> {
        let (clock, _) = ManualClock::shared(0);
        Arc::new(
            Lat::new(
                LatSpec::new(name)
                    .group_by("Query.Logical_Signature", "Sig")
                    .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration"),
                clock,
            )
            .unwrap(),
        )
    }

    fn registered(name: &str, event: RuleEvent, cond_lats: &[&str]) -> Arc<Registered> {
        let rule = Rule::new(name).on(event);
        Arc::new(Registered {
            name_label: name.into(),
            ir: Arc::new(rule.ir()),
            rule: Arc::new(rule),
            compiled: None,
            guard: None,
            lat_guard: None,
            decides: false,
            action_lats: Vec::new(),
            cond_classes: vec![ClassName::Query],
            cond_lats: cond_lats.iter().map(|s| s.to_string()).collect(),
            breaker: RuleBreaker::default(),
        })
    }

    #[test]
    fn rules_on_same_event_share_one_hoist_slot() {
        let lat = test_lat("L");
        let mut lats = HashMap::new();
        lats.insert("l".to_string(), lat);
        let rules = vec![
            registered("a", RuleEvent::QueryCommit, &["l"]),
            registered("b", RuleEvent::QueryCommit, &["l"]),
            registered("c", RuleEvent::QueryStart, &["l"]),
        ];
        let plan = DispatchPlan::build(1, &rules, &lats);
        let ep = plan.event_plan(&RuleEvent::QueryCommit).unwrap();
        assert_eq!(ep.rules.len(), 2);
        assert_eq!(ep.hoisted.len(), 1, "a and b share one slot");
        assert_eq!(ep.rules[0].lat_slots, vec![0]);
        assert_eq!(ep.rules[1].lat_slots, vec![0]);
        // QueryStart gets its own plan and its own slot.
        let ep = plan.event_plan(&RuleEvent::QueryStart).unwrap();
        assert_eq!(ep.hoisted.len(), 1);
        let summary = plan.summary();
        assert_eq!(summary.hoist_groups.len(), 2);
        assert_eq!(summary.shared_groups().count(), 1);
        assert_eq!(
            summary.shared_groups().next().unwrap().rules,
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn missing_lat_marks_rule_broken() {
        let rules = vec![registered("a", RuleEvent::QueryCommit, &["gone"])];
        let plan = DispatchPlan::build(1, &rules, &HashMap::new());
        let ep = plan.event_plan(&RuleEvent::QueryCommit).unwrap();
        assert!(ep.rules[0].broken.as_deref().unwrap().contains("gone"));
        assert!(ep.hoisted.is_empty());
    }

    #[test]
    fn probe_mask_tracks_subscribed_kinds_only() {
        let rules = vec![registered("a", RuleEvent::QueryCommit, &[])];
        let plan = DispatchPlan::build(1, &rules, &HashMap::new());
        assert!(plan.probe_mask.contains(ProbeKind::QueryCommit));
        assert!(!plan.probe_mask.contains(ProbeKind::Login));
        assert!(!plan.has_event(&RuleEvent::MonitorTick));
        assert!(!plan.has_event(&RuleEvent::TimerAlarm("t".into())));
    }

    /// A conditional rule as `add_rule` would register it: one lowering
    /// feeds both the compiled condition and the stored guard verdict.
    fn registered_cond(
        name: &str,
        event: RuleEvent,
        cond_lats: &[&str],
        expr: &str,
        lats: &HashMap<String, Arc<Lat>>,
    ) -> Arc<Registered> {
        let rule = Rule::new(name).on(event).when(expr);
        let ir = Arc::new(rule.ir());
        let cond_lats: Vec<String> = cond_lats.iter().map(|s| s.to_string()).collect();
        let folded = ir.condition.as_ref().unwrap().folded();
        let (guard, lat_guard, decides) = sqlcm_analyze::rule_guard(&ir)
            .map_or((None, None, false), |g| (g.payload, g.lat, g.decides));
        Arc::new(Registered {
            name_label: name.into(),
            compiled: Some(Arc::new(CondIr::from_ir(folded, lats, &cond_lats).unwrap())),
            guard,
            lat_guard,
            decides,
            ir,
            rule: Arc::new(rule),
            action_lats: Vec::new(),
            cond_classes: vec![ClassName::Query],
            cond_lats,
            breaker: RuleBreaker::default(),
        })
    }

    /// The plan installs a LAT guard only where the reference it reads is
    /// hoisted, so the row the check reads is the one the condition would;
    /// a LAT keyed on a class outside the payload keeps its reader unguarded.
    #[test]
    fn a_lat_guard_is_installed_only_on_a_hoisted_reference() {
        let (clock, _) = ManualClock::shared(0);
        let by_resource = LatSpec::new("B")
            .group_by("Blocked.Resource", "Res")
            .aggregate(LatAggFunc::Count, "", "N");
        let mut lats = HashMap::new();
        lats.insert("l".to_string(), test_lat("L"));
        lats.insert(
            "b".to_string(),
            Arc::new(Lat::new(by_resource, clock).unwrap()),
        );
        let rules = vec![
            registered_cond(
                "hoisted",
                RuleEvent::QueryCommit,
                &["l"],
                "L.Avg_Duration > 5",
                &lats,
            ),
            registered_cond(
                "per_combo",
                RuleEvent::QueryCommit,
                &["b"],
                "B.N >= 5",
                &lats,
            ),
        ];
        let plan = DispatchPlan::build(1, &rules, &lats);
        let ep = plan.event_plan(&RuleEvent::QueryCommit).unwrap();
        let check = ep.rules[0]
            .lat_guard
            .as_ref()
            .expect("hoisted reader guarded");
        assert_eq!((check.slot, check.column), (0, 1));
        assert!(ep.rules[1].reg.lat_guard.is_some(), "the verdict has one");
        assert_eq!(ep.rules[1].lat_slots, vec![NO_HOIST]);
        assert!(ep.rules[1].lat_guard.is_none());
        assert_eq!(
            (plan.guard_indexed_rules, plan.guard_residual_rules),
            (1, 1)
        );
    }

    #[test]
    fn guard_index_builds_per_event() {
        let lats = HashMap::new();
        let rules = vec![
            registered_cond(
                "sel",
                RuleEvent::QueryCommit,
                &[],
                "Query.User = 'alice'",
                &lats,
            ),
            registered_cond(
                "rng",
                RuleEvent::QueryCommit,
                &[],
                "Query.Duration > 100",
                &lats,
            ),
            registered_cond(
                "res",
                RuleEvent::QueryCommit,
                &[],
                "Query.User LIKE 'a%'",
                &lats,
            ),
            // Unconditional rule on another event: that plan has nothing to
            // index and gets no GuardIndex at all.
            registered("tick", RuleEvent::MonitorTick, &[]),
        ];
        let plan = DispatchPlan::build(1, &rules, &lats);
        let ep = plan.event_plan(&RuleEvent::QueryCommit).unwrap();
        let gi = ep.guards.as_ref().expect("index built");
        assert_eq!(gi.indexed_rules, 2);
        assert_eq!(gi.residual_rules, 1);
        assert_eq!(plan.guard_indexed_rules, 2);
        assert_eq!(plan.guard_residual_rules, 2, "LIKE rule + MonitorTick rule");
        let tick = plan.event_plan(&RuleEvent::MonitorTick).unwrap();
        assert!(tick.guards.is_none(), "nothing indexable on MonitorTick");
    }

    #[test]
    fn a_cached_plan_survives_the_swap_and_is_replaced_on_the_next_use() {
        let cell = PlanCell::new(Arc::new(DispatchPlan::build(1, &[], &HashMap::new())));
        let mut cache = None;
        assert_eq!(cell.plan(&mut cache).epoch, 1);
        let first = Arc::downgrade(&cache.as_ref().unwrap().plan);
        cell.swap(Arc::new(DispatchPlan::build(2, &[], &HashMap::new())));
        assert!(first.upgrade().is_some(), "still cached by this dispatcher");
        assert_eq!(cell.plan(&mut cache).epoch, 2);
        assert!(first.upgrade().is_none(), "freed by the refresh");
        // Another monitor's cell at the same epoch does not match the cache.
        let other = PlanCell::new(Arc::new(DispatchPlan::build(2, &[], &HashMap::new())));
        let before = Arc::as_ptr(&cache.as_ref().unwrap().plan);
        assert!(!std::ptr::eq(other.plan(&mut cache), before));
    }

    /// 1 000 publications under four dispatchers: once every dispatcher has
    /// used the cell again, only the published plan and the plans still in
    /// their caches can be alive; once they and the cell are gone, none is.
    #[test]
    fn superseded_plans_are_freed_once_no_dispatcher_caches_them() {
        use std::sync::Barrier;
        const THREADS: usize = 4;
        let cell = PlanCell::new(Arc::new(DispatchPlan::build(0, &[], &HashMap::new())));
        let published = Barrier::new(THREADS + 1);
        let counted = Barrier::new(THREADS + 1);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut plans = Vec::new();
        let mut alive = 0;
        // Checked after the scope: a panic between the barriers would leave
        // the other side waiting.
        let mut seen = Vec::new();
        std::thread::scope(|s| {
            let dispatchers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut cache = None;
                        let (mut last, mut monotone) = (0, true);
                        while !stop.load(Ordering::Relaxed) {
                            let epoch = cell.plan(&mut cache).epoch;
                            monotone &= epoch >= last;
                            last = epoch;
                        }
                        published.wait();
                        let fresh = cell.plan(&mut cache).epoch;
                        counted.wait();
                        counted.wait();
                        (monotone, fresh)
                    })
                })
                .collect();
            for epoch in 1..=1_000 {
                let plan = Arc::new(DispatchPlan::build(epoch, &[], &HashMap::new()));
                plans.push(Arc::downgrade(&plan));
                cell.swap(plan);
            }
            stop.store(true, Ordering::Relaxed);
            published.wait();
            counted.wait();
            alive = plans.iter().filter(|p| p.upgrade().is_some()).count();
            counted.wait();
            seen.extend(dispatchers.into_iter().map(|d| d.join().unwrap()));
        });
        assert_eq!(seen, [(true, 1_000); THREADS], "(epochs monotone, last)");
        assert!(alive <= 1 + THREADS, "{alive} plans alive");
        drop(cell);
        assert!(plans.iter().all(|p| p.upgrade().is_none()));
    }
}

/// The incremental plan *is* the from-scratch plan: random registry
/// histories through the real `Sqlcm`, and after every mutation the published
/// plan — reached from its predecessor by [`DispatchPlan::next`] — is compared
/// with [`DispatchPlan::build`] over the same registry, down to the guard
/// index's shared entries and LAT groups and each hoist slot's writers.
#[cfg(test)]
mod incremental {
    use super::*;
    use crate::lat::{LatAggFunc, LatSpec};
    use crate::monitor::Sqlcm;
    use rand::rngs::SmallRng;
    use rand::{Rng as _, SeedableRng};
    use sqlcm_engine::Engine;
    use std::collections::HashSet;

    struct Rng(SmallRng);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0.gen_range(0..n)
        }
    }

    /// Everything dispatch and `appended` read of one class. LAT handles
    /// compare by address: both plans bind the one registry.
    fn canonical_class(ep: &EventPlan) -> String {
        let mut out = format!("{} clock={}\n", ep.label, ep.clock.is_some());
        for pr in ep.rules.iter() {
            let lats: Vec<_> = pr.lats.iter().map(Arc::as_ptr).collect();
            out += &format!(
                "  {} broken={:?} lats={lats:?} slots={:?} inval={:?} lat_guard={:?} \
                 decided={}\n    {:?}\n",
                pr.reg.rule.name,
                pr.broken,
                pr.lat_slots,
                pr.invalidates,
                pr.lat_guard,
                pr.decided,
                pr.program
            );
        }
        for (h, writers) in ep.hoisted.iter().zip(&ep.writers) {
            let writers: Vec<u32> = writers.iter().copied().collect();
            let lat = Arc::as_ptr(&h.lat);
            out += &format!("  hoist {} {lat:?} writers={writers:?}\n", h.name);
        }
        out += &format!(
            "  guards {}\n",
            ep.guards.as_ref().map_or("none".into(), |g| g.canonical())
        );
        out
    }

    fn canonical(plan: &DispatchPlan) -> String {
        let mut classes: Vec<String> = plan
            .classes()
            .filter(|ep| !ep.rules.is_empty())
            .map(|ep| canonical_class(ep))
            .collect();
        classes.sort();
        let rules: Vec<&str> = plan.rules.iter().map(|r| &*r.rule.name).collect();
        format!(
            "epoch {} mask {:?} indexed {} residual {} dynamic {} rules {rules:?}\n{}",
            plan.epoch,
            plan.probe_mask,
            plan.guard_indexed_rules,
            plan.guard_residual_rules,
            plan.dynamics.len(),
            classes.concat()
        )
    }

    const LATS: [&str; 3] = ["Sig_L", "Usr_L", "Id_L"];

    /// Two schemas per name: a reader compiled against one is broken by a
    /// redefinition with the other.
    fn lat_spec(name: &str, reordered: bool) -> LatSpec {
        let key = match name {
            "Sig_L" => "Query.Logical_Signature",
            "Usr_L" => "Query.User",
            _ => "Query.ID",
        };
        let spec = LatSpec::new(name).group_by(key, "K");
        if reordered {
            spec.aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Dur")
                .aggregate(LatAggFunc::Count, "", "N")
        } else {
            spec.aggregate(LatAggFunc::Count, "", "N").aggregate(
                LatAggFunc::Avg,
                "Query.Duration",
                "Avg_Dur",
            )
        }
    }

    /// A condition over a `Query` payload, built to meet every way a last
    /// rule can change the rules before it — and every way it cannot.
    fn condition(rng: &mut Rng) -> Option<String> {
        let k = rng.below(4);
        let lat = LATS[rng.below(2)];
        Some(match rng.below(12) {
            0 => return None,
            // One candidate per tenant, each repeating `Query.Duration >= 0`.
            1 | 2 => format!("Query.User = 'u{k}' AND Query.Duration >= 0"),
            3 => "Query.Duration >= 0".into(),
            4 => format!("Query.Duration > {k}"),
            // Readers of a hoisted LAT, with and without a repeated subtree.
            5 => format!("{lat}.N >= {k} AND Query.Duration > 0.001"),
            6 => format!("{lat}.N >= 5 AND {lat}.Avg_Dur > 1"),
            7 => format!("{lat}.Avg_Dur > {k}"),
            8 => "Query.User LIKE 'a%'".into(),
            // The tenant condition inside a larger one.
            9 => format!("(Query.User = 'u{k}' AND Query.Duration >= 0) OR Query.Duration > 100"),
            // One subtree twice in one rule.
            10 => format!("Query.Duration * 2 > {k} OR Query.Duration * 2 > 7"),
            _ => format!("Query.User IN ('u{k}', 'u9') AND Query.Duration >= 0"),
        })
    }

    fn rule(rng: &mut Rng, name: String) -> Rule {
        let event = match rng.below(10) {
            0..=4 => RuleEvent::QueryCommit,
            5 | 6 => RuleEvent::QueryStart,
            7 | 8 => RuleEvent::TimerAlarm("t".into()),
            _ => RuleEvent::LatEviction(LATS[rng.below(3)].into()),
        };
        let on_query = event.payload_classes() == [ClassName::Query];
        let mut rule = Rule::new(name).on(event);
        // Off a `Query` payload, a LAT read is fetched per combination.
        match condition(rng) {
            Some(cond) if on_query || cond.contains("_L.") => rule = rule.when(&cond),
            _ => {}
        }
        let lat = LATS[rng.below(3)];
        rule.then(match rng.below(6) {
            0 | 1 => Action::insert(lat),
            2 => Action::reset(lat),
            3 => Action::send_mail("dba", "{Query.ID} ran"),
            _ => Action::send_mail("dba", "seen"),
        })
    }

    /// The events of `plan`'s classes with a condition that names `lat`.
    fn readers_of(plan: &DispatchPlan, lat: &str) -> HashSet<RuleEvent> {
        let regs = plan.rules.iter();
        regs.filter(|r| r.cond_lats.iter().any(|l| l.eq_ignore_ascii_case(lat)))
            .map(|r| r.rule.event.clone())
            .collect()
    }

    /// What the histories met, summed: a pool that stops reaching a path
    /// fails the test instead of passing it vacuously.
    #[derive(Default, Debug)]
    struct Met {
        appends: u32,
        rederived_adds: u32,
        rederived_for_a_new_hoist_slot: u32,
        rederived_for_the_first_index: u32,
        appends_off_the_payload: u32,
        appends_reading_a_hoist_slot: u32,
        appends_with_a_lat_guard: u32,
        appends_writing_a_hoist_slot: u32,
        broken: u32,
        redefined: u32,
        middle_removals: u32,
        dynamic_classes: u32,
    }

    fn history(seed: u64, met: &mut Met) {
        let engine = Engine::in_memory();
        let sqlcm = Sqlcm::attach(&engine);
        let mut rng = Rng(SmallRng::seed_from_u64(seed));
        let mut live: Vec<(String, RuleEvent)> = Vec::new();
        let mut prev = sqlcm.plan_and_oracle().0;
        for step in 0..60 {
            // What the step may re-plan; `None` = it must not publish.
            let touched: Option<HashSet<RuleEvent>> = match rng.below(20) {
                0..=10 => {
                    let rule = rule(&mut rng, format!("r{step}"));
                    let (name, event) = (rule.name.clone(), rule.event.clone());
                    sqlcm.add_rule(rule).ok().map(|_| {
                        live.push((name, event.clone()));
                        HashSet::from([event])
                    })
                }
                11..=14 if !live.is_empty() => {
                    let at = rng.below(live.len());
                    let (name, event) = live.remove(at);
                    let class = prev.event_plan(&event).expect("a live rule's class");
                    let last = class.rules.iter().last().expect("not empty");
                    met.middle_removals += u32::from(last.reg.rule.name != name);
                    assert!(sqlcm.remove_rule(&name));
                    Some(HashSet::from([event]))
                }
                11..=16 => {
                    let lat = LATS[rng.below(3)];
                    let dropped = sqlcm.drop_lat(lat);
                    dropped.then(|| readers_of(&prev, lat))
                }
                _ => {
                    let lat = LATS[rng.below(3)];
                    let defined = sqlcm.define_lat(lat_spec(lat, rng.below(3) == 0));
                    defined.ok().map(|_| readers_of(&prev, lat))
                }
            };
            let (plan, oracle) = sqlcm.plan_and_oracle();
            let Some(touched) = touched else {
                assert!(Arc::ptr_eq(&prev, &plan), "seed {seed} step {step}");
                continue;
            };
            assert_eq!(
                canonical(&plan),
                canonical(&oracle),
                "seed {seed} step {step}"
            );
            assert_eq!(plan.epoch, prev.epoch + 1);
            // Every class the step did not touch is the previous plan's.
            for (kind, (was, is)) in ProbeKind::ALL
                .iter()
                .zip(prev.probes.iter().zip(&plan.probes))
            {
                assert!(
                    touched.contains(&RuleEvent::from(*kind)) || Arc::ptr_eq(was, is),
                    "seed {seed} step {step}: probe class {kind:?} was planned again"
                );
            }
            assert!(plan
                .dynamics
                .keys()
                .all(|e| touched.contains(e) || prev.dynamics.contains_key(e)));
            for (event, was) in &prev.dynamics {
                assert!(
                    touched.contains(event) || Arc::ptr_eq(was, &plan.dynamics[event]),
                    "seed {seed} step {step}: {event} was planned again"
                );
            }
            let added = plan.rules.len() > prev.rules.len();
            if let (true, Some(ep)) = (
                added,
                plan.rules
                    .last()
                    .and_then(|r| plan.event_plan(&r.rule.event)),
            ) {
                let pr = ep.rules.iter().last().expect("the added rule");
                if plan.rules_planned == 1 && ep.rules.len() > 1 {
                    met.appends += 1;
                    // A LAT read goes through a hoist slot or, off the
                    // payload, is fetched per combination.
                    let off = pr.lat_slots.contains(&NO_HOIST);
                    met.appends_off_the_payload += u32::from(off);
                    let hoisted = pr.lat_slots.iter().any(|&s| s != NO_HOIST);
                    met.appends_reading_a_hoist_slot += u32::from(hoisted);
                    met.appends_with_a_lat_guard += u32::from(pr.lat_guard.is_some());
                    met.appends_writing_a_hoist_slot += u32::from(!pr.invalidates.is_empty());
                } else if ep.rules.len() > 2 {
                    met.rederived_adds += 1;
                    // Why `appended` declined: the rule's first read of a
                    // hoistable LAT made a slot, or it is the class's first
                    // indexable rule.
                    let was = prev.event_plan(&pr.reg.rule.event).expect("not empty");
                    let slot = ep.hoisted.len() > was.hoisted.len();
                    met.rederived_for_a_new_hoist_slot += u32::from(slot);
                    let index = was.guards.is_none() && ep.guards.is_some();
                    met.rederived_for_the_first_index += u32::from(index);
                }
            }
            let broken = |why: &str| {
                let rules = plan.classes().flat_map(|ep| ep.rules.iter());
                rules
                    .filter(|pr| pr.broken.as_deref().is_some_and(|b| b.contains(why)))
                    .count() as u32
            };
            met.broken += broken("unknown LAT");
            met.redefined += broken("different schema");
            met.dynamic_classes += plan.dynamics.len() as u32;
            prev = plan;
        }
    }

    /// The histories above keep their classes inside one block of rules:
    /// this one appends its way across two block boundaries.
    #[test]
    fn appending_across_rule_blocks_equals_the_plan_built_from_scratch() {
        let engine = Engine::in_memory();
        let sqlcm = Sqlcm::attach(&engine);
        for t in 0..2 * Rules::BLOCK + 3 {
            let tenant = format!("Query.User = 'u{t}' AND Query.Duration >= 0");
            let rule = Rule::new(format!("r{t}")).on(RuleEvent::QueryCommit);
            sqlcm.add_rule(rule.when(&tenant)).unwrap();
            let (plan, oracle) = sqlcm.plan_and_oracle();
            assert_eq!(canonical(&plan), canonical(&oracle), "rule {t}");
            assert_eq!(plan.rules_planned, if t == 1 { 2 } else { 1 });
            let class = plan.event_plan(&RuleEvent::QueryCommit).unwrap();
            assert_eq!(class.rules.len(), t + 1);
            assert_eq!(class.rules[t].reg.rule.name, format!("r{t}"));
            assert_eq!(class.rules.iter().count(), t + 1);
        }
    }

    /// Appends across the boundaries of what an append shares: the rule
    /// blocks (64 rules each) and the re-split points of the guard index's
    /// partitioned equality map, at 64, 128, … 1 024 values. At each size
    /// the appended plan equals the plan built from scratch.
    #[test]
    fn appending_across_blocks_and_partition_splits_equals_the_plan_built_from_scratch() {
        let engine = Engine::in_memory();
        let sqlcm = Sqlcm::attach(&engine);
        let sizes = [63, 64, 65, 127, 128, 129, 1_025];
        for t in 0..1_025 {
            let tenant = format!("Query.User = 'u{t}' AND Query.Duration >= 0");
            let rule = Rule::new(format!("r{t}")).on(RuleEvent::QueryCommit);
            sqlcm.add_rule(rule.when(&tenant)).unwrap();
            if !sizes.contains(&(t + 1)) {
                continue;
            }
            let (plan, oracle) = sqlcm.plan_and_oracle();
            assert_eq!(canonical(&plan), canonical(&oracle), "{} rules", t + 1);
            assert_eq!(plan.rules_planned, 1, "{} rules: appended", t + 1);
            let class = plan.event_plan(&RuleEvent::QueryCommit).unwrap();
            assert_eq!((class.rules.len(), plan.rules.len()), (t + 1, t + 1));
            assert_eq!(class.rules[t].reg.rule.name, format!("r{t}"));
        }
    }

    /// A second reader of a hoisted LAT shares the slot the first one
    /// created: nothing about the feeder's invalidation or the first
    /// reader changes, so the reader is appended instead of the class being
    /// derived again.
    #[test]
    fn a_reader_of_an_existing_hoist_slot_is_appended() {
        let engine = Engine::in_memory();
        let sqlcm = Sqlcm::attach(&engine);
        sqlcm.define_lat(lat_spec("Sig_L", false)).unwrap();
        let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
        let feeder = on_commit("feeder").then(Action::insert("Sig_L"));
        sqlcm.add_rule(feeder).unwrap();
        sqlcm
            .add_rule(on_commit("reader1").when("Sig_L.N >= 1"))
            .unwrap();
        sqlcm
            .add_rule(on_commit("reader2").when("Sig_L.N >= 2"))
            .unwrap();
        let (plan, oracle) = sqlcm.plan_and_oracle();
        assert_eq!(canonical(&plan), canonical(&oracle));
        assert_eq!(plan.rules_planned, 1);
        let class = plan.event_plan(&RuleEvent::QueryCommit).unwrap();
        assert_eq!(class.hoisted.len(), 1);
        assert_eq!(class.rules[0].invalidates, [0]);
        assert_eq!(class.rules[2].lat_slots, [0]);
    }

    /// A rule that repeats a subtree of an earlier rule's condition changes
    /// nothing about the rules before it — each evaluates its own condition
    /// — so it is appended, also when no other rule repeated the subtree.
    #[test]
    fn a_rule_repeating_an_earlier_subtree_is_appended() {
        let engine = Engine::in_memory();
        let sqlcm = Sqlcm::attach(&engine);
        let spec = LatSpec::new("L")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration");
        sqlcm.define_lat(spec).unwrap();
        let on_commit = |name: &str, cond: &str| {
            let rule = Rule::new(name).on(RuleEvent::QueryCommit).when(cond);
            rule.then(Action::send_mail("dba", "seen"))
        };
        let subtree = "Query.Duration > 5 * L.Avg_Duration";
        sqlcm.add_rule(on_commit("first", subtree)).unwrap();
        sqlcm
            .add_rule(on_commit("other", "Query.User = 'bob'"))
            .unwrap();
        let third = format!("{subtree} AND Query.User <> 'bob'");
        sqlcm.add_rule(on_commit("third", &third)).unwrap();
        let (plan, oracle) = sqlcm.plan_and_oracle();
        assert_eq!(canonical(&plan), canonical(&oracle));
        assert_eq!(plan.rules_planned, 1);
        let class = plan.event_plan(&RuleEvent::QueryCommit).unwrap();
        assert_eq!(class.rules.len(), 3);
        assert!(class.rules[2].program.is_some());
    }

    #[test]
    fn every_published_plan_equals_the_plan_built_from_scratch() {
        let mut met = Met::default();
        for seed in 0..240 {
            history(seed, &mut met);
        }
        println!("{met:?}");
        assert!(met.appends > 500 && met.rederived_adds > 200, "{met:?}");
        assert!(
            met.rederived_for_a_new_hoist_slot > 150 && met.rederived_for_the_first_index > 50,
            "{met:?}"
        );
        assert!(met.appends_off_the_payload > 10, "{met:?}");
        assert!(met.appends_reading_a_hoist_slot > 40, "{met:?}");
        assert!(
            met.appends_with_a_lat_guard > 40 && met.appends_writing_a_hoist_slot > 40,
            "{met:?}"
        );
        assert!(met.broken > 100 && met.redefined > 100, "{met:?}");
        assert!(
            met.middle_removals > 500 && met.dynamic_classes > 500,
            "{met:?}"
        );
    }
}
