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
//!   order, with pre-resolved LAT handles and `CompiledAction`s;
//! * rules on the same event whose conditions read the same LAT share one
//!   **hoist slot** (`HoistSlot`): the row snapshot is fetched once per
//!   event and reused across their condition evaluations — the paper's
//!   grouping idea applied to rule evaluation itself;
//! * equal condition subtrees appearing under ≥ 2 rules on the same event
//!   (canonical-hash keyed, structurally verified) get a **CSE slot**
//!   (`CseSlot`): the subexpression is evaluated once per event, later
//!   sharers load the cached value, and Phase C invalidation drops the
//!   value together with the hoist slots it reads through.
//!
//! **The event class is the unit of planning.** Hoist slots, CSE slots,
//! invalidations and the guard index never cross a class, so an
//! `EventPlan` is derived from its class's rules alone
//! (`EventPlan::derive`) and `DispatchPlan::build` — the definition, kept
//! under `#[cfg(test)]` as the differential oracle — is that, for every
//! class. Attach installs the empty plan, and a mutation
//! publishes its predecessor with only the classes it touches replaced
//! (`DispatchPlan::next`); the others are the same `Arc<EventPlan>`. A rule
//! added to a class is planned and emitted alone and *appended*
//! (`EventPlan::appended`) when nothing about the class's existing rules
//! can change — the two plans share them by the block (`Rules`), each hoist
//! slot's writer positions likewise, and the guard index's and CSE support's
//! partitions and entries the rule does not land in (`crate::shared`) — and
//! the class is derived again otherwise.
//!
//! Plans are owned by plain `Arc`s: the cell holds the current one, every
//! thread that dispatches caches the one it last used, and a superseded plan
//! — and each class, block of rules and partition that no newer plan shares
//! — is freed when the last of those lets go of it.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sqlcm_analyze::{Guard, LatGuard, RuleIr};
use sqlcm_common::{ProbeKind, ProbeMask};
use sqlcm_sql::{IrOp, NodeId};
use sqlcm_telemetry::Label;

use crate::containment::RuleBreaker;
use crate::guard::{GuardIndex, LatCheck};
use crate::ir::{CondIr, Resolved};
use crate::lat::Lat;
use crate::objects::ClassName;
use crate::rules::{EventClock, Rule, RuleEvent};
use crate::shared::{Blocks, Partitioned};
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
    /// to indexes). Bytecode is emitted from this when the rule's event
    /// class is planned, so CSE slot numbers can be local to the class.
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
    /// Actions with LAT handles resolved at registration.
    pub actions: Vec<CompiledAction>,
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

/// A [`crate::actions::Action`] as `add_rule` compiled it: one variant per
/// action, a LAT target resolved to its handle — no name lookup on the hot
/// path, and no LAT action left unresolved.
pub(crate) enum CompiledAction {
    Insert {
        lat: Arc<Lat>,
        /// Pre-built key for the eviction-subscription check.
        eviction_event: RuleEvent,
    },
    Reset(Arc<Lat>),
    PersistLat {
        table: String,
        lat: Arc<Lat>,
    },
    PersistObject {
        table: String,
        class: ClassName,
        attrs: Vec<String>,
    },
    SendMail {
        to: String,
        template: String,
    },
    RunExternal {
        template: String,
    },
    Cancel {
        class: ClassName,
    },
    SetTimer {
        timer: String,
        period_micros: u64,
        number_alarms: i64,
    },
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
    /// Condition bytecode, emitted when the class was planned — or the rule
    /// appended to it — with the class's CSE slot assignment baked in. `None` when the rule has no condition or is
    /// `broken`.
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
    /// Event-level shared-subexpression slots (see [`CseSlot`]).
    pub cse: Vec<CseSlot>,
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
    // What `derive` learned about the class that `appended` decides on;
    // dispatch reads none of it.
    /// Occurrences of each canonical hash among the rules' shareable nodes,
    /// partitioned so an append copies one partition of it.
    support: Partitioned<u32>,
    /// Canonical hash → the CSE slot its claimers share.
    slot_of: HashMap<u64, u16>,
}

/// One event-level shared-subexpression slot: the first sharer to evaluate
/// the subtree stores the value ([`crate::vm::Inst::CseStore`]), later
/// sharers load it instead of re-evaluating.
#[derive(Clone)]
pub(crate) struct CseSlot {
    /// Hoist-slot indexes the subtree reads through, sorted. When Phase C
    /// actually clears one of these hoist slots, the cached value must be
    /// dropped too — a shared value never outlives the row snapshot it came
    /// from.
    pub deps: Vec<u32>,
    /// The subtree every claimer was verified against: `(rule position in
    /// the class, node)`.
    exemplar: (usize, NodeId),
}

/// Minimum subtree size (in ops) for a CSE candidate — below this the slot
/// bookkeeping costs more than the re-evaluation it saves.
const CSE_MIN_SIZE: u32 = 3;

/// Enumerate CSE-candidate nodes of one rule's condition: subtrees whose
/// value is identical across every object combination of the event (all
/// attribute reads come from payload classes, all LAT reads go through hoist
/// slots), that actually read something (sharing a constant is pointless),
/// and that are big enough to be worth a slot. Stability composes bottom-up,
/// and the arena is post-order, so one linear pass suffices.
fn shareable_nodes(cond: &CondIr, payload: &[ClassName], lat_slots: &[u32]) -> Vec<NodeId> {
    let n = cond.ops.len();
    let mut stable = vec![false; n];
    let mut has_ref = vec![false; n];
    for id in 0..n as NodeId {
        let (s, r) = match cond.op(id) {
            IrOp::Ref(r) => match &cond.resolved[*r as usize] {
                Resolved::Attr { class, .. } => (payload.contains(class), true),
                Resolved::LatCol { lat_idx, .. } => (
                    lat_slots.get(*lat_idx).is_some_and(|&s| s != NO_HOIST),
                    true,
                ),
            },
            // Resolution rejects these; never shared.
            IrOp::Param(_) | IrOp::NamedParam(_) | IrOp::FuncCall { .. } => (false, false),
            // A constant is stable and reads nothing; an inner node is
            // stable when every operand is, and reads what they read.
            _ => cond.children(id).fold((true, false), |(s, r), c| {
                (s && stable[c as usize], r || has_ref[c as usize])
            }),
        };
        stable[id as usize] = s;
        has_ref[id as usize] = r;
    }
    (0..n as NodeId)
        .filter(|&id| {
            stable[id as usize] && has_ref[id as usize] && cond.size_of(id) >= CSE_MIN_SIZE
        })
        .collect()
}

/// Pre-order claim selection: the outermost eligible node whose hash has
/// enough support wins, and its interior is not descended — nested shared
/// subtrees don't get redundant slots of their own (the VM serves the whole
/// cached subtree in one load anyway).
fn choose_claims(
    cond: &CondIr,
    id: NodeId,
    eligible: &HashSet<NodeId>,
    support: &Partitioned<u32>,
    out: &mut Vec<NodeId>,
) {
    if eligible.contains(&id) && support.get(cond.hash_of(id)).copied().unwrap_or(0) >= 2 {
        out.push(id);
        return;
    }
    for child in cond.children(id) {
        choose_claims(cond, child, eligible, support, out);
    }
}

/// Number of statically-indexed events: the 12 probe kinds plus MonitorTick.
const STATIC_EVENTS: usize = ProbeKind::COUNT + 1;

/// Index into [`DispatchPlan::statics`] for events with no payload parameter;
/// `None` for the dynamic (name-carrying) events.
fn static_index(kind: &RuleEvent) -> Option<usize> {
    use sqlcm_common::ProbeKind as K;
    let probe = match kind {
        RuleEvent::QueryStart => K::QueryStart,
        RuleEvent::QueryCompile => K::QueryCompile,
        RuleEvent::QueryCommit => K::QueryCommit,
        RuleEvent::QueryRollback => K::QueryRollback,
        RuleEvent::QueryCancel => K::QueryCancel,
        RuleEvent::QueryBlocked => K::QueryBlocked,
        RuleEvent::BlockReleased => K::BlockReleased,
        RuleEvent::TxnBegin => K::TxnBegin,
        RuleEvent::TxnCommit => K::TxnCommit,
        RuleEvent::TxnRollback => K::TxnRollback,
        RuleEvent::Login => K::Login,
        RuleEvent::Logout => K::Logout,
        RuleEvent::MonitorTick => return Some(ProbeKind::COUNT),
        RuleEvent::TimerAlarm(_) | RuleEvent::LatEviction(_) => return None,
    };
    Some(probe.index())
}

/// Resolve one rule against the LAT registry and assign hoist slots.
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
    for action in &reg.actions {
        let (CompiledAction::Insert { lat, .. } | CompiledAction::Reset(lat)) = action else {
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

/// Assign event-level CSE slots and emit each rule's bytecode program.
///
/// Candidate subtrees (see [`shareable_nodes`]) are grouped by canonical
/// structural hash with [`sqlcm_sql::ExprIr::subtree_eq`] as the collision guard;
/// groups evaluated at least twice per event — by two rules, or twice
/// within one — get a slot: the first evaluation stores the value, later
/// ones load it. Every unbroken rule with a condition gets its program
/// here. Returns the slots with the two maps [`EventPlan::appended`] decides
/// on: occurrences per hash (`EventPlan::support`) and hash → slot
/// (`EventPlan::slot_of`).
fn assign_cse_and_emit(
    rules: &mut [PlanRule],
    payload: &[ClassName],
) -> (Vec<CseSlot>, Partitioned<u32>, HashMap<u64, u16>) {
    let mut eligible: Vec<Vec<NodeId>> = Vec::with_capacity(rules.len());
    for pr in rules.iter() {
        let nodes = match &pr.reg.compiled {
            Some(c) if pr.broken.is_none() => shareable_nodes(c, payload, &pr.lat_slots),
            _ => Vec::new(),
        };
        eligible.push(nodes);
    }
    // Occurrence count per canonical hash across the whole event.
    let mut support: Partitioned<u32> = Partitioned::default();
    for (pr, nodes) in rules.iter().zip(&eligible) {
        if let Some(c) = &pr.reg.compiled {
            for &id in nodes {
                *support.entry(c.hash_of(id)) += 1;
            }
        }
    }
    // Outermost-first claims per rule.
    let mut claims: Vec<Vec<NodeId>> = Vec::with_capacity(rules.len());
    for (pr, nodes) in rules.iter().zip(&eligible) {
        let mut out = Vec::new();
        if !nodes.is_empty() {
            if let Some(c) = &pr.reg.compiled {
                let set: HashSet<NodeId> = nodes.iter().copied().collect();
                choose_claims(c, c.root, &set, &support, &mut out);
            }
        }
        claims.push(out);
    }
    // Group claims by hash, structurally verified against the group's
    // exemplar subtree so a hash collision degrades to private
    // evaluation instead of serving a wrong value.
    struct Group {
        exemplar: (usize, NodeId),
        claimers: u32,
    }
    let mut by_hash: HashMap<u64, Group> = HashMap::new();
    let mut mapped: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); rules.len()];
    for (ri, rule_claims) in claims.iter().enumerate() {
        let Some(c) = rules[ri].reg.compiled.as_ref() else {
            continue;
        };
        for &id in rule_claims {
            let h = c.hash_of(id);
            match by_hash.entry(h) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let (xr, xn) = e.get().exemplar;
                    let ex = rules[xr].reg.compiled.as_ref().unwrap();
                    if ex.subtree_eq(xn, c, id) {
                        e.get_mut().claimers += 1;
                        mapped[ri].push((id, h));
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(Group {
                        exemplar: (ri, id),
                        claimers: 1,
                    });
                    mapped[ri].push((id, h));
                }
            }
        }
    }
    // Final numbering in first-claim order: only groups claimed at least
    // twice survive (maximal selection can leave a supported hash with a
    // single claim when its other occurrences sit inside larger claims).
    let mut slot_of: HashMap<u64, u16> = HashMap::new();
    let mut cse: Vec<CseSlot> = Vec::new();
    let mut rule_maps: Vec<HashMap<NodeId, u16>> = vec![HashMap::new(); rules.len()];
    for (ri, pairs) in mapped.iter().enumerate() {
        for &(id, h) in pairs {
            let g = &by_hash[&h];
            if g.claimers < 2 {
                continue;
            }
            let (xr, xn) = g.exemplar;
            let slot = *slot_of.entry(h).or_insert_with(|| {
                let ex_pr = &rules[xr];
                let ex = ex_pr.reg.compiled.as_ref().unwrap();
                let mut deps: Vec<u32> = Vec::new();
                ex.for_each(xn, &mut |id| {
                    let IrOp::Ref(r) = ex.op(id) else {
                        return;
                    };
                    if let Resolved::LatCol { lat_idx, .. } = ex.resolved[*r as usize] {
                        if let Some(&hs) = ex_pr.lat_slots.get(lat_idx) {
                            if hs != NO_HOIST && !deps.contains(&hs) {
                                deps.push(hs);
                            }
                        }
                    }
                });
                deps.sort_unstable();
                cse.push(CseSlot {
                    deps,
                    exemplar: g.exemplar,
                });
                (cse.len() - 1) as u16
            });
            rule_maps[ri].insert(id, slot);
        }
    }
    for (ri, pr) in rules.iter_mut().enumerate() {
        if pr.broken.is_some() {
            continue;
        }
        if let Some(c) = &pr.reg.compiled {
            pr.program = Some(Program::emit(c, &rule_maps[ri]));
        }
    }
    (cse, support, slot_of)
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
        // Invalidations and CSE slots both need the *complete* rule set (a
        // writer can be registered before the first reader creates its
        // slot, and a subtree's sharers after each other), so they are
        // computed only once every rule of the class is planned. Bytecode
        // emission rides along because CSE slot numbers are baked into the
        // programs.
        let mut writers = vec![Vec::new(); hoisted.len()];
        for (ri, pr) in rules.iter_mut().enumerate() {
            pr.invalidates = invalidations_of(&pr.reg, &hoisted);
            for &slot in &pr.invalidates {
                writers[slot as usize].push(ri as u32);
            }
        }
        let (cse, support, slot_of) = assign_cse_and_emit(&mut rules, &payload);
        EventPlan {
            // Built after emission: only rules with a live program are
            // indexable.
            guards: GuardIndex::build(&rules),
            rules: rules.into(),
            payload,
            hoisted,
            writers: writers.into_iter().map(Blocks::from).collect(),
            cse,
            label: event.to_string().into(),
            clock: first.rule.clock().cloned(),
            support,
            slot_of,
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
    ///   position to the slot's `writers`);
    /// * a claim no existing CSE slot serves starts or completes a group of
    ///   claimers, and a completed group's first claimer starts storing.
    ///   That covers the subtree one earlier rule held alone: its second
    ///   holder claims it, or something around it that is as new.
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
        let mut support = self.support.clone();
        if let Some(c) = &reg.compiled {
            let eligible = shareable_nodes(c, &payload, &pr.lat_slots);
            for &id in &eligible {
                *support.entry(c.hash_of(id)) += 1;
            }
            let mut claims = Vec::new();
            let eligible: HashSet<NodeId> = eligible.into_iter().collect();
            choose_claims(c, c.root, &eligible, &support, &mut claims);
            let mut slots = HashMap::new();
            for id in claims {
                let slot = *self.slot_of.get(&c.hash_of(id))?;
                let (xr, xn) = self.cse[slot as usize].exemplar;
                let exemplar = self.rules[xr].reg.compiled.as_ref()?;
                if !exemplar.subtree_eq(xn, c, id) {
                    return None;
                }
                slots.insert(id, slot);
            }
            pr.program = Some(Program::emit(c, &slots));
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
            cse: self.cse.clone(),
            guards,
            label: self.label.clone(),
            clock: self.clock.clone(),
            support,
            slot_of: self.slot_of.clone(),
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
    /// Plans for the statically-indexed events (probe kinds + MonitorTick).
    /// Each behind its own `Arc`: successive plans share the classes a
    /// mutation did not touch, and a sampled trace can keep the plan of the
    /// event it recorded and explain its pruned rules when read.
    statics: [Arc<EventPlan>; STATIC_EVENTS],
    /// Plans for name-carrying events (`Timer.Alarm`, LAT evictions), one
    /// per event with a rule. Immutable after build, so lookups are
    /// lock-free.
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
            statics: self.statics.clone(),
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
        self.statics.iter().chain(self.dynamics.values())
    }

    /// Replace `event`'s class with `ep`, moving the guard counts from the
    /// class it replaces to `ep`.
    fn set_class(&mut self, event: &RuleEvent, ep: EventPlan) {
        let (indexed, residual) = ep.guard_counts();
        self.guard_indexed_rules += indexed;
        self.guard_residual_rules += residual;
        let replaced = match static_index(event) {
            Some(i) => Some(std::mem::replace(&mut self.statics[i], Arc::new(ep))),
            None if ep.rules.is_empty() => self.dynamics.remove(event),
            None => self.dynamics.insert(event.clone(), Arc::new(ep)),
        };
        if let Some((indexed, residual)) = replaced.map(|ep| ep.guard_counts()) {
            self.guard_indexed_rules -= indexed;
            self.guard_residual_rules -= residual;
        }
    }

    /// The probe kinds the statically-indexed classes subscribe (left empty
    /// by `build` and `next` until every class is set).
    fn set_probe_mask(&mut self) {
        for kind in ProbeKind::ALL {
            if !self.statics[kind.index()].rules.is_empty() {
                self.probe_mask.set(kind);
            }
        }
    }

    /// The event plan for `kind`, if any rule subscribes.
    pub fn event_plan(&self, kind: &RuleEvent) -> Option<&Arc<EventPlan>> {
        let ep = match static_index(kind) {
            Some(i) => &self.statics[i],
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
        for ep in &self.statics {
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
            actions: Vec::new(),
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
            actions: Vec::new(),
            cond_classes: vec![ClassName::Query],
            cond_lats,
            breaker: RuleBreaker::default(),
        })
    }

    #[test]
    fn shared_condition_subtrees_get_one_cse_slot() {
        let lat = test_lat("L");
        let mut lats = HashMap::new();
        lats.insert("l".to_string(), lat);
        let cond = "L.Avg_Duration > 5 AND Query.Duration > 2";
        let rules = vec![
            registered_cond("a", RuleEvent::QueryCommit, &["l"], cond, &lats),
            registered_cond("b", RuleEvent::QueryCommit, &["l"], cond, &lats),
        ];
        let plan = DispatchPlan::build(1, &rules, &lats);
        let ep = plan.event_plan(&RuleEvent::QueryCommit).unwrap();
        assert_eq!(ep.cse.len(), 1, "whole shared condition gets one slot");
        assert_eq!(ep.cse[0].deps, vec![0], "slot depends on the hoisted LAT");
        assert!(ep.rules.iter().all(|pr| pr.program.is_some()));
        // A single rule has nothing to share with: no slot survives pruning.
        let solo = vec![registered_cond(
            "a",
            RuleEvent::QueryCommit,
            &["l"],
            cond,
            &lats,
        )];
        let plan = DispatchPlan::build(3, &solo, &lats);
        let ep = plan.event_plan(&RuleEvent::QueryCommit).unwrap();
        assert!(ep.cse.is_empty());
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
    use crate::actions::Action;
    use crate::lat::{LatAggFunc, LatSpec};
    use crate::monitor::Sqlcm;
    use rand::rngs::SmallRng;
    use rand::{Rng as _, SeedableRng};
    use sqlcm_engine::Engine;

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
        for c in &ep.cse {
            out += &format!("  cse deps={:?} exemplar={:?}\n", c.deps, c.exemplar);
        }
        let sorted = |map: &HashMap<u64, _>| {
            let mut pairs: Vec<_> = map.iter().map(|(k, v)| (*k, *v)).collect();
            pairs.sort_unstable();
            pairs
        };
        out += &format!(
            "  support={:?}\n  slot_of={:?}\n  guards {}\n",
            sorted(&ep.support.iter().map(|(k, v)| (*k, *v)).collect()),
            {
                let slot_of: HashMap<u64, u32> = ep
                    .slot_of
                    .iter()
                    .map(|(k, v)| (*k, u32::from(*v)))
                    .collect();
                sorted(&slot_of)
            },
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
            // One candidate per tenant; `Query.Duration >= 0` goes from one
            // holder to two, then on to many.
            1 | 2 => format!("Query.User = 'u{k}' AND Query.Duration >= 0"),
            3 => "Query.Duration >= 0".into(),
            4 => format!("Query.Duration > {k}"),
            // Readers of a hoisted LAT, with and without a shared subtree.
            5 => format!("{lat}.N >= {k} AND Query.Duration > 0.001"),
            6 => format!("{lat}.N >= 5 AND {lat}.Avg_Dur > 1"),
            7 => format!("{lat}.Avg_Dur > {k}"),
            8 => "Query.User LIKE 'a%'".into(),
            // The tenant condition inside a larger claim: its holders then
            // leave `Query.Duration >= 0` a group without a slot.
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
        appends_sharing_a_slot: u32,
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
            let touched_statics: HashSet<usize> = touched.iter().filter_map(static_index).collect();
            for (i, (was, is)) in prev.statics.iter().zip(&plan.statics).enumerate() {
                assert!(
                    touched_statics.contains(&i) || Arc::ptr_eq(was, is),
                    "seed {seed} step {step}: static class {i} was planned again"
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
                    let loads = format!("{:?}", pr.program).contains("CseLoad");
                    met.appends_sharing_a_slot += u32::from(loads);
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
    /// blocks (64 rules each) and the re-split points of the partitioned
    /// maps — the guard index's equality map re-splits at 64, 128, … 1 024
    /// values, and the CSE support map as it passes the same sizes. At each
    /// size the appended plan equals the plan built from scratch.
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

    #[test]
    fn every_published_plan_equals_the_plan_built_from_scratch() {
        let mut met = Met::default();
        for seed in 0..240 {
            history(seed, &mut met);
        }
        println!("{met:?}");
        assert!(met.appends > 500 && met.rederived_adds > 500, "{met:?}");
        assert!(
            met.appends_sharing_a_slot > 50 && met.appends_off_the_payload > 10,
            "{met:?}"
        );
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
