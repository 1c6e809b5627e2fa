//! The whole-system reference monitor.
//!
//! [`ReferenceMonitor`] is to `Sqlcm` what [`ReferenceLat`] is to `Lat`: a
//! *deliberately naive* restatement of the paper's §5 rule contract, slow
//! and obviously correct, that the optimized monitor is differentially
//! tested against (`crates/core/tests/monitor_differential.rs`,
//! `tests/monitor_replay.rs`). The whole contract fits in
//! [`State::handle_one`]:
//!
//! * **fixed rule order** — rules live in a `Vec`, scanned linearly in
//!   registration order for every event;
//! * **pinned applicability** — which rules are enabled is read once per
//!   event, before any of them runs;
//! * **implicit ∃** — every LAT row a condition references is looked up
//!   fresh for that evaluation; a missing row makes the condition false;
//! * **read-your-predecessors'-writes** — follows from the two above: a
//!   rule sees every `Insert`/`Reset` of the rules registered before it;
//! * **deferred side effects** — eviction events raised by an `Insert` are
//!   queued and processed after all rules of the current event ran.
//!
//! There is no dispatch plan, bytecode, hoisted or shared lookup, guard
//! index or circuit breaker here: one mutex, the tree walk of
//! [`super::eval_condition`], and [`ReferenceLat`] tables. It keeps its own
//! per-rule counts, maps engine events to rule events and assembles their
//! payloads itself, keys LATs by their lowercased name, and builds evicted
//! rows and template text itself. `SendMail` and `RunExternal` append to an
//! action ledger instead of reaching a sink (a test may put a command sink
//! in front of the ledger, [`ReferenceMonitor::set_command_sink`]);
//! `PersistObject` records its row under its table name
//! ([`ReferenceMonitor::persisted`]), which a caller compares with the
//! engine table the real monitor wrote.
//!
//! Out of scope, by construction: the reference has no engine, so rules
//! whose conditions name a class outside their event's payload (§5.2 live
//! object iteration) evaluate zero combinations — what the real monitor does
//! on an idle engine — and `PersistLat`/`Cancel`/`SetTimer` actions fail. It
//! performs no static analysis; feed it only rule sets the real monitor
//! admits.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use sqlcm_common::{EngineEvent, Error, Result, SharedClock, Value};
use sqlcm_core::objects::{
    block_pair_objects, query_object, session_object, txn_object, ClassName, Object,
};
use sqlcm_core::sinks::CommandSink;
use sqlcm_core::{Action, LatSpec, Rule, RuleEvent, Sqlcm, SqlcmStats};

use super::lat::ReferenceLat;
use super::{eval_condition, substitute, Scope};

/// One external side effect, recorded in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerEntry {
    Mail { to: String, body: String },
    Command(String),
}

/// A rule's books: what a linear scan over every rule counts.
#[derive(Default)]
struct Counts {
    evaluations: Cell<u64>,
    fires: Cell<u64>,
    actions: Cell<u64>,
    /// Failed actions and condition errors.
    errors: Cell<u64>,
}

fn bump(count: &Cell<u64>) {
    count.set(count.get() + 1);
}

struct RefRule {
    rule: Arc<Rule>,
    counts: Counts,
    cond_classes: Vec<ClassName>,
    /// Lowercased names of the LATs the condition reads; resolved against the
    /// registry on every evaluation.
    cond_lats: Vec<String>,
    /// Per action: its LAT target, bound at registration like the real
    /// monitor's (a dropped LAT keeps absorbing its feeders' inserts).
    targets: Vec<Option<Arc<ReferenceLat>>>,
}

/// Events awaiting processing: the injected one, then whatever it raised.
type Pending = VecDeque<(RuleEvent, Vec<Object>)>;

struct State {
    /// `(lowercased name, table)` in definition order.
    lats: Vec<(String, Arc<ReferenceLat>)>,
    rules: Vec<RefRule>,
    stats: SqlcmStats,
    ledger: Vec<LedgerEntry>,
    /// `(table, row)` per `PersistObject`, in execution order.
    persisted: Vec<(String, Vec<Value>)>,
    command_sink: Option<Arc<dyn CommandSink>>,
}

/// The naive single-lock reference implementation. See the module docs.
pub struct ReferenceMonitor {
    clock: SharedClock,
    state: Mutex<State>,
}

impl ReferenceMonitor {
    pub fn new(clock: SharedClock) -> ReferenceMonitor {
        ReferenceMonitor {
            clock,
            state: Mutex::new(State {
                lats: Vec::new(),
                rules: Vec::new(),
                stats: SqlcmStats::default(),
                ledger: Vec::new(),
                persisted: Vec::new(),
                command_sink: None,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap()
    }

    pub fn define_lat(&self, spec: LatSpec) -> Result<()> {
        let key = spec.name.to_ascii_lowercase();
        let mut st = self.state();
        if st.lats.iter().any(|(k, _)| *k == key) {
            return Err(Error::Monitor(format!("LAT {} already exists", spec.name)));
        }
        let table = ReferenceLat::new(spec, self.clock.clone())?;
        st.lats.push((key, Arc::new(table)));
        Ok(())
    }

    pub fn drop_lat(&self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        let mut st = self.state();
        let before = st.lats.len();
        st.lats.retain(|(k, _)| *k != key);
        st.lats.len() != before
    }

    pub fn add_rule(&self, rule: Rule) -> Result<Arc<Rule>> {
        let mut st = self.state();
        if st.rules.iter().any(|r| r.rule.name == rule.name) {
            return Err(Error::Monitor(format!("rule {} already exists", rule.name)));
        }
        let (cond_classes, cond_lats) = rule.condition_refs()?;
        let resolve = |name: &str| {
            let key = name.to_ascii_lowercase();
            let found = st.lats.iter().find(|(k, _)| *k == key);
            found.map(|(_, lat)| lat.clone()).ok_or_else(|| {
                Error::Monitor(format!("rule {} references unknown LAT {name}", rule.name))
            })
        };
        for name in &cond_lats {
            resolve(name)?;
        }
        let targets = rule
            .actions
            .iter()
            .map(|a| a.lat_refs().map(&resolve).transpose())
            .collect::<Result<_>>()?;
        let rule = Arc::new(rule);
        st.rules.push(RefRule {
            rule: rule.clone(),
            counts: Counts::default(),
            cond_classes,
            cond_lats: cond_lats.iter().map(|l| l.to_ascii_lowercase()).collect(),
            targets,
        });
        Ok(rule)
    }

    /// The registered rule: [`Rule::set_enabled`] on it is how a rule is
    /// switched. Its [`Rule::stats`] stay zero — the reference keeps its own.
    pub fn rule(&self, name: &str) -> Option<Arc<Rule>> {
        let st = self.state();
        let found = st.rules.iter().find(|r| r.rule.name == name);
        found.map(|r| r.rule.clone())
    }

    /// The rows `PersistObject` actions wrote to `table`, in execution order.
    pub fn persisted(&self, table: &str) -> Vec<Vec<Value>> {
        let st = self.state();
        let rows = st.persisted.iter().filter(|(t, _)| t == table);
        rows.map(|(_, row)| row.clone()).collect()
    }

    /// The first observable difference between this monitor and `real`, given
    /// the same registrations and events: per-rule counters, global stats,
    /// the rows of every registered LAT, and the action ledger against
    /// `real`'s default recording sinks. `None` when they agree.
    pub fn divergence_from(&self, real: &Sqlcm) -> Option<String> {
        let st = self.state();
        for r in &st.rules {
            let name = &r.rule.name;
            let c = &r.counts;
            let want = (
                c.evaluations.get(),
                c.fires.get(),
                c.actions.get(),
                c.errors.get(),
            );
            let got = real.rule(name).map(|rule| {
                let s = rule.stats();
                (s.evaluations, s.fires, s.actions, s.action_errors)
            });
            if got != Some(want) {
                return Some(format!("rule {name}: real {got:?}, reference {want:?}"));
            }
        }
        if real.stats() != st.stats {
            let (got, want) = (real.stats(), st.stats);
            return Some(format!("stats: real {got:?}, reference {want:?}"));
        }
        for (key, lat) in &st.lats {
            let sorted = |mut rows: Vec<Vec<Value>>| {
                rows.sort();
                rows
            };
            let (want, got) = (sorted(lat.rows()), real.lat(key).map(|l| sorted(l.rows())));
            if got.as_ref() != Some(&want) {
                return Some(format!("LAT {key}: real {got:?}, reference {want:?}"));
            }
        }
        let mut ledger = real
            .outbox()
            .messages()
            .into_iter()
            .map(|(to, body)| LedgerEntry::Mail { to, body });
        let mut commands = real
            .command_log()
            .commands()
            .into_iter()
            .map(LedgerEntry::Command);
        for want in &st.ledger {
            let got = match want {
                LedgerEntry::Mail { .. } => ledger.next(),
                LedgerEntry::Command(_) => commands.next(),
            };
            if got.as_ref() != Some(want) {
                return Some(format!("ledger: real {got:?}, reference {want:?}"));
            }
        }
        ledger
            .chain(commands)
            .next()
            .map(|extra| format!("ledger: real also ran {extra:?}"))
    }

    /// Hand every `RunExternal` command to `sink` before recording it, so a
    /// test can run code mid-event or make the action fail: a command the
    /// sink refuses is the rule's action error and stays out of the ledger.
    /// The sink runs under the monitor's lock and must not call back into
    /// this monitor.
    pub fn set_command_sink(&self, sink: Arc<dyn CommandSink>) {
        self.state().command_sink = Some(sink);
    }

    /// Process one engine event and everything it raises, to completion.
    pub fn inject_event(&self, event: &EngineEvent) {
        let mut st = self.state();
        st.stats.events += 1;
        let mut pending = Pending::from([raised(event)]);
        while let Some((kind, objects)) = pending.pop_front() {
            st.handle_one(&kind, &objects, &mut pending);
        }
    }
}

/// The rule event an engine event raises and the objects it carries (§5.1).
fn raised(event: &EngineEvent) -> (RuleEvent, Vec<Object>) {
    let query = |kind, q| (kind, vec![query_object(q)]);
    let txn = |kind, t| (kind, vec![txn_object(t)]);
    let session = |kind, s| (kind, vec![session_object(s)]);
    let blocks = |kind, p| {
        let (blocker, blocked) = block_pair_objects(p);
        (kind, vec![blocker, blocked])
    };
    match event {
        EngineEvent::QueryStart(q) => query(RuleEvent::QueryStart, q),
        EngineEvent::QueryCompile(q) => query(RuleEvent::QueryCompile, q),
        EngineEvent::QueryCommit(q) => query(RuleEvent::QueryCommit, q),
        EngineEvent::QueryRollback(q) => query(RuleEvent::QueryRollback, q),
        EngineEvent::QueryCancel(q) => query(RuleEvent::QueryCancel, q),
        EngineEvent::QueryBlocked(p) => blocks(RuleEvent::QueryBlocked, p),
        EngineEvent::BlockReleased(p) => blocks(RuleEvent::BlockReleased, p),
        EngineEvent::TxnBegin(t) => txn(RuleEvent::TxnBegin, t),
        EngineEvent::TxnCommit(t) => txn(RuleEvent::TxnCommit, t),
        EngineEvent::TxnRollback(t) => txn(RuleEvent::TxnRollback, t),
        EngineEvent::Login(s) => session(RuleEvent::Login, s),
        EngineEvent::Logout(s) => session(RuleEvent::Logout, s),
    }
}

/// Whether a rule `on` this event runs for a `raised` one: LAT names match
/// in any case, timer names exactly.
fn subscribes(on: &RuleEvent, raised: &RuleEvent) -> bool {
    match (on, raised) {
        (RuleEvent::LatEviction(a), RuleEvent::LatEviction(b)) => a.eq_ignore_ascii_case(b),
        (RuleEvent::TimerAlarm(a), RuleEvent::TimerAlarm(b)) => a == b,
        _ => std::mem::discriminant(on) == std::mem::discriminant(raised),
    }
}

/// Whether `object` is of `class`; an evicted row names its LAT in any case.
fn is_of(object: &Object, class: &ClassName) -> bool {
    match (&object.class, class) {
        (ClassName::Evicted(a), ClassName::Evicted(b)) => a.eq_ignore_ascii_case(b),
        (a, b) => std::mem::discriminant(a) == std::mem::discriminant(b),
    }
}

fn in_scope<'o>(objects: &'o [Object], class: &ClassName) -> Result<&'o Object> {
    objects
        .iter()
        .find(|o| is_of(o, class))
        .ok_or_else(|| Error::Monitor(format!("no {class} in scope")))
}

fn attribute(object: &Object, name: &str) -> Result<Value> {
    let value = object.get(name).cloned();
    value.ok_or_else(|| Error::Monitor(format!("{} has no attribute {name}", object.class)))
}

/// One evaluation's names: the event's objects, then the rows the condition's
/// LATs bound.
struct RefScope<'a> {
    objects: &'a [Object],
    /// Per condition LAT: its lowercased name, its table, and the row the ∃
    /// bound.
    lats: Vec<(&'a str, &'a ReferenceLat, Option<Vec<Value>>)>,
}

impl Scope for RefScope<'_> {
    fn resolve(&self, qualifier: &str, name: &str) -> Result<Value> {
        if let Some(class) = ClassName::parse(qualifier) {
            return attribute(in_scope(self.objects, &class)?, name);
        }
        // The evicted row an eviction event carries is named by its LAT.
        let evicted = ClassName::Evicted(qualifier.to_string());
        if let Ok(row) = in_scope(self.objects, &evicted) {
            return attribute(row, name);
        }
        let (_, lat, row) = self
            .lats
            .iter()
            .find(|(key, ..)| key.eq_ignore_ascii_case(qualifier))
            .ok_or_else(|| Error::Monitor(format!("unknown LAT {qualifier}")))?;
        let row = row.as_ref().ok_or(Error::NoLatRow)?;
        let idx = lat
            .columns()
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::Monitor(format!("LAT {qualifier} has no column {name}")))?;
        Ok(row[idx].clone())
    }
}

impl State {
    /// Run every applicable rule against one event, in registration order.
    fn handle_one(&mut self, kind: &RuleEvent, objects: &[Object], pending: &mut Pending) {
        let State {
            lats,
            rules,
            stats,
            ledger,
            persisted,
            command_sink,
        } = self;
        let applicable: Vec<&RefRule> = rules
            .iter()
            .filter(|r| subscribes(&r.rule.event, kind) && r.rule.is_enabled())
            .collect();
        for r in applicable {
            let in_payload = |c: &ClassName| objects.iter().any(|o| is_of(o, c));
            if !r.cond_classes.iter().all(in_payload) {
                continue;
            }
            let counts = &r.counts;
            bump(&counts.evaluations);
            stats.evaluations += 1;
            let by_name = |n: &String| lats.iter().find(|(k, _)| k == n).map(|(_, lat)| lat);
            let Some(cond_lats) = r.cond_lats.iter().map(by_name).collect::<Option<Vec<_>>>()
            else {
                // A condition LAT was dropped: the evaluation is counted,
                // reported as an error by the real monitor, and never fires.
                continue;
            };
            let scope = RefScope {
                objects,
                lats: r
                    .cond_lats
                    .iter()
                    .zip(cond_lats)
                    .map(|(name, lat)| {
                        let source = lat.spec.source_class();
                        let row = in_scope(objects, source)
                            .ok()
                            .and_then(|obj| lat.lookup_for(obj));
                        (name.as_str(), &**lat, row)
                    })
                    .collect(),
            };
            let fire = match &r.rule.condition {
                None => true,
                Some(cond) => eval_condition(cond, &scope).unwrap_or_else(|_| {
                    bump(&counts.errors);
                    false
                }),
            };
            if !fire {
                continue;
            }
            bump(&counts.fires);
            stats.fires += 1;
            for (action, target) in r.rule.actions.iter().zip(&r.targets) {
                bump(&counts.actions);
                stats.actions += 1;
                let result = match (action, target) {
                    (Action::Insert { .. }, Some(lat)) => insert(lat, objects, rules, pending),
                    (Action::Reset { .. }, Some(lat)) => {
                        lat.reset();
                        Ok(())
                    }
                    (
                        Action::PersistObject {
                            table,
                            class,
                            attrs,
                        },
                        _,
                    ) => in_scope(objects, class).and_then(|obj| {
                        let row = attrs.iter().map(|a| attribute(obj, a));
                        persisted.push((table.clone(), row.collect::<Result<_>>()?));
                        Ok(())
                    }),
                    (Action::SendMail { to, template }, _) => {
                        let body = substitute(template, &scope);
                        let to = substitute(to, &scope);
                        ledger.push(LedgerEntry::Mail { to, body });
                        Ok(())
                    }
                    (Action::RunExternal { template }, _) => {
                        let cmd = substitute(template, &scope);
                        let sent = command_sink.as_ref().map_or(Ok(()), |sink| sink.run(&cmd));
                        if sent.is_ok() {
                            ledger.push(LedgerEntry::Command(cmd));
                        }
                        sent
                    }
                    (other, _) => Err(Error::Monitor(format!(
                        "the reference monitor does not model {other:?}"
                    ))),
                };
                if result.is_err() {
                    bump(&counts.errors);
                    stats.action_errors += 1;
                }
            }
        }
    }
}

/// `Insert(LAT)`: fold the in-scope source object in; if any rule (enabled or
/// not) subscribes to the LAT's eviction event, queue one event per victim,
/// carrying the evicted row as an object whose attributes are the LAT's
/// columns (§4.3).
fn insert(
    lat: &ReferenceLat,
    objects: &[Object],
    rules: &[RefRule],
    pending: &mut Pending,
) -> Result<()> {
    let spec = &lat.spec;
    let evicted = lat.insert(in_scope(objects, spec.source_class())?)?;
    let event = RuleEvent::LatEviction(spec.name.clone());
    if rules.iter().any(|r| subscribes(&r.rule.event, &event)) {
        let columns: Arc<[String]> = lat.columns().into();
        for row in evicted {
            let class = ClassName::Evicted(spec.name.clone());
            let object = Object::new(class, columns.clone(), row);
            pending.push_back((event.clone(), vec![object]));
        }
    }
    Ok(())
}
