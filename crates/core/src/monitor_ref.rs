//! Whole-system reference monitor (see [`crate::monitor`] for the real one).
//!
//! [`ReferenceMonitor`] is to [`crate::Sqlcm`] what [`ReferenceLat`] is to
//! [`crate::Lat`]: a *deliberately naive* restatement of the paper's §5 rule
//! contract, slow and obviously correct, that the optimized monitor is
//! differentially tested against
//! (`crates/core/tests/monitor_differential.rs`, `tests/monitor_replay.rs`).
//! The whole contract fits in [`State::handle_one`]:
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
//! index or circuit breaker here: one mutex, the tree-walk
//! [`crate::rules::oracle`], and [`ReferenceLat`] tables. `SendMail` and
//! `RunExternal` append to an action ledger instead of reaching a sink.
//!
//! Out of scope, by construction: the reference has no engine, so rules
//! whose conditions name a class outside their event's payload (§5.2 live
//! object iteration) evaluate zero combinations — what the real monitor does
//! on an idle engine — and `Persist`/`Cancel`/`Set` actions fail. It performs
//! no static analysis; feed it only rule sets the real monitor admits.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;
use sqlcm_common::{EngineEvent, Error, Result, SharedClock, Value};

use crate::actions::{substitute, Action};
use crate::lat::{Lat, LatSpec};
use crate::lat_ref::ReferenceLat;
use crate::monitor::{kind_of, payload_objects_in, Sqlcm, SqlcmStats};
use crate::objects::{evicted_object, ClassName, Object};
use crate::rules::{oracle, EvalContext, LatBinding, Rule, RuleEvent};
use crate::sinks::CommandSink;

/// One external side effect, recorded in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerEntry {
    Mail { to: String, body: String },
    Command(String),
}

struct RefLat {
    table: ReferenceLat,
    /// Never inserted into: [`LatBinding`] resolves column names through a
    /// [`Lat`] handle, and this one exists only to answer that.
    schema: Lat,
}

struct RefRule {
    rule: Arc<Rule>,
    cond_classes: Vec<ClassName>,
    /// Lowercased names of the LATs the condition reads; resolved against the
    /// registry on every evaluation.
    cond_lats: Vec<String>,
    /// Per action: its LAT target, bound at registration like the real
    /// monitor's (a dropped LAT keeps absorbing its feeders' inserts).
    targets: Vec<Option<Arc<RefLat>>>,
}

/// Events awaiting processing: the injected one, then whatever it raised.
type Pending = VecDeque<(RuleEvent, Vec<Object>)>;

struct State {
    /// `(lowercased name, table)` in definition order.
    lats: Vec<(String, Arc<RefLat>)>,
    rules: Vec<RefRule>,
    stats: SqlcmStats,
    ledger: Vec<LedgerEntry>,
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
                command_sink: None,
            }),
        }
    }

    pub fn define_lat(&self, spec: LatSpec) -> Result<()> {
        let key = spec.name.to_ascii_lowercase();
        let mut st = self.state.lock();
        if st.lats.iter().any(|(k, _)| *k == key) {
            return Err(Error::Monitor(format!("LAT {} already exists", spec.name)));
        }
        let lat = RefLat {
            table: ReferenceLat::new(spec.clone(), self.clock.clone())?,
            schema: Lat::new(spec, self.clock.clone())?,
        };
        st.lats.push((key, Arc::new(lat)));
        Ok(())
    }

    pub fn drop_lat(&self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        let mut st = self.state.lock();
        let before = st.lats.len();
        st.lats.retain(|(k, _)| *k != key);
        st.lats.len() != before
    }

    pub fn add_rule(&self, rule: Rule) -> Result<Arc<Rule>> {
        let mut st = self.state.lock();
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
            cond_classes,
            cond_lats: cond_lats.iter().map(|l| l.to_ascii_lowercase()).collect(),
            targets,
        });
        Ok(rule)
    }

    /// The registered rule: its [`Rule::stats`] are this monitor's per-rule
    /// counters, and [`Rule::set_enabled`] is how a rule is switched.
    pub fn rule(&self, name: &str) -> Option<Arc<Rule>> {
        let st = self.state.lock();
        let found = st.rules.iter().find(|r| r.rule.name == name);
        found.map(|r| r.rule.clone())
    }

    /// The first observable difference between this monitor and `real`, given
    /// the same registrations and events: per-rule counters, global stats,
    /// the rows of every registered LAT, and the action ledger against
    /// `real`'s default recording sinks. `None` when they agree.
    pub fn divergence_from(&self, real: &Sqlcm) -> Option<String> {
        let st = self.state.lock();
        for r in &st.rules {
            let name = &r.rule.name;
            let counters = |rule: &Rule| {
                let s = rule.stats();
                (s.evaluations, s.fires, s.actions, s.action_errors)
            };
            let (want, got) = (counters(&r.rule), real.rule(name).map(|r| counters(&r)));
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
            let (want, got) = (
                sorted(lat.table.rows()),
                real.lat(key).map(|l| sorted(l.rows())),
            );
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

    /// Also hand every `RunExternal` command to `sink` (after recording it),
    /// so a test can run code mid-event. The sink runs under the monitor's
    /// lock and must not call back into this monitor.
    pub fn set_command_sink(&self, sink: Arc<dyn CommandSink>) {
        self.state.lock().command_sink = Some(sink);
    }

    /// Process one engine event and everything it raises, to completion.
    pub fn inject_event(&self, event: &EngineEvent) {
        let mut st = self.state.lock();
        st.stats.events += 1;
        let mut objects = Vec::new();
        payload_objects_in(event, &mut objects, &mut Vec::new());
        let mut pending = Pending::from([(kind_of(event), objects)]);
        while let Some((kind, objects)) = pending.pop_front() {
            st.handle_one(&kind, &objects, &mut pending);
        }
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
            command_sink,
        } = self;
        let applicable: Vec<&RefRule> = rules
            .iter()
            .filter(|r| r.rule.event == *kind && r.rule.is_enabled())
            .collect();
        for r in applicable {
            let in_payload = |c: &ClassName| objects.iter().any(|o| o.class == *c);
            if !r.cond_classes.iter().all(in_payload) {
                continue;
            }
            let mine = r.rule.books.mine();
            mine.evaluations.fetch_add(1, Ordering::Relaxed);
            stats.evaluations += 1;
            let by_name = |n: &String| lats.iter().find(|(k, _)| k == n).map(|(_, lat)| lat);
            let Some(cond_lats) = r.cond_lats.iter().map(by_name).collect::<Option<Vec<_>>>()
            else {
                // A condition LAT was dropped: the evaluation is counted,
                // reported as an error by the real monitor, and never fires.
                continue;
            };
            let rows: Vec<Option<Vec<Value>>> = cond_lats
                .iter()
                .map(|lat| {
                    let source = lat.table.spec.source_class();
                    let obj = objects.iter().find(|o| o.class == *source)?;
                    lat.table.lookup_for(obj)
                })
                .collect();
            let bindings: Vec<LatBinding> = (0..rows.len())
                .map(|i| LatBinding {
                    name: &r.cond_lats[i],
                    lat: &cond_lats[i].schema,
                    row: rows[i].as_deref(),
                })
                .collect();
            let ctx = EvalContext {
                objects,
                lat_rows: &bindings,
            };
            let fire = match &r.rule.condition {
                None => true,
                Some(cond) => oracle::eval_condition(cond, &ctx).unwrap_or_else(|_| {
                    mine.action_errors.fetch_add(1, Ordering::Relaxed);
                    false
                }),
            };
            if !fire {
                continue;
            }
            mine.fires.fetch_add(1, Ordering::Relaxed);
            stats.fires += 1;
            for (action, target) in r.rule.actions.iter().zip(&r.targets) {
                mine.executed_actions.fetch_add(1, Ordering::Relaxed);
                stats.actions += 1;
                let result = match (action, target) {
                    (Action::Insert { .. }, Some(lat)) => insert(lat, objects, rules, pending),
                    (Action::Reset { .. }, Some(lat)) => {
                        lat.table.reset();
                        Ok(())
                    }
                    (Action::SendMail { to, template }, _) => {
                        let body = substitute(template, &ctx);
                        let to = substitute(to, &ctx);
                        ledger.push(LedgerEntry::Mail { to, body });
                        Ok(())
                    }
                    (Action::RunExternal { template }, _) => {
                        let cmd = substitute(template, &ctx);
                        ledger.push(LedgerEntry::Command(cmd.clone()));
                        if let Some(sink) = command_sink {
                            sink.run(&cmd);
                        }
                        Ok(())
                    }
                    (other, _) => Err(Error::Monitor(format!(
                        "the reference monitor does not model {other:?}"
                    ))),
                };
                if result.is_err() {
                    mine.action_errors.fetch_add(1, Ordering::Relaxed);
                    stats.action_errors += 1;
                }
            }
        }
    }
}

/// `Insert(LAT)`: fold the in-scope source object in; if any rule (enabled or
/// not) subscribes to the LAT's eviction event, queue one event per victim.
fn insert(
    lat: &RefLat,
    objects: &[Object],
    rules: &[RefRule],
    pending: &mut Pending,
) -> Result<()> {
    let spec = &lat.table.spec;
    let source = spec.source_class();
    let obj = objects
        .iter()
        .find(|o| o.class == *source)
        .ok_or_else(|| Error::Monitor(format!("no {source} in scope for Insert({})", spec.name)))?;
    let evicted = lat.table.insert(obj)?;
    let event = RuleEvent::LatEviction(spec.name.clone());
    if rules.iter().any(|r| r.rule.event == event) {
        for row in evicted {
            let obj = evicted_object(&spec.name, lat.schema.columns(), row);
            pending.push_back((event.clone(), vec![obj]));
        }
    }
    Ok(())
}
