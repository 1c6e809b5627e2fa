//! The registry: LATs and rules, the analyzer kept across registrations,
//! the counted registry locks, and `rebuild_plan` — called by the four
//! registry mutations (`define_lat`, `drop_lat`, `add_rule`, `remove_rule`)
//! and by nothing else, so the published plan is always the plan of the
//! registry.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sqlcm_common::{Error, Result};

use sqlcm_analyze::{rule_guard, Analyzer, Code, Diagnostic};

use crate::actions::{persist_rows, read_table, Action};
use crate::containment::RuleBreaker;
use crate::lat::{Lat, LatAggFunc, LatSpec};
use crate::plan::{Change, CompiledAction, Registered};
use crate::rules::{Rule, RuleEvent};

use super::{Sqlcm, SqlcmInner};

/// [`SqlcmInner::registration`], held.
type Registration<'a> = parking_lot::MutexGuard<'a, Option<Analyzer>>;

/// Upper bound on retained analyzer warnings; the oldest are dropped first.
const MAX_ANALYSIS_WARNINGS: usize = 1024;

/// The registered rules in registration order — what the slice it derefs
/// to holds — and by name.
#[derive(Default)]
pub(super) struct RuleTable {
    order: Vec<Arc<Registered>>,
    by_name: HashMap<String, Arc<Registered>>,
}

impl std::ops::Deref for RuleTable {
    type Target = [Arc<Registered>];

    fn deref(&self) -> &[Arc<Registered>] {
        &self.order
    }
}

impl RuleTable {
    fn push(&mut self, reg: Arc<Registered>) {
        self.by_name.insert(reg.rule.name.clone(), reg.clone());
        self.order.push(reg);
    }

    fn remove(&mut self, name: &str) -> Option<Arc<Registered>> {
        let reg = self.by_name.remove(name)?;
        self.order.retain(|r| !Arc::ptr_eq(r, &reg));
        Some(reg)
    }
}

/// The analyzer warnings kept for [`Sqlcm::analysis_warnings`], oldest
/// first, with the (code, rule, message) of each so a repeat is skipped in
/// one lookup.
#[derive(Default)]
pub(super) struct WarningLog {
    entries: VecDeque<Diagnostic>,
    seen: HashSet<(Code, String, String)>,
}

impl SqlcmInner {
    // -------------------------------------------------- counted registry locks

    // Dispatch never touches the registry locks; registration, mutation and
    // action-interpretation paths acquire them through these counted helpers
    // so tests can pin the hot path at zero acquisitions. Pure observability
    // accessors (telemetry snapshot, `Sqlcm::lat` & co.) read the registries
    // uncounted so *reading* the counter does not perturb it.

    fn lats_read(&self) -> parking_lot::RwLockReadGuard<'_, HashMap<String, Arc<Lat>>> {
        self.telemetry.reg_lock_acquisitions.incr();
        self.lats.read()
    }

    fn lats_write(&self) -> parking_lot::RwLockWriteGuard<'_, HashMap<String, Arc<Lat>>> {
        self.telemetry.reg_lock_acquisitions.incr();
        self.lats.write()
    }

    fn rules_read(&self) -> parking_lot::RwLockReadGuard<'_, RuleTable> {
        self.telemetry.reg_lock_acquisitions.incr();
        self.rules.read()
    }

    fn rules_write(&self) -> parking_lot::RwLockWriteGuard<'_, RuleTable> {
        self.telemetry.reg_lock_acquisitions.incr();
        self.rules.write()
    }

    /// Publish the plan of the registry as `change` just left it — called by
    /// the four registry mutations, under the registration lock, and nothing
    /// else, so the epoch counts them. The plan is its predecessor with only
    /// the event classes `change` touches planned again; the superseded plan
    /// is let go of here, on the registering thread.
    fn rebuild_plan(&self, _held: &Registration<'_>, change: Change<'_>) {
        let prev = self.plan.load();
        let rules = self.rules_read();
        let lats = self.lats_read();
        let plan = prev.next(&rules, &lats, change);
        drop((rules, lats));
        self.telemetry.plan_rules_planned.add(plan.rules_planned);
        self.plan.swap(Arc::new(plan));
        self.telemetry.plan_rebuilds.incr();
    }

    /// The registered rule of that name. Uncounted registry read, like the
    /// other observability accessors.
    pub(super) fn registered(&self, name: &str) -> Option<Arc<Registered>> {
        self.rules.read().by_name.get(name).cloned()
    }
}

impl Sqlcm {
    // ------------------------------------------------------------ LATs

    /// Define a light-weight aggregation table. The spec is validated
    /// structurally and then checked by the static analyzer (unknown class or
    /// attribute sources are denied with an `E001` diagnostic).
    pub fn define_lat(&self, spec: LatSpec) -> Result<Arc<Lat>> {
        spec.validate()?;
        let mut registration = self.inner.registration.lock();
        let diags = self.analyzer(&mut registration).check_lat(&spec);
        self.deny_on_errors(diags)?;
        let key = spec.name.to_ascii_lowercase();
        let lat = (|| {
            let mut lats = self.inner.lats_write();
            if lats.contains_key(&key) {
                return Err(Error::Monitor(format!("LAT {} already exists", spec.name)));
            }
            let lat = Arc::new(Lat::new(spec, self.inner.clock.clone())?);
            lats.insert(key.clone(), lat.clone());
            Ok(lat)
        })()
        // The analyzer admitted a schema the registry did not take.
        .inspect_err(|_| *registration = None)?;
        // A dropped-and-redefined LAT un-breaks rules conditioned on it;
        // republish so the new plan binds the fresh handle.
        self.inner.rebuild_plan(&registration, Change::Lat(&key));
        Ok(lat)
    }

    /// The analyzer kept under the registration lock: every registered LAT
    /// checked and every registered rule admitted (each rule's IR by `Arc`
    /// clone — nothing is re-lowered). Seeded from the registry when there is
    /// none — at first use, and after a `drop_lat` discarded it (a schema
    /// cannot be taken out of it; a rule can, and `remove_rule` does).
    fn analyzer<'a>(&self, kept: &'a mut Option<Analyzer>) -> &'a mut Analyzer {
        kept.get_or_insert_with(|| {
            let mut analyzer = Analyzer::new();
            for lat in self.inner.lats_read().values() {
                let diags = analyzer.check_lat(&lat.spec);
                debug_assert!(
                    diags.is_empty(),
                    "registered LAT re-checks clean: {diags:?}"
                );
            }
            for reg in self.inner.rules_read().iter() {
                analyzer.seed_rule(reg.ir.clone());
            }
            analyzer
        })
    }

    /// Split analyzer output: error diagnostics deny the registration (joined
    /// into one `Error::Monitor` whose message carries the stable codes);
    /// warnings are appended to [`Sqlcm::analysis_warnings`].
    fn deny_on_errors(&self, diags: Vec<Diagnostic>) -> Result<()> {
        let (errors, warnings): (Vec<_>, Vec<_>) =
            diags.into_iter().partition(Diagnostic::is_error);
        self.record_warnings(warnings);
        if errors.is_empty() {
            return Ok(());
        }
        let msg = errors
            .iter()
            .map(Diagnostic::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        Err(Error::Monitor(msg))
    }

    /// Append analyzer warnings to the log, skipping (code, rule, message)
    /// repeats — re-registration loops would otherwise fill the log with
    /// copies — and dropping the oldest entries past the cap so the log's
    /// memory stays bounded over the instance's lifetime.
    fn record_warnings(&self, warnings: Vec<Diagnostic>) {
        if warnings.is_empty() {
            return;
        }
        let mut log = self.inner.analysis_warnings.lock();
        let key = |w: &Diagnostic| (w.code, w.rule.clone(), w.message.clone());
        for w in warnings {
            if !log.seen.insert(key(&w)) {
                continue;
            }
            if log.entries.len() >= MAX_ANALYSIS_WARNINGS {
                let oldest = log.entries.pop_front().expect("full");
                log.seen.remove(&key(&oldest));
            }
            log.entries.push_back(w);
        }
    }

    /// Warnings the static analyzer has collected across registrations.
    pub fn analysis_warnings(&self) -> Vec<Diagnostic> {
        self.inner.analysis_warnings.lock().entries.clone().into()
    }

    /// Drop every collected analyzer warning (an operator "mark as read").
    pub fn clear_analysis_warnings(&self) {
        *self.inner.analysis_warnings.lock() = WarningLog::default();
    }

    /// Run the static analyzer on a rule against the current LATs and rules
    /// without registering anything — a lint probe.
    pub fn analyze_rule(&self, rule: &Rule) -> Vec<Diagnostic> {
        let mut registration = self.inner.registration.lock();
        self.analyzer(&mut registration).diagnose(&rule.ir())
    }

    pub fn drop_lat(&self, name: &str) -> bool {
        let mut registration = self.inner.registration.lock();
        let key = name.to_ascii_lowercase();
        let removed = self.inner.lats_write().remove(&key).is_some();
        if removed {
            *registration = None;
            // Rules conditioned on the dropped LAT become `broken` in the new
            // plan (they error per evaluation, as the old per-event resolution
            // did); Insert targets keep their resolved handle.
            self.inner.rebuild_plan(&registration, Change::Lat(&key));
        }
        removed
    }

    pub fn lat(&self, name: &str) -> Option<Arc<Lat>> {
        self.inner
            .lats
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
    }

    /// Total approximate memory of all LATs (the knob of §4.3's "managing LAT
    /// memory overhead").
    pub fn lat_memory_bytes(&self) -> usize {
        self.inner
            .lats
            .read()
            .values()
            .map(|l| l.memory_bytes())
            .sum()
    }

    /// Persist a LAT to a table immediately (outside any rule).
    pub fn persist_lat(&self, lat: &str, table: &str) -> Result<u64> {
        let lat = self
            .lat(lat)
            .ok_or_else(|| Error::Monitor(format!("unknown LAT {lat}")))?;
        persist_rows(&self.inner.engine, table, self.inner.timestamped_rows(&lat))
    }

    /// Re-seed a LAT from a previously persisted table (the §4.3 "maintain LAT
    /// data over multiple restarts" path). `count_column` names the LAT's COUNT
    /// column to use as the seed weight for AVG/STDEV, when present.
    pub fn restore_lat(&self, lat: &str, table: &str, count_column: Option<&str>) -> Result<u64> {
        let lat = self
            .lat(lat)
            .ok_or_else(|| Error::Monitor(format!("unknown LAT {lat}")))?;
        let cols = lat.columns();
        let count_idx = count_column.and_then(|c| lat.column_index(c));
        let rows = read_table(&self.inner.engine, table)?;
        let mut n = 0;
        for mut row in rows {
            // Accept the persisted layout (columns + timestamp) or bare columns.
            if row.len() == cols.len() + 1 {
                row.pop();
            }
            let weight = count_idx
                .and_then(|i| row.get(i))
                .and_then(|v| v.as_i64())
                .unwrap_or(1);
            lat.seed_row(&row, weight)?;
            n += 1;
        }
        Ok(n)
    }

    // ------------------------------------------------------------ rules

    /// Register a rule. The static analyzer checks it first — unknown
    /// references (E001), condition type errors (E002), unjoinable LAT
    /// probes (E003) and cascade cycles (E004) deny registration with a
    /// coded diagnostic; warnings (W101/W102/W201) are collected and
    /// readable via [`Sqlcm::analysis_warnings`]. What the analyzer admits
    /// is then compiled against the live LATs.
    pub fn add_rule(&self, mut rule: Rule) -> Result<Arc<Rule>> {
        let mut registration = self.inner.registration.lock();
        if self.inner.rules_read().by_name.contains_key(&rule.name) {
            return Err(Error::Monitor(format!("rule {} already exists", rule.name)));
        }
        // The one lowering of the rule: the analyzer's checks, the guard
        // verdict and the compiled condition below all read this artifact.
        let analyzer = self.analyzer(&mut registration);
        let ir = Arc::new(rule.ir());
        self.deny_on_errors(analyzer.diagnose(&ir))?;
        // Captured for the dispatch plan: the guard verdict is what its event
        // class's guard index installs and its dispatch checks.
        let (guard, lat_guard) = rule_guard(&ir).map_or((None, None), |g| (g.payload, g.lat));
        // The analyzer denied unqualified columns (E001) above.
        let (cond_classes, cond_lats) = ir.refs();
        let cond_lats_lc: Vec<String> = cond_lats.iter().map(|l| l.to_ascii_lowercase()).collect();
        let (compiled, compiled_actions) = {
            let lats = self.inner.lats_read();
            for l in &cond_lats {
                if !lats.contains_key(&l.to_ascii_lowercase()) {
                    return Err(Error::Monitor(format!(
                        "rule {} references unknown LAT {l}",
                        rule.name
                    )));
                }
            }
            // Every action becomes its compiled variant; a LAT target is
            // resolved to its handle here or the registration fails.
            let lat_of = |name: &str| {
                lats.get(&name.to_ascii_lowercase())
                    .cloned()
                    .ok_or_else(|| {
                        Error::Monitor(format!("rule {} targets unknown LAT {name}", rule.name))
                    })
            };
            let compiled_actions = rule
                .actions
                .iter()
                .map(|a| {
                    Ok(match a.clone() {
                        Action::Insert { lat } => {
                            let lat = lat_of(&lat)?;
                            CompiledAction::Insert {
                                eviction_event: RuleEvent::LatEviction(lat.spec.name.clone()),
                                lat,
                            }
                        }
                        Action::Reset { lat } => CompiledAction::Reset(lat_of(&lat)?),
                        Action::PersistLat { table, lat } => CompiledAction::PersistLat {
                            table,
                            lat: lat_of(&lat)?,
                        },
                        Action::PersistObject {
                            table,
                            class,
                            attrs,
                        } => CompiledAction::PersistObject {
                            table,
                            class,
                            attrs,
                        },
                        Action::SendMail { to, template } => {
                            CompiledAction::SendMail { to, template }
                        }
                        Action::RunExternal { template } => {
                            CompiledAction::RunExternal { template }
                        }
                        Action::Cancel { class } => CompiledAction::Cancel { class },
                        Action::SetTimer {
                            timer,
                            period_micros,
                            number_alarms,
                        } => CompiledAction::SetTimer {
                            timer,
                            period_micros,
                            number_alarms,
                        },
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            // Resolve the folded condition's references against the live
            // LATs. The fold delta feeds the `folded_ops` telemetry counter.
            let compiled_cond = ir
                .condition
                .as_ref()
                .map(|c| {
                    let folded = c.folded();
                    self.inner
                        .telemetry
                        .folded_ops
                        .add(folded.folded_ops as u64);
                    crate::ir::CondIr::from_ir(folded, &lats, &cond_lats_lc).map(Arc::new)
                })
                .transpose()?;
            (compiled_cond, compiled_actions)
        };
        // One clock per event class: share the one its rules already tick.
        let plan = self.inner.plan.load();
        let class = plan.event_plan(&rule.event);
        rule.attach_clock(class.and_then(|ep| ep.clock.clone()).unwrap_or_default());
        drop(plan);
        let mut rules = self.inner.rules_write();
        let rule = Arc::new(rule);
        let reg = Arc::new(Registered {
            name_label: rule.name.as_str().into(),
            rule: rule.clone(),
            ir: ir.clone(),
            compiled,
            guard,
            lat_guard,
            actions: compiled_actions,
            cond_classes,
            cond_lats: cond_lats_lc,
            breaker: RuleBreaker::default(),
        });
        rules.push(reg.clone());
        drop(rules);
        analyzer.seed_rule(ir);
        rule.set_registered(true);
        // Publish a plan containing the new rule, then fold its subscription
        // into the engine's probe-interest mask (`wants` reads the plan, so
        // the rebuild must come first or its events never reach us).
        self.inner.rebuild_plan(&registration, Change::Added(&reg));
        self.inner.engine.monitors.refresh_interest();
        Ok(rule)
    }

    /// Remove a rule; true when it existed.
    pub fn remove_rule(&self, name: &str) -> bool {
        let mut registration = self.inner.registration.lock();
        let Some(reg) = self.inner.rules_write().remove(name) else {
            return false;
        };
        let lifted = reg.rule.set_registered(false);
        let quarantined = &self.inner.containment.quarantined;
        quarantined.fetch_add(lifted, Ordering::Relaxed);
        if let Some(analyzer) = registration.as_mut() {
            let admitted = analyzer.remove_rule(&reg.ir);
            debug_assert!(admitted, "the kept analyzer admitted every registered rule");
        }
        // Publish the shrunken plan, then shrink the engine's
        // probe-interest mask (`wants` reads the plan).
        self.inner
            .rebuild_plan(&registration, Change::Removed(&reg.rule.event));
        self.inner.engine.monitors.refresh_interest();
        true
    }

    /// [`Rule::set_enabled`] by rule name; returns whether the rule exists.
    /// The plan is not rebuilt: a disabled rule stays in it, out of service,
    /// and its probes stay in the interest mask.
    pub fn set_rule_enabled(&self, name: &str, on: bool) -> bool {
        self.rule(name).map(|rule| rule.set_enabled(on)).is_some()
    }

    pub fn rule(&self, name: &str) -> Option<Arc<Rule>> {
        self.inner.registered(name).map(|r| r.rule.clone())
    }

    pub fn rule_count(&self) -> usize {
        self.inner.rules.read().len()
    }

    /// The static analyzer's bound on cascade depth for the currently
    /// registered rules: the longest raised-event → subscribed-rule chain.
    /// Observed trace depths ([`crate::TraceSnapshot::max_cascade_depth`]) can never
    /// exceed this (E004 denies cyclic rule sets at registration).
    pub fn cascade_depth_bound(&self) -> usize {
        let mut registration = self.inner.registration.lock();
        self.analyzer(&mut registration).max_cascade_depth()
    }

    /// Convenience used by examples/benches: quick top-k LAT over query
    /// durations grouped by signature (the paper's Example 3 shape).
    pub fn define_topk_duration_lat(&self, name: &str, k: usize) -> Result<Arc<Lat>> {
        self.define_lat(
            LatSpec::new(name)
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Max, "Query.Duration", "Duration")
                .aggregate(LatAggFunc::Last, "Query.Query_Text", "Query_Text")
                .order_by("Duration", true)
                .max_rows(k),
        )
    }
}
