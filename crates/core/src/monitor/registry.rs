//! The registry — LATs, rules, the analyzer kept across registrations and
//! its warning log, behind one counted lock — and `rebuild_plan`, called by
//! the four registry mutations (`define_lat`, `drop_lat`, `add_rule`,
//! `remove_rule`) and by nothing else, so the published plan is always the
//! plan of the registry.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sqlcm_common::{Error, Result};

use sqlcm_analyze::{rule_guard, Analyzer, Code, Diagnostic};

use crate::actions::{persist_rows, read_table};
use crate::containment::RuleBreaker;
use crate::lat::{Lat, LatAggFunc, LatSpec};
use crate::plan::{Change, Registered};
use crate::rules::Rule;

use super::{Sqlcm, SqlcmInner};

/// Upper bound on retained analyzer warnings; the oldest are dropped first.
const MAX_ANALYSIS_WARNINGS: usize = 1024;

/// What the four registry mutations change, behind `SqlcmInner::registry`.
/// The rule order is not kept here: it is the published plan's `rules`.
#[derive(Default)]
pub(super) struct Registry {
    /// Every registered LAT checked and every registered rule admitted, each
    /// rule's IR by `Arc` clone: `remove_rule` and `drop_lat` take theirs
    /// back out, so it is never seeded again.
    analyzer: Analyzer,
    /// By lowercased name.
    pub(super) lats: HashMap<String, Arc<Lat>>,
    pub(super) rules: HashMap<String, Arc<Registered>>,
    warnings: WarningLog,
}

/// The analyzer warnings kept for [`Sqlcm::analysis_warnings`], oldest
/// first, with the (code, rule, message) of each so a repeat is skipped in
/// one lookup.
#[derive(Default)]
struct WarningLog {
    entries: VecDeque<Diagnostic>,
    seen: HashSet<(Code, String, String)>,
}

impl WarningLog {
    /// Append analyzer warnings, skipping (code, rule, message) repeats —
    /// re-registration loops would otherwise fill the log with copies — and
    /// dropping the oldest entries past the cap so the log's memory stays
    /// bounded over the instance's lifetime.
    fn record(&mut self, warnings: Vec<Diagnostic>) {
        let key = |w: &Diagnostic| (w.code, w.rule.clone(), w.message.clone());
        for w in warnings {
            if !self.seen.insert(key(&w)) {
                continue;
            }
            if self.entries.len() >= MAX_ANALYSIS_WARNINGS {
                let oldest = self.entries.pop_front().expect("full");
                self.seen.remove(&key(&oldest));
            }
            self.entries.push_back(w);
        }
    }
}

impl Registry {
    /// Split analyzer output: error diagnostics deny the registration (joined
    /// into one `Error::Monitor` whose message carries the stable codes);
    /// warnings are appended to [`Sqlcm::analysis_warnings`].
    fn deny_on_errors(&mut self, diags: Vec<Diagnostic>) -> Result<()> {
        let (errors, warnings): (Vec<_>, Vec<_>) =
            diags.into_iter().partition(Diagnostic::is_error);
        self.warnings.record(warnings);
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
}

impl SqlcmInner {
    /// The registry, counted in `reg_lock_acquisitions`: what the four
    /// mutations and the analyzer's readers take, once each. Dispatch never
    /// takes it, so tests can pin the hot path at zero acquisitions; the
    /// observability readers (`Sqlcm::lat` & co., the telemetry snapshot)
    /// lock it uncounted so *reading* the counter does not perturb it.
    fn registry(&self) -> parking_lot::MutexGuard<'_, Registry> {
        self.telemetry.reg_lock_acquisitions.incr();
        self.registry.lock()
    }

    /// Publish the plan of the registry as `change` just left it — called by
    /// the four registry mutations, under the registry lock, and nothing
    /// else, so the epoch counts them. The plan is its predecessor with only
    /// the event classes `change` touches planned again; the superseded plan
    /// is let go of here, on the registering thread.
    fn rebuild_plan(&self, registry: &Registry, change: Change<'_>) {
        let plan = self.plan.load().next(&registry.lats, change);
        self.telemetry.plan_rules_planned.add(plan.rules_planned);
        self.plan.swap(Arc::new(plan));
        self.telemetry.plan_rebuilds.incr();
    }

    /// The registered rule of that name. Uncounted registry read, like the
    /// other observability accessors.
    pub(super) fn registered(&self, name: &str) -> Option<Arc<Registered>> {
        self.registry.lock().rules.get(name).cloned()
    }
}

impl Sqlcm {
    // ------------------------------------------------------------ LATs

    /// Define a light-weight aggregation table. The spec is validated
    /// structurally and then checked by the static analyzer (unknown class or
    /// attribute sources are denied with an `E001` diagnostic).
    pub fn define_lat(&self, spec: LatSpec) -> Result<Arc<Lat>> {
        spec.validate()?;
        let mut registry = self.inner.registry();
        let key = spec.name.to_ascii_lowercase();
        // Refused before the analyzer sees it: `check_lat` replaces a schema
        // of the same name.
        if registry.lats.contains_key(&key) {
            return Err(Error::Monitor(format!("LAT {} already exists", spec.name)));
        }
        let diags = registry.analyzer.check_lat(&spec);
        registry.deny_on_errors(diags)?;
        let lat = match Lat::new(spec, self.inner.clock.clone()) {
            Ok(lat) => Arc::new(lat),
            Err(e) => {
                // The analyzer admitted a schema the registry does not take.
                registry.analyzer.remove_lat(&key);
                return Err(e);
            }
        };
        registry.lats.insert(key.clone(), lat.clone());
        // A dropped-and-redefined LAT un-breaks rules conditioned on it;
        // republish so the new plan binds the fresh handle.
        self.inner.rebuild_plan(&registry, Change::Lat(&key));
        Ok(lat)
    }

    /// Warnings the static analyzer has collected across registrations.
    pub fn analysis_warnings(&self) -> Vec<Diagnostic> {
        let registry = self.inner.registry.lock();
        registry.warnings.entries.iter().cloned().collect()
    }

    /// Drop every collected analyzer warning (an operator "mark as read").
    pub fn clear_analysis_warnings(&self) {
        self.inner.registry.lock().warnings = WarningLog::default();
    }

    /// Run the static analyzer on a rule against the current LATs and rules
    /// without registering anything — a lint probe.
    pub fn analyze_rule(&self, rule: &Rule) -> Vec<Diagnostic> {
        self.inner.registry().analyzer.diagnose(&rule.ir())
    }

    pub fn drop_lat(&self, name: &str) -> bool {
        let mut registry = self.inner.registry();
        let key = name.to_ascii_lowercase();
        let removed = registry.lats.remove(&key).is_some();
        if removed {
            let admitted = registry.analyzer.remove_lat(&key);
            debug_assert!(admitted, "the kept analyzer checked every registered LAT");
            // Rules conditioned on the dropped LAT become `broken` in the new
            // plan (they error per evaluation, as the old per-event resolution
            // did); Insert targets keep their resolved handle.
            self.inner.rebuild_plan(&registry, Change::Lat(&key));
        }
        removed
    }

    pub fn lat(&self, name: &str) -> Option<Arc<Lat>> {
        let registry = self.inner.registry.lock();
        registry.lats.get(&name.to_ascii_lowercase()).cloned()
    }

    /// Total approximate memory of all LATs (the knob of §4.3's "managing LAT
    /// memory overhead").
    pub fn lat_memory_bytes(&self) -> usize {
        let registry = self.inner.registry.lock();
        registry.lats.values().map(|l| l.memory_bytes()).sum()
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
        let mut registry = self.inner.registry();
        if registry.rules.contains_key(&rule.name) {
            return Err(Error::Monitor(format!("rule {} already exists", rule.name)));
        }
        // The one lowering of the rule: the analyzer's checks, the guard
        // verdict and the compiled condition below all read this artifact.
        let ir = Arc::new(rule.ir());
        let diags = registry.analyzer.diagnose(&ir);
        registry.deny_on_errors(diags)?;
        // Captured for the dispatch plan: the guard verdict is what its event
        // class's guard index installs and its dispatch checks.
        let (guard, lat_guard, decides) =
            rule_guard(&ir).map_or((None, None, false), |g| (g.payload, g.lat, g.decides));
        // The analyzer denied unqualified columns (E001) above.
        let (cond_classes, cond_lats) = ir.refs();
        let cond_lats_lc: Vec<String> = cond_lats.iter().map(|l| l.to_ascii_lowercase()).collect();
        let lats = &registry.lats;
        for l in &cond_lats {
            if !lats.contains_key(&l.to_ascii_lowercase()) {
                return Err(Error::Monitor(format!(
                    "rule {} references unknown LAT {l}",
                    rule.name
                )));
            }
        }
        // An action's LAT is resolved to its handle here or the registration
        // fails.
        let lat_of = |name: &str| {
            lats.get(&name.to_ascii_lowercase())
                .cloned()
                .ok_or_else(|| {
                    Error::Monitor(format!("rule {} targets unknown LAT {name}", rule.name))
                })
        };
        let action_lats = ir
            .actions
            .iter()
            .map(|a| a.lat_refs().map(lat_of).transpose())
            .collect::<Result<Vec<_>>>()?;
        // Resolve the folded condition's references against the live LATs.
        // The fold delta feeds the `folded_ops` telemetry counter.
        let compiled = ir
            .condition
            .as_ref()
            .map(|c| {
                let folded = c.folded();
                self.inner
                    .telemetry
                    .folded_ops
                    .add(folded.folded_ops as u64);
                crate::ir::CondIr::from_ir(folded, lats, &cond_lats_lc).map(Arc::new)
            })
            .transpose()?;
        // One clock per event class: share the one its rules already tick.
        let plan = self.inner.plan.load();
        let class = plan.event_plan(&rule.event);
        rule.attach_clock(class.and_then(|ep| ep.clock.clone()).unwrap_or_default());
        drop(plan);
        let rule = Arc::new(rule);
        let reg = Arc::new(Registered {
            name_label: rule.name.as_str().into(),
            rule: rule.clone(),
            ir: ir.clone(),
            compiled,
            guard,
            lat_guard,
            decides,
            action_lats,
            cond_classes,
            cond_lats: cond_lats_lc,
            breaker: RuleBreaker::default(),
        });
        registry.rules.insert(rule.name.clone(), reg.clone());
        registry.analyzer.seed_rule(ir);
        rule.set_registered(true);
        // Publish a plan containing the new rule, then fold its subscription
        // into the engine's probe-interest mask (`wants` reads the plan, so
        // the rebuild must come first or its events never reach us).
        self.inner.rebuild_plan(&registry, Change::Added(&reg));
        self.inner.engine.monitors.refresh_interest();
        Ok(rule)
    }

    /// Remove a rule; true when it existed.
    pub fn remove_rule(&self, name: &str) -> bool {
        let mut registry = self.inner.registry();
        let Some(reg) = registry.rules.remove(name) else {
            return false;
        };
        let lifted = reg.rule.set_registered(false);
        let quarantined = &self.inner.containment.quarantined;
        quarantined.fetch_add(lifted, Ordering::Relaxed);
        let admitted = registry.analyzer.remove_rule(&reg.ir);
        debug_assert!(admitted, "the kept analyzer admitted every registered rule");
        // Publish the shrunken plan, then shrink the engine's
        // probe-interest mask (`wants` reads the plan).
        self.inner.rebuild_plan(&registry, Change::Removed(&reg));
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
        self.inner.registry.lock().rules.len()
    }

    /// The static analyzer's bound on cascade depth for the currently
    /// registered rules: the longest raised-event → subscribed-rule chain.
    /// Observed trace depths ([`crate::TraceSnapshot::max_cascade_depth`]) can never
    /// exceed this (E004 denies cyclic rule sets at registration).
    pub fn cascade_depth_bound(&self) -> usize {
        self.inner.registry().analyzer.max_cascade_depth()
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
