//! Reading the monitor: telemetry snapshots, the plan summary, the
//! containment and deferred-queue accessors, and self-monitoring (the
//! `Monitor.Tick` bridge that feeds a snapshot back through the rules).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::containment::BreakerState;
use crate::deferred::LossEntry;
use crate::objects;
use crate::plan::{DispatchPlan, PlanSummary};
use crate::rules::RuleEvent;
use crate::sinks::{RecordingCommandSink, RecordingMailSink};
use crate::telemetry::{
    BreakerTelemetry, ContainmentTelemetry, DeferredTelemetry, DispatchTelemetry, LatTelemetry,
    MatchingTelemetry, ProbeTelemetry, RuleTelemetry, TelemetrySnapshot, SELF_MONITOR_TIMER,
};
use crate::trace::TraceSnapshot;

use super::{Sqlcm, SqlcmInner, SqlcmStats};

impl SqlcmInner {
    /// Assemble the containment slice of the telemetry snapshot.
    fn containment_telemetry(&self, plan: &DispatchPlan) -> ContainmentTelemetry {
        let quarantined: Vec<String> = plan
            .rules
            .iter()
            .filter(|r| r.breaker.is_open())
            .map(|r| r.rule.name.clone())
            .collect();
        let mut breakers: Vec<BreakerTelemetry> = plan
            .rules
            .iter()
            .filter(|r| r.breaker.state() != BreakerState::Closed || r.breaker.trips() > 0)
            .map(|r| BreakerTelemetry {
                rule: r.rule.name.clone(),
                state: r.breaker.state().as_str(),
                trips: r.breaker.trips(),
                skipped: r.breaker.skipped(),
            })
            .collect();
        breakers.sort_by(|a, b| a.rule.cmp(&b.rule));
        let c = &self.containment;
        let d = &self.deferred;
        ContainmentTelemetry {
            breaker_trips: c.breaker_trips.get(),
            breaker_reopens: c.breaker_reopens.get(),
            breaker_closes: c.breaker_closes.get(),
            breaker_skipped: c.breaker_skips.get(),
            quarantined,
            breakers,
            deferred: DeferredTelemetry {
                enabled: self.async_actions.load(Ordering::Relaxed),
                queue_depth: d.depth() as u64,
                capacity: d.capacity() as u64,
                high_water: d.high_water.load(Ordering::Relaxed),
                enqueued: d.enqueued.load(Ordering::Relaxed),
                executed: d.executed.load(Ordering::Relaxed),
                failed_attempts: d.failed_attempts.load(Ordering::Relaxed),
                retries: d.retries.load(Ordering::Relaxed),
                dropped_overflow: d.dropped_overflow.load(Ordering::Relaxed),
                dropped_exhausted: d.dropped_exhausted.load(Ordering::Relaxed),
            },
            losses: d.losses(),
        }
    }

    /// The self-monitoring bridge: materialize the telemetry snapshot as a
    /// synthetic `Monitor` object and dispatch it as `Monitor.Tick`, so ECA
    /// rules can watch the monitor's own health. Skipped entirely when no
    /// rule subscribes (§2.1 applies to self-observation too).
    pub(super) fn poll_self_monitor(&self) {
        if !self.plan.load().has_event(&RuleEvent::MonitorTick) {
            return;
        }
        let monitor = objects::monitor_object(&self.telemetry_snapshot());
        self.dispatch(RuleEvent::MonitorTick, vec![monitor]);
    }

    fn stats_now(&self) -> SqlcmStats {
        SqlcmStats {
            events: self.events.get(),
            evaluations: self.evaluations.get(),
            fires: self.fires.get(),
            actions: self.actions.get(),
            action_errors: self.action_errors.get(),
        }
    }

    /// Assemble an owned point-in-time view of all telemetry.
    fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        use sqlcm_common::ProbeKind;
        let telem = &self.telemetry;
        let plan = self.plan.load();
        let probes = ProbeKind::ALL
            .iter()
            .map(|k| ProbeTelemetry {
                kind: k.name(),
                events: telem.probe_events[k.index()].get(),
                on_event: telem.probe_latency[k.index()].snapshot(),
            })
            .collect();
        let rules = {
            let rule_errors = telem.rule_errors.lock();
            plan.rules
                .iter()
                .map(|reg| {
                    let stats = reg.rule.stats();
                    let (condition, action) = reg.rule.books.latency();
                    RuleTelemetry {
                        name: reg.rule.name.clone(),
                        event: reg.rule.event.to_string(),
                        evaluations: stats.evaluations,
                        pruned: stats.pruned,
                        fires: stats.fires,
                        actions: stats.actions,
                        action_errors: stats.action_errors,
                        condition,
                        action,
                        last_error: rule_errors.get(&reg.rule.name).cloned(),
                    }
                })
                .collect()
        };
        let lats: Vec<_> = self.registry.lock().lats.values().cloned().collect();
        let mut lats: Vec<LatTelemetry> = lats
            .iter()
            .map(|lat| {
                let stats = lat.stats();
                LatTelemetry {
                    name: lat.spec.name.clone(),
                    inserts: stats.inserts,
                    evictions: stats.evictions,
                    victims_examined: stats.victims_examined,
                    resets: stats.resets,
                    aging_rolls: stats.aging_rolls,
                    rows: lat.row_count() as u64,
                    row_high_water: stats.row_high_water,
                    memory_bytes: lat.memory_bytes() as u64,
                    lock_contentions: lat.lock_contentions(),
                }
            })
            .collect();
        lats.sort_by(|a, b| a.name.cmp(&b.name));
        TelemetrySnapshot {
            stats: self.stats_now(),
            probes,
            rules,
            lats,
            dispatch: DispatchTelemetry {
                plan_epoch: plan.epoch,
                plan_rebuilds: telem.plan_rebuilds.get(),
                plan_rules_planned: telem.plan_rules_planned.get(),
                hoisted_lookup_hits: telem.hoisted_lookup_hits.get(),
                lat_row_fetches: telem.lat_row_fetches.get(),
                reg_lock_acquisitions: telem.reg_lock_acquisitions.get(),
                vm_instructions: telem.vm_instructions.get(),
                cse_hits: 0,
                folded_ops: telem.folded_ops.get(),
            },
            matching: MatchingTelemetry {
                guard_probes: telem.guard_probes.get(),
                rules_pruned: telem.rules_pruned.get(),
                candidate_rules: telem.candidate_rules.get(),
                residual_rules: plan.guard_residual_rules,
            },
            flight_records: telem.recorder.snapshot(),
            flight_total: telem.recorder.total_recorded(),
            tracing: self.tracer.telemetry(),
            containment: self.containment_telemetry(&plan),
        }
    }
}

impl Sqlcm {
    /// A summary of the currently published dispatch plan: epoch, rule count,
    /// and per-event hoist groups (which rules share which LAT lookup).
    pub fn plan_summary(&self) -> PlanSummary {
        self.inner.plan.load().summary()
    }

    // ------------------------------------------------------------ containment

    /// Current breaker state of a rule (`None` for unknown rules).
    pub fn breaker_state(&self, rule: &str) -> Option<BreakerState> {
        self.inner.registered(rule).map(|r| r.breaker.state())
    }

    pub fn deferred_queue_depth(&self) -> usize {
        self.inner.deferred.depth()
    }

    /// The loss ledger: every dropped deferred action by (rule, reason).
    pub fn loss_ledger(&self) -> Vec<LossEntry> {
        self.inner.deferred.losses()
    }

    /// Total deferred actions lost (overflow + exhausted retries) — the
    /// conservation identity is `enqueued == executed + lost + depth`.
    pub fn total_action_losses(&self) -> u64 {
        self.inner.deferred.total_losses()
    }

    // ------------------------------------------------------------ sinks & stats

    /// The default recording outbox for `SendMail`.
    pub fn outbox(&self) -> Arc<RecordingMailSink> {
        self.inner.outbox.clone()
    }

    /// The default recording log for `RunExternal`.
    pub fn command_log(&self) -> Arc<RecordingCommandSink> {
        self.inner.command_log.clone()
    }

    pub fn stats(&self) -> SqlcmStats {
        self.inner.stats_now()
    }

    /// Last swallowed action/condition error, for diagnostics.
    pub fn last_error(&self) -> Option<String> {
        self.inner.last_error.lock().clone()
    }

    // ------------------------------------------------------------ telemetry

    /// Point-in-time snapshot of everything the monitor knows about itself:
    /// per-probe counts and `on_event` latency, per-rule evaluation/fire/action
    /// counts with condition and action latency, per-LAT occupancy and churn,
    /// and the flight recorder of recent firings.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry_snapshot()
    }

    // ------------------------------------------------------------ tracing

    /// Completed traces, oldest first (bounded ring, drop-oldest; see
    /// [`crate::trace::TRACE_RING_CAPACITY`]). Each snapshot renders as an
    /// indented provenance tree ([`TraceSnapshot::to_text_tree`]) or exports
    /// as Chrome trace-event JSON ([`crate::trace::chrome_trace_json`]).
    pub fn traces(&self) -> Vec<TraceSnapshot> {
        self.inner.tracer.snapshot()
    }

    /// Drop all retained traces. They stay counted in `tracing.completed`,
    /// and now in `tracing.dropped` too.
    pub fn clear_traces(&self) {
        self.inner.tracer.clear();
    }

    /// Run one self-monitoring tick synchronously: if any rule subscribes to
    /// [`RuleEvent::MonitorTick`], a synthetic `Monitor` object built from
    /// the current [`TelemetrySnapshot`] ([`objects::monitor_object`]) is
    /// dispatched through the normal rule pipeline.
    pub fn poll_self_monitor(&self) {
        self.inner.poll_self_monitor();
    }

    /// Arm the reserved self-monitoring timer: every `period_micros`, timer
    /// polling emits a `Monitor.Tick` (see [`Sqlcm::poll_self_monitor`])
    /// instead of a `Timer.Alarm`. Pair with [`Sqlcm::start_timer_thread`]
    /// for wall-clock driving, or [`Sqlcm::poll_timers`] under a manual clock.
    pub fn enable_self_monitoring(&self, period_micros: u64) {
        self.set_timer(SELF_MONITOR_TIMER, period_micros, -1);
    }

    /// Disarm the reserved self-monitoring timer.
    pub fn disable_self_monitoring(&self) {
        self.set_timer(SELF_MONITOR_TIMER, 1, 0);
    }
}
