//! Self-telemetry for the monitor: per-probe / per-rule / per-LAT metrics,
//! a bounded flight recorder of recent rule firings, and the snapshot types
//! exposed through [`crate::Sqlcm::telemetry`].
//!
//! The paper argues monitoring must be cheap enough to leave on (§2.1, §7);
//! the same discipline applies to the monitor watching itself. All hot-path
//! state lives in lock-free primitives from `sqlcm-telemetry`:
//!
//! * per-probe event counts are **always on** — one sharded-counter increment
//!   per event, so `sum(probe events) == SqlcmStats::events` at any quiescent
//!   point;
//! * latency histograms and the flight recorder read the clock and therefore
//!   honour the [`Telem::enabled`] switch (`Sqlcm::set_telemetry_enabled`);
//! * the per-rule last-error map is bounded (`RULE_ERRORS_CAPACITY`) and
//!   evicts the entry with the fewest occurrences when full.
//!
//! Snapshots are plain owned data: safe to hold, print ([`TelemetrySnapshot::to_text`]),
//! serialize ([`TelemetrySnapshot::to_json`]), or feed back into the rule
//! engine as a synthetic `Monitor` object ([`TelemetrySnapshot::health`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use sqlcm_common::ProbeKind;
use sqlcm_telemetry::{
    FlightRecord, FlightRecorder, HistogramSnapshot, LatencyHistogram, ShardedCounter,
};

use crate::monitor::SqlcmStats;
use crate::objects::MonitorHealth;
use crate::trace::TracingTelemetry;

/// Default flight-recorder depth: last N rule firings (and errored
/// evaluations). Adjustable at runtime via
/// [`crate::Sqlcm::set_flight_recorder_capacity`].
pub const FLIGHT_RECORDER_CAPACITY: usize = 256;

/// Bound on the per-rule last-error map.
pub const RULE_ERRORS_CAPACITY: usize = 64;

/// Reserved timer name used by `Sqlcm::enable_self_monitoring`; alarms on it
/// raise `RuleEvent::MonitorTick` instead of `Timer.Alarm`.
pub const SELF_MONITOR_TIMER: &str = "__sqlcm_self_monitor";

/// Last error recorded for a rule, with how many errors that rule produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleError {
    pub rule: String,
    /// Errors attributed to this rule since attach (not just the last one).
    pub count: u64,
    pub message: String,
}

pub(crate) struct RuleErrorEntry {
    pub count: u64,
    pub message: String,
}

/// Internal telemetry state owned by `SqlcmInner`.
pub(crate) struct Telem {
    enabled: AtomicBool,
    /// Per-probe-kind event counts (always on; indexed by `ProbeKind::index`).
    pub probe_events: [ShardedCounter; ProbeKind::COUNT],
    /// Per-probe-kind `on_event` wall time in nanoseconds (gated by `enabled`).
    pub probe_latency: [LatencyHistogram; ProbeKind::COUNT],
    /// Ring of recent rule firings (gated by `enabled`).
    pub recorder: FlightRecorder,
    /// rule name → last error + count, bounded by `RULE_ERRORS_CAPACITY`.
    pub rule_errors: Mutex<HashMap<String, RuleErrorEntry>>,
    /// Dispatch plans built since attach (registration-rate, not event-rate).
    pub plan_rebuilds: ShardedCounter,
    /// Rules planned and emitted by those builds (`DispatchPlan::rules_planned`
    /// summed): what registration costs, as a count.
    pub plan_rules_planned: ShardedCounter,
    /// LAT row lookups served from a shared per-event hoist slot instead of
    /// re-fetching (the shared-lookup hoisting win; see `plan::HoistSlot`).
    pub hoisted_lookup_hits: ShardedCounter,
    /// LAT rows actually fetched by condition evaluation.
    pub lat_row_fetches: ShardedCounter,
    /// Hoist-slot clears skipped because the analyzer proved the fired
    /// rule's writes disjoint from every reader of the slot (each one is a
    /// re-fetch the next reader did not pay).
    pub hoist_invalidations_avoided: ShardedCounter,
    /// Rule/LAT registry lock acquisitions. Cold paths only: the dispatch hot
    /// path works off the immutable plan and must never move this counter —
    /// the no-subscriber regression test pins that.
    pub reg_lock_acquisitions: ShardedCounter,
    /// Bytecode instructions retired by the condition VM (`crate::vm`).
    pub vm_instructions: ShardedCounter,
    /// Condition subexpressions served from a shared per-event CSE slot
    /// instead of re-evaluating (see `plan::CseSlot`).
    pub cse_hits: ShardedCounter,
    /// Condition-IR ops eliminated by registration-time constant folding,
    /// summed over all registered rules.
    pub folded_ops: ShardedCounter,
    /// Guard-index probes performed (one per event whose plan has a usable
    /// index; see `crate::guard`).
    pub guard_probes: ShardedCounter,
    /// Rules skipped without running the condition VM because a violated
    /// guard proved the condition cannot hold.
    pub rules_pruned: ShardedCounter,
    /// Rules that survived a guard-index probe and ran the VM (candidates).
    /// Only moves on probed events, so `candidate_rules / guard_probes` is
    /// the mean candidate set size.
    pub candidate_rules: ShardedCounter,
}

impl Telem {
    pub fn new() -> Telem {
        Telem {
            enabled: AtomicBool::new(true),
            probe_events: std::array::from_fn(|_| ShardedCounter::new()),
            probe_latency: std::array::from_fn(|_| LatencyHistogram::new()),
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            rule_errors: Mutex::new(HashMap::new()),
            plan_rebuilds: ShardedCounter::new(),
            plan_rules_planned: ShardedCounter::new(),
            hoisted_lookup_hits: ShardedCounter::new(),
            lat_row_fetches: ShardedCounter::new(),
            hoist_invalidations_avoided: ShardedCounter::new(),
            reg_lock_acquisitions: ShardedCounter::new(),
            vm_instructions: ShardedCounter::new(),
            cse_hits: ShardedCounter::new(),
            folded_ops: ShardedCounter::new(),
            guard_probes: ShardedCounter::new(),
            rules_pruned: ShardedCounter::new(),
            candidate_rules: ShardedCounter::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record `message` as `rule`'s latest error. When the map is full and the
    /// rule is new, the entry with the fewest occurrences is evicted — a rule
    /// failing repeatedly is more interesting than one that failed once.
    pub fn record_rule_error(&self, rule: &str, message: String) {
        let mut map = self.rule_errors.lock();
        if let Some(entry) = map.get_mut(rule) {
            entry.count += 1;
            entry.message = message;
            return;
        }
        if map.len() >= RULE_ERRORS_CAPACITY {
            if let Some(least) = map
                .iter()
                .min_by_key(|(_, e)| e.count)
                .map(|(k, _)| k.clone())
            {
                map.remove(&least);
            }
        }
        map.insert(rule.to_string(), RuleErrorEntry { count: 1, message });
    }

    /// All per-rule errors, sorted by rule name for determinism.
    pub fn rule_errors_snapshot(&self) -> Vec<RuleError> {
        let map = self.rule_errors.lock();
        let mut out: Vec<RuleError> = map
            .iter()
            .map(|(rule, e)| RuleError {
                rule: rule.clone(),
                count: e.count,
                message: e.message.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.rule.cmp(&b.rule));
        out
    }
}

/// Dispatch-plan slice of a telemetry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchTelemetry {
    /// Epoch of the currently published plan; bumps on every rebuild
    /// (`add_rule`/`remove_rule`/`define_lat`/`drop_lat` — nothing else).
    pub plan_epoch: u64,
    /// Plans built since attach.
    pub plan_rebuilds: u64,
    /// Rules planned and emitted by those builds, summed: a mutation plans
    /// the event classes it touches — one rule, when `add_rule` can append.
    pub plan_rules_planned: u64,
    /// LAT lookups served from a shared per-event hoist slot.
    pub hoisted_lookup_hits: u64,
    /// LAT rows actually fetched by condition evaluation.
    pub lat_row_fetches: u64,
    /// Rule/LAT registry lock acquisitions (cold paths only; steady-state
    /// dispatch must not move this).
    pub reg_lock_acquisitions: u64,
    /// Hoist-slot clears skipped because the fired rule's writes were
    /// provably disjoint from the slot's readers.
    pub hoist_invalidations_avoided: u64,
    /// Bytecode instructions retired by the condition VM.
    pub vm_instructions: u64,
    /// Condition subexpressions served from a shared per-event CSE slot
    /// instead of re-evaluating.
    pub cse_hits: u64,
    /// Condition-IR ops eliminated by registration-time constant folding.
    pub folded_ops: u64,
}

/// Guard-index (rule-matching) slice of a telemetry snapshot.
///
/// Populated by the guard index (`crate::guard`): per-event-class
/// discrimination structures that prune rules whose conditions provably
/// cannot hold, so only *candidate* rules run the condition VM. All
/// counters are zero when no rule is indexable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchingTelemetry {
    /// Index probes performed — one per event whose plan has a usable index.
    pub guard_probes: u64,
    /// Rules skipped without running the VM (violated guard proved the
    /// condition false under the error/∃ contract).
    pub rules_pruned: u64,
    /// Rules that survived a probe and ran the VM, summed over probed
    /// events.
    pub candidate_rules: u64,
    /// Rules in the current plan with no extractable guard (always
    /// evaluated). Reflects the published plan, not a running count.
    pub residual_rules: u64,
}

impl MatchingTelemetry {
    /// Mean candidate-set size per probed event (0.0 before any probe).
    pub fn candidate_rules_per_event(&self) -> f64 {
        if self.guard_probes == 0 {
            0.0
        } else {
            self.candidate_rules as f64 / self.guard_probes as f64
        }
    }
}

/// Per-probe-kind slice of a telemetry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeTelemetry {
    /// Probe name in `Class.Event` convention (e.g. `"Query.Commit"`).
    pub kind: &'static str,
    /// Events of this kind delivered to the monitor.
    pub events: u64,
    /// Wall time spent in `on_event` for this kind, nanoseconds.
    pub on_event: HistogramSnapshot,
}

/// Per-rule slice of a telemetry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleTelemetry {
    pub name: String,
    /// Triggering event, in probe naming convention (`"Query.Commit"`).
    pub event: String,
    /// Condition evaluations, `pruned` included.
    pub evaluations: u64,
    /// Evaluations the guard index decided (false) without running the
    /// condition. `pruned == evaluations` on a rule that never fires says the
    /// index never admitted it — no event carried the value its guard wants.
    pub pruned: u64,
    pub fires: u64,
    pub actions: u64,
    pub action_errors: u64,
    /// Condition-evaluation wall time, nanoseconds.
    pub condition: HistogramSnapshot,
    /// Action-execution wall time (all actions of one firing), nanoseconds.
    pub action: HistogramSnapshot,
    /// Last error attributed to this rule, if any.
    pub last_error: Option<RuleError>,
}

/// Per-LAT slice of a telemetry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatTelemetry {
    pub name: String,
    pub inserts: u64,
    pub evictions: u64,
    pub resets: u64,
    /// Rows whose ordering key was (re)computed to choose eviction victims
    /// (see [`crate::lat::LatStats::victims_examined`]): stays 0 when the
    /// victim index does all the work.
    pub victims_examined: u64,
    /// Aging-window block rolls (§4.3).
    pub aging_rolls: u64,
    /// Current row count.
    pub rows: u64,
    /// High-water mark of row occupancy after size enforcement (never above
    /// `max_rows` on a bounded LAT).
    pub row_high_water: u64,
    /// Approximate bytes held right now.
    pub memory_bytes: u64,
    /// Number of row-map shards.
    pub shards: u64,
    /// Shard-lock acquisitions that found the lock held (contention events
    /// summed over all shards).
    pub lock_contentions: u64,
}

/// Per-rule breaker state in a [`ContainmentTelemetry`]. Only rules whose
/// breaker is not `Closed`, or that have tripped at least once, are listed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerTelemetry {
    pub rule: String,
    /// `"closed"`, `"open"`, or `"half-open"`.
    pub state: &'static str,
    /// Times this rule's breaker tripped (including failed half-open trials).
    pub trips: u64,
    /// Evaluations skipped while the breaker was not closed.
    pub skipped: u64,
}

/// Deferred-action-queue slice of a telemetry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeferredTelemetry {
    /// Whether async external actions are on (`Sqlcm::set_async_actions`).
    pub enabled: bool,
    pub queue_depth: u64,
    pub capacity: u64,
    /// Deepest the queue has ever been.
    pub high_water: u64,
    pub enqueued: u64,
    /// Actions executed successfully (each counted once, however many
    /// attempts it took).
    pub executed: u64,
    /// Failed execution attempts (a single action can contribute several).
    pub failed_attempts: u64,
    /// Attempts rescheduled with backoff.
    pub retries: u64,
    /// Actions dropped oldest-first on queue overflow.
    pub dropped_overflow: u64,
    /// Actions dropped after exhausting the retry policy.
    pub dropped_exhausted: u64,
    /// Executions suppressed by the idempotency-key ring.
    pub deduped: u64,
}

/// Fault-containment slice of a telemetry snapshot: circuit breakers, the
/// overload ladder, and the deferred-action queue with its loss ledger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContainmentTelemetry {
    pub breakers_enabled: bool,
    /// Current overload-ladder stage (0 = full, 3 = tightened).
    pub overload_stage: u64,
    /// Ladder stage transitions since attach.
    pub overload_transitions: u64,
    /// Trace-sampling decisions suppressed at stage ≥ 1.
    pub shed_traces: u64,
    /// Low-priority evaluations skipped by sampling at stage ≥ 2.
    pub shed_evaluations: u64,
    pub breaker_trips: u64,
    /// `Open → HalfOpen` probation re-admissions.
    pub breaker_reopens: u64,
    /// Successful half-open trials (breaker closed again).
    pub breaker_closes: u64,
    /// Evaluations skipped across all non-closed breakers.
    pub breaker_skipped: u64,
    /// Rules out of service because their breaker is open.
    pub quarantined: Vec<String>,
    /// Per-rule breaker detail (non-closed or previously tripped only).
    pub breakers: Vec<BreakerTelemetry>,
    pub deferred: DeferredTelemetry,
    /// Loss ledger: every shed or dropped deferred action, by (rule, reason).
    pub losses: Vec<crate::deferred::LossEntry>,
}

/// A point-in-time, owned view of everything the monitor knows about itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// The global counters (same numbers as [`crate::Sqlcm::stats`]).
    pub stats: SqlcmStats,
    /// Dispatch-plan state: epoch, rebuilds, hoisting effectiveness.
    pub dispatch: DispatchTelemetry,
    /// Guard-index rule matching: probes, pruned/candidate/residual rules.
    pub matching: MatchingTelemetry,
    /// One entry per [`ProbeKind`], in `ProbeKind::ALL` order.
    pub probes: Vec<ProbeTelemetry>,
    /// One entry per registered rule, in registration order.
    pub rules: Vec<RuleTelemetry>,
    /// One entry per defined LAT, sorted by name.
    pub lats: Vec<LatTelemetry>,
    /// Recent rule firings, oldest first (bounded by the flight recorder's
    /// current capacity, `FLIGHT_RECORDER_CAPACITY` by default).
    pub flight_records: Vec<FlightRecord>,
    /// Total records ever written to the flight recorder (including evicted).
    pub flight_total: u64,
    /// Causal-tracing state: sampling policy, traces completed/dropped,
    /// deepest cascade observed (see `crate::trace`).
    pub tracing: TracingTelemetry,
    /// Fault-containment state: breakers, overload ladder, deferred queue.
    pub containment: ContainmentTelemetry,
}

impl TelemetrySnapshot {
    /// Condition-evaluation latency merged across all rules.
    pub fn merged_condition_latency(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for rule in &self.rules {
            merged.merge(&rule.condition);
        }
        merged
    }

    /// `on_event` latency merged across all probe kinds.
    pub fn merged_probe_latency(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for probe in &self.probes {
            merged.merge(&probe.on_event);
        }
        merged
    }

    /// Condense the snapshot into the health summary that becomes the
    /// synthetic `Monitor` object (self-monitoring bridge).
    pub fn health(&self) -> MonitorHealth {
        const NANO: f64 = 1e-9;
        let eval = self.merged_condition_latency();
        let probe = self.merged_probe_latency();
        MonitorHealth {
            events: self.stats.events,
            evaluations: self.stats.evaluations,
            fires: self.stats.fires,
            actions: self.stats.actions,
            action_errors: self.stats.action_errors,
            eval_p50_secs: eval.p50() as f64 * NANO,
            eval_p95_secs: eval.p95() as f64 * NANO,
            eval_p99_secs: eval.p99() as f64 * NANO,
            eval_max_secs: eval.max as f64 * NANO,
            probe_p99_secs: probe.p99() as f64 * NANO,
            lat_memory_bytes: self.lats.iter().map(|l| l.memory_bytes).sum(),
            rule_count: self.rules.len() as u64,
            lat_count: self.lats.len() as u64,
            overload_stage: self.containment.overload_stage,
            quarantined_rules: self.containment.quarantined.len() as u64,
            deferred_depth: self.containment.deferred.queue_depth,
        }
    }

    /// Human-readable multi-line report.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sqlcm telemetry: events={} evaluations={} fires={} actions={} action_errors={}",
            self.stats.events,
            self.stats.evaluations,
            self.stats.fires,
            self.stats.actions,
            self.stats.action_errors
        );
        let _ = writeln!(
            out,
            "dispatch plan: epoch={} rebuilds={} rules_planned={} lat_row_fetches={} \
             hoisted_hits={} invalidations_avoided={} reg_locks={} vm_instructions={} \
             cse_hits={} folded_ops={}",
            self.dispatch.plan_epoch,
            self.dispatch.plan_rebuilds,
            self.dispatch.plan_rules_planned,
            self.dispatch.lat_row_fetches,
            self.dispatch.hoisted_lookup_hits,
            self.dispatch.hoist_invalidations_avoided,
            self.dispatch.reg_lock_acquisitions,
            self.dispatch.vm_instructions,
            self.dispatch.cse_hits,
            self.dispatch.folded_ops,
        );
        let _ = writeln!(
            out,
            "matching: guard_probes={} rules_pruned={} candidate_rules_per_event={:.2} \
             residual_rules={}",
            self.matching.guard_probes,
            self.matching.rules_pruned,
            self.matching.candidate_rules_per_event(),
            self.matching.residual_rules,
        );
        let _ = writeln!(out, "probes:");
        for p in &self.probes {
            if p.events == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<22} events={:<8} on_event p50={} p95={} p99={} max={}",
                p.kind,
                p.events,
                fmt_nanos(p.on_event.p50()),
                fmt_nanos(p.on_event.p95()),
                fmt_nanos(p.on_event.p99()),
                fmt_nanos(p.on_event.max),
            );
        }
        let _ = writeln!(out, "rules:");
        for r in &self.rules {
            let _ = writeln!(
                out,
                "  {:<22} on={:<18} evals={:<8} pruned={:<8} fires={:<8} actions={:<8} errors={:<4} cond p99={} action p99={}",
                r.name,
                r.event,
                r.evaluations,
                r.pruned,
                r.fires,
                r.actions,
                r.action_errors,
                fmt_nanos(r.condition.p99()),
                fmt_nanos(r.action.p99()),
            );
            if let Some(e) = &r.last_error {
                let _ = writeln!(out, "    last error (x{}): {}", e.count, e.message);
            }
        }
        let _ = writeln!(out, "lats:");
        for l in &self.lats {
            let _ = writeln!(
                out,
                "  {:<22} inserts={:<8} evictions={:<6} victims_examined={:<6} resets={:<4} aging_rolls={:<6} rows={}/{} bytes={} shards={} contentions={}",
                l.name,
                l.inserts,
                l.evictions,
                l.victims_examined,
                l.resets,
                l.aging_rolls,
                l.rows,
                l.row_high_water,
                l.memory_bytes,
                l.shards,
                l.lock_contentions,
            );
        }
        let _ = writeln!(
            out,
            "tracing: sampling={} sampled={} completed={} dropped={} spans={} max_cascade_depth={} ring={}/{}",
            self.tracing.sampling,
            self.tracing.sampled,
            self.tracing.completed,
            self.tracing.dropped,
            self.tracing.spans,
            self.tracing.max_cascade_depth,
            self.tracing.ring_len,
            self.tracing.ring_capacity,
        );
        let c = &self.containment;
        let _ = writeln!(
            out,
            "containment: breakers={} stage={} transitions={} trips={} reopens={} closes={} skipped={} shed_traces={} shed_evals={}",
            if c.breakers_enabled { "on" } else { "off" },
            c.overload_stage,
            c.overload_transitions,
            c.breaker_trips,
            c.breaker_reopens,
            c.breaker_closes,
            c.breaker_skipped,
            c.shed_traces,
            c.shed_evaluations,
        );
        if !c.quarantined.is_empty() {
            let _ = writeln!(out, "  quarantined: {}", c.quarantined.join(", "));
        }
        for b in &c.breakers {
            let _ = writeln!(
                out,
                "  breaker {:<22} state={:<9} trips={} skipped={}",
                b.rule, b.state, b.trips, b.skipped
            );
        }
        let d = &c.deferred;
        let _ = writeln!(
            out,
            "deferred actions: {} depth={}/{} high_water={} enqueued={} executed={} failed_attempts={} retries={} dropped_overflow={} dropped_exhausted={} deduped={}",
            if d.enabled { "async" } else { "sync" },
            d.queue_depth,
            d.capacity,
            d.high_water,
            d.enqueued,
            d.executed,
            d.failed_attempts,
            d.retries,
            d.dropped_overflow,
            d.dropped_exhausted,
            d.deduped,
        );
        for l in &c.losses {
            let _ = writeln!(out, "  lost {:<22} {:<18} x{}", l.rule, l.reason, l.count);
        }
        let _ = writeln!(
            out,
            "flight recorder ({} shown, {} total):",
            self.flight_records.len(),
            self.flight_total
        );
        for rec in &self.flight_records {
            let _ = writeln!(
                out,
                "  #{:<6} {:<18} {:<22} fired={:<5} actions={} errors={} took={}{}",
                rec.seq,
                rec.event,
                rec.rule,
                rec.fired,
                rec.actions,
                rec.errors,
                fmt_nanos(rec.duration_nanos),
                if rec.trace_id != 0 {
                    format!(" trace=#{}", rec.trace_id)
                } else {
                    String::new()
                },
            );
        }
        out
    }

    /// JSON rendering (hand-rolled; the workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        out.push_str(&format!(
            "\"stats\":{{\"events\":{},\"evaluations\":{},\"fires\":{},\"actions\":{},\"action_errors\":{}}}",
            self.stats.events,
            self.stats.evaluations,
            self.stats.fires,
            self.stats.actions,
            self.stats.action_errors
        ));
        out.push_str(&format!(
            ",\"dispatch\":{{\"plan_epoch\":{},\"plan_rebuilds\":{},\"plan_rules_planned\":{},\"hoisted_lookup_hits\":{},\"lat_row_fetches\":{},\"reg_lock_acquisitions\":{},\"hoist_invalidations_avoided\":{},\"vm_instructions\":{},\"cse_hits\":{},\"folded_ops\":{}}}",
            self.dispatch.plan_epoch,
            self.dispatch.plan_rebuilds,
            self.dispatch.plan_rules_planned,
            self.dispatch.hoisted_lookup_hits,
            self.dispatch.lat_row_fetches,
            self.dispatch.reg_lock_acquisitions,
            self.dispatch.hoist_invalidations_avoided,
            self.dispatch.vm_instructions,
            self.dispatch.cse_hits,
            self.dispatch.folded_ops
        ));
        out.push_str(&format!(
            ",\"matching\":{{\"guard_probes\":{},\"rules_pruned\":{},\"candidate_rules\":{},\"candidate_rules_per_event\":{:.4},\"residual_rules\":{}}}",
            self.matching.guard_probes,
            self.matching.rules_pruned,
            self.matching.candidate_rules,
            self.matching.candidate_rules_per_event(),
            self.matching.residual_rules
        ));
        out.push_str(",\"probes\":[");
        for (i, p) in self.probes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":{},\"events\":{},\"on_event\":{}}}",
                json_str(p.kind),
                p.events,
                json_hist(&p.on_event)
            ));
        }
        out.push_str("],\"rules\":[");
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"event\":{},\"evaluations\":{},\"pruned\":{},\"fires\":{},\"actions\":{},\"action_errors\":{},\"condition\":{},\"action\":{},\"last_error\":{}}}",
                json_str(&r.name),
                json_str(&r.event),
                r.evaluations,
                r.pruned,
                r.fires,
                r.actions,
                r.action_errors,
                json_hist(&r.condition),
                json_hist(&r.action),
                match &r.last_error {
                    None => "null".to_string(),
                    Some(e) => format!(
                        "{{\"count\":{},\"message\":{}}}",
                        e.count,
                        json_str(&e.message)
                    ),
                }
            ));
        }
        out.push_str("],\"lats\":[");
        for (i, l) in self.lats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"inserts\":{},\"evictions\":{},\"victims_examined\":{},\"resets\":{},\"aging_rolls\":{},\"rows\":{},\"row_high_water\":{},\"memory_bytes\":{},\"shards\":{},\"lock_contentions\":{}}}",
                json_str(&l.name),
                l.inserts,
                l.evictions,
                l.victims_examined,
                l.resets,
                l.aging_rolls,
                l.rows,
                l.row_high_water,
                l.memory_bytes,
                l.shards,
                l.lock_contentions
            ));
        }
        out.push_str("],\"tracing\":");
        out.push_str(&format!(
            "{{\"sampling\":{},\"sampled\":{},\"completed\":{},\"dropped\":{},\"spans\":{},\"max_cascade_depth\":{},\"ring_len\":{},\"ring_capacity\":{}}}",
            json_str(&self.tracing.sampling),
            self.tracing.sampled,
            self.tracing.completed,
            self.tracing.dropped,
            self.tracing.spans,
            self.tracing.max_cascade_depth,
            self.tracing.ring_len,
            self.tracing.ring_capacity
        ));
        let c = &self.containment;
        out.push_str(",\"containment\":{");
        out.push_str(&format!(
            "\"breakers_enabled\":{},\"overload_stage\":{},\"overload_transitions\":{},\"shed_traces\":{},\"shed_evaluations\":{},\"breaker_trips\":{},\"breaker_reopens\":{},\"breaker_closes\":{},\"breaker_skipped\":{}",
            c.breakers_enabled,
            c.overload_stage,
            c.overload_transitions,
            c.shed_traces,
            c.shed_evaluations,
            c.breaker_trips,
            c.breaker_reopens,
            c.breaker_closes,
            c.breaker_skipped
        ));
        out.push_str(",\"quarantined\":[");
        for (i, q) in c.quarantined.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(q));
        }
        out.push_str("],\"breakers\":[");
        for (i, b) in c.breakers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"state\":{},\"trips\":{},\"skipped\":{}}}",
                json_str(&b.rule),
                json_str(b.state),
                b.trips,
                b.skipped
            ));
        }
        let d = &c.deferred;
        out.push_str(&format!(
            "],\"deferred\":{{\"enabled\":{},\"queue_depth\":{},\"capacity\":{},\"high_water\":{},\"enqueued\":{},\"executed\":{},\"failed_attempts\":{},\"retries\":{},\"dropped_overflow\":{},\"dropped_exhausted\":{},\"deduped\":{}}}",
            d.enabled,
            d.queue_depth,
            d.capacity,
            d.high_water,
            d.enqueued,
            d.executed,
            d.failed_attempts,
            d.retries,
            d.dropped_overflow,
            d.dropped_exhausted,
            d.deduped
        ));
        out.push_str(",\"losses\":[");
        for (i, l) in c.losses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"reason\":{},\"count\":{}}}",
                json_str(&l.rule),
                json_str(l.reason),
                l.count
            ));
        }
        out.push_str("]}");
        out.push_str(",\"flight_recorder\":{\"total\":");
        out.push_str(&self.flight_total.to_string());
        out.push_str(",\"records\":[");
        for (i, rec) in self.flight_records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"event\":{},\"rule\":{},\"fired\":{},\"actions\":{},\"errors\":{},\"duration_nanos\":{},\"trace_id\":{}}}",
                rec.seq,
                json_str(&rec.event),
                json_str(&rec.rule),
                rec.fired,
                rec.actions,
                rec.errors,
                rec.duration_nanos,
                rec.trace_id
            ));
        }
        out.push_str("]}}");
        out
    }
}

/// Compact nanosecond formatting for the text report.
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.1}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// Histogram as JSON: summary stats only (the 64 raw buckets stay internal).
fn json_hist(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        h.count,
        h.sum,
        h.max,
        h.p50(),
        h.p95(),
        h.p99()
    )
}

/// Minimal JSON string escape (quote, backslash, control chars). Shared with
/// the Chrome trace exporter in `crate::trace`.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_error_map_updates_and_evicts_least_frequent() {
        let telem = Telem::new();
        // "hot" fails often; it must survive eviction pressure.
        for _ in 0..5 {
            telem.record_rule_error("hot", "boom".into());
        }
        for i in 0..RULE_ERRORS_CAPACITY {
            telem.record_rule_error(&format!("cold_{i}"), "meh".into());
        }
        let errors = telem.rule_errors_snapshot();
        assert_eq!(errors.len(), RULE_ERRORS_CAPACITY);
        let hot = errors.iter().find(|e| e.rule == "hot").expect("hot kept");
        assert_eq!(hot.count, 5);
        assert_eq!(hot.message, "boom");
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_snapshot_renders_valid_shapes() {
        let snap = TelemetrySnapshot {
            stats: SqlcmStats::default(),
            dispatch: DispatchTelemetry::default(),
            matching: MatchingTelemetry::default(),
            probes: Vec::new(),
            rules: Vec::new(),
            lats: Vec::new(),
            flight_records: Vec::new(),
            flight_total: 0,
            tracing: TracingTelemetry::default(),
            containment: ContainmentTelemetry::default(),
        };
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"probes\":[]"));
        assert!(json.contains("\"dispatch\":{\"plan_epoch\":0"));
        assert!(json.contains("\"matching\":{\"guard_probes\":0"));
        assert!(snap.to_text().contains("matching: guard_probes=0"));
        assert!(json.contains("\"tracing\":{\"sampling\":\"off\""));
        assert!(json.contains("\"containment\":{\"breakers_enabled\":false"));
        assert!(json.contains("\"losses\":[]"));
        assert!(snap.to_text().contains("tracing: sampling=off"));
        assert!(snap.to_text().contains("containment: breakers=off stage=0"));
        assert!(snap
            .to_text()
            .contains("flight recorder (0 shown, 0 total)"));
        assert_eq!(snap.health(), MonitorHealth::default());
    }
}
