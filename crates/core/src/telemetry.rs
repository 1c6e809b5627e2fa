//! Self-telemetry for the monitor: per-probe / per-rule / per-LAT metrics,
//! a bounded flight recorder of recent rule firings, and the snapshot types
//! exposed through [`crate::Sqlcm::telemetry`].
//!
//! The paper argues monitoring must be cheap enough to leave on (§2.1, §7);
//! the same discipline applies to the monitor watching itself. All hot-path
//! state lives in lock-free primitives from `sqlcm-telemetry`:
//!
//! * per-probe event counts are one sharded-counter increment per event, so
//!   `sum(probe events) == SqlcmStats::events` at any quiescent point;
//! * `on_event` is timed on every event; a rule's condition and firing
//!   spans, and the flight records' durations, on the rule's own 1-in-64
//!   schedule (`SPAN_SAMPLING` in `monitor/dispatch.rs`), so every count stays
//!   exact and only the span histograms sample;
//! * there is no off switch: telemetry is always on, and its cost is inside
//!   every number the `benchmark/` package reports;
//! * the flight recorder is a fixed ring of [`FLIGHT_RECORDER_CAPACITY`] per
//!   dispatcher stripe, merged into the newest [`FLIGHT_RECORDER_CAPACITY`]
//!   when read;
//! * the per-rule last-error map is bounded (`RULE_ERRORS_CAPACITY`) and
//!   evicts the entry with the fewest occurrences when full.
//!
//! Snapshots are plain owned data: safe to hold, print ([`TelemetrySnapshot::to_text`]),
//! serialize ([`TelemetrySnapshot::to_json`]), or feed back into the rule
//! engine as a synthetic `Monitor` object ([`crate::objects::monitor_object`]).
//!
//! Every slice names its exported fields once, in export order, in its
//! [`Describe`] impl; the JSON and text writers below walk that description,
//! so a metric has one name — its JSON key — in both renderings.

use std::collections::HashMap;
use std::fmt::Write as _;

use parking_lot::Mutex;
use sqlcm_common::ProbeKind;
use sqlcm_telemetry::Metric::{self, Count, Flag, Label, Nanos, Ratio};
use sqlcm_telemetry::{
    Describe, Field, Fields, FlightRecord, FlightRecorder, HistogramSnapshot, LatencyHistogram,
    ShardedCounter,
};

use crate::monitor::SqlcmStats;
use crate::trace::TracingTelemetry;

/// Flight-recorder depth: the last N rule firings (and errored evaluations,
/// and breaker transitions) of each dispatcher stripe, and of a merged read.
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

/// Internal telemetry state owned by `SqlcmInner`.
pub(crate) struct Telem {
    /// Per-probe-kind event counts (indexed by `ProbeKind::index`).
    pub probe_events: [ShardedCounter; ProbeKind::COUNT],
    /// Per-probe-kind `on_event` wall time in nanoseconds.
    pub probe_latency: [LatencyHistogram; ProbeKind::COUNT],
    /// Rings of recent rule firings, one per dispatcher stripe.
    pub recorder: FlightRecorder,
    /// Event labels of the breaker transitions the recorder notes, made once.
    pub breaker_trip: sqlcm_telemetry::Label,
    pub breaker_reopen: sqlcm_telemetry::Label,
    pub breaker_close: sqlcm_telemetry::Label,
    /// rule name → last error + count, bounded by `RULE_ERRORS_CAPACITY`.
    pub rule_errors: Mutex<HashMap<String, RuleError>>,
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
    /// Rule/LAT registry lock acquisitions. Cold paths only: the dispatch hot
    /// path works off the immutable plan and must never move this counter —
    /// the no-subscriber regression test pins that.
    pub reg_lock_acquisitions: ShardedCounter,
    /// Bytecode instructions retired by the condition VM (`crate::vm`).
    pub vm_instructions: ShardedCounter,
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
            probe_events: std::array::from_fn(|_| ShardedCounter::new()),
            probe_latency: std::array::from_fn(|_| LatencyHistogram::new()),
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            breaker_trip: "Breaker.Trip".into(),
            breaker_reopen: "Breaker.Reopen".into(),
            breaker_close: "Breaker.Close".into(),
            rule_errors: Mutex::new(HashMap::new()),
            plan_rebuilds: ShardedCounter::new(),
            plan_rules_planned: ShardedCounter::new(),
            hoisted_lookup_hits: ShardedCounter::new(),
            lat_row_fetches: ShardedCounter::new(),
            reg_lock_acquisitions: ShardedCounter::new(),
            vm_instructions: ShardedCounter::new(),
            folded_ops: ShardedCounter::new(),
            guard_probes: ShardedCounter::new(),
            rules_pruned: ShardedCounter::new(),
            candidate_rules: ShardedCounter::new(),
        }
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
        let error = RuleError {
            rule: rule.to_string(),
            count: 1,
            message,
        };
        map.insert(error.rule.clone(), error);
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
    /// Bytecode instructions retired by the condition VM.
    pub vm_instructions: u64,
    /// Retired, always 0: cross-rule CSE slots are gone. Kept because
    /// `benchmark/src/layers.rs` reads it, until that file goes.
    pub cse_hits: u64,
    /// Condition-IR ops eliminated by registration-time constant folding.
    pub folded_ops: u64,
}

impl Describe for SqlcmStats {
    const FIELDS: &'static [Field<Self>] = &[
        ("events", |s| Count(s.events)),
        ("evaluations", |s| Count(s.evaluations)),
        ("fires", |s| Count(s.fires)),
        ("actions", |s| Count(s.actions)),
        ("action_errors", |s| Count(s.action_errors)),
    ];
}

impl Describe for DispatchTelemetry {
    const FIELDS: &'static [Field<Self>] = &[
        ("plan_epoch", |d| Count(d.plan_epoch)),
        ("plan_rebuilds", |d| Count(d.plan_rebuilds)),
        ("plan_rules_planned", |d| Count(d.plan_rules_planned)),
        ("hoisted_lookup_hits", |d| Count(d.hoisted_lookup_hits)),
        ("lat_row_fetches", |d| Count(d.lat_row_fetches)),
        ("reg_lock_acquisitions", |d| Count(d.reg_lock_acquisitions)),
        ("vm_instructions", |d| Count(d.vm_instructions)),
        ("cse_hits", |d| Count(d.cse_hits)),
        ("folded_ops", |d| Count(d.folded_ops)),
    ];
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
    /// Rules skipped without running the VM (a violated payload guard, or a
    /// LAT guard violated by the hoisted row, proved the condition false
    /// under the error/∃ contract).
    pub rules_pruned: u64,
    /// Rules that survived a probe and their LAT guards and ran the VM,
    /// summed over probed events.
    pub candidate_rules: u64,
    /// Rules in the current plan with no guard installed (always
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

impl Describe for MatchingTelemetry {
    const FIELDS: &'static [Field<Self>] = &[
        ("guard_probes", |m| Count(m.guard_probes)),
        ("rules_pruned", |m| Count(m.rules_pruned)),
        ("candidate_rules", |m| Count(m.candidate_rules)),
        ("candidate_rules_per_event", |m| {
            Ratio(m.candidate_rules_per_event())
        }),
        ("residual_rules", |m| Count(m.residual_rules)),
    ];
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

impl Describe for ProbeTelemetry {
    const FIELDS: &'static [Field<Self>] = &[
        ("kind", |p| Label(p.kind)),
        ("events", |p| Count(p.events)),
        ("on_event", |p| Nanos(&p.on_event)),
    ];
}

/// Per-rule slice of a telemetry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleTelemetry {
    pub name: String,
    /// Triggering event, in probe naming convention (`"Query.Commit"`).
    pub event: String,
    /// Condition evaluations, `pruned` included.
    pub evaluations: u64,
    /// Evaluations a guard decided (false) without running the condition.
    /// `pruned == evaluations` on a rule that never fires says its guards
    /// never admitted it — no event, or hoisted LAT row, carried the value a
    /// guard wants.
    pub pruned: u64,
    pub fires: u64,
    pub actions: u64,
    pub action_errors: u64,
    /// Condition-evaluation wall time, nanoseconds, of the timed
    /// evaluations: one in 64 per dispatcher stripe, the first included
    /// (every one while a breaker latency budget is set).
    pub condition: HistogramSnapshot,
    /// Action-execution wall time (all actions of one firing), nanoseconds,
    /// of the timed firings, sampled like `condition`.
    pub action: HistogramSnapshot,
    /// Last error attributed to this rule, if any.
    pub last_error: Option<RuleError>,
}

impl Describe for RuleTelemetry {
    const FIELDS: &'static [Field<Self>] = &[
        ("name", |r| Label(&r.name)),
        ("event", |r| Label(&r.event)),
        ("evaluations", |r| Count(r.evaluations)),
        ("pruned", |r| Count(r.pruned)),
        ("fires", |r| Count(r.fires)),
        ("actions", |r| Count(r.actions)),
        ("action_errors", |r| Count(r.action_errors)),
        ("condition", |r| Nanos(&r.condition)),
        ("action", |r| Nanos(&r.action)),
        ("last_error", |r| {
            Metric::Slice(r.last_error.as_ref().map(Describe::describe))
        }),
    ];
}

/// Under its rule's `last_error`, which names the rule already.
impl Describe for RuleError {
    const FIELDS: &'static [Field<Self>] = &[
        ("count", |e| Count(e.count)),
        ("message", |e| Label(&e.message)),
    ];
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
    /// victim order does all the work.
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
    /// Shard-lock acquisitions that found the lock held (contention events
    /// summed over all shards).
    pub lock_contentions: u64,
}

impl Describe for LatTelemetry {
    const FIELDS: &'static [Field<Self>] = &[
        ("name", |l| Label(&l.name)),
        ("inserts", |l| Count(l.inserts)),
        ("evictions", |l| Count(l.evictions)),
        ("victims_examined", |l| Count(l.victims_examined)),
        ("resets", |l| Count(l.resets)),
        ("aging_rolls", |l| Count(l.aging_rolls)),
        ("rows", |l| Count(l.rows)),
        ("row_high_water", |l| Count(l.row_high_water)),
        ("memory_bytes", |l| Count(l.memory_bytes)),
        ("lock_contentions", |l| Count(l.lock_contentions)),
    ];
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

impl Describe for BreakerTelemetry {
    const FIELDS: &'static [Field<Self>] = &[
        ("rule", |b| Label(&b.rule)),
        ("state", |b| Label(b.state)),
        ("trips", |b| Count(b.trips)),
        ("skipped", |b| Count(b.skipped)),
    ];
}

/// Deferred-action-queue slice of a telemetry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeferredTelemetry {
    /// Whether async external actions are on (`MonitorConfig::async_actions`).
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
}

impl Describe for DeferredTelemetry {
    const FIELDS: &'static [Field<Self>] = &[
        ("enabled", |d| Flag(d.enabled)),
        ("queue_depth", |d| Count(d.queue_depth)),
        ("capacity", |d| Count(d.capacity)),
        ("high_water", |d| Count(d.high_water)),
        ("enqueued", |d| Count(d.enqueued)),
        ("executed", |d| Count(d.executed)),
        ("failed_attempts", |d| Count(d.failed_attempts)),
        ("retries", |d| Count(d.retries)),
        ("dropped_overflow", |d| Count(d.dropped_overflow)),
        ("dropped_exhausted", |d| Count(d.dropped_exhausted)),
    ];
}

/// Fault-containment slice of a telemetry snapshot: circuit breakers and
/// the deferred-action queue with its loss ledger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContainmentTelemetry {
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

impl Describe for ContainmentTelemetry {
    const FIELDS: &'static [Field<Self>] = &[
        ("breaker_trips", |c| Count(c.breaker_trips)),
        ("breaker_reopens", |c| Count(c.breaker_reopens)),
        ("breaker_closes", |c| Count(c.breaker_closes)),
        ("breaker_skipped", |c| Count(c.breaker_skipped)),
        ("quarantined", |c| {
            Metric::List(c.quarantined.iter().map(|r| Label(r)).collect())
        }),
        ("breakers", |c| Metric::list(&c.breakers)),
        ("deferred", |c| Metric::slice(&c.deferred)),
        ("losses", |c| Metric::list(&c.losses)),
    ];
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
    /// Recent rule firings of every dispatcher, oldest first (at most
    /// [`FLIGHT_RECORDER_CAPACITY`]; each dispatcher's in its order).
    pub flight_records: Vec<FlightRecord>,
    /// Total records ever written to the flight recorder (including evicted).
    pub flight_total: u64,
    /// Causal-tracing state: sampling policy, traces completed/dropped,
    /// deepest cascade observed (see `crate::trace`).
    pub tracing: TracingTelemetry,
    /// Fault-containment state: breakers, deferred queue.
    pub containment: ContainmentTelemetry,
}

impl TelemetrySnapshot {
    /// Condition-evaluation latency merged across all rules: their timed
    /// evaluations.
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

    /// Human-readable report under the JSON keys: a slice's scalars as
    /// `name=value` on one line, its histograms, nested slices and lists
    /// indented below it.
    pub fn to_text(&self) -> String {
        let mut out = String::from("sqlcm telemetry");
        write_text(&mut out, 0, &self.describe());
        out
    }

    /// JSON rendering (hand-rolled; the workspace carries no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_json(&mut out, &Metric::slice(self));
        out
    }
}

impl Describe for TelemetrySnapshot {
    const FIELDS: &'static [Field<Self>] = &[
        ("stats", |t| Metric::slice(&t.stats)),
        ("dispatch", |t| Metric::slice(&t.dispatch)),
        ("matching", |t| Metric::slice(&t.matching)),
        ("probes", |t| Metric::list(&t.probes)),
        ("rules", |t| Metric::list(&t.rules)),
        ("lats", |t| Metric::list(&t.lats)),
        ("tracing", |t| Metric::slice(&t.tracing)),
        ("containment", |t| Metric::slice(&t.containment)),
        ("flight_recorder", |t| {
            Metric::Slice(Some(vec![
                ("total", Count(t.flight_total)),
                ("records", Metric::list(&t.flight_records)),
            ]))
        }),
    ];
}

/// The JSON writer: a slice is an object, a list an array, a histogram its
/// summary, and every other value its text.
fn write_json(out: &mut String, value: &Metric) {
    match value {
        Label(s) => out.push_str(&json_str(s)),
        Nanos(h) => write_json(out, &Metric::slice(*h)),
        Metric::Slice(Some(fields)) => {
            out.push('{');
            for (i, (name, v)) in fields.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}{}:", json_str(name));
                write_json(out, v);
            }
            out.push('}');
        }
        Metric::List(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                write_json(out, v);
            }
            out.push(']');
        }
        scalar => out.push_str(&text_of(scalar).unwrap_or_default()),
    }
}

/// A scalar's text — the same in both renderings but for a label's JSON
/// quoting. `None` for the values the text report gives lines of their own.
fn text_of(value: &Metric) -> Option<String> {
    Some(match value {
        Count(n) => n.to_string(),
        Flag(b) => b.to_string(),
        Label(s) => s.to_string(),
        Ratio(r) => format!("{r:.4}"),
        Metric::Slice(None) => "null".into(),
        _ => return None,
    })
}

/// The text writer: `fields`' scalars as ` name=value` on the current line,
/// then each histogram, nested slice or list below it, indented by `depth`:
/// `name: …`, or `name:` and one `- …` line per list item.
fn write_text(out: &mut String, depth: usize, fields: &Fields) {
    for (name, v) in fields {
        if let Some(text) = text_of(v) {
            let _ = write!(out, " {name}={text}");
        }
    }
    out.push('\n');
    let pad = "  ".repeat(depth);
    for (name, v) in fields.iter().filter(|(_, v)| text_of(v).is_none()) {
        let _ = write!(out, "{pad}{name}:");
        match v {
            Nanos(h) => write_text(out, depth + 1, &h.describe()),
            Metric::Slice(Some(inner)) => write_text(out, depth + 1, inner),
            Metric::List(items) => {
                out.push('\n');
                for item in items {
                    let _ = write!(out, "{pad}  -");
                    match item {
                        Metric::Slice(Some(inner)) => write_text(out, depth + 2, inner),
                        label => {
                            let _ = writeln!(out, " {}", text_of(label).unwrap_or_default());
                        }
                    }
                }
            }
            _ => {}
        }
    }
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
        let errors = telem.rule_errors.lock();
        assert_eq!(errors.len(), RULE_ERRORS_CAPACITY);
        let hot = errors.get("hot").expect("hot kept");
        assert_eq!(hot.count, 5);
        assert_eq!(hot.message, "boom");
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    fn empty_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
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
        }
    }

    #[test]
    fn empty_snapshot_renders_valid_shapes() {
        let snap = empty_snapshot();
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"probes\":[]"));
        assert!(json.contains("\"dispatch\":{\"plan_epoch\":0"));
        assert!(json.contains("\"matching\":{\"guard_probes\":0"));
        assert!(snap.to_text().contains("matching: guard_probes=0"));
        assert!(json.contains("\"tracing\":{\"sampling\":\"off\""));
        assert!(json.contains("\"containment\":{\"breaker_trips\":0"));
        assert!(json.contains("\"losses\":[]"));
        assert!(snap.to_text().contains("tracing: sampling=off"));
        assert!(snap
            .to_text()
            .contains("containment: breaker_trips=0 breaker_reopens=0"));
        assert!(snap
            .to_text()
            .ends_with("flight_recorder: total=0\n  records:\n"));
        let monitor = crate::objects::monitor_object(&snap);
        assert_eq!(monitor.values()[0], sqlcm_common::Value::text("sqlcm"));
        assert!(monitor.values()[1..]
            .iter()
            .all(|v| v.as_f64() == Some(0.0)));
    }

    /// The `Monitor` object carries, position by position, the types
    /// `ClassName::Monitor.schema()` declares, read from the snapshot.
    #[test]
    fn monitor_object_follows_its_schema() {
        use sqlcm_common::Value;
        let mut snap = empty_snapshot();
        snap.stats.action_errors = 5;
        snap.containment.quarantined = vec!["a".into(), "b".into()];
        snap.containment.deferred.queue_depth = 7;
        let monitor = crate::objects::monitor_object(&snap);
        let class = crate::objects::ClassName::Monitor.schema().unwrap();
        assert_eq!(monitor.values().len(), class.attrs.len());
        for ((attr, ty), value) in class.attrs.iter().zip(monitor.values()) {
            assert_eq!(value.data_type(), Some(*ty), "{attr}");
        }
        for (attr, want) in [
            ("Action_Errors", 5),
            ("Quarantined_Rules", 2),
            ("Deferred_Depth", 7),
        ] {
            assert_eq!(monitor.get(attr), Some(&Value::Int(want)), "{attr}");
        }
    }
}
