//! Causal tracing: per-event span trees, cascade provenance, and rule-firing
//! explainers.
//!
//! Aggregate telemetry ([`crate::telemetry`]) answers *how many* — events,
//! firings, fetches. It cannot answer *which event caused which cascade* or
//! *why a condition evaluated false*. This module answers those: a sampled
//! root event gets a trace ID and a span tree recording everything its
//! dispatch did — event receipt, hoisted LAT lookups (hit/miss), each rule's
//! condition decision with the bound attribute values spelled out, action
//! execution, LAT mutations, and every cascaded event (LAT eviction, timer,
//! re-entrant probe) linked back to the span that caused it, so the full
//! provenance tree of a cascade is reconstructable after the fact.
//!
//! # Span relations
//!
//! Spans carry **two** links:
//!
//! * `parent` — strict stack nesting: a child starts after its parent starts
//!   and closes before it closes (the flame-graph relation, what Chrome's
//!   timeline renders). Cascaded events are *deferred* (paper §5: queued and
//!   drained after the current event's rules complete), so they are **not**
//!   nested under the span that raised them — they are top-level spans in
//!   the same trace.
//! * `cause` — provenance: for a cascaded [`SpanKind::Event`], the
//!   [`SpanKind::LatMutation`] or [`SpanKind::Action`] span whose side
//!   effect queued it. The rendered text tree and the Chrome flow arrows
//!   both follow `cause`, which is what makes "this commit evicted that row
//!   which fired that rule" readable.
//!
//! Every event span also records its **cascade depth** — root events are 0,
//! each deferred hop adds 1 — the same measure
//! [`sqlcm_analyze::Analyzer::max_cascade_depth`] bounds statically, so
//! traces cross-check the analyzer (and `stats`: with every event sampled,
//! span counts must reconcile with the evaluation/fire counters).
//!
//! # Cost model
//!
//! Sampling ([`TraceSampling`]) decides everything. Disabled (the default)
//! costs one relaxed atomic load per dispatched event — the hot path stays
//! allocation-free and registry-lock-free, pinned by
//! `tests/dispatch_hotpath.rs`. Enabled, every dispatcher stripe keeps its
//! own lane: `EveryNth(n)` samples 1 in n of *that dispatcher's* root
//! events, counted on the lane, and a trace id packs (lane tag, lane-local
//! sequence) — the tag the flight recorder's lane on that stripe packs its
//! `seq` with ([`LaneTags`]) — so no sampling decision writes a line another
//! dispatcher writes. A *sampled* event stages its spans in a
//! buffer local to the dispatching thread's stack (no shared state, no
//! locks while recording) and hands the buffer to its lane's bounded ring on
//! completion: one uncontended mutex per completed trace, with evicted
//! traces' span buffers recycled through the lane's [`BufferPool`] so steady
//! state re-uses rather than reallocates. `Sqlcm::traces()` merges the
//! lanes by start stamp and keeps the newest [`TRACE_RING_CAPACITY`]; the
//! rings hold at most stripes × that many traces. The `t7_trace_overhead`
//! bench gates both modes.
//!
//! A sampled event costs what it *did*: pruned rules get no span. The event
//! records its candidate set, payload and plan ([`PrunedRules`]) and the
//! `pruned by guard index: …` outcome of each is worked out when the trace
//! is read — by the text tree, the Chrome export, or
//! [`TraceSnapshot::pruned_outcome`] for one rule by name. A rule a LAT
//! guard refused records its `pruned by LAT guard: …` outcome at its
//! segment's probe, from the row the probe read; an unsampled event builds
//! no reason.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use sqlcm_telemetry::{BoundedRing, BufferPool, Describe, Field, Metric, ShardedCounter};
use sqlcm_telemetry::{LaneTags, Stamp, Stripes};

use crate::objects::Object;
use crate::plan::{EventPlan, PlanRule};
use crate::rules::EvalContext;
use crate::telemetry::json_str;

/// Trace ring depth: the most recent N completed traces are retained,
/// oldest dropped first (per dispatcher stripe, and in a merged read).
pub const TRACE_RING_CAPACITY: usize = 64;

/// Hard cap on spans staged per trace; a pathological cascade truncates
/// (flagged on the snapshot) instead of growing without bound.
pub const MAX_SPANS_PER_TRACE: usize = 4096;

/// Bound on a lane's pooled span buffers (covers its ring's turnover plus
/// in-flight staging).
const SPAN_POOL_BOUND: usize = 8;

/// Sentinel span ID: "no span" (used on the untraced path and for truncated
/// traces; all recording methods ignore it).
pub(crate) const NONE_SPAN: u32 = u32::MAX;

/// Trace sampling policy (see [`crate::MonitorConfig::trace_sampling`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceSampling {
    /// No tracing (the default): one relaxed atomic load per event.
    #[default]
    Off,
    /// Trace 1 in N of each dispatcher's root events (engine probes and
    /// internally raised roots such as timer alarms), counted per stripe.
    /// `0` and `1` both mean "every event".
    EveryNth(u32),
}

/// One span in a trace. Times are nanoseconds relative to the trace start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span ID, unique within the trace (dense, in open order).
    pub id: u32,
    /// Nesting parent (`None` for event spans — each dispatched event of the
    /// batch is top-level; deferral breaks stack nesting across events).
    pub parent: Option<u32>,
    /// Provenance link for cascaded events: the span whose side effect
    /// queued this event.
    pub cause: Option<u32>,
    pub start_nanos: u64,
    pub end_nanos: u64,
    pub kind: SpanKind,
}

/// What a [`TraceSpan`] describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanKind {
    /// An event entering dispatch (the root, or a cascaded/deferred one).
    Event {
        /// Probe-convention name, e.g. `"Query.Commit"` or
        /// `"Lat.Eviction(Hot)"`.
        name: String,
        /// Cascade depth: 0 for the root, +1 per deferred hop.
        depth: u32,
    },
    /// A LAT row lookup binding the condition's implicit ∃ (instant).
    LatLookup {
        lat: String,
        /// Whether a row was found for the in-scope grouping key.
        hit: bool,
        /// Served from the event-shared hoist slot instead of fetching.
        hoisted: bool,
    },
    /// One rule's condition evaluation (plus its actions as child spans).
    Rule {
        name: String,
        fired: bool,
        /// "Why it fired / why it didn't": the condition's bound attribute
        /// values and its decision, e.g.
        /// `Query.Duration=1500000, Hot.N=<no row> -> false (missing LAT row)`.
        explain: String,
    },
    /// One action execution.
    Action { action: &'static str, ok: bool },
    /// A LAT mutation performed by an action (instant). Cascaded eviction
    /// events point their `cause` at this span.
    LatMutation {
        lat: String,
        op: &'static str,
        /// Rows evicted by this mutation (each queues one deferred event
        /// when a rule subscribes).
        evicted: u32,
    },
}

impl SpanKind {
    /// Short label for renderers.
    fn label(&self) -> &str {
        match self {
            SpanKind::Event { name, .. } => name,
            SpanKind::LatLookup { lat, .. } => lat,
            SpanKind::Rule { name, .. } => name,
            SpanKind::Action { action, .. } => action,
            SpanKind::LatMutation { lat, .. } => lat,
        }
    }
}

/// The rules one traced event's guard-index probe pruned, kept as what the
/// probe produced rather than as one span per rule, so a sampled event over
/// thousands of rules still costs its candidates. Rendered on demand — but
/// for the rules a LAT guard refused, whose reason names the row their
/// segment's probe read, which a later writer may have changed.
///
/// Dispatch never visits a rule the probe pruned, so it cannot tell whether
/// one was disabled when the event arrived: [`PrunedRules::outcomes`] lists
/// every rule of the event's plan the index did not admit, while `pruned`
/// counts the enabled ones exactly.
#[derive(Clone)]
pub struct PrunedRules {
    /// The [`SpanKind::Event`] span whose probe this was.
    pub event_span: u32,
    /// Enabled rules pruned, each counted as one (false) evaluation.
    pub pruned: u64,
    /// Enabled candidates that ran; each has a [`SpanKind::Rule`] span.
    pub candidates: u64,
    /// The event's plan: rule names and their guards.
    pub(crate) plan: Arc<EventPlan>,
    /// The probe's candidate set less the rules a LAT guard pruned, one bit
    /// per rule of `plan`.
    pub(crate) admitted: Vec<u64>,
    /// Each rule a LAT guard pruned, by position in `plan`, and why.
    pub(crate) lat_reasons: Vec<(usize, String)>,
    /// The payload the probe read.
    pub(crate) objects: Vec<Object>,
}

impl PrunedRules {
    /// The plan's rules outside the candidate set, with their positions, in
    /// registration order.
    fn pruned_plan_rules(&self) -> impl Iterator<Item = (usize, &PlanRule)> + '_ {
        let admitted = |i: usize| self.admitted[i >> 6] & (1 << (i & 63)) != 0;
        let rules = self.plan.rules.iter().enumerate();
        rules.filter(move |(i, _)| !admitted(*i))
    }

    /// Which guard of rule `i`, `pr`, the payload or its LAT row violated.
    fn explain(&self, i: usize, pr: &PlanRule) -> String {
        if let Some((_, why)) = self.lat_reasons.iter().find(|(r, _)| *r == i) {
            return why.clone();
        }
        let guard = pr.reg.guard.as_ref();
        guard
            .map(|g| crate::guard::explain(g, &self.objects))
            .unwrap_or_default()
    }

    /// `(rule, why)` for every rule the index or a LAT guard did not admit,
    /// in registration order; `why` names the violated guard, e.g.
    /// `pruned by guard index: Query.User=bob not in {alice}` or
    /// `pruned by LAT guard: Sig_LAT.N=12 outside [1000000000,∞)`.
    pub fn outcomes(&self) -> impl Iterator<Item = (&str, String)> + '_ {
        self.pruned_plan_rules()
            .map(|(i, pr)| (pr.reg.rule.name.as_str(), self.explain(i, pr)))
    }

    /// Why the index or its LAT guard did not admit `rule` on this event;
    /// `None` when it ran or is not a rule of the event.
    pub fn outcome_of(&self, rule: &str) -> Option<String> {
        let mut pruned = self.pruned_plan_rules();
        let (i, pr) = pruned.find(|(_, pr)| pr.reg.rule.name == rule)?;
        Some(self.explain(i, pr))
    }
}

impl std::fmt::Debug for PrunedRules {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrunedRules")
            .field("event_span", &self.event_span)
            .field("pruned", &self.pruned)
            .field("candidates", &self.candidates)
            .finish_non_exhaustive()
    }
}

/// Same probe of the same plan; the payload is taken as read (it decided
/// `admitted`).
impl PartialEq for PrunedRules {
    fn eq(&self, other: &PrunedRules) -> bool {
        (self.event_span, self.pruned, self.candidates)
            == (other.event_span, other.pruned, other.candidates)
            && self.admitted == other.admitted
            && self.lat_reasons == other.lat_reasons
            && Arc::ptr_eq(&self.plan, &other.plan)
    }
}

impl Eq for PrunedRules {}

/// A completed trace: one sampled root event and everything its dispatch
/// did, including all deferred cascade hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Trace ID: (lane tag, lane-local sequence) packed as
    /// `tag << LANE_SHIFT | sequence`, the sequence starting at 1, so 0
    /// stays reserved for "not traced" in flight-recorder cross-links. A
    /// lone dispatcher's traces are numbered 1, 2, 3, ….
    pub trace_id: u64,
    /// Name of the root event.
    pub root_event: String,
    /// Wall-clock microseconds (monitor clock) when the trace started.
    pub started_micros: u64,
    /// Total wall time of the dispatch batch, nanoseconds.
    pub duration_nanos: u64,
    /// Deepest cascade hop observed (0 = no cascading).
    pub max_cascade_depth: u32,
    /// Rule-condition evaluations recorded, the guard index's pruned ones
    /// included.
    pub evaluations: u32,
    /// Evaluations that fired.
    pub fires: u32,
    /// Span recording hit [`MAX_SPANS_PER_TRACE`] and stopped early.
    pub truncated: bool,
    /// All spans, in open order (span `id` == index).
    pub spans: Vec<TraceSpan>,
    /// Per event whose guard-index probe was usable: what it pruned.
    pub pruned: Vec<PrunedRules>,
}

impl TraceSnapshot {
    /// Render as an indented tree. Children follow the nesting `parent`
    /// link; cascaded events are placed under their provenance `cause`, so
    /// the output reads as a causal tree even though deferred events ran
    /// after their cause's span closed.
    pub fn to_text_tree(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace #{} {} spans={} depth={} evals={} fires={} took={}ns{}",
            self.trace_id,
            self.root_event,
            self.spans.len(),
            self.max_cascade_depth,
            self.evaluations,
            self.fires,
            self.duration_nanos,
            if self.truncated { " [truncated]" } else { "" },
        );
        for root in self.spans.iter().filter(|s| self.tree_parent(s).is_none()) {
            self.render_span(&mut out, root, 1);
        }
        out
    }

    /// The node a span hangs under in the rendered tree: `cause` for
    /// cascaded events, `parent` for everything else.
    fn tree_parent(&self, span: &TraceSpan) -> Option<u32> {
        span.cause.or(span.parent)
    }

    fn render_span(&self, out: &mut String, span: &TraceSpan, indent: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(indent);
        let line = match &span.kind {
            SpanKind::Event { name, depth } => {
                let probe = self.pruned_by(span.id).map_or(String::new(), |p| {
                    format!(" candidates={} pruned={}", p.candidates, p.pruned)
                });
                format!(
                    "event {name} depth={depth}{probe} [{}ns]",
                    span.end_nanos - span.start_nanos
                )
            }
            SpanKind::LatLookup { lat, hit, hoisted } => format!(
                "lookup {lat} {}{}",
                if *hit { "hit" } else { "miss" },
                if *hoisted { " (hoisted)" } else { "" },
            ),
            SpanKind::Rule {
                name,
                fired,
                explain,
            } => format!(
                "rule {name} {}: {explain} [{}ns]",
                if *fired { "FIRED" } else { "skipped" },
                span.end_nanos - span.start_nanos,
            ),
            SpanKind::Action { action, ok } => format!(
                "action {action} {} [{}ns]",
                if *ok { "ok" } else { "FAILED" },
                span.end_nanos - span.start_nanos,
            ),
            SpanKind::LatMutation { lat, op, evicted } => {
                format!("mutate {lat} {op} evicted={evicted}")
            }
        };
        let _ = writeln!(out, "{pad}{line}");
        for child in self
            .spans
            .iter()
            .filter(|s| self.tree_parent(s) == Some(span.id))
        {
            self.render_span(out, child, indent + 1);
        }
        for (rule, why) in self.pruned_outcomes(span.id) {
            let _ = writeln!(out, "{pad}  rule {rule} skipped: {why}");
        }
    }

    /// `(rule, why)` for every rule the probe of event span `event_span`
    /// pruned; empty for any other span.
    fn pruned_outcomes(&self, event_span: u32) -> impl Iterator<Item = (&str, String)> + '_ {
        let probe = self.pruned_by(event_span).into_iter();
        probe.flat_map(PrunedRules::outcomes)
    }

    /// What the probe of event span `event_span` pruned, if it had one.
    fn pruned_by(&self, event_span: u32) -> Option<&PrunedRules> {
        self.pruned.iter().find(|p| p.event_span == event_span)
    }

    /// Why a guard kept `rule` from running in this trace: the
    /// `pruned by guard index: …` or `pruned by LAT guard: …` line of the
    /// first event that pruned it.
    pub fn pruned_outcome(&self, rule: &str) -> Option<String> {
        self.pruned.iter().find_map(|p| p.outcome_of(rule))
    }

    /// This trace's spans as Chrome trace-event objects, appended to `out`.
    /// `links` numbers flow arrows uniquely across an export.
    fn chrome_events(&self, out: &mut Vec<String>, links: &mut u64) {
        let ts = |nanos: u64| -> String {
            // Chrome expects microseconds; keep sub-µs precision as decimals.
            format!("{:.3}", self.started_micros as f64 + nanos as f64 / 1000.0)
        };
        for span in &self.spans {
            let (cat, args) = match &span.kind {
                SpanKind::Event { depth, .. } => {
                    ("event".to_string(), format!("{{\"depth\":{depth}}}"))
                }
                SpanKind::LatLookup { hit, hoisted, .. } => (
                    "lookup".to_string(),
                    format!("{{\"hit\":{hit},\"hoisted\":{hoisted}}}"),
                ),
                SpanKind::Rule { fired, explain, .. } => (
                    "rule".to_string(),
                    format!("{{\"fired\":{fired},\"explain\":{}}}", json_str(explain)),
                ),
                SpanKind::Action { ok, .. } => ("action".to_string(), format!("{{\"ok\":{ok}}}")),
                SpanKind::LatMutation { op, evicted, .. } => (
                    "mutation".to_string(),
                    format!("{{\"op\":{},\"evicted\":{evicted}}}", json_str(op)),
                ),
            };
            let name = json_str(span.kind.label());
            let instant = span.end_nanos == span.start_nanos;
            if instant {
                out.push(format!(
                    "{{\"name\":{name},\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{args}}}",
                    ts(span.start_nanos),
                    self.trace_id,
                ));
            } else {
                out.push(format!(
                    "{{\"name\":{name},\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{args}}}",
                    ts(span.start_nanos),
                    (span.end_nanos - span.start_nanos) as f64 / 1000.0,
                    self.trace_id,
                ));
            }
            for (rule, why) in self.pruned_outcomes(span.id) {
                out.push(format!(
                    "{{\"name\":{},\"cat\":\"rule\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"fired\":false,\"explain\":{}}}}}",
                    json_str(rule),
                    ts(span.start_nanos),
                    self.trace_id,
                    json_str(&why),
                ));
            }
            // Cascade provenance as a flow arrow: cause span -> event span.
            if let Some(cause) = span.cause {
                if let Some(from) = self.spans.get(cause as usize) {
                    *links += 1;
                    let id = *links;
                    out.push(format!(
                        "{{\"name\":\"cascade\",\"cat\":\"cascade\",\"ph\":\"s\",\"id\":{id},\"ts\":{},\"pid\":1,\"tid\":{}}}",
                        ts(from.start_nanos),
                        self.trace_id,
                    ));
                    out.push(format!(
                        "{{\"name\":\"cascade\",\"cat\":\"cascade\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"ts\":{},\"pid\":1,\"tid\":{}}}",
                        ts(span.start_nanos),
                        self.trace_id,
                    ));
                }
            }
        }
    }

    /// This trace alone as a `chrome://tracing`-loadable JSON document.
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(std::slice::from_ref(self))
    }
}

/// Export traces as one Chrome trace-event JSON document
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` / Perfetto.
/// Each trace renders on its own thread row (`tid` = trace ID) with cascade
/// provenance drawn as flow arrows.
pub fn chrome_trace_json(traces: &[TraceSnapshot]) -> String {
    let mut events = Vec::new();
    let mut links = 0u64;
    for trace in traces {
        trace.chrome_events(&mut events, &mut links);
    }
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&events.join(","));
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Tracing slice of a telemetry snapshot (the `tracing` section of
/// [`crate::TelemetrySnapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracingTelemetry {
    /// Active sampling policy, rendered (`"off"`, `"every_nth(64)"`).
    pub sampling: String,
    /// Root events sampled into a trace.
    pub sampled: u64,
    /// Traces completed and retained (a sampled event whose dispatch
    /// recorded no spans — no subscribed rules — is discarded).
    pub completed: u64,
    /// Completed traces evicted from the rings (drop-oldest), or held by a
    /// ring but older than the newest [`TRACE_RING_CAPACITY`] a merged read
    /// returns.
    pub dropped: u64,
    /// Spans across all completed traces.
    pub spans: u64,
    /// Deepest cascade observed in any completed trace.
    pub max_cascade_depth: u64,
    /// Traces a merged read returns now.
    pub ring_len: u64,
    pub ring_capacity: u64,
}

impl Default for TracingTelemetry {
    fn default() -> TracingTelemetry {
        TracingTelemetry {
            sampling: "off".to_string(),
            sampled: 0,
            completed: 0,
            dropped: 0,
            spans: 0,
            max_cascade_depth: 0,
            ring_len: 0,
            ring_capacity: TRACE_RING_CAPACITY as u64,
        }
    }
}

impl Describe for TracingTelemetry {
    const FIELDS: &'static [Field<Self>] = &[
        ("sampling", |t| Metric::Label(&t.sampling)),
        ("sampled", |t| Metric::Count(t.sampled)),
        ("completed", |t| Metric::Count(t.completed)),
        ("dropped", |t| Metric::Count(t.dropped)),
        ("spans", |t| Metric::Count(t.spans)),
        ("max_cascade_depth", |t| Metric::Count(t.max_cascade_depth)),
        ("ring_len", |t| Metric::Count(t.ring_len)),
        ("ring_capacity", |t| Metric::Count(t.ring_capacity)),
    ];
}

// ------------------------------------------------------------ staging

/// Per-dispatch staging for one sampled trace. Lives on the dispatching
/// thread's stack for the duration of the batch (root event + all deferred
/// hops); recording touches nothing shared.
pub(crate) struct TraceCtx {
    id: u64,
    started_micros: u64,
    started: Stamp,
    spans: Vec<TraceSpan>,
    pruned: Vec<PrunedRules>,
    max_depth: u32,
    evaluations: u32,
    fires: u32,
    truncated: bool,
}

impl TraceCtx {
    pub fn trace_id(&self) -> u64 {
        self.id
    }

    fn now(&self) -> u64 {
        Stamp::now().nanos_since(self.started)
    }

    fn open(&mut self, parent: Option<u32>, cause: Option<u32>, kind: SpanKind) -> u32 {
        if self.spans.len() >= MAX_SPANS_PER_TRACE {
            self.truncated = true;
            return NONE_SPAN;
        }
        let id = self.spans.len() as u32;
        let now = self.now();
        self.spans.push(TraceSpan {
            id,
            parent,
            cause,
            start_nanos: now,
            end_nanos: now,
            kind,
        });
        id
    }

    fn valid(parent: u32) -> Option<u32> {
        (parent != NONE_SPAN).then_some(parent)
    }

    /// Open an event-receipt span. `cause` is the queueing span for
    /// deferred events ([`NONE_SPAN`] for the root).
    pub fn open_event(&mut self, name: String, cause: u32, depth: u32) -> u32 {
        self.max_depth = self.max_depth.max(depth);
        self.open(None, Self::valid(cause), SpanKind::Event { name, depth })
    }

    /// Record what an event's guard-index probe pruned: counted as
    /// evaluations now, explained when the trace is read.
    pub fn pruned_rules(&mut self, pruned: PrunedRules) {
        self.evaluations += pruned.pruned as u32;
        self.pruned.push(pruned);
    }

    /// Open a rule-evaluation span under an event span.
    pub fn open_rule(&mut self, event_span: u32, name: &str) -> u32 {
        self.evaluations += 1;
        self.open(
            Self::valid(event_span),
            None,
            SpanKind::Rule {
                name: name.to_string(),
                fired: false,
                explain: String::new(),
            },
        )
    }

    /// Record the condition decision and explainer on an open rule span.
    pub fn rule_outcome(&mut self, rule_span: u32, did_fire: bool, why: String) {
        if did_fire {
            self.fires += 1;
        }
        if let Some(span) = self.span_mut(rule_span) {
            if let SpanKind::Rule { fired, explain, .. } = &mut span.kind {
                *fired = did_fire;
                *explain = why;
            }
        }
    }

    /// Open an action-execution span under a rule span.
    pub fn open_action(&mut self, rule_span: u32, action: &'static str) -> u32 {
        self.open(
            Self::valid(rule_span),
            None,
            SpanKind::Action { action, ok: true },
        )
    }

    /// Mark an open action span failed.
    pub fn action_failed(&mut self, action_span: u32) {
        if let Some(span) = self.span_mut(action_span) {
            if let SpanKind::Action { ok, .. } = &mut span.kind {
                *ok = false;
            }
        }
    }

    /// Record an instant LAT-lookup span under a rule span.
    pub fn lat_lookup(&mut self, rule_span: u32, lat: &str, hit: bool, hoisted: bool) {
        self.open(
            Self::valid(rule_span),
            None,
            SpanKind::LatLookup {
                lat: lat.to_string(),
                hit,
                hoisted,
            },
        );
    }

    /// Record an instant LAT-mutation span under an action span; returns the
    /// span ID so queued eviction events can cite it as their `cause`.
    pub fn lat_mutation(
        &mut self,
        action_span: u32,
        lat: &str,
        op: &'static str,
        evicted: u32,
    ) -> u32 {
        self.open(
            Self::valid(action_span),
            None,
            SpanKind::LatMutation {
                lat: lat.to_string(),
                op,
                evicted,
            },
        )
    }

    /// Close a span (idempotent enough for our stack discipline: called
    /// exactly once per open).
    pub fn close(&mut self, span: u32) {
        let now = self.now();
        if let Some(span) = self.span_mut(span) {
            span.end_nanos = now;
        }
    }

    fn span_mut(&mut self, id: u32) -> Option<&mut TraceSpan> {
        if id == NONE_SPAN {
            return None;
        }
        self.spans.get_mut(id as usize)
    }
}

// ------------------------------------------------------------ tracer

/// Per-instance tracing state: the sampling policy, and per dispatcher
/// stripe a lane with the sampling count, trace-id source, ring of completed
/// traces and span-buffer pool.
pub(crate) struct Tracer {
    /// The sampling period N of [`TraceSampling::EveryNth`]; `0` = off.
    every_n: AtomicU32,
    /// Shared with the flight recorder, so a stripe's traces and records
    /// carry one lane tag.
    tags: Arc<LaneTags>,
    lanes: Stripes<TraceLane>,
    sampled: ShardedCounter,
    completed: ShardedCounter,
    spans_recorded: ShardedCounter,
    max_depth: AtomicU64,
}

/// One dispatcher stripe's tracing state, on cache lines of its own.
#[repr(align(64))]
struct TraceLane {
    /// Root events this lane saw while sampling: the 1-in-N count.
    seen: AtomicU64,
    /// Traces this lane started.
    started: AtomicU64,
    /// Completed traces with their start stamps, the merge key.
    ring: BoundedRing<(Stamp, TraceSnapshot)>,
    pool: BufferPool<TraceSpan>,
}

impl Tracer {
    /// A tracer whose trace ids are packed with `tags`.
    pub fn new(tags: &Arc<LaneTags>) -> Tracer {
        Tracer {
            every_n: AtomicU32::new(0),
            tags: Arc::clone(tags),
            lanes: Stripes::new(|| TraceLane {
                seen: AtomicU64::new(0),
                started: AtomicU64::new(0),
                ring: BoundedRing::new(TRACE_RING_CAPACITY),
                pool: BufferPool::new(SPAN_POOL_BOUND),
            }),
            sampled: ShardedCounter::new(),
            completed: ShardedCounter::new(),
            spans_recorded: ShardedCounter::new(),
            max_depth: AtomicU64::new(0),
        }
    }

    pub fn set_sampling(&self, sampling: TraceSampling) {
        let n = match sampling {
            TraceSampling::Off => 0,
            TraceSampling::EveryNth(n) => n.max(1),
        };
        self.every_n.store(n, Ordering::Relaxed);
    }

    pub fn sampling(&self) -> TraceSampling {
        match self.every_n.load(Ordering::Relaxed) {
            0 => TraceSampling::Off,
            n => TraceSampling::EveryNth(n),
        }
    }

    /// Sampling decision for a root event — an engine probe, or one raised
    /// internally (timer alarm, monitor tick, test dispatch) — on the calling
    /// dispatcher's own count. The disabled path is one relaxed load and a
    /// predictable branch; `now_micros` (a clock read) is invoked only when
    /// the event is actually sampled.
    #[inline]
    pub fn sample(&self, now_micros: impl FnOnce() -> u64) -> Option<TraceCtx> {
        let n = self.every_n.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        let c = self.lanes.mine().seen.fetch_add(1, Ordering::Relaxed);
        c.is_multiple_of(u64::from(n))
            .then(|| self.start(now_micros()))
    }

    fn start(&self, now_micros: u64) -> TraceCtx {
        self.sampled.incr();
        let lane = self.lanes.mine();
        TraceCtx {
            id: self.tags.mine() | (lane.started.fetch_add(1, Ordering::Relaxed) + 1),
            started_micros: now_micros,
            started: Stamp::now(),
            spans: lane.pool.take(),
            pruned: Vec::new(),
            max_depth: 0,
            evaluations: 0,
            fires: 0,
            truncated: false,
        }
    }

    /// Seal a staged trace into the calling dispatcher's ring. Empty traces
    /// (the sampled event had no subscribed rules) are discarded; evicted
    /// traces' span buffers go back to the lane's pool.
    pub fn finish(&self, ctx: TraceCtx) {
        let lane = self.lanes.mine();
        if ctx.spans.is_empty() {
            lane.pool.put(ctx.spans);
            return;
        }
        self.completed.incr();
        self.spans_recorded.add(ctx.spans.len() as u64);
        let depth = u64::from(ctx.max_depth);
        if depth > self.max_depth.load(Ordering::Relaxed) {
            self.max_depth.fetch_max(depth, Ordering::Relaxed);
        }
        let snapshot = TraceSnapshot {
            trace_id: ctx.id,
            root_event: ctx
                .spans
                .first()
                .map(|s| s.kind.label().to_string())
                .unwrap_or_default(),
            started_micros: ctx.started_micros,
            duration_nanos: ctx.now(),
            max_cascade_depth: ctx.max_depth,
            evaluations: ctx.evaluations,
            fires: ctx.fires,
            truncated: ctx.truncated,
            spans: ctx.spans,
            pruned: ctx.pruned,
        };
        if let Some((_, evicted)) = lane.ring.push((ctx.started, snapshot)) {
            lane.pool.put(evicted.spans);
        }
    }

    /// The newest [`TRACE_RING_CAPACITY`] completed traces of all lanes,
    /// oldest first by start.
    pub fn snapshot(&self) -> Vec<TraceSnapshot> {
        let mut all: Vec<_> = self.lanes.iter().flat_map(|l| l.ring.snapshot()).collect();
        all.sort_unstable_by_key(|(started, t)| (*started, t.trace_id));
        let hidden = all.len().saturating_sub(TRACE_RING_CAPACITY);
        all.into_iter().skip(hidden).map(|(_, t)| t).collect()
    }

    /// Drop all retained traces (their buffers are recycled).
    pub fn clear(&self) {
        for lane in self.lanes.iter() {
            for (_, trace) in lane.ring.drain() {
                lane.pool.put(trace.spans);
            }
        }
    }

    pub fn telemetry(&self) -> TracingTelemetry {
        let sampling = match self.sampling() {
            TraceSampling::Off => "off".to_string(),
            TraceSampling::EveryNth(n) => format!("every_nth({n})"),
        };
        let held: u64 = self.lanes.iter().map(|l| l.ring.len() as u64).sum();
        let ring_len = held.min(TRACE_RING_CAPACITY as u64);
        let evicted: u64 = self.lanes.iter().map(|l| l.ring.dropped()).sum();
        TracingTelemetry {
            sampling,
            sampled: self.sampled.get(),
            completed: self.completed.get(),
            dropped: evicted + held - ring_len,
            spans: self.spans_recorded.get(),
            max_cascade_depth: self.max_depth.load(Ordering::Relaxed),
            ring_len,
            ring_capacity: TRACE_RING_CAPACITY as u64,
        }
    }
}

// ------------------------------------------------------------ explainer

/// Build the "why it fired / why it didn't" explainer for one condition
/// evaluation: every `Qualifier.Name` leaf the condition references (its
/// reference pool holds them as written, exactly deduplicated, in source
/// order), with the value it bound to (or `<no row>` for a failed implicit
/// ∃), then the decision. Runs only on sampled evaluations.
pub(crate) fn explain_condition(
    condition: Option<&crate::ir::CondIr>,
    ctx: &EvalContext,
    fired: bool,
    cond_error: bool,
) -> String {
    let Some(cond) = condition else {
        return "no condition -> always fires".to_string();
    };
    let mut out = String::new();
    let mut missing_row = false;
    for (q, name) in &cond.refs {
        // Resolution rejects unqualified columns; none reach here.
        let Some(q) = q else { continue };
        if !out.is_empty() {
            out.push_str(", ");
        }
        match ctx.resolve(q, name) {
            Ok(v) => out.push_str(&format!("{q}.{name}={v}")),
            Err(sqlcm_common::Error::NoLatRow) => {
                missing_row = true;
                out.push_str(&format!("{q}.{name}=<no row>"));
            }
            Err(e) => out.push_str(&format!("{q}.{name}=<error: {e}>")),
        }
    }
    if out.is_empty() {
        out.push_str("(no bound references)");
    }
    if cond_error {
        out.push_str(" -> error");
    } else if fired {
        out.push_str(" -> true");
    } else if missing_row {
        out.push_str(" -> false (missing LAT row)");
    } else {
        out.push_str(" -> false");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_trace() -> TraceCtx {
        Tracer::new(&Default::default()).start(5)
    }

    #[test]
    fn span_ids_are_dense_and_nesting_links_hold() {
        let mut t = ctx_trace();
        let ev = t.open_event("Query.Commit".into(), NONE_SPAN, 0);
        let rule = t.open_rule(ev, "track");
        t.lat_lookup(rule, "Hot", true, true);
        let action = t.open_action(rule, "Insert");
        let mutation = t.lat_mutation(action, "Hot", "insert", 1);
        let child = t.open_event("Lat.Eviction(Hot)".into(), mutation, 1);
        t.close(child);
        t.close(action);
        t.rule_outcome(rule, true, "x -> true".into());
        t.close(rule);
        t.close(ev);
        assert_eq!(t.spans.len(), 6);
        assert!(t.spans.iter().enumerate().all(|(i, s)| s.id as usize == i));
        assert_eq!(t.spans[1].parent, Some(ev));
        assert_eq!(t.spans[3].parent, Some(rule));
        assert_eq!(t.spans[4].parent, Some(action));
        assert_eq!(t.spans[5].parent, None, "events are top-level");
        assert_eq!(t.spans[5].cause, Some(mutation), "provenance via cause");
        assert_eq!(t.max_depth, 1);
        assert_eq!((t.evaluations, t.fires), (1, 1));
    }

    #[test]
    fn truncation_stops_recording_and_flags_the_trace() {
        let mut t = ctx_trace();
        let ev = t.open_event("Query.Commit".into(), NONE_SPAN, 0);
        for _ in 0..MAX_SPANS_PER_TRACE + 10 {
            t.lat_lookup(ev, "L", false, false);
        }
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        assert!(t.truncated);
        // Opens past the cap return NONE_SPAN and later ops on it no-op.
        let dead = t.open_rule(ev, "r");
        assert_eq!(dead, NONE_SPAN);
        t.rule_outcome(dead, true, "ignored".into());
        t.close(dead);
        assert_eq!(t.fires, 1, "outcome on a dead span still counts the fire");
    }

    #[test]
    fn tracer_round_trip_and_ring_drop_oldest() {
        let tracer = Tracer::new(&Default::default());
        tracer.set_sampling(TraceSampling::EveryNth(1));
        for i in 0..(TRACE_RING_CAPACITY + 5) {
            let mut ctx = tracer.sample(|| i as u64).expect("every event");
            let ev = ctx.open_event("Monitor.Tick".into(), NONE_SPAN, 0);
            ctx.close(ev);
            tracer.finish(ctx);
        }
        let traces = tracer.snapshot();
        assert_eq!(traces.len(), TRACE_RING_CAPACITY);
        // Oldest dropped: the first retained trace is #6.
        assert_eq!(traces[0].trace_id, 6);
        assert!(traces.windows(2).all(|w| w[0].trace_id < w[1].trace_id));
        let tt = tracer.telemetry();
        assert_eq!(tt.dropped, 5);
        assert_eq!(tt.completed, (TRACE_RING_CAPACITY + 5) as u64);
        tracer.clear();
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn empty_traces_are_discarded() {
        let tracer = Tracer::new(&Default::default());
        tracer.set_sampling(TraceSampling::EveryNth(1));
        let ctx = tracer.sample(|| 0).unwrap();
        tracer.finish(ctx);
        assert!(tracer.snapshot().is_empty());
        let tt = tracer.telemetry();
        assert_eq!(tt.sampled, 1);
        assert_eq!(tt.completed, 0);
    }

    #[test]
    fn every_nth_samples_at_the_requested_rate() {
        let tracer = Tracer::new(&Default::default());
        tracer.set_sampling(TraceSampling::EveryNth(4));
        let sampled = (0..100).filter(|_| tracer.sample(|| 0).is_some()).count();
        assert_eq!(sampled, 25);
        assert_eq!(tracer.sampling(), TraceSampling::EveryNth(4));
    }

    #[test]
    fn text_tree_places_cascades_under_their_cause() {
        let tracer = Tracer::new(&Default::default());
        tracer.set_sampling(TraceSampling::EveryNth(1));
        let mut ctx = tracer.sample(|| 0).unwrap();
        let ev = ctx.open_event("Query.Commit".into(), NONE_SPAN, 0);
        let rule = ctx.open_rule(ev, "track");
        let action = ctx.open_action(rule, "Insert");
        let mutation = ctx.lat_mutation(action, "Hot", "insert", 1);
        ctx.close(action);
        ctx.rule_outcome(rule, true, "always".into());
        ctx.close(rule);
        ctx.close(ev);
        let child = ctx.open_event("Lat.Eviction(Hot)".into(), mutation, 1);
        ctx.close(child);
        tracer.finish(ctx);
        let trace = tracer.snapshot().pop().unwrap();
        let tree = trace.to_text_tree();
        let mutation_line = tree
            .lines()
            .find(|l| l.contains("mutate Hot"))
            .expect("mutation rendered");
        let event_line = tree
            .lines()
            .find(|l| l.contains("event Lat.Eviction(Hot)"))
            .expect("cascaded event rendered");
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(
            indent(event_line) > indent(mutation_line),
            "cascaded event is nested under its cause:\n{tree}"
        );
        assert!(tree.contains("rule track FIRED"));
    }

    #[test]
    fn chrome_export_is_structurally_sound() {
        let tracer = Tracer::new(&Default::default());
        tracer.set_sampling(TraceSampling::EveryNth(1));
        let mut ctx = tracer.sample(|| 123).unwrap();
        let ev = ctx.open_event("Query.Commit".into(), NONE_SPAN, 0);
        let rule = ctx.open_rule(ev, "needs \"escaping\"");
        ctx.rule_outcome(rule, false, "Hot.N=<no row> -> false".into());
        ctx.close(rule);
        ctx.close(ev);
        tracer.finish(ctx);
        let json = chrome_trace_json(&tracer.snapshot());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ns\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("needs \\\"escaping\\\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }
}
