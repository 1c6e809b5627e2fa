//! Integration tests for the causal-tracing subsystem: provenance trees over
//! cascading dispatches, rule-firing explainers, sampling policies, the
//! bounded trace ring, flight-recorder cross-links, and the Chrome
//! trace-event export.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use sqlcm_common::{EngineEvent, QueryInfo};
use sqlcm_core::sinks::CommandSink;
use sqlcm_core::telemetry::FLIGHT_RECORDER_CAPACITY;
use sqlcm_core::trace::TRACE_RING_CAPACITY;
use sqlcm_core::{
    chrome_trace_json, Action, LatAggFunc, LatSpec, MonitorConfig, Rule, RuleEvent, SpanKind,
    Sqlcm, TraceSampling, TraceSnapshot,
};
use sqlcm_engine::Engine;

fn commit_event(sig: u64, secs: f64) -> EngineEvent {
    let mut q = QueryInfo::synthetic(sig, "SELECT 1");
    q.logical_signature = Some(sig);
    q.duration_micros = (secs * 1e6) as u64;
    EngineEvent::QueryCommit(q)
}

/// Bounded LAT + feed rule + eviction-subscribed rule: once the LAT is full,
/// each new group cascades a `Lat.Eviction(Hot)` event in the same dispatch.
fn cascading_monitor() -> (Engine, Sqlcm) {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Hot")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .order_by("D", true)
                .max_rows(2),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Hot")),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("spill")
                .on(RuleEvent::LatEviction("Hot".into()))
                .then(Action::send_mail("dba", "row spilled")),
        )
        .unwrap();
    (engine, sqlcm)
}

/// Structural invariants every trace must satisfy: dense span IDs, parents
/// open before and close after their children, instants never parent
/// anything, and only cascaded `Event` spans carry a `cause` link.
fn assert_well_formed(trace: &TraceSnapshot) {
    for (i, span) in trace.spans.iter().enumerate() {
        assert_eq!(span.id as usize, i, "span ids are dense indices");
        assert!(span.end_nanos >= span.start_nanos);
        if let Some(p) = span.parent {
            let parent = &trace.spans[p as usize];
            assert!(p < span.id, "parents open before their children");
            assert!(span.start_nanos >= parent.start_nanos);
            assert!(
                span.end_nanos <= parent.end_nanos,
                "children must close before their parent"
            );
            assert!(
                !matches!(
                    parent.kind,
                    SpanKind::LatLookup { .. } | SpanKind::LatMutation { .. }
                ),
                "instant spans cannot parent anything"
            );
        }
        if let Some(c) = span.cause {
            assert!((c as usize) < trace.spans.len());
            assert!(
                matches!(span.kind, SpanKind::Event { .. }),
                "only cascaded events carry a cause link"
            );
        }
    }
}

#[test]
fn eviction_cascade_is_traced_with_provenance() {
    let (_engine, sqlcm) = cascading_monitor();
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    for (sig, secs) in [(1u64, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)] {
        sqlcm.inject_event(&commit_event(sig, secs));
    }
    let traces = sqlcm.traces();
    assert_eq!(traces.len(), 4);
    for t in &traces {
        assert_well_formed(t);
    }

    // Commits 3 and 4 overflow the 2-row LAT: their traces carry the cascade.
    let t = traces.last().unwrap();
    assert_eq!(t.root_event, "Query.Commit");
    assert_eq!(t.max_cascade_depth, 1);
    let evict = t
        .spans
        .iter()
        .find(|s| matches!(&s.kind, SpanKind::Event { name, .. } if name == "Lat.Eviction(Hot)"))
        .expect("the eviction dispatch must appear as an event span");
    let SpanKind::Event { depth, .. } = &evict.kind else {
        unreachable!()
    };
    assert_eq!(*depth, 1);
    assert!(
        evict.parent.is_none(),
        "cascaded events are top-level spans"
    );

    // Provenance chain: eviction event <- LAT mutation <- Insert <- "feed".
    let cause = &t.spans[evict.cause.expect("cascaded event has a cause") as usize];
    match &cause.kind {
        SpanKind::LatMutation { lat, op, evicted } => {
            assert_eq!(lat, "Hot");
            assert_eq!(*op, "insert");
            assert_eq!(*evicted, 1);
        }
        other => panic!("cause must be the LAT mutation span, got {other:?}"),
    }
    let action = &t.spans[cause.parent.expect("mutation nests under its action") as usize];
    assert!(matches!(
        &action.kind,
        SpanKind::Action {
            action: "Insert",
            ok: true
        }
    ));
    let rule = &t.spans[action.parent.expect("action nests under its rule") as usize];
    assert!(matches!(&rule.kind, SpanKind::Rule { name, fired: true, .. } if name == "feed"));
    // The eviction event evaluated "spill", which sent the mail.
    assert!(t
        .spans
        .iter()
        .any(|s| matches!(&s.kind, SpanKind::Rule { name, fired: true, .. } if name == "spill")));
    assert_eq!(
        sqlcm.outbox().len(),
        2,
        "commits 3 and 4 each spill one row"
    );

    // Depth agrees everywhere: per-trace, telemetry, and the analyzer's
    // static bound (observed depth can never exceed the bound).
    assert_eq!(sqlcm.cascade_depth_bound(), 1);
    let tel = sqlcm.telemetry().tracing;
    assert_eq!(tel.max_cascade_depth, 1);
    assert!(tel.max_cascade_depth as usize <= sqlcm.cascade_depth_bound());
    assert_eq!(tel.sampled, 4);
    assert_eq!(tel.completed, 4);

    // With EveryNth(1) every evaluation and fire is traced, so the per-trace
    // counters reconcile exactly with the global stats.
    let evals: u32 = traces.iter().map(|t| t.evaluations).sum();
    let fires: u32 = traces.iter().map(|t| t.fires).sum();
    let stats = sqlcm.stats();
    assert_eq!(u64::from(evals), stats.evaluations);
    assert_eq!(u64::from(fires), stats.fires);

    // The text tree renders the cascade under its cause.
    let tree = t.to_text_tree();
    assert!(tree.contains("event Lat.Eviction(Hot) depth=1"), "{tree}");
    assert!(tree.contains("mutate Hot insert evicted=1"), "{tree}");
}

#[test]
fn rule_explainers_show_bound_values_and_missing_rows() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Seen")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    // Registered before "feed", so on the first commit the LAT has no row yet.
    // `+ 0` keeps it residual: its condition runs, and explains, every time.
    sqlcm
        .add_rule(
            Rule::new("watch")
                .on(RuleEvent::QueryCommit)
                .when("Seen.N + 0 >= 2")
                .then(Action::send_mail("dba", "hot template")),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Seen")),
        )
        .unwrap();
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    for _ in 0..3 {
        sqlcm.inject_event(&commit_event(7, 0.5));
    }
    let traces = sqlcm.traces();
    assert_eq!(traces.len(), 3);

    let explain_of = |t: &TraceSnapshot, rule: &str| -> (bool, String) {
        t.spans
            .iter()
            .find_map(|s| match &s.kind {
                SpanKind::Rule {
                    name,
                    fired,
                    explain,
                } if name == rule => Some((*fired, explain.clone())),
                _ => None,
            })
            .expect("rule span present in trace")
    };

    // Event 1: no LAT row yet — the implicit ∃ fails and the explainer says so.
    let (fired, why) = explain_of(&traces[0], "watch");
    assert!(!fired);
    assert_eq!(why, "Seen.N=<no row> -> false (missing LAT row)");
    assert!(traces[0]
        .spans
        .iter()
        .any(|s| matches!(&s.kind, SpanKind::LatLookup { lat, hit: false, .. } if lat == "Seen")));

    // Event 2: the row exists with N=1 — bound value shown, still false.
    let (fired, why) = explain_of(&traces[1], "watch");
    assert!(!fired);
    assert_eq!(why, "Seen.N=1 -> false");

    // Event 3: N=2 — the condition holds.
    let (fired, why) = explain_of(&traces[2], "watch");
    assert!(fired);
    assert_eq!(why, "Seen.N=2 -> true");
    assert!(traces[2]
        .spans
        .iter()
        .any(|s| matches!(&s.kind, SpanKind::LatLookup { lat, hit: true, .. } if lat == "Seen")));

    // Unconditional rules get the degenerate explainer.
    let (fired, why) = explain_of(&traces[0], "feed");
    assert!(fired);
    assert_eq!(why, "no condition -> always fires");
}

#[test]
fn sampling_modes_gate_trace_collection() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("r")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 1000000"),
        )
        .unwrap();
    let ev = commit_event(1, 0.1);

    assert_eq!(sqlcm.config().trace_sampling, TraceSampling::Off);
    sqlcm.inject_event(&ev);
    assert!(sqlcm.traces().is_empty(), "tracing is off by default");

    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(4),
        ..sqlcm.config()
    });
    assert_eq!(sqlcm.config().trace_sampling, TraceSampling::EveryNth(4));
    for _ in 0..100 {
        sqlcm.inject_event(&ev);
    }
    assert_eq!(sqlcm.traces().len(), 25, "1-in-4 of 100 events");
    assert_eq!(sqlcm.telemetry().tracing.sampled, 25);

    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::Off,
        ..sqlcm.config()
    });
    for _ in 0..10 {
        sqlcm.inject_event(&ev);
    }
    assert_eq!(sqlcm.traces().len(), 25, "disabling stops collection");
}

#[test]
fn trace_ring_keeps_the_newest_and_reports_drops() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("r")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 1000000"),
        )
        .unwrap();
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    let ev = commit_event(1, 0.1);
    let total = TRACE_RING_CAPACITY + 6;
    for _ in 0..total {
        sqlcm.inject_event(&ev);
    }
    let traces = sqlcm.traces();
    assert_eq!(traces.len(), TRACE_RING_CAPACITY);
    assert_eq!(traces[0].trace_id, 7, "the six oldest traces were dropped");
    for w in traces.windows(2) {
        assert!(w[0].trace_id < w[1].trace_id, "ring preserves order");
    }
    let tel = sqlcm.telemetry().tracing;
    assert_eq!(tel.completed, total as u64);
    assert_eq!(tel.dropped, 6);
    assert_eq!(tel.ring_len, TRACE_RING_CAPACITY as u64);
    assert_eq!(tel.ring_capacity, TRACE_RING_CAPACITY as u64);

    sqlcm.clear_traces();
    assert!(sqlcm.traces().is_empty());
    assert_eq!(sqlcm.telemetry().tracing.ring_len, 0);
    let tel = sqlcm.telemetry().tracing;
    assert_eq!(tel.completed, tel.dropped + tel.ring_len);
}

/// Every traced firing's flight record carries its trace id, and every
/// record of the run resolves to a retained trace: ten events, eighteen
/// firings, well inside the fixed ring.
#[test]
fn flight_records_cross_link_to_retained_traces() {
    let (_engine, sqlcm) = cascading_monitor();
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    for sig in 1..=10u64 {
        sqlcm.inject_event(&commit_event(sig, sig as f64));
    }
    let tel = sqlcm.telemetry();
    assert_eq!(tel.flight_records.len(), 18, "10 feeds and 8 spills");
    assert!(tel.flight_records.len() < FLIGHT_RECORDER_CAPACITY);
    let ids: HashSet<u64> = sqlcm.traces().iter().map(|t| t.trace_id).collect();
    for rec in &tel.flight_records {
        assert_ne!(rec.trace_id, 0, "traced firings carry the trace id");
        assert!(
            ids.contains(&rec.trace_id),
            "record's trace id {} resolves to a retained trace",
            rec.trace_id
        );
    }

    // Untraced firings stamp trace id 0.
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::Off,
        ..sqlcm.config()
    });
    sqlcm.inject_event(&commit_event(99, 99.0));
    let records = sqlcm.telemetry().flight_records;
    assert_eq!(records.last().unwrap().trace_id, 0);
}

/// A command sink that injects a fresh engine event from inside an action —
/// the re-entrant path: the probe defers to the pending queue and dispatches
/// in the same batch, one cascade hop deeper.
struct Reinjector {
    target: Mutex<Option<Arc<Sqlcm>>>,
    ev: EngineEvent,
}

impl CommandSink for Reinjector {
    fn run(&self, _command: &str) -> sqlcm_common::Result<()> {
        if let Some(s) = self.target.lock().unwrap().as_ref() {
            s.inject_event(&self.ev);
        }
        Ok(())
    }
}

#[test]
fn reentrant_probe_inherits_cause_and_depth() {
    let engine = Engine::in_memory();
    let sqlcm = Arc::new(Sqlcm::attach(&engine));
    sqlcm
        .add_rule(
            Rule::new("kick")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 1")
                .then(Action::run_external("probe self")),
        )
        .unwrap();
    // The re-injected commit is fast enough that "kick" does not re-fire.
    let sink = Arc::new(Reinjector {
        target: Mutex::new(None),
        ev: commit_event(99, 0.001),
    });
    *sink.target.lock().unwrap() = Some(sqlcm.clone());
    sqlcm.configure(MonitorConfig {
        command_sink: sink.clone(),
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });

    sqlcm.inject_event(&commit_event(1, 2.0));

    let traces = sqlcm.traces();
    assert_eq!(
        traces.len(),
        1,
        "the re-entrant event joins the root trace instead of starting its own"
    );
    let t = &traces[0];
    assert_well_formed(t);
    assert_eq!(t.max_cascade_depth, 1);
    let inner = t
        .spans
        .iter()
        .filter(|s| matches!(&s.kind, SpanKind::Event { .. }))
        .nth(1)
        .expect("deferred event span");
    let SpanKind::Event { name, depth } = &inner.kind else {
        unreachable!()
    };
    assert_eq!(name, "Query.Commit");
    assert_eq!(*depth, 1);
    let cause = &t.spans[inner
        .cause
        .expect("re-entrant event links its causing action") as usize];
    assert!(matches!(
        &cause.kind,
        SpanKind::Action {
            action: "RunExternal",
            ok: true
        }
    ));
    // "kick" evaluated for both commits but fired only for the slow root.
    assert_eq!(t.evaluations, 2);
    assert_eq!(t.fires, 1);
}

// --------------------------------------------------------------- Chrome JSON

mod json;
use json::{parse_json, Json};

#[test]
fn chrome_export_parses_and_round_trips() {
    let (_engine, sqlcm) = cascading_monitor();
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    for (sig, secs) in [(1u64, 1.0), (2, 2.0), (3, 3.0)] {
        sqlcm.inject_event(&commit_event(sig, secs));
    }
    let traces = sqlcm.traces();
    let json = chrome_trace_json(&traces);
    let doc = parse_json(&json).expect("export must be valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    let mut by_ph: HashMap<String, usize> = HashMap::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has a phase");
        *by_ph.entry(ph.to_string()).or_insert(0) += 1;
        for key in ["name", "pid", "tid", "ts"] {
            assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
        }
        if ph == "X" {
            assert!(e.get("dur").is_some(), "complete events carry a duration");
        }
    }
    let span_count: usize = traces.iter().map(|t| t.spans.len()).sum();
    assert_eq!(
        by_ph.get("X").copied().unwrap_or(0) + by_ph.get("i").copied().unwrap_or(0),
        span_count,
        "every span exports exactly one X or i event"
    );
    // Cascade provenance renders as matched flow-arrow pairs.
    let cascades = traces
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.cause.is_some())
        .count();
    assert!(cascades >= 1, "the workload must cascade at least once");
    assert_eq!(by_ph.get("s").copied().unwrap_or(0), cascades);
    assert_eq!(by_ph.get("f").copied().unwrap_or(0), cascades);

    // Round trip: parse → serialize → parse is a fixed point.
    let mut rendered = String::new();
    doc.write(&mut rendered);
    assert_eq!(parse_json(&rendered).unwrap(), doc);

    // Single-trace export has the same document shape.
    let single = parse_json(&traces[0].to_chrome_json()).unwrap();
    assert!(single.get("traceEvents").is_some());
}

/// A sampled event costs what it did, not what is registered: over 200
/// guard-indexed rules of which one is a candidate, dispatch opens the event
/// span and the candidate's rule span — nothing per pruned rule — and the
/// `pruned by guard index` outcome of any of the other 199 is still there
/// when the trace is read.
#[test]
fn pruned_rules_get_no_span_and_are_explained_when_the_trace_is_read() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    const RULES: u64 = 200;
    for i in 0..RULES {
        sqlcm
            .add_rule(
                Rule::new(format!("u{i}"))
                    .on(RuleEvent::QueryCommit)
                    .when(&format!("Query.User = 'user_{i}'")),
            )
            .unwrap();
    }
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    let mut q = QueryInfo::synthetic(1, "SELECT 1");
    q.user = "user_7".into();
    sqlcm.inject_event(&EngineEvent::QueryCommit(q));

    let traces = sqlcm.traces();
    let t = &traces[0];
    assert_well_formed(t);
    assert_eq!(t.spans.len(), 2, "the event and its one candidate");
    assert!(matches!(&t.spans[1].kind, SpanKind::Rule { name, fired: true, .. } if name == "u7"));
    // The pruned evaluations are counted, so traces still reconcile.
    let stats = sqlcm.stats();
    assert_eq!(u64::from(t.evaluations), stats.evaluations);
    assert_eq!(stats.evaluations, RULES);
    assert_eq!(t.pruned.len(), 1);
    assert_eq!((t.pruned[0].pruned, t.pruned[0].candidates), (RULES - 1, 1));
    assert_eq!(t.pruned[0].outcomes().count() as u64, RULES - 1);

    // By name …
    assert_eq!(
        t.pruned_outcome("u42").as_deref(),
        Some("pruned by guard index: Query.User=user_7 not in {user_42}")
    );
    assert_eq!(t.pruned_outcome("u7"), None, "the candidate ran");
    assert_eq!(t.pruned_outcome("nobody"), None);
    // … in the rendered tree, under the event …
    let tree = t.to_text_tree();
    assert!(
        tree.contains("event Query.Commit depth=0 candidates=1 pruned=199"),
        "{tree}"
    );
    assert!(
        tree.contains(
            "rule u42 skipped: pruned by guard index: Query.User=user_7 not in {user_42}"
        ),
        "{tree}"
    );
    assert!(tree.contains("rule u7 FIRED"), "{tree}");
    // … and in the Chrome export, as one instant per pruned rule.
    let doc = parse_json(&t.to_chrome_json()).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let explained = events
        .iter()
        .filter(|e| {
            let args = e.get("args");
            let why = args.and_then(|a| a.get("explain")).and_then(Json::as_str);
            why.is_some_and(|w| w.starts_with("pruned by guard index"))
        })
        .count();
    assert_eq!(explained as u64, RULES - 1);
}

/// The one trace of a commit of signature 3 to a monitor holding `Sig_LAT`
/// (COUNT `N`, and `Phys`, the MAX of a physical signature no synthetic query
/// has, so NULL), its feed, and a `watch` rule on `cond` registered before
/// or after the feed, on a second event when `warm`.
fn lat_guard_trace(cond: &str, watch_first: bool, warm: bool) -> (Sqlcm, TraceSnapshot) {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Sig_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Max, "Query.Physical_Signature", "Phys"),
        )
        .unwrap();
    let watch = || Rule::new("watch").on(RuleEvent::QueryCommit).when(cond);
    let feed = Rule::new("feed")
        .on(RuleEvent::QueryCommit)
        .then(Action::insert("Sig_LAT"));
    if watch_first {
        sqlcm.add_rule(watch()).unwrap();
    }
    sqlcm.add_rule(feed).unwrap();
    if !watch_first {
        sqlcm.add_rule(watch()).unwrap();
    }
    if warm {
        sqlcm.inject_event(&commit_event(3, 0.5));
    }
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    sqlcm.inject_event(&commit_event(3, 0.5));
    let traces = sqlcm.traces();
    assert_eq!(traces.len(), 1);
    let t = traces[0].clone();
    assert_well_formed(&t);
    // The watcher opened no span, and its evaluation is still counted.
    assert!(t
        .spans
        .iter()
        .all(|s| !matches!(&s.kind, SpanKind::Rule { name, .. } if name == "watch")));
    assert_eq!(t.evaluations, 2);
    assert_eq!((t.pruned[0].pruned, t.pruned[0].candidates), (1, 1));
    let tree = t.to_text_tree();
    assert!(tree.contains("candidates=1 pruned=1"), "{tree}");
    (sqlcm, t)
}

/// A LAT-guard refusal names the row value its segment's probe read
/// and the bounds it falls outside of.
#[test]
fn a_lat_guard_prune_names_the_value_outside_its_bounds() {
    let (sqlcm, t) = lat_guard_trace("Sig_LAT.N >= 1000000000", false, true);
    // `feed` ran first: the watcher read this event's count, 2.
    let why = "pruned by LAT guard: Sig_LAT.N=2 outside [1000000000,∞)";
    assert_eq!(t.pruned_outcome("watch").as_deref(), Some(why));
    assert!(t
        .to_text_tree()
        .contains(&format!("rule watch skipped: {why}")));
    let stats = sqlcm.rule("watch").unwrap().stats();
    assert_eq!((stats.evaluations, stats.pruned), (2, 2));
}

/// A NULL column satisfies no conjunct on it.
#[test]
fn a_lat_guard_prune_names_a_null_column() {
    let (_, t) = lat_guard_trace("Sig_LAT.Phys >= 1", false, false);
    assert_eq!(
        t.pruned_outcome("watch").as_deref(),
        Some("pruned by LAT guard: Sig_LAT.Phys is NULL")
    );
}

/// Before the feed has run, the LAT holds no row for the event: the
/// implicit ∃ fails.
#[test]
fn a_lat_guard_prune_names_a_missing_row() {
    let (_, t) = lat_guard_trace("Sig_LAT.N >= 1", true, false);
    assert_eq!(
        t.pruned_outcome("watch").as_deref(),
        Some("pruned by LAT guard: no Sig_LAT row")
    );
}

/// Every action kind runs under its own span label, in the text tree and in
/// the Chrome export, in the rule's action order; and an `Insert` or
/// `PersistLat` keeps the LAT handle it was registered with when its LAT is
/// dropped and defined again under the same name.
#[test]
fn every_action_kind_is_traced_under_its_label_and_keeps_its_lat() {
    let engine = Engine::in_memory();
    engine
        .execute_batch(
            "CREATE TABLE lat_out (sig INT, n INT, at TIMESTAMP); \
             CREATE TABLE query_out (id INT);",
        )
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    let spec = |name: &str| {
        LatSpec::new(name)
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
    };
    let bound = sqlcm.define_lat(spec("Counts")).unwrap();
    let cleared = sqlcm.define_lat(spec("Scratch")).unwrap();
    sqlcm
        .add_rule(
            Rule::new("all_actions")
                .on(RuleEvent::QueryCommit)
                // Not the engine's own queries that read the tables back.
                .when("Query.Logical_Signature = 1")
                .then(Action::insert("Counts"))
                .then(Action::reset("Scratch"))
                .then(Action::persist_lat("lat_out", "Counts"))
                .then(Action::persist_object("query_out", "Query", &["ID"]))
                .then(Action::send_mail("dba", "commit {Query.ID}"))
                .then(Action::run_external("notify {Query.ID}"))
                .then(Action::cancel("Query"))
                .then(Action::set_timer("later", 1_000_000, 1)),
        )
        .unwrap();
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    sqlcm.inject_event(&commit_event(1, 0.5));

    let labels = [
        "Insert",
        "Reset",
        "PersistLat",
        "PersistObject",
        "SendMail",
        "RunExternal",
        "Cancel",
        "SetTimer",
    ];
    let traces = sqlcm.traces();
    assert_eq!(traces.len(), 1);
    let t = &traces[0];
    assert_well_formed(t);
    let spans: Vec<(&str, bool)> = t
        .spans
        .iter()
        .filter_map(|s| match &s.kind {
            SpanKind::Action { action, ok } => Some((*action, *ok)),
            _ => None,
        })
        .collect();
    let expected: Vec<(&str, bool)> = labels.iter().map(|&l| (l, true)).collect();
    assert_eq!(spans, expected);
    let tree = t.to_text_tree();
    let in_tree: Vec<&str> = tree
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("action "))
        .map(|rest| rest.split(' ').next().unwrap())
        .collect();
    assert_eq!(in_tree, labels, "{tree}");
    assert!(tree.contains("action SetTimer ok"), "{tree}");

    let doc = parse_json(&t.to_chrome_json()).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let in_json: Vec<&str> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("action"))
        .map(|e| e.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(in_json, labels);

    // The actions ran: the LAT row, both tables' rows, the mail and the
    // command are there.
    assert_eq!(bound.rows().len(), 1);
    assert!(cleared.rows().is_empty());
    for table in ["lat_out", "query_out"] {
        let n = engine
            .query(&format!("SELECT COUNT(*) FROM {table}"))
            .unwrap();
        assert_eq!(n[0][0], 1.into(), "{table}");
    }
    assert_eq!(sqlcm.outbox().len(), 1);
    assert_eq!(sqlcm.command_log().commands(), ["notify 1"]);
    assert_eq!(sqlcm.stats().action_errors, 0);

    // Drop `Counts` and define it again: the registered `Insert` still
    // writes the handle it was bound to, and the new LAT stays empty.
    assert!(sqlcm.drop_lat("Counts"));
    let fresh = sqlcm.define_lat(spec("Counts")).unwrap();
    sqlcm.inject_event(&commit_event(1, 0.5));
    assert_eq!(bound.rows(), vec![vec![1.into(), 2.into()]]);
    assert!(fresh.rows().is_empty());
    assert_eq!(sqlcm.stats().action_errors, 0);
}
