//! The traced pass: per-layer numbers measured from outside the program.
//!
//! Three sources, none of which touches code outside this package:
//! * **spans** the harness records around `Session::execute_params` and — via
//!   an `Instrumentation` wrapper that forwards to `Sqlcm::inject_event` —
//!   around the monitor's `on_event`;
//! * **counters** read from the public `Sqlcm::stats()` / `telemetry()`;
//! * **replays** of captured probe payloads through each layer's public
//!   functions (`objects::query_object_in`, `Lat::insert_and`,
//!   `Lat::lookup_for`, `vm::eval_condition`), because `core::plan` and
//!   `core::guard` are private and the stages inside `on_event` cannot be
//!   timed in place.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sqlcm_common::{EngineEvent, ProbeKind, ProbeMask, QueryInfo, SystemClock};
use sqlcm_core::ir::CondIr;
use sqlcm_core::objects::{self, Object};
use sqlcm_core::rules::{EvalContext, LatBinding};
use sqlcm_core::vm::{self, Program, VmStats};
use sqlcm_core::{Lat, Rule, RuleEvent, Sqlcm, TelemetrySnapshot};
use sqlcm_engine::{Instrumentation, NullInstrumentation};
use sqlcm_sql::ExprIr;

use crate::harness::{measured_rounds, Driver, Metric, Report, Round, RunConfig};
use crate::stats;
use crate::trace::{self, Name, Span};
use crate::workloads::{fingerprint, input_hash, Instance, Kind, Ops, Workload, K};

/// Probe payloads kept for the replays.
const CAPTURE: usize = 4096;
/// Fewest round pairs (and, on host workloads, round triples) of the pass.
const MIN_TRACED_ROUNDS: u32 = 3;
/// Spans per client written to the Chrome trace (the statistics use all).
const TRACE_FILE_SPANS: usize = 50_000;

// ------------------------------------------------------------------ wrapper

/// Stands where `Sqlcm`'s own engine adapter stands: forwards every event to
/// `Sqlcm::inject_event` inside a `monitor.on_event` span and answers `wants`
/// from the catalog's event kinds, so the engine assembles exactly the events
/// it would assemble for the shipped monitor.
struct Wrapper {
    sqlcm: Arc<Sqlcm>,
    wants: ProbeMask,
    spans: AtomicBool,
    events: [AtomicU64; ProbeKind::COUNT],
    seen: Mutex<Seen>,
}

#[derive(Default)]
struct Seen {
    captured: Vec<QueryInfo>,
    /// The `K` longest committed queries as `(duration_micros, id)`,
    /// longest first: ground truth for F3's "missed = 0".
    longest: Vec<(u64, u64)>,
}

impl Wrapper {
    fn new(sqlcm: Arc<Sqlcm>, rules: &[Arc<Rule>]) -> Wrapper {
        Wrapper {
            sqlcm,
            wants: rules.iter().filter_map(|r| probe_of(&r.event)).collect(),
            spans: AtomicBool::new(false),
            events: Default::default(),
            seen: Mutex::new(Seen {
                captured: Vec::with_capacity(CAPTURE),
                longest: Vec::with_capacity(K + 1),
            }),
        }
    }

    fn events_total(&self) -> u64 {
        self.events.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl Instrumentation for Wrapper {
    fn on_event(&self, event: &EngineEvent) {
        self.events[event.kind().index()].fetch_add(1, Ordering::Relaxed);
        if self.spans.load(Ordering::Relaxed) {
            let span = trace::enter(Name::MonitorOnEvent);
            self.sqlcm.inject_event(event);
            trace::exit(span);
        } else {
            self.sqlcm.inject_event(event);
        }
        if let EngineEvent::QueryCommit(q) = event {
            let mut seen = self.seen.lock().expect("wrapper state");
            if seen.captured.len() < CAPTURE {
                seen.captured.push(q.clone());
            }
            let entry = (q.duration_micros, q.id);
            if seen.longest.len() < K || entry > seen.longest[K - 1] {
                let at = seen.longest.partition_point(|e| *e > entry);
                seen.longest.insert(at, entry);
                seen.longest.truncate(K);
            }
        }
    }

    fn wants(&self, kind: ProbeKind) -> bool {
        self.wants.contains(kind)
    }

    fn name(&self) -> &str {
        "bench-wrapper"
    }
}

fn probe_of(event: &RuleEvent) -> Option<ProbeKind> {
    Some(match event {
        RuleEvent::QueryStart => ProbeKind::QueryStart,
        RuleEvent::QueryCompile => ProbeKind::QueryCompile,
        RuleEvent::QueryCommit => ProbeKind::QueryCommit,
        RuleEvent::QueryRollback => ProbeKind::QueryRollback,
        RuleEvent::QueryCancel => ProbeKind::QueryCancel,
        RuleEvent::QueryBlocked => ProbeKind::QueryBlocked,
        RuleEvent::BlockReleased => ProbeKind::BlockReleased,
        RuleEvent::TxnBegin => ProbeKind::TxnBegin,
        RuleEvent::TxnCommit => ProbeKind::TxnCommit,
        RuleEvent::TxnRollback => ProbeKind::TxnRollback,
        RuleEvent::Login => ProbeKind::Login,
        RuleEvent::Logout => ProbeKind::Logout,
        // Raised inside the monitor, not by an engine probe.
        RuleEvent::TimerAlarm(_) | RuleEvent::LatEviction(_) | RuleEvent::MonitorTick => {
            return None
        }
    })
}

// ----------------------------------------------------------------- counters

/// The public counters the per-event ratios come from.
struct Counters {
    events: u64,
    evaluations: u64,
    fires: u64,
    actions: u64,
    lat_row_fetches: u64,
    hoisted_hits: u64,
    cse_hits: u64,
    vm_instructions: u64,
    guard_probes: u64,
    pruned: u64,
    candidates: u64,
    /// Evaluations of rules that have a condition (pruned ones included).
    conditioned_evaluations: u64,
    lat_inserts: u64,
    lat_evictions: u64,
}

impl Counters {
    fn read(t: &TelemetrySnapshot, rules: &[Arc<Rule>]) -> Counters {
        let conditioned: HashMap<&str, bool> = rules
            .iter()
            .map(|r| (r.name.as_str(), r.condition.is_some()))
            .collect();
        Counters {
            events: t.stats.events,
            evaluations: t.stats.evaluations,
            fires: t.stats.fires,
            actions: t.stats.actions,
            lat_row_fetches: t.dispatch.lat_row_fetches,
            hoisted_hits: t.dispatch.hoisted_lookup_hits,
            cse_hits: t.dispatch.cse_hits,
            vm_instructions: t.dispatch.vm_instructions,
            guard_probes: t.matching.guard_probes,
            pruned: t.matching.rules_pruned,
            candidates: t.matching.candidate_rules,
            conditioned_evaluations: t
                .rules
                .iter()
                .filter(|r| conditioned.get(r.name.as_str()) == Some(&true))
                .map(|r| r.evaluations)
                .sum(),
            lat_inserts: t.lats.iter().map(|l| l.inserts).sum(),
            lat_evictions: t.lats.iter().map(|l| l.evictions).sum(),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ------------------------------------------------------------------ replays

/// Call `batch` (which performs `calls` calls) repeatedly for `budget` and
/// return the median nanoseconds per call over the batches.
fn per_call_ns(budget: Duration, span: Name, calls: usize, mut batch: impl FnMut()) -> f64 {
    batch(); // warm
    let mut per_call = Vec::new();
    let begun = Instant::now();
    loop {
        let s = trace::enter(span);
        let t = Instant::now();
        batch();
        let ns = t.elapsed().as_nanos() as f64;
        trace::exit(s);
        per_call.push(ns / calls.max(1) as f64);
        if begun.elapsed() >= budget {
            break;
        }
    }
    stats::median(&per_call)
}

/// `Query` objects of the captured payloads with fresh, increasing ids, so a
/// LAT grouped by `Query.ID` sees new groups as it does in the workload.
fn replay_objects(captured: &[QueryInfo], next_id: &mut u64) -> Vec<Object> {
    captured
        .iter()
        .map(|q| {
            let mut q = q.clone();
            q.id = *next_id;
            *next_id += 1;
            objects::query_object(&q)
        })
        .collect()
}

struct LatReplay {
    lat: Arc<Lat>,
    weight: f64,
    insert_p50_ns: f64,
    insert_p99_ns: f64,
}

/// Replay the captured payloads through `Lat::insert_and(obj, false)` on a
/// standalone LAT per catalog shape; every call is one `lat.insert` span.
fn replay_lat_inserts(
    w: &Workload,
    captured: &[QueryInfo],
    budget: Duration,
) -> Result<Vec<LatReplay>, String> {
    let shapes = w.replay_lats();
    let share = budget / shapes.len().max(1) as u32;
    let mut out = Vec::new();
    for (spec, weight) in shapes {
        let lat = Arc::new(Lat::new(spec, SystemClock::shared()).map_err(|e| e.to_string())?);
        let mut next_id = 1u64 << 32;
        // The first pass takes the LAT to its steady state (full if bounded,
        // every group present if not); it is not timed.
        for obj in replay_objects(captured, &mut next_id) {
            lat.insert_and(&obj, false).map_err(|e| e.to_string())?;
        }
        let mut samples: Vec<u64> = Vec::new();
        let begun = Instant::now();
        loop {
            let batch = replay_objects(captured, &mut next_id);
            trace::reserve(batch.len());
            samples.reserve(batch.len());
            for obj in &batch {
                let s = trace::enter(Name::LatInsert);
                let t = Instant::now();
                let r = lat.insert_and(black_box(obj), false);
                let ns = t.elapsed().as_nanos() as u64;
                trace::exit(s);
                black_box(r).map_err(|e| e.to_string())?;
                samples.push(ns);
            }
            if begun.elapsed() >= share {
                break;
            }
        }
        samples.sort_unstable();
        out.push(LatReplay {
            lat,
            weight,
            insert_p50_ns: stats::percentile_sorted(&samples, 0.50) as f64,
            insert_p99_ns: stats::percentile_sorted(&samples, 0.99) as f64,
        });
    }
    Ok(out)
}

fn weighted(replays: &[LatReplay], f: impl Fn(&LatReplay) -> f64) -> f64 {
    let total: f64 = replays.iter().map(|r| r.weight).sum();
    if total == 0.0 {
        0.0
    } else {
        replays.iter().map(|r| r.weight * f(r)).sum::<f64>() / total
    }
}

/// `Lat::lookup_for` on the LATs the catalog's conditions read (or, when no
/// condition reads a LAT, on the first replayed one).
fn replay_lat_lookups(
    replays: &[LatReplay],
    rules: &[Arc<Rule>],
    objects: &[Object],
    budget: Duration,
) -> f64 {
    let read: Vec<String> = rules
        .iter()
        .filter_map(|r| r.condition_refs().ok())
        .flat_map(|(_, lats)| lats)
        .map(|l| l.to_ascii_lowercase())
        .collect();
    let mut targets: Vec<&Arc<Lat>> = replays
        .iter()
        .map(|r| &r.lat)
        .filter(|l| read.contains(&l.spec.name.to_ascii_lowercase()))
        .collect();
    if targets.is_empty() {
        targets.extend(replays.first().map(|r| &r.lat));
    }
    let share = budget / targets.len().max(1) as u32;
    let per_lat: Vec<f64> = targets
        .iter()
        .map(|lat| {
            per_call_ns(share, Name::LatLookup, objects.len(), || {
                for obj in objects {
                    black_box(lat.lookup_for(black_box(obj)));
                }
            })
        })
        .collect();
    stats::median(&per_lat)
}

/// Compile the catalog's conditions through the public
/// `parse → ExprIr::lower → CondIr::from_ir → Program::emit` path and run
/// them with `vm::eval_condition` over the captured objects. LAT references
/// bind rows fetched (outside the timed region) from the replay LATs.
fn replay_vm(
    replays: &[LatReplay],
    rules: &[Arc<Rule>],
    objects: &[Object],
    budget: Duration,
) -> Result<f64, String> {
    const MAX_CONDITIONS: usize = 32;
    const MAX_OBJECTS: usize = 256;
    let lats: HashMap<String, Arc<Lat>> = replays
        .iter()
        .map(|r| (r.lat.spec.name.to_ascii_lowercase(), r.lat.clone()))
        .collect();
    let objects = &objects[..objects.len().min(MAX_OBJECTS)];

    struct Compiled {
        program: Program,
        /// Lowercased names of the LATs the condition reads, in bind order.
        lats: Vec<String>,
    }
    let mut compiled = Vec::new();
    for rule in rules
        .iter()
        .filter(|r| r.condition.is_some())
        .take(MAX_CONDITIONS)
    {
        let expr = rule.condition.as_ref().expect("filtered on is_some");
        let (_, cond_lats) = rule.condition_refs().map_err(|e| e.to_string())?;
        let ir = ExprIr::lower(expr).fold();
        let cond = CondIr::from_ir(&ir, &lats, &cond_lats).map_err(|e| e.to_string())?;
        compiled.push(Compiled {
            program: Program::emit(&cond, &HashMap::new()),
            lats: cond_lats.iter().map(|l| l.to_ascii_lowercase()).collect(),
        });
    }
    if compiled.is_empty() || objects.is_empty() {
        return Ok(0.0);
    }
    // rows[c][o][l]: the row condition c's l-th LAT holds for object o.
    let rows: Vec<Vec<Vec<Option<Vec<sqlcm_common::Value>>>>> = compiled
        .iter()
        .map(|c| {
            objects
                .iter()
                .map(|obj| c.lats.iter().map(|l| lats[l].lookup_for(obj)).collect())
                .collect()
        })
        .collect();
    let bindings: Vec<Vec<Vec<LatBinding>>> = compiled
        .iter()
        .zip(&rows)
        .map(|(c, per_object)| {
            per_object
                .iter()
                .map(|per_lat| {
                    c.lats
                        .iter()
                        .zip(per_lat)
                        .map(|(name, row)| LatBinding {
                            name,
                            lat: &lats[name],
                            row: row.as_deref(),
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut vm_stats = VmStats::default();
    let mut failed = false;
    let calls = compiled.len() * objects.len();
    let ns = per_call_ns(budget, Name::VmEval, calls, || {
        for (c, per_object) in compiled.iter().zip(&bindings) {
            for (obj, lat_rows) in objects.iter().zip(per_object) {
                let ctx = EvalContext {
                    objects: std::slice::from_ref(obj),
                    lat_rows,
                };
                let r = vm::eval_condition(black_box(&c.program), &ctx, &mut [], &mut vm_stats);
                failed |= black_box(r).is_err();
            }
        }
    });
    if failed {
        return Err("a catalog condition failed to evaluate in the VM replay".into());
    }
    Ok(ns)
}

// ---------------------------------------------------------------- the pass

/// The untraced/traced round pairs: spans, counter deltas, tracing overhead.
struct Pairs {
    plain: Vec<Round>,
    traced: Vec<Round>,
    /// Per traced round, per client.
    spans: Vec<Vec<Vec<Span>>>,
    before: Counters,
    after: Counters,
}

impl Pairs {
    fn events(&self) -> u64 {
        self.after.events - self.before.events
    }

    fn per_event(&self, f: fn(&Counters) -> u64) -> f64 {
        ratio(f(&self.after) - f(&self.before), self.events())
    }

    fn ops(&self) -> u64 {
        self.plain.iter().chain(&self.traced).map(|r| r.ops).sum()
    }

    /// VM runs per event: evaluations of conditioned rules the guard index
    /// did not prune.
    fn vm_evals_per_event(&self) -> f64 {
        let evaluated = self.after.conditioned_evaluations - self.before.conditioned_evaluations;
        let pruned = self.after.pruned - self.before.pruned;
        ratio(evaluated.saturating_sub(pruned), self.events())
    }
}

/// Detached / `NullInstrumentation` / attached round triples on a host
/// workload: the paper's overhead-vs-unmonitored, and what the probes cost.
#[derive(Default)]
struct HostOverhead {
    engine_query_ns: Vec<f64>,
    probe_ns: Vec<f64>,
    overhead_pct: Vec<f64>,
    plan_cache_hit_share: f64,
    /// Events the shipped adapter was handed per query.
    events_per_query: f64,
}

fn host_overhead(
    inst: &Instance,
    driver: &mut Driver,
    cfg: &RunConfig,
    monitored: &mut u64,
) -> HostOverhead {
    let (engine, sqlcm) = (&inst.engine, &inst.sqlcm);
    let mut out = HostOverhead::default();
    let cache_before = engine.plan_cache_stats();
    let events_before = sqlcm.stats().events;
    let mut attached_queries = 0;
    measured_rounds(cfg, MIN_TRACED_ROUNDS, || {
        let detached = driver.round::<false>().0;
        engine.attach_monitor(Arc::new(NullInstrumentation));
        let null = driver.round::<false>().0;
        engine.detach_monitor("null");
        sqlcm.reattach(engine);
        let attached = driver.round::<false>().0;
        sqlcm.detach(engine);
        *monitored += 1;
        attached_queries += attached.ops;
        out.engine_query_ns.push(detached.p50_ns as f64);
        out.probe_ns.push(null.ns_per_op() - detached.ns_per_op());
        out.overhead_pct
            .push((attached.wall.as_secs_f64() / detached.wall.as_secs_f64() - 1.0) * 100.0);
    });
    let cache = engine.plan_cache_stats();
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    out.plan_cache_hit_share = ratio(hits, hits + misses);
    out.events_per_query = ratio(sqlcm.stats().events - events_before, attached_queries);
    out
}

/// What the replays of captured payloads through public functions cost.
struct Replays {
    assemble_ns: f64,
    lats: Vec<LatReplay>,
    lookup_ns: f64,
    vm_eval_ns: f64,
    idle_event_ns: f64,
}

fn replays(
    w: &Workload,
    inst: &Instance,
    captured: &[QueryInfo],
    budget: Duration,
) -> Result<Replays, String> {
    let assemble_ns = {
        let mut buf = Vec::new();
        per_call_ns(budget, Name::ObjectsAssemble, captured.len(), || {
            for q in captured {
                let obj = objects::query_object_in(black_box(q), std::mem::take(&mut buf));
                buf = black_box(obj).into_values();
            }
        })
    };
    let lats = replay_lat_inserts(w, captured, budget)?;
    let objects = replay_objects(captured, &mut 1);
    let lookup_ns = replay_lat_lookups(&lats, &inst.rules, &objects, budget);
    let vm_eval_ns = replay_vm(&lats, &inst.rules, &objects, budget)?;
    // No catalog subscribes to Query.Start: the cost of an unwanted probe.
    let idle = EngineEvent::QueryStart(captured[0].clone());
    let idle_event_ns = per_call_ns(budget, Name::MonitorOnEvent, 10_000, || {
        for _ in 0..10_000 {
            inst.sqlcm.inject_event(black_box(&idle));
        }
    });
    Ok(Replays {
        assemble_ns,
        lats,
        lookup_ns,
        vm_eval_ns,
        idle_event_ns,
    })
}

/// The wrapper delivered exactly the events the monitor counted, per probe.
fn check_wrapper_counts(w: &Workload, sqlcm: &Sqlcm, wrapper: &Wrapper) -> Vec<String> {
    let telemetry = sqlcm.telemetry();
    ProbeKind::ALL
        .into_iter()
        .filter_map(|kind| {
            let seen = wrapper.events[kind.index()].load(Ordering::Relaxed);
            let counted = telemetry
                .probes
                .iter()
                .find(|p| p.kind == kind.name())
                .map_or(0, |p| p.events);
            (seen != counted).then(|| {
                format!(
                    "{}: wrapper delivered {seen} {} events, the monitor counted {counted}",
                    w.kind.name(),
                    kind.name()
                )
            })
        })
        .collect()
}

/// Set-up, warm-up, paired untraced/traced rounds, output checks, paired
/// attached/detached rounds (host), layer replays.
pub fn run_traced(w: &Workload, cfg: &RunConfig, out_dir: &Path) -> Result<Report, String> {
    let inst = w.setup()?;
    let setup_spans = trace::take();
    let sqlcm = &inst.sqlcm;
    let rules = &inst.rules;
    let plan_rebuilds = sqlcm.telemetry().dispatch.plan_rebuilds;
    let analyze_rule_us = {
        let sample = &rules[..rules.len().min(128)];
        let t = Instant::now();
        for rule in sample {
            black_box(sqlcm.analyze_rule(black_box(rule)));
        }
        t.elapsed().as_secs_f64() * 1e6 / sample.len().max(1) as f64
    };

    let inputs = w.inputs(inst.db.as_ref());
    let mut driver = Driver::new(&inst, &inputs);
    // Rounds the monitor saw, for the output checks.
    let mut monitored = 0u64;
    let phase = |share: f64| RunConfig {
        seconds: cfg.seconds * share,
        ..*cfg
    };

    // Host workloads: the wrapper takes the shipped adapter's place.
    let wrapper = w.kind.is_host().then(|| {
        sqlcm.detach(&inst.engine);
        let wrapper = Arc::new(Wrapper::new(sqlcm.clone(), rules));
        inst.engine.attach_monitor(wrapper.clone());
        wrapper
    });
    let spans_on = |on: bool| {
        if let Some(wr) = &wrapper {
            wr.spans.store(on, Ordering::Relaxed);
        }
    };

    driver.round::<false>(); // warm-up, discarded
    monitored += 1;

    let before = Counters::read(&sqlcm.telemetry(), rules);
    let (mut plain, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    measured_rounds(&phase(0.35), MIN_TRACED_ROUNDS, || {
        plain.push(driver.round::<false>().0);
        spans_on(true);
        let (round, round_spans) = driver.round::<true>();
        spans_on(false);
        traced.push(round);
        spans.push(round_spans);
        monitored += 2;
    });
    let pairs = Pairs {
        plain,
        traced,
        spans,
        before,
        after: Counters::read(&sqlcm.telemetry(), rules),
    };

    // Output checks, while the wrapper has seen every event so far.
    let mut failures = w.check(&inst, &inputs, monitored, cfg.break_check);
    let mut host = HostOverhead::default();
    let mut wrapper_events_per_query = 0.0;
    if let Some(wr) = &wrapper {
        failures.extend(check_wrapper_counts(w, sqlcm, wr));
        if w.kind == Kind::HostMixedTopk {
            failures.extend(check_topk_ground_truth(sqlcm, wr));
        }
        wrapper_events_per_query = ratio(wr.events_total(), monitored * w.ops_per_round());
        inst.engine.detach_monitor(wr.name());

        host = host_overhead(&inst, &mut driver, &phase(0.35), &mut monitored);
        // The shipped adapter must be handed the same events per query as
        // the wrapper was: the wrapper's `wants` mirrors the monitor's.
        if (host.events_per_query - wrapper_events_per_query).abs() > 1e-9 {
            failures.push(format!(
                "{}: shipped monitor saw {} events/query, the wrapper {wrapper_events_per_query}",
                w.kind.name(),
                host.events_per_query
            ));
        }
        failures.extend(w.check(&inst, &inputs, monitored, cfg.break_check));
    }

    let captured: Vec<QueryInfo> = match (&wrapper, &inputs[0]) {
        (Some(wr), _) => std::mem::take(&mut wr.seen.lock().expect("wrapper state").captured),
        (None, Ops::Events(events)) => events
            .iter()
            .take(CAPTURE)
            .filter_map(|e| match e {
                EngineEvent::QueryCommit(q) => Some(q.clone()),
                _ => None,
            })
            .collect(),
        (None, Ops::Queries(_)) => unreachable!("host workloads run under the wrapper"),
    };
    let replay = replays(
        w,
        &inst,
        &captured,
        Duration::from_secs_f64(cfg.seconds * 0.30 / 5.0),
    )?;
    let replay_spans = trace::take();

    // ---- derive the per-layer metrics
    let mut on_event: Vec<u64> = Vec::new();
    let mut execute_self: Vec<u64> = Vec::new();
    for spans in pairs.spans.iter().flatten() {
        for (span, self_ns) in spans.iter().zip(trace::self_times(spans)) {
            match span.name {
                Name::MonitorOnEvent => on_event.push(span.duration_ns()),
                Name::EngineExecute => execute_self.push(self_ns),
                _ => {}
            }
        }
    }
    on_event.sort_unstable();
    execute_self.sort_unstable();
    let on_event_ns = stats::percentile_sorted(&on_event, 0.50) as f64;
    let self_ns = stats::percentile_sorted(&execute_self, 0.50) as f64;

    let inserts_per_event = pairs.per_event(|c| c.lat_inserts);
    let fetches_per_event = pairs.per_event(|c| c.lat_row_fetches);
    let vm_evals_per_event = pairs.vm_evals_per_event();
    let insert_ns = weighted(&replay.lats, |r| r.insert_p50_ns);
    let declared_inserts: f64 = replay.lats.iter().map(|r| r.weight).sum();
    if (declared_inserts - inserts_per_event).abs() > 1e-9 {
        failures.push(format!(
            "{}: replay weights declare {declared_inserts} LAT inserts/event, measured {inserts_per_event}",
            w.kind.name()
        ));
    }
    // What `on_event` spends outside the replayed children: plan walk,
    // breaker gates, counters, action dispatch.
    let residual_ns = (on_event_ns
        - replay.assemble_ns
        - inserts_per_event * insert_ns
        - fetches_per_event * replay.lookup_ns
        - vm_evals_per_event * replay.vm_eval_ns)
        .max(0.0);
    let telemetry = sqlcm.telemetry();
    let lat_rows: u64 = telemetry.lats.iter().map(|l| l.rows).sum();
    let lock_contentions: u64 = telemetry.lats.iter().map(|l| l.lock_contentions).sum();
    let traced_ops: u64 = pairs.traced.iter().map(|r| r.ops).sum();
    let trace_overhead_pct: Vec<f64> = pairs
        .plain
        .iter()
        .zip(&pairs.traced)
        .map(|(p, t)| (p.ops_per_s() / t.ops_per_s() - 1.0) * 100.0)
        .collect();
    let count = |name, v: f64| Metric::single(name, "count", v);
    let ns = |name, v: f64| Metric::single(name, "ns", v);
    let metrics = vec![
        Metric::of("engine.query_ns", "ns", &host.engine_query_ns),
        Metric::of("engine.probe_ns_per_query", "ns", &host.probe_ns),
        count("engine.events_per_query", wrapper_events_per_query),
        Metric::single(
            "engine.plan_cache_hit_share",
            "ratio",
            host.plan_cache_hit_share,
        ),
        ns("engine.self_ns", self_ns),
        ns("objects.assemble_ns", replay.assemble_ns),
        ns("monitor.on_event_ns", on_event_ns),
        ns(
            "monitor.on_event_p99_ns",
            stats::percentile_sorted(&on_event, 0.99) as f64,
        ),
        ns(
            "monitor.ns_per_query",
            ratio(on_event.iter().sum(), traced_ops),
        ),
        Metric::of("monitor.overhead_pct", "%", &host.overhead_pct),
        ns("monitor.idle_event_ns", replay.idle_event_ns),
        ns(
            "monitor.ns_per_registered_rule",
            residual_ns / rules.len().max(1) as f64,
        ),
        ns("monitor.residual_ns", residual_ns),
        count(
            "monitor.evaluations_per_event",
            pairs.per_event(|c| c.evaluations),
        ),
        count("monitor.fires_per_event", pairs.per_event(|c| c.fires)),
        count("monitor.actions_per_event", pairs.per_event(|c| c.actions)),
        count("plan.lat_row_fetches_per_event", fetches_per_event),
        count(
            "plan.hoisted_hits_per_event",
            pairs.per_event(|c| c.hoisted_hits),
        ),
        count("plan.cse_hits_per_event", pairs.per_event(|c| c.cse_hits)),
        Metric::single("plan.add_rule_us", "us", inst.add_rule_us),
        count("plan.rebuilds", plan_rebuilds as f64),
        count(
            "guard.probes_per_event",
            pairs.per_event(|c| c.guard_probes),
        ),
        count("guard.pruned_per_event", pairs.per_event(|c| c.pruned)),
        count(
            "guard.candidates_per_event",
            pairs.per_event(|c| c.candidates),
        ),
        count(
            "guard.residual_rules",
            telemetry.matching.residual_rules as f64,
        ),
        count(
            "vm.instructions_per_event",
            pairs.per_event(|c| c.vm_instructions),
        ),
        ns("vm.eval_ns", replay.vm_eval_ns),
        ns("lat.insert_ns", insert_ns),
        ns(
            "lat.insert_p99_ns",
            weighted(&replay.lats, |r| r.insert_p99_ns),
        ),
        ns("lat.lookup_ns", replay.lookup_ns),
        count("lat.inserts_per_event", inserts_per_event),
        Metric::single(
            "lat.evictions_per_insert",
            "ratio",
            ratio(
                pairs.after.lat_evictions - pairs.before.lat_evictions,
                pairs.after.lat_inserts - pairs.before.lat_inserts,
            ),
        ),
        count("lat.rows", lat_rows as f64),
        Metric::single(
            "lat.bytes_per_row",
            "B",
            ratio(sqlcm.lat_memory_bytes() as u64, lat_rows),
        ),
        count("lat.lock_contentions", lock_contentions as f64),
        Metric::single(
            "lat.share_of_on_event",
            "ratio",
            if on_event_ns > 0.0 {
                inserts_per_event * insert_ns / on_event_ns
            } else {
                0.0
            },
        ),
        count("actions.errors", telemetry.stats.action_errors as f64),
        Metric::single("analyze.rule_us", "us", analyze_rule_us),
        Metric::single("setup.load_s", "s", inst.load_s),
        Metric::single("setup.rules_s", "s", inst.rules_s),
        Metric::of("trace.overhead_pct", "%", &trace_overhead_pct),
    ];

    // ---- budget table: layer → calls/op → ns/call → self ns/op → share
    let op_p50_ns = stats::median(
        &pairs
            .plain
            .iter()
            .map(|r| r.p50_ns as f64)
            .collect::<Vec<_>>(),
    );
    let events_per_op = ratio(pairs.events(), pairs.ops());
    let mut notes = format!(
        "budget ({} traced rounds, {} spans; op p50 {op_p50_ns:.0} ns untraced; indented rows are replays)\n  \
         {:<22} {:>10} {:>12} {:>12} {:>9}\n",
        pairs.traced.len(),
        pairs.spans.iter().flatten().map(Vec::len).sum::<usize>(),
        "layer",
        "calls/op",
        "ns/call",
        "self ns/op",
        "of p50"
    );
    let mut row = |layer: &str, calls: f64, ns_call: f64, self_ns_op: f64| {
        let share = if op_p50_ns > 0.0 {
            self_ns_op / op_p50_ns * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            notes,
            "  {layer:<22} {calls:>10.3} {ns_call:>12.1} {self_ns_op:>12.1} {share:>8.1}%"
        );
    };
    if w.kind.is_host() {
        row(
            "engine.execute",
            1.0,
            self_ns + events_per_op * on_event_ns,
            self_ns,
        );
    }
    row(
        "monitor.on_event",
        events_per_op,
        on_event_ns,
        events_per_op * residual_ns,
    );
    for (layer, per_event, ns_call) in [
        ("  objects.assemble", 1.0, replay.assemble_ns),
        ("  vm.eval", vm_evals_per_event, replay.vm_eval_ns),
        ("  lat.lookup", fetches_per_event, replay.lookup_ns),
        ("  lat.insert", inserts_per_event, insert_ns),
    ] {
        let calls = events_per_op * per_event;
        row(layer, calls, ns_call, calls * ns_call);
    }

    // ---- span file: the first traced round, the set-up and the replays
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace_{}.json", w.kind.name()));
    let threads: Vec<&[Span]> = pairs
        .spans
        .first()
        .into_iter()
        .flatten()
        .chain([&setup_spans, &replay_spans])
        .map(|s| &s[..s.len().min(TRACE_FILE_SPANS)])
        .collect();
    std::fs::write(&path, trace::chrome_trace(&threads).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = writeln!(notes, "spans written to {}", path.display());

    let op_errors: u64 = pairs
        .plain
        .iter()
        .chain(&pairs.traced)
        .map(|r| r.errors)
        .sum();
    if op_errors > 0 {
        failures.push(format!("{op_errors} operations failed or returned no row"));
    }
    Ok(Report {
        workload: *w,
        traced: true,
        metrics,
        rounds: pairs.traced.len(),
        setups: 1,
        attempted: pairs.ops(),
        failed: failures.len() as u64,
        failures,
        input_hash: input_hash(&inputs),
        counters: fingerprint(w.kind, sqlcm),
        notes,
    })
}

/// F3's "missed = 0": the `K` longest durations the wrapper saw are exactly
/// the durations `TopK` holds (compared as multisets, so equal durations at
/// the cut cannot fail the check).
fn check_topk_ground_truth(sqlcm: &Sqlcm, wrapper: &Wrapper) -> Vec<String> {
    let Some(topk) = sqlcm.lat("TopK") else {
        return vec!["host_mixed_topk: LAT TopK is missing".into()];
    };
    let Some(col) = topk.column_index("Duration") else {
        return vec!["host_mixed_topk: TopK has no Duration column".into()];
    };
    let mut held: Vec<u64> = topk
        .rows()
        .iter()
        .map(|row| (row[col].as_f64().unwrap_or(-1.0) * 1e6).round() as u64)
        .collect();
    held.sort_unstable_by(|a, b| b.cmp(a));
    let truth: Vec<u64> = wrapper
        .seen
        .lock()
        .expect("wrapper state")
        .longest
        .iter()
        .map(|&(duration, _)| duration)
        .collect();
    if held == truth {
        Vec::new()
    } else {
        vec![format!(
            "host_mixed_topk: TopK holds durations {held:?} µs, ground truth is {truth:?}"
        )]
    }
}
