//! Hot-path regression tests for the compiled dispatch plan: the steady-state
//! event path must take no registry locks and perform no heap allocations, the
//! per-event enabled-ness snapshot must pin the documented mid-dispatch
//! `set_enabled` semantics, and shared LAT-lookup hoisting must cap row
//! fetches per event.
//!
//! Allocation counting uses a wrapping `#[global_allocator]`, so this file is
//! its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sqlcm_common::{EngineEvent, QueryInfo};
use sqlcm_core::sinks::CommandSink;
use sqlcm_core::telemetry::FLIGHT_RECORDER_CAPACITY;
use sqlcm_core::{
    Action, LatAggFunc, LatSpec, MonitorConfig, Rule, RuleEvent, Sqlcm, TraceSampling,
};
use sqlcm_engine::Engine;
#[cfg(debug_assertions)]
use sqlcm_telemetry::{Label, Stamp};

/// Counts allocations per thread: the harness runs tests on parallel
/// threads, and a test must only see what its own dispatch path allocated.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    // `try_with`: the allocator still runs while a thread's locals unwind.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn commit_event(sig: u64, secs: f64) -> EngineEvent {
    let mut q = QueryInfo::synthetic(sig, "SELECT 1");
    q.logical_signature = Some(sig);
    q.duration_micros = (secs * 1e6) as u64;
    EngineEvent::QueryCommit(q)
}

/// An event no rule subscribes to must cost one atomic plan load: no registry
/// lock acquisitions, no heap allocations, no plan-epoch movement.
#[test]
fn unsubscribed_event_takes_no_locks_and_allocates_nothing() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    // Subscribe something so the plan is non-trivial — but only to Logout,
    // leaving QueryCommit uninterested.
    sqlcm
        .add_rule(
            Rule::new("logout_only")
                .on(RuleEvent::Logout)
                .when("Session.Success = TRUE"),
        )
        .unwrap();

    let ev = commit_event(1, 0.5);
    // Warm up lazily initialized state (thread-local shards, clock paths).
    for _ in 0..64 {
        sqlcm.inject_event(&ev);
    }

    let before = sqlcm.telemetry().dispatch;
    let allocs_before = allocations();
    for _ in 0..1_000 {
        sqlcm.inject_event(&ev);
    }
    let allocs_after = allocations();
    let after = sqlcm.telemetry().dispatch;

    assert_eq!(
        allocs_after - allocs_before,
        0,
        "uninterested probe path allocated"
    );
    assert_eq!(
        after.reg_lock_acquisitions, before.reg_lock_acquisitions,
        "uninterested probe path took a registry lock"
    );
    assert_eq!(after.plan_epoch, before.plan_epoch);
    assert_eq!(after.plan_rebuilds, before.plan_rebuilds);
}

/// Steady-state dispatch of a *subscribed* event — compiled condition over
/// payload attributes, rule evaluated but not firing — must also be
/// lock-free and allocation-free (pooled payload buffers, borrowed bindings).
#[test]
fn subscribed_nonfiring_dispatch_allocates_nothing() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("slow")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 1000000"),
        )
        .unwrap();

    let ev = commit_event(7, 0.001);
    for _ in 0..64 {
        sqlcm.inject_event(&ev);
    }

    let before = sqlcm.telemetry().dispatch;
    let evals_before = sqlcm.rule("slow").unwrap().stats().evaluations;
    let allocs_before = allocations();
    for _ in 0..1_000 {
        sqlcm.inject_event(&ev);
    }
    let allocs_after = allocations();
    let after = sqlcm.telemetry().dispatch;

    assert_eq!(
        sqlcm.rule("slow").unwrap().stats().evaluations - evals_before,
        1_000,
        "every event must evaluate the rule"
    );
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "steady-state subscribed dispatch allocated"
    );
    assert_eq!(after.reg_lock_acquisitions, before.reg_lock_acquisitions);
}

/// Causal tracing must be pay-for-what-you-use: with sampling off the
/// dispatch path takes one relaxed atomic load and nothing else — no heap
/// allocations, no registry locks. That must hold on a fresh instance *and*
/// after an enable → trace → disable cycle (no sticky state left behind).
#[test]
fn tracing_disabled_dispatch_stays_allocation_and_lock_free() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("slow")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 1000000"),
        )
        .unwrap();
    let ev = commit_event(7, 0.001);

    // Cycle tracing on, capture some traces, then off again.
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    for _ in 0..64 {
        sqlcm.inject_event(&ev);
    }
    assert!(!sqlcm.traces().is_empty(), "sampled events must trace");
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::Off,
        ..sqlcm.config()
    });
    let traces_before = sqlcm.telemetry().tracing.sampled;

    // Warm the pools, then measure the steady state.
    for _ in 0..64 {
        sqlcm.inject_event(&ev);
    }
    let before = sqlcm.telemetry().dispatch;
    let allocs_before = allocations();
    for _ in 0..1_000 {
        sqlcm.inject_event(&ev);
    }
    let allocs_after = allocations();
    let after = sqlcm.telemetry().dispatch;

    assert_eq!(
        allocs_after - allocs_before,
        0,
        "tracing-disabled dispatch allocated after an enable/disable cycle"
    );
    assert_eq!(
        after.reg_lock_acquisitions, before.reg_lock_acquisitions,
        "tracing-disabled dispatch took a registry lock"
    );
    assert_eq!(
        sqlcm.telemetry().tracing.sampled,
        traces_before,
        "no events may be sampled while tracing is off"
    );
}

/// Guard-indexed dispatch at scale: 1000 selective equality rules on one
/// event class, of which exactly one matches the injected event. The probe
/// plus the pruned-rule bookkeeping must stay allocation-free and lock-free
/// (the enabled snapshot and candidate bitset are pooled per thread, at any
/// rule count), prune the other 999 rules on every event, and still count an
/// evaluation for every rule, exactly as if each had run its condition.
#[test]
fn guard_indexed_dispatch_allocates_nothing_and_prunes() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    let rules = 1_000u64;
    for i in 0..rules {
        sqlcm
            .add_rule(
                Rule::new(format!("u{i}"))
                    .on(RuleEvent::QueryCommit)
                    // The equality atom is the guard; the tail conjunct
                    // keeps the one candidate evaluated-but-nonfiring so
                    // this measures the steady state, not the firing path.
                    .when(&format!(
                        "Query.User = 'user_{i}' AND Query.Duration > 1000000"
                    )),
            )
            .unwrap();
    }

    let mut q = QueryInfo::synthetic(1, "SELECT 1");
    q.user = "user_7".into();
    let ev = EngineEvent::QueryCommit(q);
    for _ in 0..64 {
        sqlcm.inject_event(&ev);
    }

    let before = sqlcm.telemetry();
    let allocs_before = allocations();
    let events = 1_000u64;
    for _ in 0..events {
        sqlcm.inject_event(&ev);
    }
    let allocs_after = allocations();
    let after = sqlcm.telemetry();

    assert_eq!(
        allocs_after - allocs_before,
        0,
        "guard-indexed dispatch allocated"
    );
    assert_eq!(
        after.dispatch.reg_lock_acquisitions, before.dispatch.reg_lock_acquisitions,
        "guard-indexed dispatch took a registry lock"
    );
    assert_eq!(
        after.matching.guard_probes - before.matching.guard_probes,
        events
    );
    assert_eq!(
        after.matching.rules_pruned - before.matching.rules_pruned,
        (rules - 1) * events,
        "every non-matching guarded rule must be pruned"
    );
    assert_eq!(
        after.matching.candidate_rules - before.matching.candidate_rules,
        events,
        "exactly one candidate per event"
    );
    // Pruning is invisible to per-rule stats: a pruned rule still counts an
    // evaluation (with a false outcome).
    assert_eq!(
        sqlcm.rule("u0").unwrap().stats().evaluations,
        sqlcm.rule("u7").unwrap().stats().evaluations
    );
    assert_eq!(sqlcm.rule("u7").unwrap().stats().evaluations, 64 + events);
}

/// Plan bookkeeping: every registry mutation republishes the plan exactly once
/// and bumps the epoch monotonically.
#[test]
fn registry_mutations_bump_plan_epoch() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    assert_eq!(sqlcm.telemetry().dispatch.plan_epoch, 0);

    sqlcm
        .define_lat(
            LatSpec::new("L")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    assert_eq!(sqlcm.telemetry().dispatch.plan_epoch, 1);

    sqlcm
        .add_rule(
            Rule::new("r")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("L")),
        )
        .unwrap();
    assert_eq!(sqlcm.telemetry().dispatch.plan_epoch, 2);

    // Switching a rule off is not a registry mutation: it stays in the plan.
    assert!(sqlcm.set_rule_enabled("r", false));
    assert!(!sqlcm.set_rule_enabled("nope", true));
    assert_eq!(sqlcm.telemetry().dispatch.plan_epoch, 2);

    assert!(sqlcm.remove_rule("r"));
    assert!(sqlcm.drop_lat("L"));
    let d = sqlcm.telemetry().dispatch;
    assert_eq!(d.plan_epoch, 4);
    assert_eq!(d.plan_rebuilds, 4);
}

/// Registration costs what it changes, as counts (`plan_rules_planned`: rules
/// planned and emitted, summed over publishes): a rule added to a class is
/// planned alone and appended, once the class's second rule — the second
/// holder of the shared conjunct — has had the class derived again. Planning
/// every rule per registration made these 500 500 and 5 050.
#[test]
fn registering_a_catalogue_plans_each_rule_about_once() {
    let on_commit = |name: String| Rule::new(name).on(RuleEvent::QueryCommit);
    let planned_by = |lats: Vec<LatSpec>, rules: Vec<Rule>| {
        let engine = Engine::in_memory();
        let sqlcm = Sqlcm::attach(&engine);
        let mutations = (lats.len() + rules.len()) as u64;
        for lat in lats {
            sqlcm.define_lat(lat).unwrap();
        }
        for rule in rules {
            sqlcm.add_rule(rule).unwrap();
        }
        let d = sqlcm.telemetry().dispatch;
        assert_eq!((d.plan_epoch, d.plan_rebuilds), (mutations, mutations));
        d.plan_rules_planned
    };
    // `storm_selective_1k`: one rule per tenant feeding one LAT.
    let tenant_lat = LatSpec::new("Tenant_LAT")
        .group_by("Query.User", "Usr")
        .aggregate(LatAggFunc::Count, "", "N");
    let tenants = (0..1_000).map(|t| {
        on_commit(format!("tenant_rule_{t}"))
            .when(&format!(
                "Query.User = 'tenant_{t}' AND Query.Duration >= 0"
            ))
            .then(Action::insert("Tenant_LAT"))
    });
    let planned = planned_by(vec![tenant_lat], tenants.collect());
    assert!(planned <= 1_002, "{planned} rules planned for 1 000");
    // F2 (`host_point_rules100`): every rule keeps a LAT of its own.
    let names: Vec<String> = (0..100).map(|r| format!("lat_{r}")).collect();
    let lat_of = |name: &String| {
        LatSpec::new(name)
            .group_by("Query.ID", "ID")
            .aggregate(LatAggFunc::Last, "Query.Duration", "Duration")
            .order_by("ID", true)
            .max_rows(10)
    };
    let rule_of = |(r, lat): (usize, &String)| {
        on_commit(format!("rule_{r}"))
            .when("Query.Duration >= 0")
            .then(Action::insert(lat))
    };
    let planned = planned_by(
        names.iter().map(lat_of).collect(),
        names.iter().enumerate().map(rule_of).collect(),
    );
    assert!(planned <= 200, "{planned} rules planned for 100 + 100 LATs");
}

/// A sink that flips a rule off the moment an earlier rule's action runs.
struct DisablingSink {
    target: Arc<Rule>,
}

impl CommandSink for DisablingSink {
    fn run(&self, _command: &str) -> sqlcm_common::Result<()> {
        self.target.set_enabled(false);
        Ok(())
    }
}

/// Mid-dispatch `set_enabled` semantics (documented on [`Rule::set_enabled`]):
/// enabled-ness is snapshotted once per event before any rule runs, so a rule
/// disabled by an earlier rule's action in the same event still fires for that
/// event — and stops firing from the next event on.
#[test]
fn mid_dispatch_disable_applies_from_next_event() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("first")
                .on(RuleEvent::QueryCommit)
                .then(Action::run_external("disable second")),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("second")
                .on(RuleEvent::QueryCommit)
                .then(Action::send_mail("dba", "second fired")),
        )
        .unwrap();
    let second = sqlcm.rule("second").unwrap();
    sqlcm.configure(MonitorConfig {
        command_sink: Arc::new(DisablingSink {
            target: second.clone(),
        }),
        ..sqlcm.config()
    });

    let ev = commit_event(1, 0.1);
    sqlcm.inject_event(&ev);
    // "first" ran before "second" and disabled it mid-event; the snapshot
    // taken at event start means "second" still fired this event.
    assert_eq!(second.stats().fires, 1, "snapshot semantics violated");
    assert!(!second.is_enabled());

    sqlcm.inject_event(&ev);
    assert_eq!(second.stats().fires, 1, "disabled rule fired on next event");
    assert_eq!(sqlcm.rule("first").unwrap().stats().fires, 2);
}

/// Shared LAT-lookup hoisting: N rules on one event conditioned on the same
/// LAT share one row snapshot per event instead of fetching N times. An
/// interleaved Insert invalidates the shared row so later rules re-read their
/// predecessor's write — at most 2 fetches per event here.
#[test]
fn shared_lat_lookup_is_hoisted_and_invalidated_by_inserts() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Sig_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Sig_LAT")),
        )
        .unwrap();
    for i in 0..8 {
        sqlcm
            .add_rule(
                Rule::new(format!("watch{i}"))
                    .on(RuleEvent::QueryCommit)
                    .when(&format!("Sig_LAT.N >= {}", 1_000_000 + i)),
            )
            .unwrap();
    }

    // The plan summary exposes the grouping: one shared group, 8 rules.
    let summary = sqlcm.plan_summary();
    let shared: Vec<_> = summary.shared_groups().collect();
    assert_eq!(shared.len(), 1, "{summary:?}");
    assert_eq!(shared[0].rules.len(), 8);

    let ev = commit_event(3, 0.2);
    sqlcm.inject_event(&ev); // cold: populate the LAT group
    let before = sqlcm.telemetry().dispatch;
    let events = 500;
    for _ in 0..events {
        sqlcm.inject_event(&ev);
    }
    let after = sqlcm.telemetry().dispatch;
    let fetches = after.lat_row_fetches - before.lat_row_fetches;
    let hits = after.hoisted_lookup_hits - before.hoisted_lookup_hits;
    // "feed" runs first and invalidates; the first watcher fetches once, the
    // other 7 hit the shared slot.
    assert!(
        fetches <= 2 * events,
        "expected ≤2 LAT row fetches/event, got {} for {events} events",
        fetches
    );
    assert_eq!(hits, 7 * events, "hoisted slot was not shared");
}

/// The bytecode-VM condition path — a precompiled `LIKE`/`NOT LIKE` pair, an
/// `IN` list, and a cross-rule shared subexpression — must stay allocation-
/// and lock-free at steady state, and the second sharer must be served from
/// the CSE slot on every event instead of re-evaluating the predicate.
#[test]
fn vm_dispatch_with_like_in_and_cse_allocates_nothing() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    for name in ["shared_a", "shared_b"] {
        sqlcm
            .add_rule(
                Rule::new(name)
                    .on(RuleEvent::QueryCommit)
                    .when("Query.Duration > 1000000 AND Query.Logical_Signature IN (1, 2, 3)"),
            )
            .unwrap();
    }
    sqlcm
        .add_rule(
            Rule::new("pattern")
                .on(RuleEvent::QueryCommit)
                .when("Query.Query_Text LIKE '%DELETE%' AND Query.User NOT LIKE 'dba%'"),
        )
        .unwrap();

    let ev = commit_event(2, 0.001);
    for _ in 0..64 {
        sqlcm.inject_event(&ev);
    }

    let before = sqlcm.telemetry().dispatch;
    let allocs_before = allocations();
    let events = 1_000u64;
    for _ in 0..events {
        sqlcm.inject_event(&ev);
    }
    let allocs_after = allocations();
    let after = sqlcm.telemetry().dispatch;

    assert_eq!(
        allocs_after - allocs_before,
        0,
        "VM dispatch path allocated"
    );
    assert_eq!(
        after.reg_lock_acquisitions, before.reg_lock_acquisitions,
        "VM dispatch path took a registry lock"
    );
    assert!(
        after.vm_instructions > before.vm_instructions,
        "conditions did not run through the VM"
    );
    assert_eq!(
        after.cse_hits - before.cse_hits,
        events,
        "second sharer must hit the CSE slot once per event"
    );
}

/// CSE slots must be dropped when a dependency hoist slot is invalidated
/// mid-event: a feed rule inserting into the LAT *between* two sharers of
/// the same LAT predicate forces the later sharer to re-fetch and
/// re-evaluate — it must see its predecessor's write, never a cached
/// verdict from the earlier sharer.
#[test]
fn cse_slot_is_invalidated_with_its_hoisted_row() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Sig_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    // `+ 0` keeps the watchers residual: a LAT guard would prune them
    // without running the shared subtree.
    sqlcm
        .add_rule(
            Rule::new("watch_a")
                .on(RuleEvent::QueryCommit)
                .when("Sig_LAT.N + 0 >= 3"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Sig_LAT")),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("watch_b")
                .on(RuleEvent::QueryCommit)
                .when("Sig_LAT.N + 0 >= 3"),
        )
        .unwrap();

    let ev = commit_event(9, 0.1);
    let before = sqlcm.telemetry().dispatch;
    for _ in 0..10 {
        sqlcm.inject_event(&ev);
    }
    let after = sqlcm.telemetry().dispatch;

    // On event i, watch_a sees N = i-1 (fires from event 4 on: 7 fires over
    // 10 events) while watch_b sees the count including this event's insert
    // (fires from event 3 on: 8 fires). A stale CSE value would make the
    // two counts equal.
    assert_eq!(sqlcm.rule("watch_a").unwrap().stats().fires, 7);
    assert_eq!(
        sqlcm.rule("watch_b").unwrap().stats().fires,
        8,
        "watch_b reused a stale shared verdict across the feed's insert"
    );
    // The shared slot never survives to watch_b here — every event's insert
    // clears it with the hoisted row it depends on.
    assert_eq!(after.cse_hits - before.cse_hits, 0);
}

/// Allocations of one event whose single rule fires `Insert(lat)`, averaged
/// over `events` steady-state events produced by `event(i)`, on the monitor
/// as shipped — telemetry on, so every firing also writes a flight record.
///
/// The count is exact whatever the LAT's random hash keys. The measured
/// events replay part of the warm-up into the LAT emptied by a reset, and a
/// reset keeps every shard table's capacity. So at each replayed event every
/// one of the 16 shards holds as many rows as it held at that point of the
/// warm-up, and no table grows in the measured window. The first `SETTLE`
/// replayed events re-create what the reset freed: the groups and the victim
/// index's node.
fn allocations_per_firing_insert(
    spec: LatSpec,
    events: u64,
    event: impl Fn(u64) -> EngineEvent,
) -> f64 {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    let lat = sqlcm.define_lat(spec).unwrap();
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert(&lat.spec.name)),
        )
        .unwrap();
    const WARM_UP: u64 = 4_096;
    const SETTLE: u64 = 64;
    assert!(SETTLE + events <= WARM_UP);
    let evs: Vec<EngineEvent> = (0..WARM_UP).map(event).collect();
    for ev in &evs {
        sqlcm.inject_event(ev);
    }
    lat.reset();
    let (settle, measured) = evs[..(SETTLE + events) as usize].split_at(SETTLE as usize);
    for ev in settle {
        sqlcm.inject_event(ev);
    }
    let before = allocations();
    for ev in measured {
        sqlcm.inject_event(ev);
    }
    let after = allocations();
    let total = WARM_UP + SETTLE + events;
    assert_eq!(sqlcm.rule("feed").unwrap().stats().fires, total);
    assert_eq!(lat.stats().inserts, total);
    (after - before) as f64 / events as f64
}

/// A firing rule whose `Insert` folds into an existing group allocates
/// nothing: the group key is borrowed from the event's object, on an
/// unbounded LAT and on a bounded one whose folds move the ordering key.
#[test]
fn firing_insert_into_existing_group_allocates_nothing() {
    let unbounded = LatSpec::new("Sig_LAT")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration");
    let folded = unbounded.clone().order_by("N", true).max_rows(8);
    for spec in [unbounded, folded] {
        let per_event = allocations_per_firing_insert(spec, 1_000, |i| commit_event(i % 4, 0.1));
        assert_eq!(per_event, 0.0, "existing-group fold allocated");
    }
}

/// A firing rule that creates a group in a full bounded LAT — so every event
/// also evicts — allocates nothing: the new row is built in the buffers the
/// last eviction gave back, and there is no owned lookup key and no victim
/// scan. Three shapes: the paper's Figure 2 (one grouping column that is
/// also the ordering column, every attribute retained, 10 rows); Figure 3's
/// top-k (ordered by `MAX(Duration)`, the *folded* class), where the new row
/// is most often its own victim; and a text grouping column that is also the
/// ordering column, whose boxed rank reuses its victim's box.
#[test]
fn firing_insert_creating_a_group_in_a_full_lat_allocates_nothing() {
    let last10 = LatSpec::new("Last10")
        .group_by("Query.ID", "ID")
        .aggregate(LatAggFunc::Last, "Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Last, "Query.Query_Text", "Query_Text")
        .aggregate(LatAggFunc::Last, "Query.Duration", "Duration")
        .aggregate(LatAggFunc::Last, "Query.Estimated_Cost", "Cost")
        .aggregate(LatAggFunc::Last, "Query.Start_Time", "Start_Time")
        .aggregate(LatAggFunc::Last, "Query.User", "Usr")
        .aggregate(LatAggFunc::Last, "Query.Application", "App")
        .aggregate(LatAggFunc::Last, "Query.Query_Type", "QType")
        .order_by("ID", true)
        .max_rows(10);
    let top10 = LatSpec::new("TopK")
        .group_by("Query.ID", "ID")
        .aggregate(LatAggFunc::Max, "Query.Duration", "Duration")
        .aggregate(LatAggFunc::Last, "Query.Query_Text", "Query_Text")
        .order_by("Duration", true)
        .max_rows(10);
    let by_user = LatSpec::new("ByUser")
        .group_by("Query.User", "Usr")
        .aggregate(LatAggFunc::Last, "Query.Duration", "Duration")
        .order_by("Usr", true)
        .max_rows(10);
    for spec in [last10, top10, by_user] {
        let name = spec.name.clone();
        let per_event = allocations_per_firing_insert(spec, 1_000, |i| {
            let mut q = QueryInfo::synthetic(i + 1, "SELECT 1");
            // Scattered durations: a few enter the top 10, most are evicted
            // at once.
            q.duration_micros = (i * 7_919) % 1_000_003;
            q.user = format!("user {i:05}").into();
            EngineEvent::QueryCommit(q)
        });
        assert_eq!(
            per_event, 0.0,
            "{name}: new-group insert + eviction allocated"
        );
    }
}

/// More hoisted lookups than any inline buffer holds: 12 rules each reading
/// its own LAT give the event class 12 hoist slots. The per-event slot and
/// shared-value stores are pooled per thread like the payload buffers, so a
/// non-firing event still allocates nothing.
#[test]
fn twelve_hoisted_lats_allocate_nothing_per_event() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    for i in 0..12 {
        sqlcm
            .define_lat(
                LatSpec::new(format!("L{i}"))
                    .group_by("Query.Logical_Signature", "Sig")
                    .aggregate(LatAggFunc::Count, "", "N"),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new(format!("watch{i}"))
                    .on(RuleEvent::QueryCommit)
                    .when(&format!("L{i}.N >= 1000000")),
            )
            .unwrap();
    }
    let hoisted = sqlcm.plan_summary().hoist_groups.len();
    assert_eq!(hoisted, 12, "one hoist slot per LAT");

    let ev = commit_event(5, 0.001);
    for _ in 0..64 {
        sqlcm.inject_event(&ev);
    }
    let before = sqlcm.telemetry().dispatch;
    let allocs_before = allocations();
    let events = 1_000u64;
    for _ in 0..events {
        sqlcm.inject_event(&ev);
    }
    let allocs_after = allocations();
    let after = sqlcm.telemetry().dispatch;
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "dispatch over 12 hoist slots allocated"
    );
    assert_eq!(
        after.lat_row_fetches - before.lat_row_fetches,
        12 * events,
        "every rule looked its own LAT up"
    );
    assert_eq!(after.reg_lock_acquisitions, before.reg_lock_acquisitions);
}

/// `Stamp::now` calls `f` makes on this thread — the one function the event
/// path reads `Instant` through. The counter exists in debug builds only, so
/// the clock-read pins carry the same `cfg` and a `--release` run skips them.
#[cfg(debug_assertions)]
fn clock_reads(f: impl FnOnce()) -> u64 {
    let before = Stamp::reads_on_this_thread();
    f();
    Stamp::reads_on_this_thread() - before
}

/// The `storm_shared_lat` shape: one feed rule folding into a shared LAT and
/// `watchers` rules that read it and never fire, the `i`th with the
/// condition `watcher(1_000_000_000 + i)`.
fn feed_and_watchers(sqlcm: &Sqlcm, watchers: u64, watcher: impl Fn(u64) -> String) {
    sqlcm
        .define_lat(
            LatSpec::new("Sig_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Sig_LAT")),
        )
        .unwrap();
    for i in 0..watchers {
        sqlcm
            .add_rule(
                Rule::new(format!("watch{i}"))
                    .on(RuleEvent::QueryCommit)
                    .when(&watcher(1_000_000_000 + i)),
            )
            .unwrap();
    }
}

/// Sampled spans: `on_event` reads the clock twice per event, at entry and
/// exit; a timed condition reads it twice, around its LAT binding and
/// condition; a timed firing reads it once more when its condition was
/// timed (its span starts at the condition's end stamp) and twice when it
/// was not. A rule times its evaluations and firings 0, 64, 128, … on its
/// own schedule, every one while a latency budget is set — and a LAT insert
/// with nothing to age reads nothing. `+ 0` keeps the watchers residual, so
/// every condition runs.
#[cfg(debug_assertions)]
#[test]
fn an_event_reads_the_clock_twice_plus_its_sampled_spans() {
    let engine = Engine::in_memory();
    let ev = commit_event(3, 0.5);

    let sqlcm = Sqlcm::attach(&engine);
    feed_and_watchers(&sqlcm, 31, |n| {
        format!("Query.Duration > 0.001 AND Sig_LAT.N + 0 >= {n}")
    });
    // Every rule's first evaluation is timed, and `feed`'s first firing
    // starts at its condition's end stamp.
    assert_eq!(clock_reads(|| sqlcm.inject_event(&ev)), 2 + 2 * 32 + 1);
    // The next 63 events time nothing.
    for _ in 1..64 {
        assert_eq!(clock_reads(|| sqlcm.inject_event(&ev)), 2);
    }
    // The 65th event is every rule's evaluation 64 and `feed`'s firing 64.
    assert_eq!(clock_reads(|| sqlcm.inject_event(&ev)), 2 + 2 * 32 + 1);
    let stats = sqlcm.stats();
    assert_eq!((stats.evaluations, stats.fires), (65 * 32, 65));
    // An event no rule subscribes to: `on_event`'s own two.
    let login = EngineEvent::Login(sqlcm_common::SessionInfo {
        session_id: 1,
        user: "u".into(),
        application: "a".into(),
        success: true,
    });
    assert_eq!(clock_reads(|| sqlcm.inject_event(&login)), 2);
    // A latency budget times every evaluation and every firing.
    let config = sqlcm.config();
    sqlcm.configure(MonitorConfig {
        breaker: sqlcm_core::BreakerConfig {
            latency_budget_nanos: Some(u64::MAX),
            ..config.breaker
        },
        ..config
    });
    for _ in 0..3 {
        assert_eq!(clock_reads(|| sqlcm.inject_event(&ev)), 2 + 2 * 32 + 1);
    }
    drop(sqlcm);

    // A firing timed after an untimed condition starts at a fresh read.
    // `LIKE` keeps the rule residual, so it runs on every event.
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("late")
                .on(RuleEvent::QueryCommit)
                .when("Query.User LIKE 'l%'")
                .then(Action::send_mail("dba", "late")),
        )
        .unwrap();
    let by = |user: &str| {
        let mut q = QueryInfo::synthetic(1, "SELECT 1");
        q.user = user.into();
        EngineEvent::QueryCommit(q)
    };
    // Evaluation 0, timed; no firing.
    assert_eq!(clock_reads(|| sqlcm.inject_event(&by("x"))), 2 + 2);
    // Evaluation 1, untimed; firing 0, timed from a fresh read.
    assert_eq!(clock_reads(|| sqlcm.inject_event(&by("late"))), 2 + 2);
    // Evaluation 2 and firing 1: untimed.
    assert_eq!(clock_reads(|| sqlcm.inject_event(&by("late"))), 2);
}

/// A firing writes its flight record into a slot of its dispatcher's ring.
/// Once the ring has wrapped, the slot is overwritten in place and keeps the
/// labels it already holds: a firing allocates nothing and clones no label
/// (debug builds count the clones), and an event reads the clock as often as
/// before — twice, plus the rule's sampled spans — with tracing off and on an
/// event tracing does not sample.
#[test]
fn a_firing_into_a_wrapped_flight_ring_allocates_nothing() {
    let engine = Engine::in_memory();
    let ev = commit_event(3, 0.5);
    for sampling in [TraceSampling::Off, TraceSampling::EveryNth(1 << 20)] {
        let sqlcm = Sqlcm::attach(&engine);
        feed_and_watchers(&sqlcm, 0, |_| unreachable!());
        sqlcm.configure(MonitorConfig {
            trace_sampling: sampling.clone(),
            ..sqlcm.config()
        });
        // Of these, only the first event is sampled.
        let wrap = 2 * FLIGHT_RECORDER_CAPACITY as u64;
        for _ in 0..wrap {
            sqlcm.inject_event(&ev);
        }
        #[cfg(debug_assertions)]
        let clones_before = Label::clones_on_this_thread();
        let allocs_before = allocations();
        for _ in 0..1_000 {
            sqlcm.inject_event(&ev);
        }
        let allocs_after = allocations();
        assert_eq!(allocs_after - allocs_before, 0, "{sampling:?}");
        #[cfg(debug_assertions)]
        assert_eq!(
            Label::clones_on_this_thread() - clones_before,
            0,
            "{sampling:?}"
        );
        // Firings 1 536, 1 600, …: one timed condition and firing in 64.
        #[cfg(debug_assertions)]
        for _ in 0..2 {
            let reads = clock_reads(|| {
                for _ in 0..64 {
                    sqlcm.inject_event(&ev);
                }
            });
            assert_eq!(reads, 2 * 64 + 2 + 1, "{sampling:?}");
        }
        let snap = sqlcm.telemetry();
        assert_eq!(snap.flight_total, snap.stats.fires, "{sampling:?}");
        assert_eq!(snap.flight_records.len(), FLIGHT_RECORDER_CAPACITY);
        let sampled = u64::from(sampling != TraceSampling::Off);
        assert_eq!(snap.tracing.sampled, sampled, "{sampling:?}");
    }
}

/// The `storm_shared_lat` watchers as shipped: each is refuted by its LAT
/// guard against the row the event hoisted, so none runs its condition. A
/// sampled event reads the clock for `on_event` and for `feed`'s condition
/// and firing only, every other event for `on_event` only; the watchers
/// retire no VM instruction and the event allocates nothing, while every
/// one of the 32 rules still books its evaluation.
#[test]
fn refuted_lat_watchers_run_no_condition() {
    let engine = Engine::in_memory();
    let ev = commit_event(3, 0.5);
    let sqlcm = Sqlcm::attach(&engine);
    feed_and_watchers(&sqlcm, 31, |n| {
        format!("Query.Duration > 0.001 AND Sig_LAT.N >= {n}")
    });
    #[cfg(debug_assertions)]
    {
        assert_eq!(clock_reads(|| sqlcm.inject_event(&ev)), 2 + 2 + 1);
        for _ in 1..64 {
            assert_eq!(clock_reads(|| sqlcm.inject_event(&ev)), 2);
        }
        assert_eq!(clock_reads(|| sqlcm.inject_event(&ev)), 2 + 2 + 1);
    }
    #[cfg(not(debug_assertions))]
    for _ in 0..65 {
        sqlcm.inject_event(&ev);
    }
    let before = sqlcm.telemetry();
    let allocs_before = allocations();
    let events = 1_000u64;
    for _ in 0..events {
        sqlcm.inject_event(&ev);
    }
    let allocs_after = allocations();
    let after = sqlcm.telemetry();
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "refuted watchers allocated"
    );
    let (stats, was) = (after.stats, before.stats);
    assert_eq!(stats.evaluations - was.evaluations, 32 * events);
    assert_eq!(stats.fires - was.fires, events);
    let (matching, was) = (after.matching, before.matching);
    assert_eq!(matching.rules_pruned - was.rules_pruned, 31 * events);
    assert_eq!(matching.candidate_rules - was.candidate_rules, events);
    // `feed` is unconditional: every instruction would be a watcher's. The
    // first watcher fetches the row `feed` changed; the others share it.
    let (dispatch, was) = (after.dispatch, before.dispatch);
    assert_eq!(dispatch.vm_instructions, was.vm_instructions);
    assert_eq!(dispatch.lat_row_fetches - was.lat_row_fetches, events);
    assert_eq!(
        dispatch.hoisted_lookup_hits - was.hoisted_lookup_hits,
        30 * events
    );
    for i in 0..31 {
        let stats = sqlcm.rule(&format!("watch{i}")).unwrap().stats();
        assert_eq!(stats.evaluations, stats.pruned, "watch{i}");
        assert_eq!(stats.evaluations, 65 + events, "watch{i}");
    }
}

/// The same ladder with a second feeder in its middle: `feed2` writes the
/// row, so the watchers are two writer-free segments — `watch0`…`watch15`
/// up to and including `feed2`, and `watch16`…`watch30` after it — each
/// probed once. The first segment's probe fetches the row `feed` changed and
/// 15 share it; `feed2` fires and empties the slot, and the second probe
/// fetches the row again for 15 reads, 14 of them shared.
#[test]
fn a_second_feeder_splits_the_watchers_into_two_segments() {
    let engine = Engine::in_memory();
    let ev = commit_event(3, 0.5);
    let sqlcm = Sqlcm::attach(&engine);
    feed_and_watchers(&sqlcm, 16, |n| {
        format!("Query.Duration > 0.001 AND Sig_LAT.N >= {n}")
    });
    let feed2 = Rule::new("feed2")
        .on(RuleEvent::QueryCommit)
        .then(Action::insert("Sig_LAT"));
    sqlcm.add_rule(feed2).unwrap();
    for i in 16..31 {
        let cond = format!(
            "Query.Duration > 0.001 AND Sig_LAT.N >= {}",
            1_000_000_000 + i
        );
        let watcher = Rule::new(format!("watch{i}")).on(RuleEvent::QueryCommit);
        sqlcm.add_rule(watcher.when(&cond)).unwrap();
    }
    // Both feeders time their first condition and firing.
    #[cfg(debug_assertions)]
    {
        assert_eq!(clock_reads(|| sqlcm.inject_event(&ev)), 2 + 2 * (2 + 1));
        for _ in 1..64 {
            assert_eq!(clock_reads(|| sqlcm.inject_event(&ev)), 2);
        }
        assert_eq!(clock_reads(|| sqlcm.inject_event(&ev)), 2 + 2 * (2 + 1));
    }
    #[cfg(not(debug_assertions))]
    for _ in 0..65 {
        sqlcm.inject_event(&ev);
    }
    let before = sqlcm.telemetry();
    let allocs_before = allocations();
    let events = 1_000u64;
    for _ in 0..events {
        sqlcm.inject_event(&ev);
    }
    let allocs_after = allocations();
    let after = sqlcm.telemetry();
    assert_eq!(allocs_after - allocs_before, 0, "split ladder allocated");
    let (stats, was) = (after.stats, before.stats);
    assert_eq!(stats.evaluations - was.evaluations, 33 * events);
    assert_eq!(stats.fires - was.fires, 2 * events);
    let (matching, was) = (after.matching, before.matching);
    assert_eq!(matching.guard_probes - was.guard_probes, events);
    assert_eq!(matching.rules_pruned - was.rules_pruned, 31 * events);
    assert_eq!(matching.candidate_rules - was.candidate_rules, 2 * events);
    let (dispatch, was) = (after.dispatch, before.dispatch);
    assert_eq!(dispatch.vm_instructions, was.vm_instructions);
    assert_eq!(dispatch.lat_row_fetches - was.lat_row_fetches, 2 * events);
    assert_eq!(
        dispatch.hoisted_lookup_hits - was.hoisted_lookup_hits,
        29 * events
    );
    for i in 0..31 {
        let stats = sqlcm.rule(&format!("watch{i}")).unwrap().stats();
        assert_eq!(stats.evaluations, stats.pruned, "watch{i}");
        assert_eq!(stats.evaluations, 65 + events, "watch{i}");
    }
    for feed in ["feed", "feed2"] {
        let stats = sqlcm.rule(feed).unwrap().stats();
        assert_eq!((stats.evaluations, stats.fires), (65 + events, 65 + events));
    }
}

/// A cascade times the same way: `on_event` reads twice however many events
/// it drains, and each drained event's rules time their spans on their own
/// schedules. The eviction rules' first evaluations and firings fall on the
/// first drained event, long after the commit rules' first ones.
#[cfg(debug_assertions)]
#[test]
fn a_cascade_reads_the_clock_twice_plus_its_sampled_spans() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Hot")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .order_by("D", true)
                .max_rows(1),
        )
        .unwrap();
    let rules = [
        Rule::new("feed")
            .on(RuleEvent::QueryCommit)
            .then(Action::insert("Hot")),
        // `+ 0` keeps it residual: it runs, and times, like the others.
        Rule::new("never")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration > 0.001 AND Hot.D + 0 > 1000000"),
        Rule::new("spill")
            .on(RuleEvent::LatEviction("Hot".into()))
            .then(Action::send_mail("dba", "row spilled")),
        Rule::new("spill_twice")
            .on(RuleEvent::LatEviction("Hot".into()))
            .then(Action::send_mail("dba", "row spilled")),
    ];
    for rule in rules {
        sqlcm.add_rule(rule).unwrap();
    }
    // Fills the LAT: no eviction. Both commit rules' first evaluations are
    // timed, and `feed`'s first firing.
    assert_eq!(
        clock_reads(|| sqlcm.inject_event(&commit_event(1, 1.0))),
        2 + (2 + 1) + 2
    );
    // Each new signature evicts the row held: a second, drained event. The
    // commit rules' second evaluations are untimed; the eviction rules' first
    // evaluations and firings are timed.
    assert_eq!(
        clock_reads(|| sqlcm.inject_event(&commit_event(2, 2.0))),
        2 + 2 * (2 + 1)
    );
    for sig in 3..5 {
        assert_eq!(
            clock_reads(|| sqlcm.inject_event(&commit_event(sig, sig as f64))),
            2
        );
    }
    assert_eq!(sqlcm.rule("spill").unwrap().stats().fires, 3);
    assert_eq!(sqlcm.rule("spill_twice").unwrap().stats().fires, 3);
    // Every span of the cascade lies inside `on_event`'s.
    let snap = sqlcm.telemetry();
    let spans: u64 = snap
        .rules
        .iter()
        .map(|r| r.condition.sum + r.action.sum)
        .sum();
    let on_event: u64 = snap.probes.iter().map(|p| p.on_event.sum).sum();
    assert!(on_event >= spans, "{on_event} < {spans}");
}

/// A clock that counts its readings.
#[derive(Debug, Default)]
struct CountingClock(AtomicU64);

impl sqlcm_common::Clock for CountingClock {
    fn now_micros(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

/// Only an aging aggregate looks at the time of an insert or a lookup: a LAT
/// without one never asks its clock on `insert_and` or `lookup_for`, a LAT
/// with one asks once per call.
#[test]
fn a_lat_insert_reads_its_clock_only_to_age() {
    let plain = LatSpec::new("Sig_LAT")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .order_by("N", true)
        .max_rows(2);
    let aging = LatSpec::new("Recent_LAT")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .aging(1_000_000, 1_000);
    for (spec, per_call) in [(plain, 0), (aging, 1)] {
        let clock = Arc::new(CountingClock::default());
        let lat = sqlcm_core::Lat::new(spec, clock.clone()).unwrap();
        let reads = || clock.0.load(Ordering::Relaxed);
        // Existing-group folds, new groups, and (on the bounded one) evictions;
        // lookups of held rows and of evicted or never-inserted ones.
        let object = |sig| {
            let EngineEvent::QueryCommit(q) = commit_event(sig, 0.5) else {
                unreachable!()
            };
            sqlcm_core::objects::query_object(&q)
        };
        for sig in [1, 1, 2, 3, 3, 4] {
            let before = reads();
            lat.insert_and(&object(sig), true).unwrap();
            assert_eq!(reads() - before, per_call, "{} insert", lat.spec.name);
            for probe in [sig, 1, 99] {
                let before = reads();
                lat.lookup_for(&object(probe));
                assert_eq!(reads() - before, per_call, "{} lookup", lat.spec.name);
            }
        }
    }
}

/// Group-key hashes `f` makes on this thread, in any LAT. Like
/// [`clock_reads`], the counter exists in debug builds only.
#[cfg(debug_assertions)]
fn key_hashes(f: impl FnOnce()) -> u64 {
    let before = sqlcm_core::Lat::key_hashes_on_this_thread();
    f();
    sqlcm_core::Lat::key_hashes_on_this_thread() - before
}

/// F2's shape (`host_point_rules100`): `rules` rules on `Query.Duration >= 0`,
/// each inserting into its own 10-row LAT of recent queries by `Query.ID`.
fn f2_catalog(sqlcm: &Sqlcm, rules: u64) {
    for r in 0..rules {
        let lat = format!("lat_{r}");
        sqlcm
            .define_lat(
                LatSpec::new(&lat)
                    .group_by("Query.ID", "ID")
                    .aggregate(LatAggFunc::Last, "Query.Duration", "Duration")
                    .aggregate(LatAggFunc::Last, "Query.User", "Usr")
                    .order_by("ID", true)
                    .max_rows(10),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new(format!("rule_{r}"))
                    .on(RuleEvent::QueryCommit)
                    .when("Query.Duration >= 0")
                    .then(Action::insert(&lat)),
            )
            .unwrap();
    }
}

/// A commit of query `id` by user `u{id % 3}`.
fn commit_of(id: u64) -> EngineEvent {
    let mut q = QueryInfo::synthetic(id, "SELECT 1");
    q.duration_micros = id % 7 * 1_000;
    q.user = format!("u{}", id % 3).into();
    EngineEvent::QueryCommit(q)
}

/// F2's rules fire on every event and run no program: the guard on
/// `Query.Duration >= 0` decides each condition, and the index admits all
/// 100 with one shared comparison. Nothing is retired by the VM, no shared
/// value is loaded, and every rule books its evaluation and firing. The 100
/// inserts hash the event's `Query.ID` once between them.
#[test]
fn an_f2_catalog_runs_no_program_and_hashes_each_query_once() {
    const RULES: u64 = 100;
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    f2_catalog(&sqlcm, RULES);
    let before = sqlcm.telemetry();
    let events = 50;
    for id in 0..events {
        #[cfg(debug_assertions)]
        assert_eq!(key_hashes(|| sqlcm.inject_event(&commit_of(id))), 1);
        #[cfg(not(debug_assertions))]
        sqlcm.inject_event(&commit_of(id));
    }
    let after = sqlcm.telemetry();
    let (stats, was) = (after.stats, before.stats);
    assert_eq!(stats.evaluations - was.evaluations, RULES * events);
    assert_eq!(stats.fires - was.fires, RULES * events);
    let (dispatch, was) = (after.dispatch, before.dispatch);
    assert_eq!(dispatch.vm_instructions, was.vm_instructions);
    assert_eq!(dispatch.cse_hits, was.cse_hits);
    for r in [0, RULES - 1] {
        let lat = sqlcm.lat(&format!("lat_{r}")).unwrap();
        let mut ids: Vec<_> = lat.rows().into_iter().map(|row| row[0].clone()).collect();
        ids.sort();
        let want: Vec<_> = (events - 10..events).map(|id| id as i64).collect();
        assert_eq!(ids, want.into_iter().map(Into::into).collect::<Vec<_>>());
    }
}

/// `host_mixed_topk`'s catalog hashes each of its two groupings once per
/// event: `Query.ID` for the top-k insert, `Query.Logical_Signature` for the
/// outlier LAT's insert — and the outlier rule's hoisted lookup of the row
/// that insert changed reuses that hash.
#[cfg(debug_assertions)]
#[test]
fn host_mixed_topk_hashes_once_per_distinct_grouping() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("TopK")
                .group_by("Query.ID", "ID")
                .aggregate(LatAggFunc::Max, "Query.Duration", "Duration")
                .aggregate(LatAggFunc::Last, "Query.Query_Text", "Query_Text")
                .order_by("Duration", true)
                .max_rows(10),
        )
        .unwrap();
    sqlcm
        .define_lat(
            LatSpec::new("Duration_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration"),
        )
        .unwrap();
    let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
    for rule in [
        on_commit("track_topk").then(Action::insert("TopK")),
        on_commit("track_durations").then(Action::insert("Duration_LAT")),
        on_commit("report_outlier")
            .when("Query.Duration > 5 * Duration_LAT.Avg_Duration AND Duration_LAT.N >= 30")
            .then(Action::send_mail("dba", "outlier: {Query.Query_Text}")),
    ] {
        sqlcm.add_rule(rule).unwrap();
    }
    for id in 0..40 {
        let mut q = QueryInfo::synthetic(id, "SELECT 1");
        q.logical_signature = Some(id % 4);
        q.duration_micros = 1_000 + id;
        let ev = EngineEvent::QueryCommit(q);
        assert_eq!(key_hashes(|| sqlcm.inject_event(&ev)), 2, "query {id}");
    }
    let d = sqlcm.telemetry().dispatch;
    assert_eq!((d.lat_row_fetches, d.hoisted_lookup_hits), (40, 0));
    assert!(d.vm_instructions > 0, "the outlier rule's condition runs");
}

/// An object the event does not carry is hashed for itself, never served
/// from the event's memo: a `Lat.Eviction` cascade event's rules iterate the
/// live `Table` objects (§5.2) and insert each into two LATs grouped by
/// `Table.Name` — two hashes per table, as no memo serves them — after the
/// root commit hashed its `Query.ID` once for the top-1 LAT whose eviction
/// raised the cascade. The tables' rows count every insert.
#[cfg(debug_assertions)]
#[test]
fn live_objects_and_cascade_events_hash_for_themselves() {
    let engine = Engine::in_memory();
    engine
        .execute_batch("CREATE TABLE a (id INT PRIMARY KEY); CREATE TABLE b (id INT PRIMARY KEY);")
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Last_LAT")
                .group_by("Query.ID", "ID")
                .order_by("ID", true)
                .max_rows(1),
        )
        .unwrap();
    for lat in ["Seen_A", "Seen_B"] {
        sqlcm
            .define_lat(LatSpec::new(lat).group_by("Table.Name", "Name").aggregate(
                LatAggFunc::Count,
                "",
                "N",
            ))
            .unwrap();
    }
    let rules = [
        Rule::new("track")
            .on(RuleEvent::QueryCommit)
            .then(Action::insert("Last_LAT")),
        Rule::new("on_evict")
            .on(RuleEvent::LatEviction("Last_LAT".into()))
            .when("Table.Row_Count >= 0")
            .then(Action::insert("Seen_A"))
            .then(Action::insert("Seen_B")),
    ];
    for rule in rules {
        sqlcm.add_rule(rule).unwrap();
    }
    let tables = engine.catalog().tables().len() as u64;
    assert!(tables >= 2);
    assert_eq!(key_hashes(|| sqlcm.inject_event(&commit_of(0))), 1);
    for id in 1..6 {
        let hashes = key_hashes(|| sqlcm.inject_event(&commit_of(id)));
        assert_eq!(hashes, 1 + 2 * tables, "commit {id}");
    }
    assert_eq!(sqlcm.rule("on_evict").unwrap().stats().fires, 5 * tables);
    for lat in ["Seen_A", "Seen_B"] {
        let rows = sqlcm.lat(lat).unwrap().rows();
        assert_eq!(rows.len() as u64, tables, "{lat}");
        assert!(rows.iter().all(|row| row[1] == 5.into()), "{lat}: {rows:?}");
    }
}

/// Dispatch is O(candidates), not O(registered rules): with one candidate per
/// event, an event over 4 000 per-tenant rules must cost at most twice what
/// it costs over 250 (walking every rule made it ≈ 14 × from 64 to 1 024).
/// One monitor, grown from the small size to the large one — 3 999 of the
/// registrations append to the class's plan — the same events at both sizes.
///
/// Release builds only: a timing ratio of an unoptimized build pins nothing.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing pin; run with --release")]
fn per_event_time_does_not_grow_with_registered_rules() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    let grow_to = |rules: u64| {
        for i in sqlcm.rule_count() as u64..rules {
            sqlcm
                .add_rule(
                    Rule::new(format!("tenant_rule_{i}"))
                        .on(RuleEvent::QueryCommit)
                        .when(&format!(
                            "Query.User = 'tenant_{i}' AND Query.Duration > 1000000"
                        )),
                )
                .unwrap();
        }
    };
    // Sixteen tenants registered at both sizes, so both runs touch the same
    // sixteen rules and differ only in how many others are registered.
    let evs: Vec<EngineEvent> = (0..16)
        .map(|t| {
            let mut q = QueryInfo::synthetic(t, "SELECT 1");
            q.user = format!("tenant_{t}").into();
            EngineEvent::QueryCommit(q)
        })
        .collect();
    let median_ns_per_event = || {
        let mut batches: Vec<u128> = (0..201)
            .map(|_| {
                let t = std::time::Instant::now();
                for _ in 0..64 {
                    for ev in &evs {
                        sqlcm.inject_event(std::hint::black_box(ev));
                    }
                }
                t.elapsed().as_nanos()
            })
            .collect();
        batches.sort_unstable();
        batches[batches.len() / 2] as f64 / (64 * evs.len()) as f64
    };
    let measure = |rules: u64| {
        grow_to(rules);
        let before = sqlcm.telemetry().matching;
        let ns = median_ns_per_event();
        let after = sqlcm.telemetry().matching;
        let events = after.guard_probes - before.guard_probes;
        assert_eq!(after.candidate_rules - before.candidate_rules, events);
        assert_eq!(
            after.rules_pruned - before.rules_pruned,
            events * (rules - 1)
        );
        ns
    };
    let small = measure(250);
    let large = measure(4_000);
    println!("per event: {small:.0} ns at 250 rules, {large:.0} ns at 4 000");
    assert!(
        large <= 2.0 * small,
        "{large:.0} ns per event at 4 000 rules, {small:.0} ns at 250"
    );
}

/// Registration costs the same however many rules are registered: the mean
/// `add_rule` of `storm_selective_1k`'s rule shape (one tenant each, a shared
/// conjunct, one LAT fed — W105 and W302 fire on every one) at 16 000
/// registered rules stays within twice the mean at 1 000, and every one of
/// those registrations appends its rule alone (`plan_rules_planned` + 1).
/// Each mean is the fastest of three batches of 250, so a busy moment on the
/// machine does not decide the ratio.
///
/// Release builds only: a timing ratio of an unoptimized build pins nothing.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing pin; run with --release")]
fn registration_time_does_not_grow_with_registered_rules() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Tenant_LAT")
                .group_by("Query.User", "Usr")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    let tenant = |i: usize| {
        Rule::new(format!("tenant_rule_{i}"))
            .on(RuleEvent::QueryCommit)
            .when(&format!(
                "Query.User = 'tenant_{i}' AND Query.Duration >= 0"
            ))
            .then(Action::insert("Tenant_LAT"))
    };
    let grow_to = |rules: usize| {
        for i in sqlcm.rule_count()..rules {
            sqlcm.add_rule(tenant(i)).unwrap();
        }
    };
    let batch_mean_us = || {
        let from = sqlcm.rule_count();
        let batch: Vec<Rule> = (from..from + 250).map(tenant).collect();
        let planned = sqlcm.telemetry().dispatch.plan_rules_planned;
        let t = std::time::Instant::now();
        for rule in batch {
            sqlcm.add_rule(rule).unwrap();
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / 250.0;
        let appended = sqlcm.telemetry().dispatch.plan_rules_planned - planned;
        assert_eq!(appended, 250, "from {from} rules: each rule planned alone");
        us
    };
    let mean_at = |rules: usize| {
        grow_to(rules);
        (0..3).map(|_| batch_mean_us()).fold(f64::MAX, f64::min)
    };
    let small = mean_at(1_000);
    let large = mean_at(16_000);
    println!("add_rule: {small:.1} us at 1 000 rules, {large:.1} us at 16 000");
    assert!(
        large <= 2.0 * small,
        "{large:.1} us per add_rule at 16 000 rules, {small:.1} us at 1 000"
    );
}

/// The registration pin for shared guard entries: every rule of the class
/// has one of 8 payload bounds and one of 8 LAT bounds
/// (`Query.Duration > d_k AND Tenant_LAT.N >= k`, `k = i mod 8`) and writes
/// the LAT it reads. A rule joins an existing entry in both groups and
/// appends its position to the slot's writers, so the mean `add_rule` at
/// 16 000 registered rules stays within twice the mean at 1 000, and every
/// one of those registrations appends its rule alone. Each mean is the
/// fastest of three batches of 250.
///
/// Release builds only: a timing ratio of an unoptimized build pins nothing.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing pin; run with --release")]
fn registration_time_does_not_grow_with_shared_guard_entries() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Tenant_LAT")
                .group_by("Query.User", "Usr")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    let ladder = |i: usize| {
        let k = i % 8;
        Rule::new(format!("ladder_rule_{i}"))
            .on(RuleEvent::QueryCommit)
            .when(&format!("Query.Duration > 0.00{k} AND Tenant_LAT.N >= {k}"))
            .then(Action::insert("Tenant_LAT"))
    };
    let grow_to = |rules: usize| {
        for i in sqlcm.rule_count()..rules {
            sqlcm.add_rule(ladder(i)).unwrap();
        }
    };
    let batch_mean_us = || {
        let from = sqlcm.rule_count();
        let batch: Vec<Rule> = (from..from + 250).map(ladder).collect();
        let planned = sqlcm.telemetry().dispatch.plan_rules_planned;
        let t = std::time::Instant::now();
        for rule in batch {
            sqlcm.add_rule(rule).unwrap();
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / 250.0;
        let appended = sqlcm.telemetry().dispatch.plan_rules_planned - planned;
        assert_eq!(appended, 250, "from {from} rules: each rule planned alone");
        us
    };
    let mean_at = |rules: usize| {
        grow_to(rules);
        (0..3).map(|_| batch_mean_us()).fold(f64::MAX, f64::min)
    };
    let small = mean_at(1_000);
    let large = mean_at(16_000);
    println!("add_rule: {small:.1} us at 1 000 rules, {large:.1} us at 16 000");
    assert!(
        large <= 2.0 * small,
        "{large:.1} us per add_rule at 16 000 rules, {small:.1} us at 1 000"
    );
    let guards = sqlcm.plan_summary();
    assert_eq!(guards.guard_residual_rules, 0);
}
