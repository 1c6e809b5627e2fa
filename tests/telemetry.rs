//! Integration tests for the self-telemetry subsystem: per-rule attribution
//! under a multi-threaded workload, snapshot/stats consistency, and the
//! self-monitoring bridge driven through the public facade.

use sqlcm_repro::prelude::*;
use sqlcm_repro::workloads::{mixed, run_queries, tpch};

fn small_db(engine: &Engine) -> sqlcm_repro::workloads::TpchDb {
    tpch::load(
        engine,
        tpch::TpchConfig {
            orders: 200,
            parts: 40,
            customers: 20,
            seed: 7,
        },
    )
    .unwrap()
}

/// Sharded counters and per-rule atomics must attribute exactly under
/// concurrency: with several sessions hammering point selects from different
/// threads, the per-probe and per-rule breakdowns still partition the global
/// `SqlcmStats` with no drops or double counts.
#[test]
fn per_rule_attribution_is_exact_under_concurrency() {
    let engine = Engine::in_memory();
    let db = small_db(&engine);
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm.define_topk_duration_lat("TopK", 16).unwrap();
    sqlcm
        .add_rule(
            Rule::new("track")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("TopK")),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("never_fires")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 3600")
                .then(Action::send_mail("dba", "impossible")),
        )
        .unwrap();

    const THREADS: u64 = 4;
    const PER_THREAD: u32 = 400;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = &engine;
            let db = &db;
            scope.spawn(move || {
                let queries = mixed::point_select_workload(db, PER_THREAD, 100 + t);
                run_queries(engine, &queries).unwrap();
            });
        }
    });

    let total = THREADS * PER_THREAD as u64;
    let stats = sqlcm.stats();
    let snap = sqlcm.telemetry();
    assert_eq!(snap.stats, stats, "snapshot taken at quiescence");
    // Only Query.Commit is in the probe-interest mask (two commit rules), so
    // the monitor saw exactly one event per workload query.
    assert_eq!(stats.events, total);
    assert_eq!(
        snap.probes.iter().map(|p| p.events).sum::<u64>(),
        stats.events,
        "per-probe counts partition the event count"
    );
    let commit = snap
        .probes
        .iter()
        .find(|p| p.kind == "Query.Commit")
        .unwrap();
    assert_eq!(commit.events, total);

    // Per-rule: every rule evaluated once per commit; only `track` fired.
    let track = snap.rules.iter().find(|r| r.name == "track").unwrap();
    let never = snap.rules.iter().find(|r| r.name == "never_fires").unwrap();
    assert_eq!(track.evaluations, total);
    assert_eq!(never.evaluations, total);
    assert_eq!(track.fires, total);
    assert_eq!(never.fires, 0);
    assert_eq!(track.actions, total);
    assert_eq!(
        track.evaluations + never.evaluations,
        stats.evaluations,
        "per-rule evaluations partition the global count"
    );
    assert_eq!(track.fires + never.fires, stats.fires);
    // Latency attribution kept pace with the counters.
    assert_eq!(track.condition.count, track.evaluations);
    assert_eq!(track.action.count, track.fires);
    assert_eq!(never.action.count, 0);
    // LAT attribution: one insert per firing.
    let topk = snap.lats.iter().find(|l| l.name == "TopK").unwrap();
    assert_eq!(topk.inserts, total);
    assert!(topk.rows <= 16 && topk.row_high_water >= topk.rows);
    // Victims come off the index: a row is re-ranked only after a fold moved
    // its MAX, never once per held row per eviction.
    assert!(topk.victims_examined <= topk.inserts, "{topk:?}");
    let exported = format!("victims_examined={}", topk.victims_examined);
    assert!(snap.to_text().contains(&exported));
    assert!(snap
        .to_json()
        .contains(&exported.replace("victims_examined=", "\"victims_examined\":")));
    // Flight recorder saw every firing, kept only the last window.
    assert_eq!(snap.flight_total, total);
    assert_eq!(snap.flight_records.len(), 256);
    assert!(snap.flight_records.iter().all(|r| r.rule == "track"));
}

/// The self-monitoring bridge through the facade: telemetry snapshots feed a
/// LAT via a `Monitor.Tick` rule, so the monitor's health history aggregates
/// in its own machinery.
#[test]
fn monitor_health_aggregates_into_a_lat() {
    let engine = Engine::in_memory();
    let db = small_db(&engine);
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Health")
                .group_by("Monitor.Name", "Who")
                .aggregate(LatAggFunc::Count, "", "Ticks")
                .aggregate(LatAggFunc::Last, "Monitor.Events", "Events")
                .aggregate(LatAggFunc::Max, "Monitor.Eval_P99", "Worst_Eval_P99"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("observe")
                .on(RuleEvent::QueryCommit)
                .then(Action::send_mail("dba", "c")),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("self_health")
                .on(RuleEvent::MonitorTick)
                .then(Action::insert("Health")),
        )
        .unwrap();

    let queries = mixed::point_select_workload(&db, 50, 3);
    run_queries(&engine, &queries).unwrap();
    sqlcm.poll_self_monitor();
    run_queries(&engine, &queries).unwrap();
    sqlcm.poll_self_monitor();

    let lat = sqlcm.lat("Health").unwrap();
    let rows = lat.rows();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::text("sqlcm"));
    assert_eq!(rows[0][1], Value::Int(2), "two ticks aggregated");
    assert_eq!(rows[0][2], Value::Int(100), "Last(Events) is current");
    // The tick evaluations themselves show up in the snapshot.
    let snap = sqlcm.telemetry();
    let me = snap.rules.iter().find(|r| r.name == "self_health").unwrap();
    assert_eq!(me.event, "Monitor.Tick");
    assert_eq!(me.fires, 2);
}

/// Disabling telemetry mid-run stops clock-based collection but never breaks
/// counter consistency; re-enabling resumes cleanly.
#[test]
fn telemetry_toggle_keeps_counters_consistent() {
    let engine = Engine::in_memory();
    let db = small_db(&engine);
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm.define_topk_duration_lat("TopK", 8).unwrap();
    sqlcm
        .add_rule(
            Rule::new("track")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("TopK")),
        )
        .unwrap();

    let queries = mixed::point_select_workload(&db, 100, 11);
    sqlcm.set_telemetry_enabled(false);
    run_queries(&engine, &queries).unwrap();
    let off = sqlcm.telemetry();
    assert_eq!(off.probes.iter().map(|p| p.events).sum::<u64>(), 100);
    assert_eq!(off.rules[0].fires, 100);
    assert!(off.rules[0].condition.is_empty(), "no clocks while off");
    assert_eq!(off.flight_total, 0);

    sqlcm.set_telemetry_enabled(true);
    run_queries(&engine, &queries).unwrap();
    let on = sqlcm.telemetry();
    assert_eq!(on.stats.events, 200);
    assert_eq!(on.rules[0].condition.count, 100, "collection resumed");
    assert_eq!(on.flight_total, 100);
}
