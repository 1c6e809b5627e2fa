//! Self-telemetry exporter: run a mixed workload under a handful of rules and
//! dump everything the monitor knows about itself — per-probe counts and
//! `on_event` latency, per-rule evaluation/fire/action counts with condition
//! and action latency, per-LAT occupancy, and the flight recorder of recent
//! firings.
//!
//! ```sh
//! cargo run --release --example telemetry_dump          # text report
//! cargo run --release --example telemetry_dump -- --json
//! ```

use sqlcm_repro::prelude::*;
use sqlcm_repro::workloads::{mixed, run_queries, tpch};

fn main() -> Result<()> {
    let json = std::env::args().any(|a| a == "--json");

    let engine = Engine::in_memory();
    let db = tpch::load(
        &engine,
        tpch::TpchConfig {
            orders: 1_000,
            parts: 200,
            customers: 100,
            seed: 42,
        },
    )?;
    engine.execute_batch("CREATE TABLE health_log (name TEXT, events INT, fires INT);")?;

    let sqlcm = Sqlcm::attach(&engine);
    sqlcm.define_topk_duration_lat("TopK", 10)?;
    sqlcm.define_lat(
        LatSpec::new("Templates")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")
            .order_by("N", true)
            .max_rows(100),
    )?;
    sqlcm.add_rule(
        Rule::new("track_topk")
            .on(RuleEvent::QueryCommit)
            .then(Action::insert("TopK")),
    )?;
    sqlcm.add_rule(
        Rule::new("track_templates")
            .on(RuleEvent::QueryCommit)
            .then(Action::insert("Templates")),
    )?;
    sqlcm.add_rule(
        Rule::new("slow_alert")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration > 0.5")
            .then(Action::send_mail("dba@example.org", "slow: {Query.ID}")),
    )?;
    // Two rules conditioned on the same LAT: the dispatch plan hoists the
    // shared lookup so one row snapshot per event serves both conditions.
    sqlcm.add_rule(
        Rule::new("hot_template")
            .on(RuleEvent::QueryCommit)
            .when("Templates.N >= 500 AND Templates.Avg_Duration > 0.2")
            .then(Action::send_mail("dba@example.org", "hot template")),
    )?;
    sqlcm.add_rule(
        Rule::new("busy_template")
            .on(RuleEvent::QueryCommit)
            .when("Templates.N >= 2000")
            .then(Action::send_mail("dba@example.org", "busy template")),
    )?;
    // Self-monitoring bridge: the monitor's own health flows back through the
    // rule pipeline as a synthetic Monitor object.
    sqlcm.add_rule(
        Rule::new("watch_self")
            .on(RuleEvent::MonitorTick)
            .when("Monitor.Events >= 0")
            .then(Action::persist_object(
                "health_log",
                "Monitor",
                &["Name", "Events", "Fires"],
            )),
    )?;

    // Sample a slice of events so the snapshot's tracing section is live
    // (see examples/trace_export.rs for the full causal-tracing tour).
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(64),
        ..sqlcm.config()
    });

    let workload = mixed::generate(
        &db,
        mixed::MixedConfig {
            point_selects: 3_000,
            join_selects: 10,
            seed: 4242,
        },
    );
    let stats = run_queries(&engine, &workload)?;
    sqlcm.poll_self_monitor();

    let snapshot = sqlcm.telemetry();
    if json {
        println!("{}", snapshot.to_json());
    } else {
        println!(
            "workload: {} queries in {:.2}s ({:.0} q/s)\n",
            workload.len(),
            stats.elapsed.as_secs_f64(),
            stats.qps()
        );
        print!("{}", snapshot.to_text());
        // The plan's shape, beside the counters the report already shows.
        let plan = sqlcm.plan_summary();
        println!(
            "\nplan summary: epoch {} with {} rule(s); guard index: {} indexed, {} residual",
            plan.epoch, plan.rule_count, plan.guard_indexed_rules, plan.guard_residual_rules,
        );
        for g in plan.shared_groups() {
            println!("  shared hoist on {}: {} <- {:?}", g.event, g.lat, g.rules);
        }
        let health = engine.query("SELECT name, events, fires FROM health_log")?;
        println!("\nself-monitoring rows (Monitor.Tick → health_log): {health:?}");
    }

    // Sanity for CI: attribution must partition the global counters.
    let probe_sum: u64 = snapshot.probes.iter().map(|p| p.events).sum();
    assert_eq!(probe_sum, snapshot.stats.events, "probe attribution leak");
    assert!(
        snapshot.rules.iter().any(|r| r.fires > 0),
        "workload fired no rules"
    );
    assert!(!snapshot.flight_records.is_empty(), "flight recorder empty");
    // The two Templates-conditioned rules share one hoisted lookup, so hits
    // accrue and the plan was republished once per registration.
    assert!(
        sqlcm.plan_summary().shared_groups().next().is_some(),
        "no shared hoist group"
    );
    assert!(
        snapshot.dispatch.hoisted_lookup_hits > 0,
        "hoisted lookups never shared"
    );
    assert!(snapshot.dispatch.plan_rebuilds >= 6, "plan not republished");
    assert!(snapshot.tracing.sampled > 0, "tracing section is empty");
    // The QueryCommit plan has one indexable rule (`slow_alert`'s range
    // guard), so every commit is probed and the matching slice is live.
    assert!(
        sqlcm.plan_summary().guard_indexed_rules >= 1,
        "no indexed rule"
    );
    assert!(
        snapshot.matching.guard_probes > 0,
        "guard index never probed"
    );
    assert!(
        snapshot.matching.residual_rules > 0,
        "LAT readers must be residual"
    );
    Ok(())
}
