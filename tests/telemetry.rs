//! Integration tests for the self-telemetry subsystem: per-rule attribution
//! under a multi-threaded workload, snapshot/stats consistency, and the
//! self-monitoring bridge driven through the public facade.

use sqlcm_repro::monitor::BreakerConfig;
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

/// Time every evaluation and every firing, as a breaker latency budget does,
/// with a budget no span exceeds: the tests of booking under concurrency then
/// count one span per evaluation and per firing on every stripe, whatever
/// each dispatcher's share.
fn time_every_span(sqlcm: &Sqlcm) {
    let config = sqlcm.config();
    sqlcm.configure(MonitorConfig {
        breaker: BreakerConfig {
            latency_budget_nanos: Some(u64::MAX),
            ..config.breaker
        },
        ..config
    });
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
    time_every_span(&sqlcm);

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

/// Clock-based collection keeps pace with the counters run after run: one
/// condition sample per 64 evaluations of the one dispatcher, the first
/// included, and one flight record per firing.
#[test]
fn clocked_metrics_keep_pace_with_the_counters() {
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
    run_queries(&engine, &queries).unwrap();
    run_queries(&engine, &queries).unwrap();
    let snap = sqlcm.telemetry();
    assert_eq!(snap.stats.events, 200);
    assert_eq!(snap.rules[0].condition.count, 200_u64.div_ceil(64));
    assert_eq!(snap.flight_total, 200);
}

fn rule_named<'a>(
    snap: &'a TelemetrySnapshot,
    name: &str,
) -> &'a sqlcm_repro::monitor::telemetry::RuleTelemetry {
    snap.rules.iter().find(|r| r.name == name).unwrap()
}

/// Rule spans lie inside `on_event`'s: every timed condition and action span
/// is taken between `on_event`'s entry and exit stamps, drained events
/// included. The counts are exact on one dispatcher: a rule times its
/// evaluations that ran and its firings at indexes 0, 64, 128, …, so it
/// records `(evaluations − pruned).div_ceil(64)` condition samples and
/// `fires.div_ceil(64)` action samples, and there is one flight record per
/// firing.
#[test]
fn rule_spans_partition_on_event() {
    let engine = Engine::in_memory();
    let db = small_db(&engine);
    let sqlcm = Sqlcm::attach(&engine);
    // One group per query in a 4-row LAT: every query past the fourth evicts,
    // and the eviction is an event of its own, drained inside `on_event`.
    sqlcm
        .define_lat(
            LatSpec::new("Last4")
                .group_by("Query.ID", "ID")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .order_by("ID", true)
                .max_rows(4),
        )
        .unwrap();
    let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
    let rules = [
        on_commit("track").then(Action::insert("Last4")),
        // Decided by the guard index: counted, never run, never timed.
        on_commit("pruned").when("Query.Duration > 3600"),
        // Runs and reads the LAT row `track` just wrote; never fires. `+ 0`
        // keeps it residual, so no LAT guard prunes it.
        on_commit("watch").when("Query.Duration >= 0 AND Last4.D + 0 > 3600"),
        // §5.2: `Table` is not in a commit's payload, so the rule evaluates
        // once per live table.
        on_commit("per_table")
            .when("Table.Row_Count >= 0")
            .then(Action::send_mail("dba", "{Table.Name}")),
        Rule::new("spill")
            .on(RuleEvent::LatEviction("Last4".into()))
            .then(Action::send_mail("dba", "evicted")),
    ];
    for rule in rules {
        sqlcm.add_rule(rule).unwrap();
    }
    let events = 50;
    run_queries(&engine, &mixed::point_select_workload(&db, events, 3)).unwrap();

    let snap = sqlcm.telemetry();
    let events = u64::from(events);
    assert_eq!(snap.stats.events, events);
    assert_eq!(snap.stats.action_errors, 0);
    let tables = engine.catalog().tables().len() as u64;
    assert!(tables > 1);
    for (rule, evaluations, pruned, fires) in [
        ("track", events, 0, events),
        ("pruned", events, events, 0),
        ("watch", events, 0, 0),
        ("per_table", events * tables, 0, events * tables),
        ("spill", events - 4, 0, events - 4),
    ] {
        let r = rule_named(&snap, rule);
        assert_eq!(
            (r.evaluations, r.pruned, r.fires),
            (evaluations, pruned, fires),
            "{rule}"
        );
        assert_eq!(
            r.condition.count,
            (r.evaluations - r.pruned).div_ceil(64),
            "{rule}"
        );
        assert_eq!(r.action.count, r.fires.div_ceil(64), "{rule}");
    }
    assert_eq!(snap.flight_total, snap.stats.fires);

    let commit = snap
        .probes
        .iter()
        .find(|p| p.kind == "Query.Commit")
        .unwrap();
    assert_eq!(commit.on_event.count, events);
    let rule_spans: u64 = snap
        .rules
        .iter()
        .map(|r| r.condition.sum + r.action.sum)
        .sum();
    assert!(
        commit.on_event.sum >= rule_spans,
        "on_event {} ns < rule spans {rule_spans} ns",
        commit.on_event.sum
    );
}

/// The two-thread case of `telemetry_snapshot_is_consistent_with_stats`: each
/// thread tallies its events locally and adds them to the shared counters
/// once per event, and after both joined the per-rule and global totals still
/// partition exactly.
#[test]
fn flushed_tallies_partition_after_two_threads_join() {
    let engine = Engine::in_memory();
    let db = small_db(&engine);
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("ByType")
                .group_by("Query.Query_Type", "QType")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
    let rules = [
        on_commit("track").then(Action::insert("ByType")),
        // `+ 0` keeps the watchers residual: their conditions run.
        on_commit("watch").when("Query.Duration >= 0 AND ByType.N + 0 >= 1000000000"),
        on_commit("watch_too").when("Query.Duration >= 0 AND ByType.N + 0 >= 1000000001"),
    ];
    for rule in rules {
        sqlcm.add_rule(rule).unwrap();
    }
    time_every_span(&sqlcm);
    const PER_THREAD: u32 = 500;
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for t in 0..2 {
            let (engine, db, start) = (&engine, &db, &start);
            scope.spawn(move || {
                let queries = mixed::point_select_workload(db, PER_THREAD, 40 + t);
                start.wait();
                run_queries(engine, &queries).unwrap();
            });
        }
    });

    let events = 2 * u64::from(PER_THREAD);
    let stats = sqlcm.stats();
    let snap = sqlcm.telemetry();
    assert_eq!(snap.stats, stats);
    assert_eq!(stats.events, events);
    assert_eq!(snap.probes.iter().map(|p| p.events).sum::<u64>(), events);
    let sum = |f: fn(&sqlcm_repro::monitor::telemetry::RuleTelemetry) -> u64| {
        snap.rules.iter().map(f).sum::<u64>()
    };
    assert_eq!(sum(|r| r.evaluations), stats.evaluations);
    assert_eq!(stats.evaluations, 3 * events);
    assert_eq!(sum(|r| r.fires), stats.fires);
    assert_eq!(stats.fires, events);
    assert_eq!(sum(|r| r.actions), stats.actions);
    assert_eq!(sum(|r| r.action_errors), stats.action_errors);
    for r in &snap.rules {
        assert_eq!(r.condition.count, r.evaluations - r.pruned, "{}", r.name);
        assert_eq!(r.action.count, r.fires, "{}", r.name);
    }
    assert_eq!(snap.flight_total, stats.fires);
    let by_type = snap.lats.iter().find(|l| l.name == "ByType").unwrap();
    assert_eq!(by_type.inserts, stats.fires);
    // Every watcher evaluation looked the row up exactly once: the first
    // fetched it, the second found it in the event's hoist slot.
    assert_eq!(snap.dispatch.lat_row_fetches, events);
    assert_eq!(snap.dispatch.hoisted_lookup_hits, events);
    assert!(snap.dispatch.vm_instructions >= 2 * events);
}

/// Two dispatchers released together book every evaluation in their own
/// stripes of each rule's books: per rule, the striped counts, both span
/// histograms (every span timed, as under a latency budget) and the
/// breaker's outcome count sum to exactly the events the two threads sent.
#[test]
fn two_dispatchers_book_every_evaluation_exactly() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Sigs")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
    sqlcm
        .add_rule(on_commit("feed").then(Action::insert("Sigs")))
        .unwrap();
    // `+ 0` keeps the watchers residual: their conditions run.
    for i in 0..3 {
        let never = format!(
            "Query.Duration >= 0 AND Sigs.N + 0 >= {}",
            1_000_000_000 + i
        );
        sqlcm
            .add_rule(on_commit(&format!("watch{i}")).when(&never))
            .unwrap();
    }
    time_every_span(&sqlcm);
    const PER_THREAD: u64 = 2_000;
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for t in 0..2 {
            let (sqlcm, start) = (&sqlcm, &start);
            scope.spawn(move || {
                let events: Vec<_> = (0..PER_THREAD)
                    .map(|i| {
                        let id = t * PER_THREAD + i;
                        let mut q = sqlcm_repro::common::QueryInfo::synthetic(id, "SELECT 1");
                        q.logical_signature = Some(id % 8);
                        sqlcm_repro::common::EngineEvent::QueryCommit(q)
                    })
                    .collect();
                start.wait();
                for e in &events {
                    sqlcm.inject_event(e);
                }
            });
        }
    });

    let sent = 2 * PER_THREAD;
    let snap = sqlcm.telemetry();
    assert_eq!(snap.stats.events, sent);
    for r in &snap.rules {
        let fired = if r.name == "feed" { sent } else { 0 };
        let breaker_outcomes = sqlcm.rule(&r.name).unwrap().stats().breaker_outcomes;
        assert_eq!(
            (r.evaluations, r.pruned, r.condition.count, breaker_outcomes),
            (sent, 0, sent, sent),
            "{}",
            r.name
        );
        assert_eq!(
            (r.fires, r.actions, r.action.count),
            (fired, fired, fired),
            "{}",
            r.name
        );
    }
    assert_eq!(snap.stats.evaluations, 4 * sent);
}

/// A condition error is booked on its rule only: `stats.action_errors`
/// counts failed actions, so it is not the per-rule sum.
#[test]
fn condition_errors_count_on_the_rule_only() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("div_zero")
                .on(RuleEvent::QueryCommit)
                .when("Query.ID / 0 > 1"),
        )
        .unwrap();
    let n = 10;
    for id in 1..=n {
        let q = sqlcm_repro::common::QueryInfo::synthetic(id, "SELECT 1");
        sqlcm.inject_event(&sqlcm_repro::common::EngineEvent::QueryCommit(q));
    }
    let snap = sqlcm.telemetry();
    assert_eq!(
        (
            rule_named(&snap, "div_zero").action_errors,
            snap.stats.action_errors
        ),
        (n, 0)
    );
}

/// A command sink that reads the monitor's global counters from inside the
/// action that runs it.
struct StatsReader {
    target: std::sync::OnceLock<std::sync::Arc<Sqlcm>>,
    seen: std::sync::Mutex<Vec<sqlcm_repro::monitor::SqlcmStats>>,
}

impl sqlcm_repro::monitor::CommandSink for StatsReader {
    fn run(&self, _command: &str) -> sqlcm_repro::common::Result<()> {
        if let Some(sqlcm) = self.target.get() {
            self.seen.lock().unwrap().push(sqlcm.stats());
        }
        Ok(())
    }
}

/// The global evaluation/fire/action counters are added to once per event,
/// after its last rule ran: an action that reads `stats()` (or a `Monitor.*`
/// attribute) mid-event sees them as of the previous event, not including the
/// evaluation it is part of. `events` is counted on entry, and a rule's own
/// counters are written as it runs.
#[test]
fn stats_read_from_inside_an_action_are_as_of_the_previous_event() {
    let engine = Engine::in_memory();
    let sqlcm = std::sync::Arc::new(Sqlcm::attach(&engine));
    let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
    sqlcm
        .add_rule(on_commit("first").then(Action::send_mail("dba", "hi")))
        .unwrap();
    sqlcm
        .add_rule(on_commit("reader").then(Action::run_external("read stats")))
        .unwrap();
    let sink = std::sync::Arc::new(StatsReader {
        target: std::sync::OnceLock::new(),
        seen: std::sync::Mutex::new(Vec::new()),
    });
    assert!(sink.target.set(sqlcm.clone()).is_ok());
    sqlcm.configure(MonitorConfig {
        command_sink: sink.clone(),
        ..sqlcm.config()
    });

    for id in 1..=3 {
        let q = sqlcm_repro::common::QueryInfo::synthetic(id, "SELECT 1");
        sqlcm.inject_event(&sqlcm_repro::common::EngineEvent::QueryCommit(q));
    }
    let seen = sink.seen.lock().unwrap();
    for (before, stats) in seen.iter().enumerate() {
        let before = before as u64;
        assert_eq!(stats.events, before + 1, "counted on entry");
        assert_eq!(
            (stats.evaluations, stats.fires, stats.actions),
            (2 * before, 2 * before, 2 * before),
            "totals of the {before} events before this one"
        );
    }
    assert_eq!(seen.len(), 3);
    // The rule's own counters were current all along, and the event's
    // tallies are in the totals once it is over.
    assert_eq!(sqlcm.rule("first").unwrap().stats().fires, 3);
    let stats = sqlcm.stats();
    assert_eq!((stats.evaluations, stats.fires, stats.actions), (6, 6, 6));
    // Break the sink → monitor → sink cycle.
    sqlcm.configure(MonitorConfig {
        command_sink: std::sync::Arc::new(sqlcm_repro::monitor::RecordingCommandSink::default()),
        ..sqlcm.config()
    });
}

/// A query commit by `user`, for the span-schedule tests.
fn commit_by(id: u64, user: &str) -> sqlcm_repro::common::EngineEvent {
    let mut q = sqlcm_repro::common::QueryInfo::synthetic(id, "SELECT 1");
    q.user = user.into();
    sqlcm_repro::common::EngineEvent::QueryCommit(q)
}

/// A rule times its evaluations 0, 64, 128, … and its firings 0, 64, … on
/// the dispatcher's stripe, and no others: after every event the span
/// counts are exactly `ran.div_ceil(64)` and `fires.div_ceil(64)`, so a
/// sample is added exactly when the index is a multiple of 64. `LIKE` keeps
/// `some` residual, so it runs on every event and fires on one in three.
#[test]
fn a_rule_times_evaluations_and_firings_0_64_128() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
    sqlcm
        .add_rule(on_commit("all").then(Action::send_mail("dba", "all")))
        .unwrap();
    sqlcm
        .add_rule(
            on_commit("some")
                .when("Query.User LIKE 'a%'")
                .then(Action::send_mail("dba", "some")),
        )
        .unwrap();
    let mut some_fires = 0u64;
    for id in 0..400u64 {
        let user = if id % 3 == 0 { "ann" } else { "bob" };
        some_fires += u64::from(user == "ann");
        sqlcm.inject_event(&commit_by(id, user));
        let snap = sqlcm.telemetry();
        let (all, some) = (rule_named(&snap, "all"), rule_named(&snap, "some"));
        let ran = id + 1;
        assert_eq!((all.evaluations, all.pruned, all.fires), (ran, 0, ran));
        assert_eq!((some.evaluations, some.pruned), (ran, 0));
        assert_eq!(some.fires, some_fires);
        assert_eq!(all.condition.count, ran.div_ceil(64), "after {ran}");
        assert_eq!(all.action.count, ran.div_ceil(64), "after {ran}");
        assert_eq!(some.condition.count, ran.div_ceil(64), "after {ran}");
        assert_eq!(some.action.count, some_fires.div_ceil(64), "after {ran}");
    }
    assert_eq!(sqlcm.telemetry().flight_total, 400 + some_fires);
}

/// The schedule is the rule's own, so a rule on a rare event class is not
/// starved by the events around it: a `Login` rule behind 63 commits per
/// login is timed on its first evaluation and firing, where one schedule per
/// event (every 64th) would never land on a login.
#[test]
fn a_rare_rule_is_timed_on_its_first_evaluation() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("commits")
                .on(RuleEvent::QueryCommit)
                .when("Query.User LIKE 'a%'"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("logins")
                .on(RuleEvent::Login)
                .then(Action::send_mail("dba", "login")),
        )
        .unwrap();
    let login = sqlcm_repro::common::EngineEvent::Login(sqlcm_repro::common::SessionInfo {
        session_id: 1,
        user: "ann".into(),
        application: "app".into(),
        success: true,
    });
    for round in 1..=3u64 {
        for id in 0..63 {
            sqlcm.inject_event(&commit_by(id, "ann"));
        }
        sqlcm.inject_event(&login);
        let snap = sqlcm.telemetry();
        assert_eq!(snap.stats.events, 64 * round);
        let logins = rule_named(&snap, "logins");
        assert_eq!((logins.evaluations, logins.fires), (round, round));
        assert_eq!((logins.condition.count, logins.action.count), (1, 1));
        let commits = rule_named(&snap, "commits");
        assert_eq!(commits.condition.count, (63 * round).div_ceil(64));
    }
}

/// A command sink slower than any latency budget below.
struct SlowSink;

impl sqlcm_repro::monitor::CommandSink for SlowSink {
    fn run(&self, _command: &str) -> sqlcm_repro::common::Result<()> {
        std::thread::sleep(std::time::Duration::from_millis(2));
        Ok(())
    }
}

/// With a breaker latency budget set, every evaluation and every firing is
/// timed — the slow check judges each one — and a rule whose firings exceed
/// the budget still trips its breaker.
#[test]
fn a_latency_budget_times_every_span_and_trips_a_slow_rule() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
    sqlcm
        .add_rule(on_commit("slow").then(Action::run_external("sleep")))
        .unwrap();
    sqlcm
        .add_rule(on_commit("watch").when("Query.User LIKE 'a%'"))
        .unwrap();
    sqlcm.configure(MonitorConfig {
        breaker: BreakerConfig {
            latency_budget_nanos: Some(1_000_000),
            slow_threshold: 4,
            min_outcomes: 8,
            ..Default::default()
        },
        command_sink: std::sync::Arc::new(SlowSink),
        ..sqlcm.config()
    });
    let events = 100;
    for id in 0..events {
        sqlcm.inject_event(&commit_by(id, "bob"));
    }
    let snap = sqlcm.telemetry();
    let (slow, watch) = (rule_named(&snap, "slow"), rule_named(&snap, "watch"));
    assert_eq!(snap.containment.quarantined, vec!["slow".to_string()]);
    assert_eq!(snap.containment.breaker_trips, 1);
    assert_eq!(
        (slow.evaluations, slow.fires),
        (8, 8),
        "tripped at min_outcomes"
    );
    assert_eq!((slow.condition.count, slow.action.count), (8, 8));
    assert!(slow.action.sum >= 8 * 2_000_000, "{:?}", slow.action);
    assert_eq!((watch.evaluations, watch.pruned), (events, 0));
    assert_eq!(watch.condition.count, events, "every evaluation timed");
}

/// A flight record carries the firing's timed span: 0 when the firing was not
/// timed, more than 0 when it was (the firings at 0, 64, … of the rule).
#[test]
fn a_flight_record_is_timed_only_on_a_timed_firing() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("every")
                .on(RuleEvent::QueryCommit)
                .then(Action::send_mail("dba", "hi")),
        )
        .unwrap();
    let events = 130u64;
    for id in 0..events {
        sqlcm.inject_event(&commit_by(id, "ann"));
    }
    let snap = sqlcm.telemetry();
    assert_eq!(snap.flight_total, events);
    assert_eq!(snap.flight_records.len() as u64, events);
    for (i, record) in snap.flight_records.iter().enumerate() {
        assert!(record.fired);
        assert_eq!(
            record.duration_nanos > 0,
            i % 64 == 0,
            "firing {i}: {record:?}"
        );
    }
}

/// A rule whose condition LAT was dropped after registration is broken: each
/// evaluation is counted and errors. It is timed on the same schedule as any
/// other, so its condition count keeps `(evaluations − pruned).div_ceil(64)`
/// and its time is not charged to the rule after it.
#[test]
fn a_broken_rule_times_its_evaluations_on_the_schedule() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Gone")
                .group_by("Query.User", "User")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
    sqlcm
        .add_rule(on_commit("reads_gone").when("Query.ID >= 0 AND Gone.N >= 0"))
        .unwrap();
    sqlcm
        .add_rule(on_commit("after").when("Query.User LIKE 'a%'"))
        .unwrap();
    assert!(sqlcm.drop_lat("Gone"));
    let events = 130u64;
    for id in 0..events {
        sqlcm.inject_event(&commit_by(id, "bob"));
    }
    let snap = sqlcm.telemetry();
    for name in ["reads_gone", "after"] {
        let r = rule_named(&snap, name);
        assert_eq!((r.evaluations, r.pruned, r.fires), (events, 0, 0), "{name}");
        assert_eq!(r.condition.count, events.div_ceil(64), "{name}");
        assert_eq!(r.action.count, 0, "{name}");
    }
    let broken = rule_named(&snap, "reads_gone");
    let error = broken.last_error.as_ref().expect("a broken rule errors");
    assert_eq!(error.count, events);
    assert!(error.message.contains("unknown LAT"), "{}", error.message);
}
