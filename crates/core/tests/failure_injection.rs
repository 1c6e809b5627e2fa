//! Failure injection: the monitoring framework must degrade gracefully, never
//! take the workload down, and keep its counters truthful under abuse.

use sqlcm_common::{EngineEvent, ManualClock, QueryInfo, Value};
use sqlcm_core::objects::query_object;
use sqlcm_core::{
    Action, Lat, LatAggFunc, LatSpec, MailSink, MonitorConfig, Rule, RuleEvent, Sqlcm,
};
use sqlcm_engine::Engine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn qobj(sig: u64, secs: f64) -> sqlcm_core::Object {
    let mut q = QueryInfo::synthetic(sig, format!("q{sig}"));
    q.logical_signature = Some(sig);
    q.duration_micros = (secs * 1e6) as u64;
    query_object(&q)
}

#[test]
fn lat_with_max_rows_zero_keeps_the_latest_row() {
    // Degenerate bound: the implementation never evicts the row being inserted,
    // so the LAT floors at one row (documented behaviour).
    let (clock, _) = ManualClock::shared(0);
    let lat = Lat::new(
        LatSpec::new("Z")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(0),
        clock,
    )
    .unwrap();
    for sig in 0..5 {
        lat.insert(&qobj(sig, sig as f64)).unwrap();
    }
    assert_eq!(lat.row_count(), 1);
    assert_eq!(lat.stats().evictions, 4);
}

#[test]
fn rule_on_missing_attribute_is_rejected_at_registration() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    // Compiled conditions resolve attribute names at add_rule time.
    let err = sqlcm
        .add_rule(
            Rule::new("typo")
                .on(RuleEvent::QueryCommit)
                .when("Query.Durationn > 1"),
        )
        .unwrap_err();
    assert!(err.to_string().contains("no attribute"), "{err}");
    assert_eq!(sqlcm.rule_count(), 0);
}

#[test]
fn persist_schema_mismatch_is_swallowed_and_counted() {
    let engine = Engine::in_memory();
    engine
        .execute_batch(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT);\
             CREATE TABLE narrow (only_one INT);",
        )
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("bad_persist")
                .on(RuleEvent::QueryCommit)
                .then(Action::persist_object(
                    "narrow",
                    "Query",
                    &["ID", "Duration"], // two attrs into a one-column table
                )),
        )
        .unwrap();
    let mut s = engine.connect("u", "a");
    for i in 0..3 {
        s.execute_params("INSERT INTO t VALUES (?, 0)", &[Value::Int(i)])
            .unwrap();
    }
    assert_eq!(sqlcm.stats().action_errors, 3);
    assert!(sqlcm.last_error().unwrap().contains("expects 1 columns"));
    // The workload itself never noticed.
    assert_eq!(
        engine.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(3)
    );

    // The default breaker config is deliberately tolerant (a handful of
    // errors never trips); with an aggressive config, *persistent* schema
    // mismatches are a dead sink like any other and the rule gets quarantined
    // out of the plan.
    use sqlcm_core::{BreakerConfig, BreakerState, MonitorConfig};
    assert_eq!(
        sqlcm.breaker_state("bad_persist"),
        Some(BreakerState::Closed)
    );
    sqlcm.configure(MonitorConfig {
        breaker: BreakerConfig {
            error_threshold: 4,
            min_outcomes: 8,
            ..Default::default()
        },
        ..sqlcm.config()
    });
    let mut tripped_after = 0;
    for i in 3..40 {
        s.execute_params("INSERT INTO t VALUES (?, 0)", &[Value::Int(i)])
            .unwrap();
        if sqlcm.breaker_state("bad_persist") == Some(BreakerState::Open) {
            tripped_after = i + 1;
            break;
        }
    }
    assert_eq!(
        sqlcm.breaker_state("bad_persist"),
        Some(BreakerState::Open),
        "repeated persist mismatches must trip the breaker"
    );
    // The breaker window saw every QueryCommit: 3 seed inserts, the COUNT(*)
    // probe above, then the loop's inserts — it must not trip before
    // min_outcomes (8) total outcomes.
    assert_eq!(tripped_after, 7, "trip on exactly the 8th failing outcome");
    let t = sqlcm.telemetry().containment;
    assert_eq!(t.breaker_trips, 1);
    assert_eq!(t.quarantined, vec!["bad_persist".to_string()]);

    // Quarantined: the error counter stops moving, the workload runs on.
    let errors_at_trip = sqlcm.stats().action_errors;
    for i in 40..45 {
        s.execute_params("INSERT INTO t VALUES (?, 0)", &[Value::Int(i)])
            .unwrap();
    }
    assert_eq!(sqlcm.stats().action_errors, errors_at_trip);
    assert_eq!(
        engine.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(tripped_after + 5)
    );
}

#[test]
fn dropping_a_lat_under_live_rules_degrades_to_errors_not_panics() {
    let engine = Engine::in_memory();
    engine
        .execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Gone")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("uses_gone")
                .on(RuleEvent::QueryCommit)
                .when("Gone.N >= 0")
                .then(Action::insert("Gone")),
        )
        .unwrap();
    let mut s = engine.connect("u", "a");
    s.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    assert!(sqlcm.drop_lat("Gone"));
    // The condition can no longer bind a row of the dropped LAT: the rule is
    // skipped with a recorded diagnostic, and the workload is unaffected.
    s.execute("INSERT INTO t VALUES (2, 0)").unwrap();
    assert!(sqlcm.last_error().unwrap().contains("unknown LAT"));
    // But a *new* rule can no longer reference it.
    assert!(sqlcm
        .add_rule(Rule::new("late").when("Gone.N >= 0"))
        .is_err());
}

#[test]
fn reset_under_concurrent_inserts_is_safe() {
    let lat = Arc::new(
        Lat::new(
            LatSpec::new("R")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
            sqlcm_common::SystemClock::shared(),
        )
        .unwrap(),
    );
    std::thread::scope(|scope| {
        for t in 0..4 {
            let lat = lat.clone();
            scope.spawn(move || {
                for i in 0..20_000u64 {
                    lat.insert(&qobj((t * 7 + i) % 32, 1.0)).unwrap();
                }
            });
        }
        let lat = lat.clone();
        scope.spawn(move || {
            for _ in 0..50 {
                lat.reset();
                std::thread::yield_now();
            }
        });
    });
    // No panics, counters sane, and the table is readable.
    assert!(lat.stats().inserts == 80_000);
    assert!(lat.stats().resets == 50);
    let _ = lat.rows();
}

#[test]
fn cancel_action_on_finished_query_is_harmless() {
    let engine = Engine::in_memory();
    engine
        .execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    // QueryCommit fires after completion; Cancel() then targets a query that
    // already unregistered — must be a silent no-op.
    sqlcm
        .add_rule(
            Rule::new("too_late")
                .on(RuleEvent::QueryCommit)
                .then(Action::cancel("Query")),
        )
        .unwrap();
    let mut s = engine.connect("u", "a");
    for i in 0..5 {
        s.execute_params("INSERT INTO t VALUES (?, 0)", &[Value::Int(i)])
            .unwrap();
    }
    assert_eq!(sqlcm.stats().action_errors, 0);
    assert_eq!(
        engine.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
        Value::Int(5)
    );
}

#[test]
fn timer_storm_coalesces() {
    use std::time::Duration;
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("beat")
                .on(RuleEvent::TimerAlarm("storm".into()))
                .then(Action::send_mail("x", "tick")),
        )
        .unwrap();
    // 1 µs period, polled rarely: alarms must coalesce, not replay every
    // missed period.
    sqlcm.set_timer("storm", 1, -1);
    std::thread::sleep(Duration::from_millis(20));
    sqlcm.poll_timers();
    sqlcm.poll_timers();
    let n = sqlcm.outbox().len();
    assert!(n <= 3, "coalesced, got {n}");
}

/// A mail sink that panics on its first call and succeeds on every later one.
struct PanicsOnce {
    calls: AtomicU64,
}

impl MailSink for PanicsOnce {
    fn send(&self, _to: &str, _body: &str) -> sqlcm_common::Result<()> {
        if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
            panic!("mail sink panicked on its first call");
        }
        Ok(())
    }
}

/// A panic that unwinds out of one event's dispatch ends that event only:
/// the thread's next events are evaluated, not queued behind a dispatch
/// that will never drain them.
#[test]
fn a_panic_in_a_synchronous_action_does_not_stop_the_threads_later_events() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    let sink = Arc::new(PanicsOnce {
        calls: AtomicU64::new(0),
    });
    sqlcm.configure(MonitorConfig {
        mail_sink: sink.clone(),
        async_actions: false,
        ..sqlcm.config()
    });
    let mail = Rule::new("mail").on(RuleEvent::QueryCommit);
    sqlcm
        .add_rule(mail.then(Action::send_mail("dba", "{Query.ID} committed")))
        .unwrap();
    let commit = |id: u64| EngineEvent::QueryCommit(QueryInfo::synthetic(id, "SELECT 1"));
    let before = sqlcm.stats().evaluations;
    let first = catch_unwind(AssertUnwindSafe(|| sqlcm.inject_event(&commit(0))));
    assert!(first.is_err(), "the first event's action panics");
    for id in 1..200 {
        sqlcm.inject_event(&commit(id));
    }
    assert_eq!(sink.calls.load(Ordering::Relaxed), 200);
    assert_eq!(sqlcm.stats().evaluations - before, 199);
}
