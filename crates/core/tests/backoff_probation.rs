//! Retry-backoff and breaker-probation timing, pinned on a manual clock —
//! no sleeps, every deadline checked one microsecond either side.
//!
//! * The deferred executor's retry schedule is exactly `base · 2^(n−1)`
//!   (capped) with jitter off, and stays inside `± jitter` bounds with it on.
//! * An open breaker re-admits nothing until `cooldown_micros` has elapsed,
//!   then becomes half-open; a failed trial re-opens it and **restarts** the
//!   cooldown from the failure instant.

use sqlcm_common::{EngineEvent, ManualClock, QueryInfo};
use sqlcm_core::{
    Action, BreakerConfig, BreakerState, MonitorConfig, RetryPolicy, Rule, RuleEvent, Sqlcm,
};
use sqlcm_engine::engine::EngineConfig;
use sqlcm_engine::Engine;

mod faulty_sink;
use faulty_sink::{FaultRate, FaultySink, Kind};

fn manual_setup() -> (Engine, Sqlcm, std::sync::Arc<ManualClock>) {
    let (clock, handle) = ManualClock::shared(0);
    let engine = Engine::new(EngineConfig {
        clock: Some(clock),
        ..Default::default()
    });
    let sqlcm = Sqlcm::attach(&engine);
    (engine, sqlcm, handle)
}

fn commit_event() -> EngineEvent {
    let mut q = QueryInfo::synthetic(1, "q");
    q.logical_signature = Some(1);
    q.duration_micros = 10_000;
    EngineEvent::QueryCommit(q)
}

#[test]
fn retry_schedule_is_exactly_base_times_two_to_the_n() {
    let (_engine, sqlcm, handle) = manual_setup();
    sqlcm.configure(MonitorConfig {
        async_actions: true,
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff_micros: 100_000,
            max_backoff_micros: 10_000_000,
            jitter: 0.0,
        },
        ..sqlcm.config()
    });
    let sink = FaultySink::seeded(1)
        .mail(FaultRate::Always)
        .install(&sqlcm);
    sqlcm
        .add_rule(
            Rule::new("mailer")
                .on(RuleEvent::QueryCommit)
                .then(Action::send_mail("dba", "x")),
        )
        .unwrap();

    sqlcm.inject_event(&commit_event());
    assert_eq!(sqlcm.deferred_queue_depth(), 1);
    // The pump reports *successful* executions; against an always-failing
    // sink it reports 0, so the sink's own attempt counter is the probe.
    let attempts = || sink.attempts(Kind::Mail);

    // Attempt 1 is due immediately on enqueue.
    sqlcm.pump_deferred_actions();
    assert_eq!(attempts(), 1);
    // Not due again at the same instant.
    sqlcm.pump_deferred_actions();
    assert_eq!(attempts(), 1);

    // Attempt n+1 comes due exactly base·2^(n−1) after attempt n fails.
    for (n, backoff) in [(2u64, 100_000u64), (3, 200_000), (4, 400_000)] {
        handle.advance(backoff - 1);
        sqlcm.pump_deferred_actions();
        assert_eq!(attempts(), n - 1, "attempt {n} ran early");
        handle.advance(1);
        sqlcm.pump_deferred_actions();
        assert_eq!(attempts(), n, "attempt {n} not due");
    }

    // Attempt 4 was the last: the action is exhausted, not rescheduled.
    let d = sqlcm.telemetry().containment.deferred;
    assert_eq!(d.failed_attempts, 4);
    assert_eq!(d.retries, 3);
    assert_eq!(d.dropped_exhausted, 1);
    assert_eq!(d.queue_depth, 0);
    assert_eq!(sqlcm.loss_ledger()[0].reason, "retries-exhausted");
    handle.advance(100_000_000);
    sqlcm.pump_deferred_actions();
    assert_eq!(attempts(), 4, "exhausted action came back");
}

#[test]
fn jittered_retry_stays_inside_the_jitter_band() {
    let (_engine, sqlcm, handle) = manual_setup();
    sqlcm.configure(MonitorConfig {
        async_actions: true,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 100_000,
            max_backoff_micros: 10_000_000,
            jitter: 0.2,
        },
        ..sqlcm.config()
    });
    let sink = FaultySink::seeded(2)
        .mail(FaultRate::Always)
        .install(&sqlcm);
    sqlcm
        .add_rule(
            Rule::new("mailer")
                .on(RuleEvent::QueryCommit)
                .then(Action::send_mail("dba", "x")),
        )
        .unwrap();
    sqlcm.inject_event(&commit_event());
    sqlcm.pump_deferred_actions();
    assert_eq!(sink.attempts(Kind::Mail), 1);

    // The retry must not be due before base·(1−jitter) …
    handle.advance(80_000 - 1);
    sqlcm.pump_deferred_actions();
    assert_eq!(sink.attempts(Kind::Mail), 1, "retry ran before −20%");
    // … and must be due by base·(1+jitter).
    handle.advance(40_001);
    sqlcm.pump_deferred_actions();
    assert_eq!(sink.attempts(Kind::Mail), 2, "retry overdue past +20%");
}

#[test]
fn cooldown_gates_probation_and_restarts_on_trial_failure() {
    let (_engine, sqlcm, handle) = manual_setup();
    const COOLDOWN: u64 = 1_000_000;
    sqlcm.configure(MonitorConfig {
        breaker: BreakerConfig {
            error_threshold: 2,
            min_outcomes: 4,
            cooldown_micros: COOLDOWN,
            ..Default::default()
        },
        ..sqlcm.config()
    });
    // Synchronous actions against a dead command sink: every firing records
    // an error outcome into the breaker window.
    let sink = FaultySink::seeded(3)
        .command(FaultRate::Always)
        .install(&sqlcm);
    sqlcm
        .add_rule(
            Rule::new("hook")
                .on(RuleEvent::QueryCommit)
                .then(Action::run_external("doomed")),
        )
        .unwrap();

    let ev = commit_event();
    for _ in 0..4 {
        sqlcm.inject_event(&ev);
    }
    assert_eq!(sqlcm.breaker_state("hook"), Some(BreakerState::Open));
    // Quarantined: further events do not evaluate the rule.
    let evals = sqlcm.rule("hook").unwrap().stats().evaluations;
    sqlcm.inject_event(&ev);
    assert_eq!(sqlcm.rule("hook").unwrap().stats().evaluations, evals);

    // One microsecond short of the cooldown: still quarantined.
    handle.advance(COOLDOWN - 1);
    assert_eq!(sqlcm.poll_breakers(), 0);
    assert_eq!(sqlcm.breaker_state("hook"), Some(BreakerState::Open));
    // On the boundary: half-open, back in the plan on probation.
    handle.advance(1);
    assert_eq!(sqlcm.poll_breakers(), 1);
    assert_eq!(sqlcm.breaker_state("hook"), Some(BreakerState::HalfOpen));

    // The trial fires, the sink is still dead: re-opened, and the cooldown
    // restarts *from the failed trial*, not from the original trip.
    sqlcm.inject_event(&ev);
    assert_eq!(sqlcm.breaker_state("hook"), Some(BreakerState::Open));
    assert_eq!(sqlcm.poll_breakers(), 0, "cooldown must restart on failure");
    handle.advance(COOLDOWN - 1);
    assert_eq!(sqlcm.poll_breakers(), 0);
    handle.advance(1);
    assert_eq!(sqlcm.poll_breakers(), 1);
    assert_eq!(sqlcm.breaker_state("hook"), Some(BreakerState::HalfOpen));

    // Heal the sink: the next trial succeeds and the breaker closes for good.
    sink.set_healed(true);
    sqlcm.inject_event(&ev);
    assert_eq!(sqlcm.breaker_state("hook"), Some(BreakerState::Closed));
    let t = sqlcm.telemetry().containment;
    assert_eq!(t.breaker_trips, 2);
    assert_eq!(t.breaker_reopens, 2);
    assert_eq!(t.breaker_closes, 1);
    assert!(t.quarantined.is_empty());
    // And normal service resumes.
    let evals = sqlcm.rule("hook").unwrap().stats().evaluations;
    sqlcm.inject_event(&ev);
    assert_eq!(sqlcm.rule("hook").unwrap().stats().evaluations, evals + 1);
}

/// A half-open breaker's trial is the next evaluation that *runs*. Events the
/// guard index prunes for the rule are not evaluations of its action, so
/// they must neither take the trial slot nor report a success: ten foreign
/// events leave the breaker half-open, and the first matching event is the
/// trial — which, the sink being still dead, re-opens it.
#[test]
fn pruned_evaluations_do_not_consume_the_half_open_trial() {
    let (_engine, sqlcm, handle) = manual_setup();
    const COOLDOWN: u64 = 1_000_000;
    sqlcm.configure(MonitorConfig {
        breaker: BreakerConfig {
            error_threshold: 2,
            min_outcomes: 4,
            cooldown_micros: COOLDOWN,
            ..Default::default()
        },
        ..sqlcm.config()
    });
    FaultySink::seeded(4)
        .command(FaultRate::Always)
        .install(&sqlcm);
    sqlcm
        .add_rule(
            Rule::new("hook")
                .on(RuleEvent::QueryCommit)
                .when("Query.User = 'x'")
                .then(Action::run_external("doomed")),
        )
        .unwrap();
    // A second indexed rule: a one-rule event class gets no guard index.
    sqlcm
        .add_rule(
            Rule::new("other")
                .on(RuleEvent::QueryCommit)
                .when("Query.User = 'y'"),
        )
        .unwrap();
    let commit_by = |user: &str| {
        let mut q = QueryInfo::synthetic(1, "q");
        q.user = user.into();
        EngineEvent::QueryCommit(q)
    };
    let hook = sqlcm.rule("hook").unwrap();

    for _ in 0..4 {
        sqlcm.inject_event(&commit_by("x"));
    }
    assert_eq!(sqlcm.breaker_state("hook"), Some(BreakerState::Open));
    assert_eq!(hook.stats().evaluations, 4);
    handle.advance(COOLDOWN);
    assert_eq!(sqlcm.poll_breakers(), 1);
    assert_eq!(sqlcm.breaker_state("hook"), Some(BreakerState::HalfOpen));

    for _ in 0..10 {
        sqlcm.inject_event(&commit_by("somebody else"));
    }
    assert_eq!(
        sqlcm.breaker_state("hook"),
        Some(BreakerState::HalfOpen),
        "a pruned evaluation resolved the trial"
    );
    assert_eq!(sqlcm.telemetry().containment.breaker_closes, 0);
    // Back in the plan on probation, the rule is evaluated (false) by every
    // event the index prunes it from, exactly as before it tripped.
    let on_probation = hook.stats();
    assert_eq!((on_probation.evaluations, on_probation.pruned), (14, 10));

    sqlcm.inject_event(&commit_by("x"));
    assert_eq!(
        sqlcm.breaker_state("hook"),
        Some(BreakerState::Open),
        "the first evaluation that ran is the trial, and it failed"
    );
    let t = sqlcm.telemetry().containment;
    assert_eq!((t.breaker_trips, t.breaker_closes), (2, 0));
    // Quarantined again: further events are not evaluations of the rule.
    sqlcm.inject_event(&commit_by("somebody else"));
    assert_eq!(hook.stats().evaluations, 15);
}

/// Breaker transitions flip the rule's in-service bit in place: 1 000 cycles
/// of trip → cooldown → half-open → failed trial → cooldown → half-open →
/// successful trial rebuild no plan and take no registry lock, the
/// quarantine list follows the breaker at every step, and a quarantined rule
/// is credited neither the events it would have run on nor the ones that
/// would have pruned it.
#[test]
fn a_thousand_breaker_cycles_never_rebuild_the_plan() {
    let (_engine, sqlcm, handle) = manual_setup();
    const COOLDOWN: u64 = 1_000_000;
    const CYCLES: u64 = 1_000;
    sqlcm.configure(MonitorConfig {
        breaker: BreakerConfig {
            error_threshold: 2,
            min_outcomes: 4,
            cooldown_micros: COOLDOWN,
            ..Default::default()
        },
        ..sqlcm.config()
    });
    // 64 indexed rules on one event class; only `hook` has an action, and its
    // sink is dead.
    let sink = FaultySink::seeded(5)
        .command(FaultRate::Always)
        .install(&sqlcm);
    sqlcm
        .add_rule(
            Rule::new("hook")
                .on(RuleEvent::QueryCommit)
                .when("Query.User = 'u0'")
                .then(Action::run_external("doomed")),
        )
        .unwrap();
    for i in 1..64 {
        sqlcm
            .add_rule(
                Rule::new(format!("r{i}"))
                    .on(RuleEvent::QueryCommit)
                    .when(&format!("Query.User = 'u{i}'")),
            )
            .unwrap();
    }
    let commit_by = |user: &str| {
        let mut q = QueryInfo::synthetic(1, "q");
        q.user = user.into();
        EngineEvent::QueryCommit(q)
    };
    let (hit, miss) = (commit_by("u0"), commit_by("u1"));
    let hook = sqlcm.rule("hook").unwrap();
    let counts = || {
        let s = hook.stats();
        (s.evaluations, s.pruned)
    };
    let expect = |state: BreakerState, step: &str| {
        assert_eq!(sqlcm.breaker_state("hook"), Some(state), "{step}");
        let quarantined = sqlcm.telemetry().containment.quarantined;
        let want: &[&str] = match state {
            BreakerState::Open => &["hook"],
            _ => &[],
        };
        assert_eq!(quarantined, want, "{step}");
    };
    // Out of service: an event it would run on and one that would prune it
    // both leave its counts alone.
    let expect_uncounted = |step: &str| {
        let before = counts();
        sqlcm.inject_event(&hit);
        sqlcm.inject_event(&miss);
        assert_eq!(counts(), before, "{step}");
    };

    let before = sqlcm.telemetry().dispatch;
    for cycle in 0..CYCLES {
        for _ in 0..4 {
            sqlcm.inject_event(&hit);
        }
        expect(BreakerState::Open, "tripped");
        expect_uncounted("quarantined after the trip");
        handle.advance(COOLDOWN);
        assert_eq!(sqlcm.poll_breakers(), 1);
        expect(BreakerState::HalfOpen, "first probation");
        sqlcm.inject_event(&hit);
        expect(BreakerState::Open, "failed trial");
        expect_uncounted("quarantined after the failed trial");
        handle.advance(COOLDOWN);
        assert_eq!(sqlcm.poll_breakers(), 1);
        expect(BreakerState::HalfOpen, "second probation");
        sink.set_healed(true);
        sqlcm.inject_event(&hit);
        expect(BreakerState::Closed, "successful trial");
        sink.set_healed(false);
        // Back in service: the event that prunes it is credited again.
        sqlcm.inject_event(&miss);
        // Per cycle the rule ran 4 + 1 + 1 times and was pruned once.
        assert_eq!(counts(), (7 * (cycle + 1), cycle + 1));
    }
    let after = sqlcm.telemetry();
    assert_eq!(after.dispatch.plan_rebuilds, before.plan_rebuilds);
    assert_eq!(after.dispatch.plan_epoch, before.plan_epoch);
    assert_eq!(
        after.dispatch.reg_lock_acquisitions,
        before.reg_lock_acquisitions
    );
    assert_eq!(before.plan_epoch, 64, "one rebuild per registration");
    let c = after.containment;
    assert_eq!(
        (c.breaker_trips, c.breaker_reopens, c.breaker_closes),
        (2 * CYCLES, 2 * CYCLES, CYCLES)
    );
}
