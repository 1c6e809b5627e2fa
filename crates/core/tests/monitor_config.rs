//! The one configuration value: `Sqlcm::configure` applies a `MonitorConfig`,
//! `Sqlcm::config` reads it back, and applying what `config` returned changes
//! nothing — not the deferred queue, not an open breaker, not the
//! trace-sampling count.

use std::sync::Arc;

use sqlcm_common::{EngineEvent, ManualClock, QueryInfo};
use sqlcm_core::{
    Action, BreakerConfig, BreakerState, MonitorConfig, Rule, RuleEvent, Sqlcm, TelemetrySnapshot,
    TraceSampling,
};
use sqlcm_engine::engine::EngineConfig;
use sqlcm_engine::Engine;
use sqlcm_telemetry::HistogramSnapshot;

fn manual_monitor() -> (Engine, Sqlcm, Arc<ManualClock>) {
    let (clock, handle) = ManualClock::shared(0);
    let engine = Engine::new(EngineConfig {
        clock: Some(clock),
        ..Default::default()
    });
    let sqlcm = Sqlcm::attach(&engine);
    (engine, sqlcm, handle)
}

fn commit(id: u64, secs: f64) -> EngineEvent {
    let mut q = QueryInfo::synthetic(id, "SELECT 1");
    q.logical_signature = Some(id % 7);
    q.duration_micros = (secs * 1e6) as u64;
    EngineEvent::QueryCommit(q)
}

/// The snapshot without what the wall clock decides: histogram sums, maxima
/// and buckets (their counts stay) and flight-record durations.
fn untimed(mut snap: TelemetrySnapshot) -> TelemetrySnapshot {
    let untime = |h: &mut HistogramSnapshot| {
        *h = HistogramSnapshot {
            count: h.count,
            ..Default::default()
        }
    };
    for p in &mut snap.probes {
        untime(&mut p.on_event);
    }
    for r in &mut snap.rules {
        untime(&mut r.condition);
        untime(&mut r.action);
    }
    for f in &mut snap.flight_records {
        f.duration_nanos = 0;
    }
    snap
}

/// A storm under every stateful setting at once: async actions filling the
/// deferred queue to its bound, a rule whose breaker is open, and 1-in-3
/// sampling.
fn storm_monitor() -> (Engine, Sqlcm, Arc<ManualClock>) {
    let (engine, sqlcm, clock) = manual_monitor();
    sqlcm.configure(MonitorConfig {
        breaker: BreakerConfig {
            error_threshold: 4,
            min_outcomes: 8,
            ..Default::default()
        },
        async_actions: true,
        deferred_capacity: 64,
        trace_sampling: TraceSampling::EveryNth(3),
        ..sqlcm.config()
    });
    let rules = [
        Rule::new("mail_slow")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration > 0.05")
            .then(Action::send_mail("dba", "slow {Query.ID}")),
        Rule::new("div_zero")
            .on(RuleEvent::QueryCommit)
            .when("Query.ID / 0 > 1"),
    ];
    for rule in rules {
        sqlcm.add_rule(rule).unwrap();
    }
    (engine, sqlcm, clock)
}

/// Events `from..to`, 10 µs apart.
fn storm(sqlcm: &Sqlcm, clock: &ManualClock, from: u64, to: u64) {
    for i in from..to {
        clock.advance(10);
        sqlcm.inject_event(&commit(i, (i % 10) as f64 / 100.0));
    }
}

#[test]
fn reapplying_the_live_config_mid_storm_changes_nothing() {
    let (_ea, a, clock_a) = storm_monitor();
    let (_eb, b, clock_b) = storm_monitor();
    // The sampling count, here, is not a multiple of the sampling period:
    // resetting it at `configure` would move which later events are sampled.
    const HALF: u64 = 4_097;
    storm(&a, &clock_a, 0, HALF);
    storm(&b, &clock_b, 0, HALF);

    let before = a.telemetry();
    assert_eq!(before.containment.quarantined, ["div_zero"]);
    assert_eq!(before.containment.deferred.queue_depth, 64);
    assert!(before.tracing.sampled > 0);
    a.configure(a.config());
    assert_eq!(untimed(a.telemetry()), untimed(before));

    storm(&a, &clock_a, HALF, 2 * HALF);
    storm(&b, &clock_b, HALF, 2 * HALF);
    let (after_a, after_b) = (untimed(a.telemetry()), untimed(b.telemetry()));
    assert!(after_a.containment.deferred.dropped_overflow > 0);
    assert_eq!(after_a, after_b);
}

#[test]
fn a_breaker_threshold_change_applies_to_rules_registered_before_and_after_it() {
    let (_engine, sqlcm, _clock) = manual_monitor();
    let failing = |name: &str, cond: &str| Rule::new(name).on(RuleEvent::QueryCommit).when(cond);
    sqlcm
        .add_rule(failing("before", "Query.ID / 0 > 1"))
        .unwrap();
    let aggressive = BreakerConfig {
        error_threshold: 4,
        min_outcomes: 8,
        ..Default::default()
    };
    sqlcm.configure(MonitorConfig {
        breaker: aggressive,
        ..sqlcm.config()
    });
    sqlcm
        .add_rule(failing("after", "Query.ID / 0 > 2"))
        .unwrap();
    assert_eq!(sqlcm.config().breaker, aggressive);

    for id in 1..8 {
        sqlcm.inject_event(&commit(id, 0.01));
    }
    for rule in ["before", "after"] {
        assert_eq!(sqlcm.breaker_state(rule), Some(BreakerState::Closed));
    }
    sqlcm.inject_event(&commit(8, 0.01));
    for rule in ["before", "after"] {
        assert_eq!(
            sqlcm.breaker_state(rule),
            Some(BreakerState::Open),
            "{rule} did not trip on its 8th error"
        );
    }
}

#[test]
fn lowering_deferred_capacity_sheds_the_oldest_on_the_next_enqueue() {
    let (_engine, sqlcm, _clock) = manual_monitor();
    sqlcm.configure(MonitorConfig {
        async_actions: true,
        ..sqlcm.config()
    });
    sqlcm
        .add_rule(
            Rule::new("mail")
                .on(RuleEvent::QueryCommit)
                .then(Action::send_mail("dba", "q{Query.ID}")),
        )
        .unwrap();
    for id in 1..=8 {
        sqlcm.inject_event(&commit(id, 0.01));
    }
    sqlcm.configure(MonitorConfig {
        deferred_capacity: 3,
        ..sqlcm.config()
    });
    let d = sqlcm.telemetry().containment.deferred;
    assert_eq!((d.queue_depth, d.capacity, d.dropped_overflow), (8, 3, 0));

    sqlcm.inject_event(&commit(9, 0.01));
    let d = sqlcm.telemetry().containment.deferred;
    assert_eq!((d.queue_depth, d.dropped_overflow), (3, 6));
    assert_eq!(sqlcm.loss_ledger()[0].count, 6);
    sqlcm.pump_deferred_actions();
    let bodies: Vec<String> = sqlcm.outbox().messages().into_iter().map(|m| m.1).collect();
    assert_eq!(bodies, ["q7", "q8", "q9"], "the newest survive");
}
