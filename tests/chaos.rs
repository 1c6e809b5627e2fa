//! Chaos matrix: seeded fault injection under concurrent event storms.
//!
//! Every entry of a 4 × 4 × 4 matrix — failure rate × deferred-queue depth ×
//! storm shape — drives 8 injector threads through one monitored instance
//! with async external actions on and a seeded faulty test sink
//! (`crates/core/tests/faulty_sink`) installed, then checks three invariants
//! that must hold under *any* abuse:
//!
//! 1. **The event path never touches a faulted sink.** With async actions on,
//!    `on_event` only enqueues; the sink's per-kind attempt counters stay at
//!    zero until the pump runs.
//! 2. **Action conservation.** Every enqueued action is accounted for:
//!    `enqueued == executed + dropped_overflow + dropped_exhausted + depth`.
//! 3. **The loss ledger is complete.** Summed ledger counts equal the drop
//!    counters; no loss is silent.
//!
//! Each entry reproduces bit-for-bit from its derived seed (storm sequences
//! and fault schedules are both seeded).

use sqlcm_repro::monitor::{Action, MonitorConfig, RetryPolicy, Rule, RuleEvent, Sqlcm};
use sqlcm_repro::prelude::Engine;
use sqlcm_repro::workloads::storm::{self, StormConfig, StormShape};

#[path = "../crates/core/tests/faulty_sink/mod.rs"]
mod faulty_sink;
use faulty_sink::{FaultRate, FaultySink, Kind};

const THREADS: u32 = 8;
const EVENTS_PER_THREAD: u32 = 256;

const RATES: [FaultRate; 4] = [
    FaultRate::Never,
    FaultRate::Prob(0.1),
    FaultRate::Prob(0.5),
    FaultRate::Always,
];
const DEPTHS: [usize; 4] = [16, 64, 256, 1024];

struct Entry {
    rate: FaultRate,
    depth: usize,
    shape: StormShape,
    seed: u64,
}

fn matrix() -> Vec<Entry> {
    let mut out = Vec::new();
    for (ri, &rate) in RATES.iter().enumerate() {
        for (di, &depth) in DEPTHS.iter().enumerate() {
            for (si, &shape) in StormShape::ALL.iter().enumerate() {
                out.push(Entry {
                    rate,
                    depth,
                    shape,
                    seed: 0xC4A0_5000 + (ri * 16 + di * 4 + si) as u64,
                });
            }
        }
    }
    out
}

/// Run one matrix entry; returns a context string for assertion messages.
fn run_entry(e: &Entry) {
    let ctx = format!(
        "rate={:?} depth={} shape={} seed={:#x}",
        e.rate,
        e.depth,
        e.shape.as_str(),
        e.seed
    );
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm.configure(MonitorConfig {
        async_actions: true,
        deferred_capacity: e.depth,
        // Tiny backoff so the drain loop below converges quickly; jitter off so
        // retry timing is exact per seed.
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 1,
            max_backoff_micros: 10,
            jitter: 0.0,
        },
        ..sqlcm.config()
    });
    let sink = FaultySink::seeded(e.seed).all(e.rate).install(&sqlcm);
    sqlcm
        .add_rule(
            Rule::new("mail_slow")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 0.02")
                .then(Action::send_mail("dba", "slow: {Query.Query_Text}")),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("hook_fast")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration <= 0.02")
                .then(Action::run_external("log fast query")),
        )
        .unwrap();

    let sequences = storm::per_thread_events(
        StormConfig::new(e.shape, EVENTS_PER_THREAD, e.seed),
        THREADS,
    );
    std::thread::scope(|scope| {
        for seq in &sequences {
            let sqlcm = &sqlcm;
            scope.spawn(move || {
                for ev in seq {
                    sqlcm.inject_event(ev);
                }
            });
        }
    });

    // Invariant 1: with async actions on, injection alone never reaches a
    // sink — every sink call happens in the pump, which has not run.
    for kind in [Kind::Mail, Kind::Command] {
        assert_eq!(
            sink.attempts(kind),
            0,
            "[{ctx}] event path touched the {kind:?} sink"
        );
    }
    let fires: u64 = ["mail_slow", "hook_fast"]
        .iter()
        .map(|r| sqlcm.rule(r).unwrap().stats().fires)
        .sum();
    assert_eq!(
        sqlcm.telemetry().containment.deferred.enqueued,
        fires,
        "[{ctx}] every firing must enqueue exactly one deferred action"
    );

    // Drain: with Always faults actions exhaust after max_attempts; with
    // probabilistic faults retries eventually succeed. Bounded loop so a
    // regression fails loudly instead of hanging.
    let mut spins = 0;
    while sqlcm.deferred_queue_depth() > 0 {
        sqlcm.pump_deferred_actions();
        spins += 1;
        assert!(spins < 10_000, "[{ctx}] deferred queue failed to drain");
        std::thread::yield_now();
    }

    // Invariant 2: conservation. Nothing vanished, nothing was double-counted.
    let d = sqlcm.telemetry().containment.deferred;
    assert_eq!(
        d.enqueued,
        d.executed + d.dropped_overflow + d.dropped_exhausted + d.queue_depth,
        "[{ctx}] conservation violated: {d:?}"
    );
    assert_eq!(d.queue_depth, 0, "[{ctx}] queue drained");

    // Invariant 3: the ledger accounts for every loss.
    let ledger_total: u64 = sqlcm.loss_ledger().iter().map(|l| l.count).sum();
    assert_eq!(
        ledger_total,
        d.dropped_overflow + d.dropped_exhausted,
        "[{ctx}] loss ledger incomplete"
    );
    assert_eq!(sqlcm.total_action_losses(), ledger_total, "[{ctx}]");

    // Sanity per rate: no faults → no losses and everything executed;
    // always-failing → nothing executed, everything lost or never enqueued.
    match e.rate {
        FaultRate::Never => {
            assert_eq!(d.dropped_exhausted, 0, "[{ctx}] losses without faults");
            assert_eq!(
                d.executed + d.dropped_overflow,
                d.enqueued,
                "[{ctx}] fault-free actions must all execute"
            );
        }
        FaultRate::Always => {
            assert_eq!(d.executed, 0, "[{ctx}] executed through a dead sink");
            assert!(
                d.dropped_exhausted > 0,
                "[{ctx}] always-failing sink must exhaust retries"
            );
        }
        _ => {}
    }
}

#[test]
fn chaos_matrix_64_configs() {
    let entries = matrix();
    assert_eq!(entries.len(), 64);
    for e in &entries {
        run_entry(e);
    }
}

/// A stalling, always-failing sink must not slow the event path: injection
/// happens before any pump, so the stall is only ever paid by the executor.
#[test]
fn stalled_sink_does_not_block_injection() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm.configure(MonitorConfig {
        async_actions: true,
        ..sqlcm.config()
    });
    let sink = FaultySink::seeded(11)
        .all(FaultRate::Always)
        .stall_micros(5_000)
        .install(&sqlcm);
    sqlcm
        .add_rule(
            Rule::new("blast")
                .on(RuleEvent::QueryCommit)
                .then(Action::send_mail("dba", "x")),
        )
        .unwrap();
    let evs = storm::events(StormConfig::new(StormShape::Uniform, 512, 11));
    let start = std::time::Instant::now();
    for ev in &evs {
        sqlcm.inject_event(ev);
    }
    let inject_elapsed = start.elapsed();
    assert_eq!(sink.attempts(Kind::Mail), 0);
    // 512 events with a 5ms stall each would take ≥ 2.5s if the event path
    // touched the sink; allow two orders of magnitude of headroom for slow CI.
    assert!(
        inject_elapsed < std::time::Duration::from_millis(2_500),
        "injection took {inject_elapsed:?}: event path is paying the sink stall"
    );
    // The pump *does* pay it — and records the failed attempts.
    sqlcm.pump_deferred_actions();
    assert!(sink.attempts(Kind::Mail) > 0);
}

/// Under a dead sink the pump's failures feed the rule's breaker: with an
/// aggressive config the rule trips and gets quarantined out of the plan, and
/// the loss ledger still accounts for everything that was in flight.
#[test]
fn dead_sink_trips_breaker_and_quarantines() {
    use sqlcm_repro::monitor::{BreakerConfig, BreakerState};
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm.configure(MonitorConfig {
        async_actions: true,
        breaker: BreakerConfig {
            error_threshold: 4,
            min_outcomes: 8,
            ..Default::default()
        },
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff_micros: 1,
            max_backoff_micros: 10,
            jitter: 0.0,
        },
        ..sqlcm.config()
    });
    FaultySink::seeded(5)
        .command(FaultRate::Always)
        .install(&sqlcm);
    sqlcm
        .add_rule(
            Rule::new("hook")
                .on(RuleEvent::QueryCommit)
                .then(Action::run_external("doomed")),
        )
        .unwrap();

    let evs = storm::events(StormConfig::new(StormShape::Burst, 64, 5));
    let mut spins = 0;
    for ev in &evs {
        sqlcm.inject_event(ev);
        sqlcm.pump_deferred_actions();
        spins += 1;
        if sqlcm.breaker_state("hook") == Some(BreakerState::Open) {
            break;
        }
        assert!(spins < 64, "breaker never tripped under a dead sink");
    }
    assert_eq!(sqlcm.breaker_state("hook"), Some(BreakerState::Open));
    let t = sqlcm.telemetry().containment;
    assert!(t.breaker_trips >= 1);
    assert_eq!(t.quarantined, vec!["hook".to_string()]);

    // Quarantined: further events stop enqueuing work for the rule.
    let before = sqlcm.telemetry().containment.deferred.enqueued;
    for ev in &evs {
        sqlcm.inject_event(ev);
    }
    assert_eq!(sqlcm.telemetry().containment.deferred.enqueued, before);
}
