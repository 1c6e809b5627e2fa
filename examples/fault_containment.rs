//! Fault containment tour: circuit breakers, async action retry and the
//! loss ledger — all driven by a mail sink whose server is down and an
//! event storm, no real outage required.
//!
//! A sink reports a failure by returning `Err`; the monitor contains it. The
//! demo stages two incidents against one monitored instance:
//!
//! 1. **Dead mail server.** Async external actions queue, retry with
//!    exponential backoff, then exhaust into the loss ledger; the rule's
//!    circuit breaker trips and quarantines it: out of service, in place.
//! 2. **Recovery.** The server comes back; probation (half-open) re-admits
//!    the rule, the trial succeeds, and the breaker closes.
//!
//! ```sh
//! cargo run --release --example fault_containment
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sqlcm_repro::monitor::{BreakerConfig, BreakerState, MailSink, RetryPolicy};
use sqlcm_repro::prelude::*;
use sqlcm_repro::workloads::storm::{self, StormConfig, StormShape};

/// A mailer whose server is down until `up` is set.
#[derive(Default)]
struct Mailer {
    up: AtomicBool,
    delivered: AtomicU64,
}

impl MailSink for Mailer {
    fn send(&self, to: &str, _body: &str) -> Result<()> {
        if !self.up.load(Ordering::Relaxed) {
            return Err(Error::Io(format!("mail to {to}: connection refused")));
        }
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn main() -> Result<()> {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    let mailer = Arc::new(Mailer::default());

    // Aggressive settings so the incidents play out in seconds.
    sqlcm.configure(MonitorConfig {
        breaker: BreakerConfig {
            error_threshold: 4,
            min_outcomes: 8,
            cooldown_micros: 200_000,
            ..Default::default()
        },
        async_actions: true,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 1_000,
            max_backoff_micros: 50_000,
            jitter: 0.2,
        },
        mail_sink: mailer.clone(),
        ..sqlcm.config()
    });
    sqlcm.define_lat(
        LatSpec::new("Sig_LAT")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D"),
    )?;
    sqlcm.add_rule(
        Rule::new("feed")
            .on(RuleEvent::QueryCommit)
            .then(Action::insert("Sig_LAT")),
    )?;
    sqlcm.add_rule(
        Rule::new("mail_slow")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration > 0.05")
            .then(Action::send_mail(
                "dba@example.org",
                "slow: {Query.Query_Text}",
            )),
    )?;

    // ---- Incident 1: the mail server is down. ---------------------------
    println!("== incident 1: dead mail server ==");
    let evs = storm::events(StormConfig::new(StormShape::Spike, 2_000, 42));
    for ev in &evs {
        sqlcm.inject_event(ev);
        sqlcm.pump_deferred_actions();
        if sqlcm.breaker_state("mail_slow") == Some(BreakerState::Open) {
            break;
        }
    }
    // Let the queued retries play out against the still-dead sink.
    while sqlcm.deferred_queue_depth() > 0 {
        sqlcm.pump_deferred_actions();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let t = sqlcm.telemetry().containment;
    println!(
        "  breaker:     {:?} (trips: {})",
        sqlcm.breaker_state("mail_slow"),
        t.breaker_trips
    );
    println!("  quarantined: {:?}", t.quarantined);
    println!(
        "  deferred:    enqueued={} executed={} failed_attempts={} retries={}",
        t.deferred.enqueued, t.deferred.executed, t.deferred.failed_attempts, t.deferred.retries
    );
    for loss in sqlcm.loss_ledger() {
        println!(
            "  loss ledger: rule={} reason={} count={}",
            loss.rule, loss.reason, loss.count
        );
    }
    assert_eq!(sqlcm.breaker_state("mail_slow"), Some(BreakerState::Open));
    assert!(sqlcm.total_action_losses() > 0);

    // ---- Incident 2: the server recovers. -------------------------------
    println!("\n== incident 2: recovery through probation ==");
    mailer.up.store(true, Ordering::Relaxed);
    std::thread::sleep(std::time::Duration::from_millis(250)); // cooldown
    let reopened = sqlcm.poll_breakers();
    println!(
        "  re-admitted {reopened} rule(s) on probation: {:?}",
        sqlcm.breaker_state("mail_slow")
    );
    // A slow query arrives: the half-open trial fires, succeeds, closes.
    for ev in storm::events(StormConfig::new(StormShape::Spike, 32, 7)) {
        sqlcm.inject_event(&ev);
    }
    sqlcm.pump_deferred_actions();
    println!(
        "  after trial: {:?} (closes: {}, mails delivered: {})",
        sqlcm.breaker_state("mail_slow"),
        sqlcm.telemetry().containment.breaker_closes,
        mailer.delivered.load(Ordering::Relaxed)
    );
    assert_eq!(sqlcm.breaker_state("mail_slow"), Some(BreakerState::Closed));

    println!("\n== final telemetry (containment slice) ==");
    let c = sqlcm.telemetry().containment;
    println!(
        "breakers: trips={} reopens={} closes={}",
        c.breaker_trips, c.breaker_reopens, c.breaker_closes
    );
    let d = &c.deferred;
    println!(
        "deferred: enqueued={} executed={} retries={} dropped_overflow={} dropped_exhausted={}",
        d.enqueued, d.executed, d.retries, d.dropped_overflow, d.dropped_exhausted
    );
    // Conservation: every enqueued action is executed, dropped, or queued.
    assert_eq!(
        d.enqueued,
        d.executed + d.dropped_overflow + d.dropped_exhausted + d.queue_depth
    );
    Ok(())
}
