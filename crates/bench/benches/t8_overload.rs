//! **T8 — overload & fault-containment overhead** (§6.2 overhead study,
//! extended to the containment subsystem).
//!
//! The containment contract: a 100%-failing, stalling external sink must not
//! bleed into the event hot path. Two long-lived instances replay the same
//! 8-thread spike storm with async external actions on and the background
//! executor running:
//!
//! 1. **healthy** — sinks work, every deferred action executes first try;
//! 2. **faulted** — both sinks are the faulty test sink
//!    (`crates/core/tests/faulty_sink`): every call stalls 200 µs and fails,
//!    so the executor thread churns retries and exhaustions the whole run.
//!
//! Every `on_event` call is timed individually (exact nanosecond samples, not
//! histogram buckets) across all 8 injector threads. Writes
//! `BENCH_t8_overload.json` and exits non-zero when the gate fails:
//!
//! * faulted p99 ≤ 3× healthy p99.

use std::time::{Duration, Instant};

use sqlcm_bench::{banner, env_u32};
use sqlcm_core::{Action, MonitorConfig, RetryPolicy, Rule, RuleEvent, Sqlcm};
use sqlcm_engine::Engine;
use sqlcm_workloads::storm::{self, StormConfig, StormShape};

#[path = "../../core/tests/faulty_sink/mod.rs"]
mod faulty_sink;
use faulty_sink::{FaultRate, FaultySink};

const THREADS: u32 = 8;

/// A monitored instance with the shared catalog: one always-firing LAT feed
/// and one conditional mail rule that fires on the storm's slow windows.
fn build() -> (Engine, Sqlcm) {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            sqlcm_core::LatSpec::new("Sig_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(sqlcm_core::LatAggFunc::Count, "", "N")
                .aggregate(sqlcm_core::LatAggFunc::Avg, "Query.Duration", "Avg_D"),
        )
        .expect("lat");
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Sig_LAT")),
        )
        .expect("feed");
    sqlcm
        .add_rule(
            Rule::new("mail_slow")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 0.02")
                .then(Action::send_mail("dba", "slow: {Query.Query_Text}")),
        )
        .expect("mail");
    sqlcm.configure(MonitorConfig {
        async_actions: true,
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff_micros: 100,
            max_backoff_micros: 10_000,
            jitter: 0.2,
        },
        ..sqlcm.config()
    });
    sqlcm.start_action_executor(Duration::from_micros(500));
    (engine, sqlcm)
}

/// Drive the 8-thread storm, timing each `inject_event` call; returns every
/// per-event sample in nanoseconds.
fn run_storm(sqlcm: &Sqlcm, events_per_thread: u32, seed: u64) -> Vec<u64> {
    let sequences = storm::per_thread_events(
        StormConfig::new(StormShape::Spike, events_per_thread, seed),
        THREADS,
    );
    std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter()
            .map(|seq| {
                let sqlcm = &sqlcm;
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(seq.len());
                    for ev in seq {
                        let t = Instant::now();
                        sqlcm.inject_event(ev);
                        samples.push(t.elapsed().as_nanos() as u64);
                    }
                    samples
                })
            })
            .collect();
        let mut all = Vec::with_capacity((events_per_thread * THREADS) as usize);
        for h in handles {
            all.extend(h.join().expect("injector thread"));
        }
        all
    })
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn summarize(mut samples: Vec<u64>) -> (u64, u64, u64, u64) {
    samples.sort_unstable();
    (
        percentile(&samples, 0.50),
        percentile(&samples, 0.95),
        percentile(&samples, 0.99),
        *samples.last().unwrap(),
    )
}

fn main() {
    let events = env_u32("SQLCM_EVENTS", 50_000);
    let rounds = env_u32("SQLCM_ROUNDS", 5) as usize;
    banner(
        "T8: overload containment — 8-thread storm vs a dead, stalling sink",
        &format!(
            "{THREADS} threads x {events} spike-storm events per round, {rounds} interleaved rounds"
        ),
    );

    let (_eh, healthy) = build();
    let (_ef, faulted) = build();
    FaultySink::seeded(8)
        .all(FaultRate::Always)
        .stall_micros(200)
        .install(&faulted);

    // Warmup: converge LATs, plans, and the executor cadence on both.
    run_storm(&healthy, 2_000, 0x78);
    run_storm(&faulted, 2_000, 0x78);

    // Interleave rounds so machine drift hits both instances equally.
    let mut healthy_samples = Vec::new();
    let mut faulted_samples = Vec::new();
    for r in 0..rounds {
        healthy_samples.extend(run_storm(&healthy, events, 0x800 + r as u64));
        faulted_samples.extend(run_storm(&faulted, events, 0x800 + r as u64));
    }

    // The faulted instance's executor really was fighting a dead sink.
    let d = faulted.telemetry().containment.deferred;
    assert!(d.enqueued > 0, "faulted catalog never fired");
    assert_eq!(d.executed, 0, "the dead sink executed an action");
    assert!(
        d.failed_attempts > 0,
        "executor never reached the faulted sink during the run"
    );
    let dh = healthy.telemetry().containment.deferred;
    assert!(dh.enqueued > 0, "healthy catalog never fired");
    assert_eq!(dh.dropped_exhausted, 0, "healthy sink dropped actions");

    let (h_p50, h_p95, h_p99, h_max) = summarize(healthy_samples);
    let (f_p50, f_p95, f_p99, f_max) = summarize(faulted_samples);
    println!("healthy on_event: p50={h_p50} p95={h_p95} p99={h_p99} max={h_max} ns");
    println!("faulted on_event: p50={f_p50} p95={f_p95} p99={f_p99} max={f_max} ns");
    let ratio = f_p99 as f64 / h_p99 as f64;
    println!("p99 ratio (faulted / healthy): {ratio:.2}x  (gate: <= 3.00x)");

    let json = format!(
        "{{\"bench\":\"t8_overload\",\"threads\":{THREADS},\"events_per_thread\":{events},\
         \"rounds\":{rounds},\
         \"healthy_p50_ns\":{h_p50},\"healthy_p95_ns\":{h_p95},\"healthy_p99_ns\":{h_p99},\
         \"healthy_max_ns\":{h_max},\
         \"faulted_p50_ns\":{f_p50},\"faulted_p95_ns\":{f_p95},\"faulted_p99_ns\":{f_p99},\
         \"faulted_max_ns\":{f_max},\
         \"p99_ratio\":{ratio:.3},\"gate_p99_ratio\":3.0}}"
    );
    std::fs::write("BENCH_t8_overload.json", &json).expect("write BENCH json");
    println!("\nwrote BENCH_t8_overload.json: {json}");

    if ratio > 3.0 {
        eprintln!(
            "FAIL: a dead sink inflated on_event p99 {ratio:.2}x ({h_p99} -> {f_p99} ns); \
             the containment layer is leaking sink cost into the event path"
        );
        std::process::exit(1);
    }
    println!("PASS: dead-sink p99 within 3x of healthy (containment holds)");
}
