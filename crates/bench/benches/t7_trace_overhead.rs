//! **T7 — causal-tracing overhead** (§6.2 overhead study, extended to the
//! tracing subsystem).
//!
//! Measures the subscribed-event dispatch path (one compiled non-firing rule,
//! the T4 "active single rule" shape) under four tracing configurations:
//!
//! 1. **baseline** — a fresh monitor where tracing was never enabled;
//! 2. **disabled** — tracing enabled, exercised, then disabled again: the
//!    steady-state cost must return to one relaxed atomic load per event;
//! 3. **sampled 1-in-64** — `TraceSampling::EveryNth(64)`: the amortized
//!    production setting;
//! 4. **sampled every event** — `TraceSampling::EveryNth(1)`: the worst case,
//!    reported for reference (no gate).
//!
//! Configurations 1, 3 and 4 are also timed with two dispatcher threads
//! injecting into the one monitor at once (reported, no gate): what tracing
//! costs when its sampling counts, trace ids and rings are written by more
//! than one thread.
//!
//! Writes `BENCH_t7_trace_overhead.json` and exits non-zero when either gate
//! fails, so CI can gate on it:
//!
//! * disabled ≤ 1.02× baseline (+2 ns absolute slack for timer noise);
//! * sampled 1-in-64 ≤ 1.15× disabled.

use std::time::Instant;

use sqlcm_bench::{banner, env_u32};
use sqlcm_common::{EngineEvent, QueryInfo};
use sqlcm_core::{MonitorConfig, Rule, RuleEvent, Sqlcm, TraceSampling};
use sqlcm_engine::Engine;

fn commit_event(sig: u64) -> EngineEvent {
    let mut q = QueryInfo::synthetic(sig, "SELECT x FROM t WHERE id = ?");
    q.logical_signature = Some(sig);
    q.duration_micros = 1_500;
    EngineEvent::QueryCommit(q)
}

/// A monitor with one compiled, non-firing rule on `QueryCommit`.
fn single_rule_monitor() -> (Engine, Sqlcm) {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("slow")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 1000000"),
        )
        .expect("rule");
    (engine, sqlcm)
}

/// One timed batch of `events` injections, in ns/event.
fn time_batch(sqlcm: &Sqlcm, ev: &EngineEvent, events: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..events {
        sqlcm.inject_event(ev);
    }
    t.elapsed().as_secs_f64() * 1e9 / events as f64
}

/// `events` injections on each of two threads at once, in ns/event (wall
/// time over both threads' events).
fn time_two_threads(sqlcm: &Sqlcm, ev: &EngineEvent, events: u32) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..events {
                    sqlcm.inject_event(ev);
                }
            });
        }
    });
    t.elapsed().as_secs_f64() * 1e9 / f64::from(2 * events)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let events = env_u32("SQLCM_EVENTS", 200_000);
    let rounds = env_u32("SQLCM_ROUNDS", 7) as usize;
    banner(
        "T7: causal-tracing overhead — baseline, disabled, 1-in-64, every event",
        &format!("{events} injected QueryCommit events per round, {rounds} interleaved rounds"),
    );
    let ev = commit_event(42);

    // Four long-lived instances, one per configuration. Measurements are
    // interleaved round-by-round so slow machine drift (CPU frequency,
    // noisy-neighbor load) hits every configuration equally instead of
    // skewing whichever phase ran last.
    let (_e1, baseline) = single_rule_monitor();

    let (_e2, disabled) = single_rule_monitor();
    disabled.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..disabled.config()
    });
    for _ in 0..10_000 {
        disabled.inject_event(&ev);
    }
    assert!(!disabled.traces().is_empty(), "cycle must have traced");
    disabled.configure(MonitorConfig {
        trace_sampling: TraceSampling::Off,
        ..disabled.config()
    });

    let (_e3, sampled64) = single_rule_monitor();
    sampled64.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(64),
        ..sampled64.config()
    });

    let (_e4, sampled1) = single_rule_monitor();
    sampled1.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sampled1.config()
    });

    let configs: [(&str, &Sqlcm); 4] = [
        ("baseline", &baseline),
        ("disabled", &disabled),
        ("sampled64", &sampled64),
        ("sampled1", &sampled1),
    ];
    let mut samples: [Vec<f64>; 4] = Default::default();
    let mut two: [Vec<f64>; 3] = Default::default();
    for (_, sqlcm) in &configs {
        for _ in 0..1_000 {
            sqlcm.inject_event(&ev);
        }
    }
    for _ in 0..rounds {
        for (i, (_, sqlcm)) in configs.iter().enumerate() {
            samples[i].push(time_batch(sqlcm, &ev, events));
        }
        for (i, sqlcm) in [&baseline, &sampled64, &sampled1].into_iter().enumerate() {
            two[i].push(time_two_threads(sqlcm, &ev, events / 2));
        }
    }
    let [two_baseline_ns, two_sampled64_ns, two_sampled1_ns] = two.map(median);
    let [baseline_s, disabled_s, sampled64_s, sampled1_s] = samples;
    // Medians describe typical cost; minima are the stable cost floor the
    // gates compare (a shared box's scheduling spikes only ever add time).
    let min_of = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let (baseline_min, disabled_min, sampled64_min) = (
        min_of(&baseline_s),
        min_of(&disabled_s),
        min_of(&sampled64_s),
    );
    let baseline_ns = median(baseline_s);
    let disabled_ns = median(disabled_s);
    let sampled64_ns = median(sampled64_s);
    let sampled1_ns = median(sampled1_s);
    assert!(
        sampled64.telemetry().tracing.sampled > 0,
        "1-in-64 sampling never sampled"
    );
    println!(
        "baseline (tracing never on):      {baseline_ns:>8.1} ns/event (min {baseline_min:.1})"
    );
    println!(
        "disabled (after enable cycle):    {disabled_ns:>8.1} ns/event (min {disabled_min:.1})"
    );
    println!(
        "sampled 1-in-64:                  {sampled64_ns:>8.1} ns/event (min {sampled64_min:.1})"
    );
    println!("sampled every event:              {sampled1_ns:>8.1} ns/event");
    println!("two threads, baseline:            {two_baseline_ns:>8.1} ns/event");
    println!("two threads, sampled 1-in-64:     {two_sampled64_ns:>8.1} ns/event");
    println!("two threads, sampled every event: {two_sampled1_ns:>8.1} ns/event");

    let disabled_overhead = disabled_ns / baseline_ns - 1.0;
    let sampled64_overhead = sampled64_ns / disabled_ns - 1.0;
    println!(
        "\ndisabled overhead vs baseline: {:+.1}%   1-in-64 overhead vs disabled: {:+.1}%",
        disabled_overhead * 100.0,
        sampled64_overhead * 100.0
    );

    let json = format!(
        "{{\"bench\":\"t7_trace_overhead\",\"events\":{events},\"rounds\":{rounds},\
         \"baseline_ns_per_event\":{baseline_ns:.1},\"disabled_ns_per_event\":{disabled_ns:.1},\
         \"sampled64_ns_per_event\":{sampled64_ns:.1},\"sampled1_ns_per_event\":{sampled1_ns:.1},\
         \"baseline_min_ns_per_event\":{baseline_min:.1},\
         \"disabled_min_ns_per_event\":{disabled_min:.1},\
         \"sampled64_min_ns_per_event\":{sampled64_min:.1},\
         \"two_thread_baseline_ns_per_event\":{two_baseline_ns:.1},\
         \"two_thread_sampled64_ns_per_event\":{two_sampled64_ns:.1},\
         \"two_thread_sampled1_ns_per_event\":{two_sampled1_ns:.1},\
         \"gate_disabled_ratio\":1.02,\"gate_sampled64_ratio\":1.15}}"
    );
    std::fs::write("BENCH_t7_trace_overhead.json", &json).expect("write BENCH json");
    println!("\nwrote BENCH_t7_trace_overhead.json: {json}");

    // Gates compare minima. The disabled path is a single relaxed atomic
    // load; 2 ns of absolute slack keeps ~100 ns-scale floors from tripping
    // on timer granularity.
    let mut failed = false;
    if disabled_min > baseline_min * 1.02 + 2.0 {
        eprintln!(
            "FAIL: disabled tracing costs {disabled_min:.1} ns/event vs baseline \
             {baseline_min:.1} (> 2% + 2 ns slack)"
        );
        failed = true;
    }
    if sampled64_min > disabled_min * 1.15 {
        eprintln!(
            "FAIL: 1-in-64 sampling costs {sampled64_min:.1} ns/event vs disabled \
             {disabled_min:.1} (> 15%)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("PASS: tracing is pay-for-what-you-use (disabled ≤ 2%, 1-in-64 ≤ 15%)");
}
