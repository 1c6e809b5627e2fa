//! **T4 — compiled dispatch-plan hot path** (§2.1 "no monitoring is performed
//! unless it is required by a rule"; §6.2 overhead study).
//!
//! Measures the monitor's event path in isolation by injecting engine events
//! straight into the attached monitor (no SQL execution in the loop), under
//! three configurations:
//!
//! 1. **idle probe** — a rule is registered, but only for `Logout`; the
//!    injected `QueryCommit` events hit the plan's interest bitmask and stop
//!    (one atomic load, no locks, no allocation);
//! 2. **active single rule** — one compiled attribute condition evaluated per
//!    event from pooled payload buffers;
//! 3. **32 rules, one LAT** — 1 `Insert` rule feeding a LAT plus 31 rules
//!    conditioned on it; the dispatch plan hoists the shared lookup, so the
//!    row is fetched at most twice per event (once cold, once after the
//!    Insert's invalidation) instead of 31 times.
//!
//! Writes `BENCH_t4_dispatch.json` and exits non-zero when the shared-hoist
//! gate (`fetches/event ≤ 2`) fails, so CI can gate on it.

use std::time::Instant;

use sqlcm_bench::{banner, env_u32};
use sqlcm_common::{EngineEvent, QueryInfo};
use sqlcm_core::{Action, LatAggFunc, LatSpec, Rule, RuleEvent, Sqlcm};
use sqlcm_engine::Engine;

fn commit_event(sig: u64) -> EngineEvent {
    let mut q = QueryInfo::synthetic(sig, "SELECT x FROM t WHERE id = ?");
    q.logical_signature = Some(sig);
    q.duration_micros = 1_500;
    EngineEvent::QueryCommit(q)
}

/// Median ns/event over `rounds` batches of `events` injections.
fn time_events(sqlcm: &Sqlcm, ev: &EngineEvent, events: u32, rounds: usize) -> f64 {
    // Warmup: populate thread-local pools and any lazy state.
    for _ in 0..1_000 {
        sqlcm.inject_event(ev);
    }
    let mut per_event = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..events {
            sqlcm.inject_event(ev);
        }
        per_event.push(t.elapsed().as_secs_f64() * 1e9 / events as f64);
    }
    per_event.sort_by(f64::total_cmp);
    per_event[rounds / 2]
}

fn main() {
    let events = env_u32("SQLCM_EVENTS", 200_000);
    let rounds = env_u32("SQLCM_ROUNDS", 5) as usize;
    banner(
        "T4: dispatch hot path — idle probe, single rule, 32-rules-one-LAT (§2.1/§6.2)",
        &format!("{events} injected QueryCommit events per round, {rounds} rounds"),
    );

    // --- 1. idle probe: subscribed monitor, uninterested event kind --------
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("logout_only")
                .on(RuleEvent::Logout)
                .when("Session.Success = TRUE"),
        )
        .expect("rule");
    let ev = commit_event(42);
    let locks_before = sqlcm.telemetry().dispatch.reg_lock_acquisitions;
    let idle_ns = time_events(&sqlcm, &ev, events, rounds);
    assert_eq!(
        sqlcm.telemetry().dispatch.reg_lock_acquisitions,
        locks_before,
        "idle probe path took a registry lock"
    );
    println!("idle probe (uninterested kind):   {idle_ns:>8.1} ns/event");

    // --- 2. active single rule --------------------------------------------
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("slow")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 1000000"),
        )
        .expect("rule");
    let single_ns = time_events(&sqlcm, &ev, events, rounds);
    println!("active single compiled rule:      {single_ns:>8.1} ns/event");

    // --- 3. 32 rules sharing one LAT --------------------------------------
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Sig_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D"),
        )
        .expect("LAT");
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Sig_LAT")),
        )
        .expect("rule");
    // `+ 0` keeps the watchers residual, so every condition runs, as in the
    // recorded history of this figure; a LAT guard would prune them.
    for i in 0..31 {
        sqlcm
            .add_rule(
                Rule::new(format!("watch{i:02}"))
                    .on(RuleEvent::QueryCommit)
                    .when(&format!("Sig_LAT.N + 0 >= {}", 1_000_000_000 + i)),
            )
            .expect("rule");
    }
    let before = sqlcm.telemetry().dispatch;
    let before_events = sqlcm.stats().events;
    let shared_ns = time_events(&sqlcm, &ev, events, rounds);
    let after = sqlcm.telemetry().dispatch;
    let measured_events = sqlcm.stats().events - before_events;
    let fetches_per_event =
        (after.lat_row_fetches - before.lat_row_fetches) as f64 / measured_events as f64;
    let hits_per_event =
        (after.hoisted_lookup_hits - before.hoisted_lookup_hits) as f64 / measured_events as f64;
    println!("32 rules, one shared LAT:         {shared_ns:>8.1} ns/event");
    println!(
        "  LAT row fetches/event: {fetches_per_event:.3} (hoisted hits/event: {hits_per_event:.1})"
    );

    let json = format!(
        "{{\"bench\":\"t4_dispatch_hotpath\",\"events\":{events},\"rounds\":{rounds},\
         \"idle_ns_per_event\":{idle_ns:.1},\"single_rule_ns_per_event\":{single_ns:.1},\
         \"shared_32_rules_ns_per_event\":{shared_ns:.1},\
         \"lat_row_fetches_per_event\":{fetches_per_event:.3},\
         \"hoisted_hits_per_event\":{hits_per_event:.1},\"gate_fetches_per_event\":2.0}}"
    );
    std::fs::write("BENCH_t4_dispatch.json", &json).expect("write BENCH json");
    println!("\nwrote BENCH_t4_dispatch.json: {json}");

    // Gate: shared hoisting must cap LAT row fetches at ≤ 2 per event
    // (1 cold fetch + ≤1 re-fetch after the Insert rule's invalidation)
    // instead of one per conditioned rule.
    if fetches_per_event > 2.0 {
        eprintln!(
            "FAIL: {fetches_per_event:.3} LAT row fetches/event exceeds the shared-hoist gate of 2"
        );
        std::process::exit(1);
    }
    println!("PASS: shared hoisting holds LAT row fetches at ≤ 2/event across 31 conditions");
}
