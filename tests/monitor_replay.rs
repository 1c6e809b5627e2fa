//! Replay half of the whole-system differential suite (scenario half:
//! `crates/core/tests/monitor_differential.rs`): recorded event logs are fed
//! to the optimized `Sqlcm` and to the naive `ReferenceMonitor` under one
//! manual clock, through the rule catalogs the workload drivers ship, and
//! must leave both with identical rule counters, stats, LAT contents and
//! action ledgers. The real monitor runs with the default config — breakers
//! live — and no catalog may trip one: the reference has none.

use std::sync::{Arc, Mutex};

use sqlcm_repro::common::{EngineEvent, ManualClock};
use sqlcm_repro::engine::instrument::Instrumentation;
use sqlcm_repro::prelude::*;
use sqlcm_repro::workloads::{
    catalogs, mixed, run_queries, storm, tpch, MixedConfig, RuleCatalog, StormConfig, StormShape,
};

#[path = "../crates/core/tests/oracle/mod.rs"]
mod oracle;
use oracle::monitor::ReferenceMonitor;

/// Register `catalog` in both monitors, replay `log` through both, and
/// require agreement. Returns the real monitor's total firings.
fn replay(log: &[EngineEvent], catalog: [RuleCatalog; 2]) -> u64 {
    let (clock, hands) = ManualClock::shared(0);
    let engine = Engine::new(EngineConfig {
        clock: Some(clock.clone()),
        ..Default::default()
    });
    let real = Sqlcm::attach(&engine);
    let reference = ReferenceMonitor::new(clock);
    let [for_real, for_reference] = catalog;
    let name = for_real.name;
    for lat in for_real.lats {
        real.define_lat(lat).unwrap();
    }
    for lat in for_reference.lats {
        reference.define_lat(lat).unwrap();
    }
    for rule in for_real.rules {
        real.add_rule(rule).unwrap();
    }
    for rule in for_reference.rules {
        reference.add_rule(rule).unwrap();
    }
    for ev in log {
        hands.advance(1_000);
        real.inject_event(ev);
        reference.inject_event(ev);
    }
    if let Some(diff) = reference.divergence_from(&real) {
        panic!("catalog `{name}`: {diff}");
    }
    let c = real.telemetry().containment;
    assert_eq!(c.breaker_trips, 0, "catalog `{name}`");
    assert_eq!(c.breaker_skipped, 0, "catalog `{name}`");
    real.stats().fires
}

/// Every shipped catalog over a seeded event storm. Catalogs with a bounded
/// LAT get the ramp shape — strictly climbing durations, so the eviction
/// victim (smallest ordering key) is never tied and both tables must pick
/// the same one; the rest get the spike shape, whose 10× slow windows make
/// the outlier rules fire.
#[test]
fn storm_log_replays_identically_through_every_catalog() {
    for (for_real, for_reference) in catalogs().into_iter().zip(catalogs()) {
        let bounded = for_real.lats.iter().any(|l| l.max_rows.is_some());
        let shape = if bounded {
            StormShape::Ramp
        } else {
            StormShape::Spike
        };
        let log = storm::events(StormConfig::new(shape, 4_096, 0x5eed));
        let name = for_real.name;
        let fires = replay(&log, [for_real, for_reference]);
        let subscribed = name != "blocking"; // storms carry no lock waits
        assert_eq!(fires > 0, subscribed, "catalog `{name}`: {fires} firings");
    }
}

/// Records every probe event the engine raises.
#[derive(Default)]
struct Recorder(Mutex<Vec<EngineEvent>>);

impl Instrumentation for Recorder {
    fn on_event(&self, event: &EngineEvent) {
        self.0.lock().unwrap().push(event.clone());
    }

    fn name(&self) -> &str {
        "recorder"
    }
}

/// The mixed workload's real probe stream — query start/compile/commit,
/// transaction and login events with measured durations — recorded from the
/// engine once, then replayed through every catalog.
#[test]
fn engine_recorded_mixed_workload_replays_identically() {
    let engine = Engine::in_memory();
    let db = tpch::load(&engine, tpch::TpchConfig::tiny()).unwrap();
    let recorder = Arc::new(Recorder::default());
    engine.attach_monitor(recorder.clone());
    let queries = mixed::generate(
        &db,
        MixedConfig {
            point_selects: 600,
            join_selects: 6,
            seed: 11,
        },
    );
    run_queries(&engine, &queries).unwrap();
    engine.failed_login("mallory", "psql");
    engine.detach_monitor("recorder");
    let log = std::mem::take(&mut *recorder.0.lock().unwrap());
    assert!(log.len() > 2 * queries.len(), "only {} events", log.len());

    for (for_real, for_reference) in catalogs().into_iter().zip(catalogs()) {
        let name = for_real.name;
        let fires = replay(&log, [for_real, for_reference]);
        assert_eq!(fires > 0, name != "blocking", "catalog `{name}`");
    }
}
