//! Dispatcher threads fire one rule while tracing samples: the flight rings
//! and trace rings are per dispatcher stripe and merged when read, so the
//! merged views must stay exact, bounded, ordered per dispatcher, and
//! cross-linked — whether each thread has a stripe of its own or threads
//! share one.

use std::collections::{HashMap, HashSet};

use sqlcm_common::{EngineEvent, QueryInfo};
use sqlcm_core::telemetry::FLIGHT_RECORDER_CAPACITY;
use sqlcm_core::{Action, MonitorConfig, Rule, RuleEvent, Sqlcm, TraceSampling};
use sqlcm_engine::Engine;
use sqlcm_telemetry::{stripe_count, LANE_SHIFT};

const PER_THREAD: u64 = 1_000;

/// A fresh monitor with one unconditional rule, sampling `every_nth`, after
/// `threads` threads each injected `PER_THREAD` commits.
fn dispatchers_fire_one_rule(threads: u64, every_nth: u32) -> Sqlcm {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("every")
                .on(RuleEvent::QueryCommit)
                .then(Action::send_mail("dba", "hi")),
        )
        .unwrap();
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(every_nth),
        ..sqlcm.config()
    });
    let start = std::sync::Barrier::new(threads as usize);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (sqlcm, start) = (&sqlcm, &start);
            scope.spawn(move || {
                let events: Vec<EngineEvent> = (0..PER_THREAD)
                    .map(|i| {
                        EngineEvent::QueryCommit(QueryInfo::synthetic(
                            t * PER_THREAD + i,
                            "SELECT 1",
                        ))
                    })
                    .collect();
                start.wait();
                for e in &events {
                    sqlcm.inject_event(e);
                }
            });
        }
    });
    sqlcm
}

/// The lane an id names, and its place in that lane.
fn lane(id: u64) -> (u64, u64) {
    (id >> LANE_SHIFT, id & ((1 << LANE_SHIFT) - 1))
}

fn assert_merged_views_hold(sqlcm: &Sqlcm, threads: u64) {
    let snap = sqlcm.telemetry();
    let fires = snap.stats.fires;
    assert_eq!(fires, threads * PER_THREAD);
    assert_eq!(snap.flight_total, fires, "every firing is recorded once");
    let records = &snap.flight_records;
    assert!(records.len() <= FLIGHT_RECORDER_CAPACITY);
    assert_eq!(records.len(), FLIGHT_RECORDER_CAPACITY, "the rings wrapped");
    // A thread writes one lane, in its own order, and a lane numbers its
    // records as it takes them: increasing places within every lane mean
    // each thread's records kept their order.
    let mut last: HashMap<u64, u64> = HashMap::new();
    for r in records {
        let (lane, place) = lane(r.seq);
        if let Some(prev) = last.insert(lane, place) {
            assert!(prev < place, "lane {lane}: {prev} before {place}");
        }
    }

    let traces = sqlcm.traces();
    let retained: HashSet<u64> = traces.iter().map(|t| t.trace_id).collect();
    assert_eq!(retained.len(), traces.len(), "trace ids are unique");
    assert!(!retained.contains(&0), "0 means not traced");
    let dropped = snap.tracing.dropped;
    assert_eq!(
        snap.tracing.completed - dropped,
        traces.len() as u64,
        "every completed trace is kept or counted dropped"
    );
    // A traced firing names a trace its own dispatcher started: on the same
    // stripe, so under the same lane tag. One not retained was evicted, and
    // every eviction is counted in `dropped`. (Eviction order cannot be read
    // off ids: a shared lane's ring keeps traces in the order they finish.)
    let mut linked = HashSet::new();
    for r in records.iter().filter(|r| r.trace_id != 0) {
        assert!(linked.insert(r.trace_id), "one firing per traced event");
        assert_eq!(lane(r.seq).0, lane(r.trace_id).0, "one lane key");
    }
    let evicted = linked.iter().filter(|id| !retained.contains(id)).count();
    assert!(
        evicted as u64 <= dropped,
        "{evicted} linked traces neither kept nor counted evicted ({dropped})"
    );
}

#[test]
fn every_event_traced_on_two_dispatchers() {
    let sqlcm = dispatchers_fire_one_rule(2, 1);
    assert_merged_views_hold(&sqlcm, 2);
    let snap = sqlcm.telemetry();
    assert_eq!(snap.tracing.sampled, 2 * PER_THREAD);
    assert!(snap.flight_records.iter().all(|r| r.trace_id != 0));
}

#[test]
fn one_in_k_traced_on_two_dispatchers() {
    const K: u64 = 7;
    let sqlcm = dispatchers_fire_one_rule(2, K as u32);
    assert_merged_views_hold(&sqlcm, 2);
    // Each dispatcher samples 1 in K of its own events: ⌈1000 / 7⌉ each on
    // two stripes, ⌈2000 / 7⌉ when both threads share one.
    let sampled = sqlcm.telemetry().tracing.sampled;
    let apart = 2 * PER_THREAD.div_ceil(K);
    let shared = (2 * PER_THREAD).div_ceil(K);
    assert!(sampled == apart || sampled == shared, "{sampled}");
    let records = sqlcm.telemetry().flight_records;
    assert!(records.iter().any(|r| r.trace_id == 0));
    assert!(records.iter().any(|r| r.trace_id != 0));
}

#[test]
fn dispatchers_sharing_a_stripe_keep_the_merged_views() {
    // One thread more than there are stripes: live threads hold distinct
    // slots, so at least two of them write the same lanes.
    let threads = stripe_count() as u64 + 1;
    let sqlcm = dispatchers_fire_one_rule(threads, 1);
    assert_merged_views_hold(&sqlcm, threads);
    assert_eq!(sqlcm.telemetry().tracing.sampled, threads * PER_THREAD);
}

#[test]
fn a_traced_firing_and_its_trace_share_a_lane_tag() {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("every")
                .on(RuleEvent::QueryCommit)
                .then(Action::send_mail("dba", "hi")),
        )
        .unwrap();
    let commit = |sig| EngineEvent::QueryCommit(QueryInfo::synthetic(sig, "SELECT 1"));
    // This thread's lane records first, untraced, so it is tagged first.
    for sig in 0..10 {
        sqlcm.inject_event(&commit(sig));
    }
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    // While it lives, a second dispatcher takes another slot: its firings
    // and traces are tagged once, for its stripe, not once per recorder.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for sig in 10..20 {
                sqlcm.inject_event(&commit(sig));
            }
        });
    });
    let records = sqlcm.telemetry().flight_records;
    let traced: Vec<_> = records.iter().filter(|r| r.trace_id != 0).collect();
    assert_eq!(traced.len(), 10);
    for r in traced {
        assert_eq!(lane(r.seq).0, lane(r.trace_id).0, "{r:?}");
    }
}
