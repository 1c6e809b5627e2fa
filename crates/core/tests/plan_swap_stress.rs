//! Plan-swap race stress: concurrent registry mutations (`add_rule` /
//! `remove_rule` / `define_lat` / `drop_lat`) against 8 dispatch threads.
//!
//! Invariants under churn:
//! * no panics and no deadlocks across ≥10k events;
//! * stats conservation — every dispatched event evaluates the stable rule
//!   exactly once (no lost or double evaluations across plan swaps), and the
//!   global evaluation counter equals the sum of per-rule counts;
//! * the published plan epoch is monotone and matches the rebuild count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sqlcm_common::{EngineEvent, QueryInfo};
use sqlcm_core::{Action, LatAggFunc, LatSpec, Rule, RuleEvent, Sqlcm};
use sqlcm_engine::Engine;

const DISPATCH_THREADS: usize = 8;
const EVENTS_PER_THREAD: u64 = 2_000; // 16k events total, ≥10k required
const CHURN_ROUNDS: usize = 150;

fn commit_event(sig: u64) -> EngineEvent {
    let mut q = QueryInfo::synthetic(sig, "SELECT 1");
    q.logical_signature = Some(sig);
    q.duration_micros = 1_000;
    EngineEvent::QueryCommit(q)
}

#[test]
fn concurrent_registry_churn_never_loses_or_doubles_evaluations() {
    let engine = Engine::in_memory();
    let sqlcm = Arc::new(Sqlcm::attach(&engine));
    sqlcm
        .define_lat(
            LatSpec::new("Stable_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    // The stable rule is present in every published plan, so each QueryCommit
    // must evaluate it exactly once no matter which plan the event caught.
    sqlcm
        .add_rule(
            Rule::new("stable")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration >= 0")
                .then(Action::insert("Stable_LAT")),
        )
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Churn thread: registers and removes rules subscribed to events the
        // dispatch threads never raise (their evaluation counts stay zero, so
        // removal cannot break stats conservation), and defines/drops LATs the
        // churn rules condition on — exercising broken-rule plan states too.
        let churn_sqlcm = sqlcm.clone();
        let churn_stop = stop.clone();
        s.spawn(move || {
            for round in 0..CHURN_ROUNDS {
                if churn_stop.load(Ordering::Relaxed) {
                    break;
                }
                let lat = format!("Churn_LAT_{round}");
                churn_sqlcm
                    .define_lat(LatSpec::new(&lat).group_by("Session.User", "U").aggregate(
                        LatAggFunc::Count,
                        "",
                        "N",
                    ))
                    .unwrap();
                let rule = format!("churn_{round}");
                churn_sqlcm
                    .add_rule(
                        Rule::new(&rule)
                            .on(RuleEvent::Logout)
                            .when(&format!("{lat}.N >= 0"))
                            .then(Action::insert(&lat)),
                    )
                    .unwrap();
                // Drop the LAT while the rule is still registered: dispatch
                // threads now race against a plan carrying a broken rule
                // (harmless here — Logout is never raised).
                assert!(churn_sqlcm.drop_lat(&lat));
                assert!(churn_sqlcm.remove_rule(&rule));
            }
        });

        let mut handles = Vec::new();
        for t in 0..DISPATCH_THREADS {
            let sqlcm = sqlcm.clone();
            handles.push(s.spawn(move || {
                for i in 0..EVENTS_PER_THREAD {
                    let ev = commit_event(t as u64 * EVENTS_PER_THREAD + i);
                    sqlcm.inject_event(&ev);
                }
            }));
        }
        for h in handles {
            h.join().expect("dispatch thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
    });

    let total_events = DISPATCH_THREADS as u64 * EVENTS_PER_THREAD;
    let stats = sqlcm.stats();
    assert_eq!(stats.events, total_events);

    // Exactly-once evaluation of the stable rule across every plan swap.
    let stable = sqlcm.rule("stable").unwrap().stats();
    assert_eq!(stable.evaluations, total_events, "lost/double evaluations");
    assert_eq!(stable.fires, total_events);

    // Conservation: the global counter is the sum of per-rule counts (churn
    // rules all evaluated zero times and were removed; any still-registered
    // rules are visible in telemetry).
    let per_rule_sum: u64 = sqlcm.telemetry().rules.iter().map(|r| r.evaluations).sum();
    assert_eq!(stats.evaluations, per_rule_sum);
    assert_eq!(stats.evaluations, total_events);

    // Plan bookkeeping stayed coherent under concurrent rebuilds.
    let d = sqlcm.telemetry().dispatch;
    assert_eq!(d.plan_rebuilds, d.plan_epoch);
    // 1 LAT + 1 rule + 4 mutations per completed churn round.
    assert!(d.plan_epoch >= 2);
    assert_eq!(
        sqlcm.lat("Stable_LAT").unwrap().row_count() as u64,
        total_events
    );
}

/// Superseded plans die: 1 000 publications (500 rules added and removed)
/// under four dispatchers, a `Weak` kept to every removed rule — alive
/// exactly as long as a plan that contains it. Once every dispatcher has
/// handled one more event, only the published plan and the plans the
/// dispatchers still cache can be alive; once the monitor and the threads
/// are gone, none is.
#[test]
fn superseded_plans_are_freed_under_dispatch() {
    use std::sync::Barrier;
    const THREADS: usize = 4;
    const ROUNDS: usize = 500;
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("stable")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration >= 0"),
        )
        .unwrap();
    let stop = AtomicBool::new(false);
    let published = Barrier::new(THREADS + 1);
    let counted = Barrier::new(THREADS + 1);
    let mut removed = Vec::with_capacity(ROUNDS);
    let mut alive = 0;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (sqlcm, stop, published, counted) = (&sqlcm, &stop, &published, &counted);
            s.spawn(move || {
                let ev = commit_event(t as u64);
                while !stop.load(Ordering::Relaxed) {
                    sqlcm.inject_event(&ev);
                }
                published.wait();
                sqlcm.inject_event(&ev);
                counted.wait();
                counted.wait();
            });
        }
        for round in 0..ROUNDS {
            let name = format!("churn_{round}");
            let rule = sqlcm
                .add_rule(
                    Rule::new(&name)
                        .on(RuleEvent::QueryCommit)
                        .when(&format!("Query.User = 'nobody_{round}'")),
                )
                .unwrap();
            removed.push(Arc::downgrade(&rule));
            drop(rule);
            assert!(sqlcm.remove_rule(&name));
        }
        stop.store(true, Ordering::Relaxed);
        published.wait();
        counted.wait();
        alive = removed.iter().filter(|r| r.upgrade().is_some()).count();
        counted.wait();
    });
    assert!(alive <= 1 + THREADS, "{alive} superseded plans still alive");
    assert_eq!(
        sqlcm.telemetry().dispatch.plan_epoch,
        1 + 2 * ROUNDS as u64,
        "one publication per registry mutation"
    );
    drop(sqlcm);
    assert!(removed.iter().all(|r| r.upgrade().is_none()));
}
