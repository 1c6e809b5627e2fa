//! Integration tests: the §6.2.2 baselines against ground truth.

use std::time::Duration;

use sqlcm_repro::baselines::{missed_count, top_k, QueryCost};
use sqlcm_repro::engine::engine::{EngineConfig, HistoryMode};
use sqlcm_repro::prelude::*;
use sqlcm_repro::workloads::{mixed, run_queries, tpch};

fn history_engine() -> (Engine, sqlcm_repro::workloads::TpchDb) {
    let engine = Engine::new(EngineConfig {
        history: HistoryMode::Unbounded,
        ..Default::default()
    });
    let db = tpch::load(
        &engine,
        tpch::TpchConfig {
            orders: 400,
            parts: 60,
            customers: 30,
            seed: 21,
        },
    )
    .unwrap();
    (engine, db)
}

fn run_and_truth(engine: &Engine, w: &[mixed::WorkloadQuery]) -> Vec<QueryCost> {
    engine.history().unwrap().drain();
    run_queries(engine, w).unwrap();
    engine
        .history()
        .unwrap()
        .drain()
        .into_iter()
        .map(|q| QueryCost {
            query_id: q.id,
            text: q.text,
            duration_micros: q.duration_micros,
        })
        .collect()
}

#[test]
fn query_logging_is_lossless_and_matches_truth() {
    let (engine, db) = history_engine();
    let w = mixed::generate(
        &db,
        mixed::MixedConfig {
            point_selects: 400,
            join_selects: 6,
            seed: 1,
        },
    );
    let log = QueryLogging::in_memory();
    log.attach(&engine);
    let truth = run_and_truth(&engine, &w);
    engine.detach_monitor("query_logging");
    assert_eq!(log.logged() as usize, w.len());
    let top_truth = top_k(&truth, 10);
    let top_log = log.top_k(10).unwrap();
    assert_eq!(missed_count(&top_truth, &top_log), 0, "logging is exact");
    // The top of the list must be the join queries.
    assert!(top_log[0].text.contains("JOIN"));
}

#[test]
fn pull_misses_what_completes_between_polls() {
    let (engine, db) = history_engine();
    let w = mixed::generate(
        &db,
        mixed::MixedConfig {
            point_selects: 2_000,
            join_selects: 10,
            seed: 2,
        },
    );
    // Glacial polling: almost everything completes between polls.
    let monitor = PullMonitor::start(&engine, Duration::from_secs(30));
    let truth = run_and_truth(&engine, &w);
    let report = monitor.stop();
    let top_truth = top_k(&truth, 10);
    let missed = missed_count(&top_truth, &report.top_k(10));
    assert!(
        missed >= 5,
        "glacial PULL must miss most of the top-10, missed only {missed}"
    );
}

#[test]
fn pull_history_is_exact_at_any_rate() {
    let (engine, db) = history_engine();
    let w = mixed::generate(
        &db,
        mixed::MixedConfig {
            point_selects: 500,
            join_selects: 5,
            seed: 3,
        },
    );
    engine.history().unwrap().drain(); // discard the data-load entries
    let monitor = PullHistory::start(&engine, Duration::from_millis(50));
    run_queries(&engine, &w).unwrap();
    let report = monitor.stop(&engine);
    assert_eq!(
        report.observed.len(),
        w.len(),
        "history drains must capture every query"
    );
    assert!(report.peak_history_bytes > 0);
    let top = report.top_k(10);
    assert!(top[0].text.contains("JOIN"));
}

#[test]
fn sqlcm_lat_matches_logging_answer() {
    // SQLCM's 10-row LAT and the lossless log must agree on the top-10 ids.
    let (engine, db) = history_engine();
    let w = mixed::generate(
        &db,
        mixed::MixedConfig {
            point_selects: 300,
            join_selects: 8,
            seed: 4,
        },
    );
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("TopK")
                .group_by("Query.ID", "ID")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .order_by("D", true)
                .max_rows(10),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("track")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("TopK")),
        )
        .unwrap();
    let truth = run_and_truth(&engine, &w);
    let top_truth = top_k(&truth, 10);
    let lat_ids: Vec<u64> = sqlcm
        .lat("TopK")
        .unwrap()
        .rows_ordered()
        .iter()
        .map(|r| r[0].as_i64().unwrap() as u64)
        .collect();
    let truth_ids: Vec<u64> = top_truth.iter().map(|t| t.query_id).collect();
    // Same membership; order may differ on duration ties.
    let mut a = lat_ids.clone();
    let mut b = truth_ids.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "SQLCM top-10 ≡ lossless truth");
}
