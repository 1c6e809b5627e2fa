//! The telemetry export against its documentation: every path
//! `TelemetrySnapshot::to_json` emits is a row of the README's telemetry
//! table and every row is emitted, and the README's `Monitor` attribute list
//! is the one `ClassName::Monitor.schema()` declares, which the `Monitor` object
//! is laid out by.

use std::collections::BTreeSet;

use sqlcm_repro::common::{EngineEvent, QueryInfo};
use sqlcm_repro::monitor::{BreakerConfig, RetryPolicy};
use sqlcm_repro::prelude::*;

#[path = "../crates/core/tests/faulty_sink/mod.rs"]
mod faulty_sink;
use faulty_sink::{FaultRate, FaultySink};
#[path = "../crates/core/tests/json/mod.rs"]
mod json;
use json::{parse_json, Json};

const README: &str = include_str!("../README.md");
const QUOTED: &str = "say \"hi\"";

/// A snapshot with every list non-empty: a condition error (`last_error`),
/// tripped breakers (`quarantined`, `breakers`), a dead sink behind async
/// actions (`losses`), every event sampled (trace ids in flight records), and
/// a rule name with a quote in it.
fn populated() -> TelemetrySnapshot {
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
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(1),
        ..sqlcm.config()
    });
    sqlcm.define_topk_duration_lat("TopK", 4).unwrap();
    let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
    let rules = [
        on_commit("track").then(Action::insert("TopK")),
        on_commit("div_zero").when("Query.ID / 0 > 1"),
        on_commit(QUOTED).then(Action::run_external("doomed")),
    ];
    for rule in rules {
        sqlcm.add_rule(rule).unwrap();
    }
    for id in 1..=32 {
        let q = QueryInfo::synthetic(id, "SELECT 1");
        sqlcm.inject_event(&EngineEvent::QueryCommit(q));
        sqlcm.pump_deferred_actions();
    }
    sqlcm.telemetry()
}

fn is_histogram(fields: &[(String, Json)]) -> bool {
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys == ["count", "sum", "max", "p50", "p95", "p99"]
}

/// Every leaf path of the export in dotted form, `[]` for a list of slices.
/// A histogram is one leaf; a list of labels is the list's own path; an
/// absent slice (`null`) contributes nothing.
fn export_paths(value: &Json, path: &str, out: &mut BTreeSet<String>) {
    match value {
        Json::Obj(fields) if !is_histogram(fields) => {
            for (key, v) in fields {
                let sub = match path {
                    "" => key.clone(),
                    _ => format!("{path}.{key}"),
                };
                export_paths(v, &sub, out);
            }
        }
        Json::Arr(items) => {
            for item in items {
                match item {
                    Json::Obj(_) => export_paths(item, &format!("{path}[]"), out),
                    _ => export_paths(item, path, out),
                }
            }
        }
        Json::Null => {}
        _ => {
            out.insert(path.to_string());
        }
    }
}

/// The README section that documents the telemetry.
fn readme_section() -> &'static str {
    let start = README
        .find("## Self-telemetry")
        .expect("README has the section");
    let rest = &README[start + 2..];
    &README[start..start + 2 + rest.find("\n## ").unwrap_or(rest.len())]
}

/// The first cell of every row of the section's metric table.
fn readme_paths() -> BTreeSet<String> {
    readme_section()
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|cell| cell[..cell.find('`').unwrap()].to_string())
        .collect()
}

#[test]
fn readme_table_lists_exactly_the_exported_paths() {
    let snap = populated();
    let doc = parse_json(&snap.to_json()).expect("the export is valid JSON");

    // The snapshot is as populated as the doc comment says.
    let names: Vec<&str> = snap.rules.iter().map(|r| r.name.as_str()).collect();
    assert!(names.contains(&QUOTED), "{names:?}");
    let rules = doc.get("rules").and_then(Json::as_arr).unwrap();
    assert!(rules
        .iter()
        .any(|r| r.get("name").and_then(Json::as_str) == Some(QUOTED)));
    assert!(snap.rules.iter().any(|r| r.last_error.is_some()));
    assert!(!snap.containment.quarantined.is_empty());
    assert!(!snap.containment.breakers.is_empty());
    assert!(!snap.containment.losses.is_empty());
    assert!(snap.flight_records.iter().any(|r| r.trace_id != 0));

    let mut exported = BTreeSet::new();
    export_paths(&doc, "", &mut exported);
    let documented = readme_paths();
    let undocumented: Vec<_> = exported.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&exported).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "exported but not in the README table: {undocumented:?}; \
         in the README table but not exported: {stale:?}"
    );
}

#[test]
fn readme_lists_the_monitor_attributes_in_value_order() {
    let section = readme_section();
    let list = &section[section.find("\n`Name`").expect("the attribute list")..];
    let listed: Vec<&str> = list[1..list.find("\n\n").unwrap_or(list.len())]
        .split('`')
        .skip(1)
        .step_by(2)
        .collect();
    // The object's attribute names are `ClassName::Monitor.schema()`'s, in
    // its order (`objects::attr_names`).
    let snap = Sqlcm::attach(&Engine::in_memory()).telemetry();
    let monitor = sqlcm_repro::monitor::objects::monitor_object(&snap);
    assert_eq!(listed, monitor.attribute_names());
}
