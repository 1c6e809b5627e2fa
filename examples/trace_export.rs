//! Causal tracing demo: run a cascading workload under sampling, print the
//! provenance trees, and export the traces as a Chrome trace-event file
//! loadable in `chrome://tracing` / Perfetto.
//!
//! The workload is the paper's eviction cascade: commits feed a bounded
//! top-K LAT; once it is full, every new template evicts a row, and the
//! eviction event — dispatched in the same batch, one cascade hop deeper —
//! fires an archival rule. Sampled traces capture the whole chain: event →
//! rule (with its "why it fired" explainer) → action → LAT mutation →
//! cascaded eviction event.
//!
//! ```sh
//! cargo run --release --example trace_export            # writes sqlcm_trace.json
//! cargo run --release --example trace_export -- out.json
//! ```

use sqlcm_repro::common::{EngineEvent, QueryInfo};
use sqlcm_repro::monitor::ClassName;
use sqlcm_repro::prelude::*;
use sqlcm_repro::workloads::{mixed, run_queries, tpch};

fn main() -> Result<()> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "sqlcm_trace.json".to_string());

    let engine = Engine::in_memory();
    let db = tpch::load(
        &engine,
        tpch::TpchConfig {
            orders: 500,
            parts: 100,
            customers: 50,
            seed: 7,
        },
    )?;
    engine.execute_batch("CREATE TABLE evicted_templates (sig INT, n INT);")?;

    let sqlcm = Sqlcm::attach(&engine);
    // A small bounded LAT so the workload overflows it quickly: the busiest
    // 8 templates stay, everything else cascades out as eviction events.
    sqlcm.define_lat(
        LatSpec::new("Busy")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .order_by("N", true)
            .max_rows(8),
    )?;
    sqlcm.add_rule(
        Rule::new("feed")
            .on(RuleEvent::QueryCommit)
            .then(Action::insert("Busy")),
    )?;
    // Conditioned rule: its trace spans carry the bound-value explainer.
    sqlcm.add_rule(
        Rule::new("hot")
            .on(RuleEvent::QueryCommit)
            .when("Busy.N >= 100")
            .then(Action::send_mail("dba@example.org", "hot template")),
    )?;
    // Cascade consumer: archive what the LAT evicts (§4.3 — evicted rows are
    // monitored objects).
    sqlcm.add_rule(
        Rule::new("archive")
            .on(RuleEvent::LatEviction("Busy".into()))
            .then(Action::PersistObject {
                table: "evicted_templates".into(),
                class: ClassName::Evicted("Busy".into()),
                attrs: vec!["Sig".into(), "N".into()],
            }),
    )?;

    // Sample one commit in 16; eviction hops ride in their root's trace.
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(16),
        ..sqlcm.config()
    });

    let workload = mixed::generate(
        &db,
        mixed::MixedConfig {
            point_selects: 2_000,
            join_selects: 20,
            seed: 1234,
        },
    );
    run_queries(&engine, &workload)?;

    // The mixed workload reuses a handful of templates, so the bounded LAT
    // rarely overflows. A burst of one-off templates churns it: every new
    // signature past the 8-row bound evicts a row, and the eviction event
    // cascades through the "archive" rule inside the same trace.
    sqlcm.configure(MonitorConfig {
        trace_sampling: TraceSampling::EveryNth(2),
        ..sqlcm.config()
    });
    for sig in 1_000..1_064u64 {
        let mut q = QueryInfo::synthetic(sig, format!("SELECT /* one-off {sig} */ 1"));
        q.logical_signature = Some(sig);
        q.duration_micros = 1_000;
        sqlcm.inject_event(&EngineEvent::QueryCommit(q));
    }

    let traces = sqlcm.traces();
    let tracing = sqlcm.telemetry().tracing;
    println!(
        "sampled {} of {} events ({} trace(s) retained, {} dropped, deepest cascade {})\n",
        tracing.sampled,
        sqlcm.stats().events,
        traces.len(),
        tracing.dropped,
        tracing.max_cascade_depth,
    );

    // Print the deepest trace and the most recent one as text trees.
    if let Some(deepest) = traces.iter().max_by_key(|t| t.max_cascade_depth) {
        println!("deepest trace:\n{}", deepest.to_text_tree());
    }
    if let Some(last) = traces.last() {
        println!("most recent trace:\n{}", last.to_text_tree());
    }

    let json = chrome_trace_json(&traces);
    std::fs::write(&out_path, &json)?;
    println!(
        "wrote {} traces ({} bytes) to {out_path} — load it in chrome://tracing",
        traces.len(),
        json.len()
    );

    // Sanity for CI: the sampled cascade must be visible end to end.
    assert!(!traces.is_empty(), "sampling collected no traces");
    let cascaded: Vec<&TraceSnapshot> =
        traces.iter().filter(|t| t.max_cascade_depth >= 1).collect();
    assert!(
        !cascaded.is_empty(),
        "no sampled trace observed an eviction cascade"
    );
    assert!(
        tracing.max_cascade_depth as usize <= sqlcm.cascade_depth_bound(),
        "observed cascade depth {} exceeds the analyzer bound {}",
        tracing.max_cascade_depth,
        sqlcm.cascade_depth_bound()
    );
    for t in &cascaded {
        let evict = t
            .spans
            .iter()
            .find(|s| matches!(&s.kind, SpanKind::Event { depth, .. } if *depth > 0))
            .expect("cascaded trace has a deferred event span");
        let cause = evict.cause.expect("cascaded event links its cause");
        assert!(
            matches!(t.spans[cause as usize].kind, SpanKind::LatMutation { .. }),
            "cascade cause must be the LAT mutation"
        );
    }
    assert!(json.starts_with("{\"traceEvents\":["), "export shape");
    let archived = engine.query("SELECT COUNT(*) FROM evicted_templates")?;
    println!("archived evictions: {archived:?}");
    Ok(())
}
