//! **T2 — probe/instrumentation overhead** (paper §6.2.1, text claim).
//!
//! "The instrumentation of probes inside the server execution path only
//! contributes little overhead to the DBMS" and "no monitoring is performed
//! unless it is required by a rule."
//!
//! Three configurations over the same point-select workload:
//!
//! 1. no monitor attached — event assembly is skipped entirely
//!    (`Multicast::emit_with` checks for listeners first);
//! 2. a null monitor attached — events are assembled and delivered, dropped on
//!    arrival (the pure probe cost);
//! 3. SQLCM attached with **zero rules** — events flow into the rule engine and
//!    hit an empty rule table.
//!
//! Expected: (2) and (3) within a few percent of (1).

use sqlcm_bench::{banner, engine_with_db, env_u32};
use sqlcm_core::Sqlcm;
use sqlcm_engine::instrument::NullInstrumentation;
use sqlcm_workloads::{mixed, run_queries};

fn main() {
    let orders = env_u32("SQLCM_ORDERS", 10_000);
    let n_queries = env_u32("SQLCM_QUERIES", 10_000);
    let (engine, db) = engine_with_db(orders);
    let workload = mixed::point_select_workload(&db, n_queries, 7);
    banner(
        "T2: probe overhead with no / null / rule-less monitoring (§6.2.1)",
        &format!(
            "{n_queries} point selects on lineitem ({} rows)",
            db.lineitem_count
        ),
    );

    // Interleave the three configurations round-robin so machine drift cancels
    // out of the ratios.
    let rounds = 5;
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm.detach(&engine);
    let run = || {
        let t = std::time::Instant::now();
        run_queries(&engine, &workload).expect("workload");
        t.elapsed()
    };
    run(); // warmup
    let mut bases = Vec::new();
    let mut null_ratios = Vec::new();
    let mut sqlcm_ratios = Vec::new();
    for _ in 0..rounds {
        let b = run();
        engine.attach_monitor(std::sync::Arc::new(NullInstrumentation));
        let n = run();
        engine.detach_monitor("null");
        sqlcm.reattach(&engine);
        let s = run();
        sqlcm.detach(&engine);
        bases.push(b);
        null_ratios.push(n.as_secs_f64() / b.as_secs_f64());
        sqlcm_ratios.push(s.as_secs_f64() / b.as_secs_f64());
    }
    bases.sort();
    null_ratios.sort_by(f64::total_cmp);
    sqlcm_ratios.sort_by(f64::total_cmp);
    let base = bases[rounds / 2];
    println!("no monitor:          {:>10.3?}  (baseline)", base);
    println!(
        "null monitor:        {:>+9.2}%  (median paired ratio)",
        (null_ratios[rounds / 2] - 1.0) * 100.0
    );
    println!(
        "SQLCM, zero rules:   {:>+9.2}%  (median paired ratio)",
        (sqlcm_ratios[rounds / 2] - 1.0) * 100.0
    );
    let _ = sqlcm.stats();
    println!();
    println!(
        "paper claim: probe instrumentation adds negligible overhead; \
         monitoring cost is limited to what active rules require."
    );
}
