//! **F2 — Figure 2: rule-evaluation and LAT-maintenance overhead.**
//!
//! Paper setup (§6.2.1): baseline of 10,000 single-row clustered-index selects
//! on `lineitem`; then the same workload with 100–1,000 rules of 1–20 atomic
//! conditions, *all evaluated for every query*, each rule additionally
//! maintaining its own fixed-size LAT "storing all attributes (incl. query
//! text) of the last 10 queries seen, indexed by the signature id".
//!
//! Paper findings to check:
//!   1. overhead grows with the number of rules;
//!   2. "the complexity of rules has very little impact";
//!   3. "the overhead due to LAT maintenance … is the biggest factor".
//!
//! Absolute percentages are substrate-relative: our baseline point select costs
//! ~100 µs where the prototype's (900 MHz, disk-era) cost milliseconds, so the
//! same per-rule nanoseconds are a larger *fraction* here. The per-(query×rule)
//! cost in ns — printed in the last column — is the hardware-portable number.

use sqlcm_bench::{banner, engine_with_db, env_flag, env_u32, overhead_pct};
use sqlcm_core::{Action, LatAggFunc, LatSpec, Rule, RuleEvent, Sqlcm};
use sqlcm_engine::Engine;
use sqlcm_workloads::{mixed, run_queries};

/// A condition with `k` atomic comparisons that always evaluates true.
fn condition(k: usize) -> String {
    let atoms = [
        "Query.Duration >= 0",
        "Query.Estimated_Cost >= 0",
        "Query.ID > 0",
        "Query.Times_Blocked >= 0",
        "Query.Queries_Blocked >= 0",
        "Query.Time_Blocked >= 0",
        "Query.Session_ID >= 0",
        "Query.Transaction_ID >= 0",
    ];
    (0..k)
        .map(|i| atoms[i % atoms.len()])
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// The paper's per-rule LAT: all attributes (incl. query text) of the last 10
/// queries, keyed by query id, signature retained as an attribute.
fn per_rule_lat(name: &str) -> LatSpec {
    LatSpec::new(name)
        .group_by("Query.ID", "ID")
        .aggregate(LatAggFunc::Last, "Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Last, "Query.Query_Text", "Query_Text")
        .aggregate(LatAggFunc::Last, "Query.Duration", "Duration")
        .aggregate(LatAggFunc::Last, "Query.Estimated_Cost", "Cost")
        .aggregate(LatAggFunc::Last, "Query.Start_Time", "Start_Time")
        .aggregate(LatAggFunc::Last, "Query.User", "Usr")
        .aggregate(LatAggFunc::Last, "Query.Application", "App")
        .aggregate(LatAggFunc::Last, "Query.Query_Type", "QType")
        .order_by("ID", true)
        .max_rows(10)
}

fn install(sqlcm: &Sqlcm, rules: u32, conditions: usize) {
    for r in 0..rules {
        let lat = format!("lat_{r}");
        sqlcm.define_lat(per_rule_lat(&lat)).expect("lat");
        sqlcm
            .add_rule(
                Rule::new(format!("rule_{r}"))
                    .on(RuleEvent::QueryCommit)
                    .when(&condition(conditions))
                    .then(Action::insert(&lat)),
            )
            .expect("rule");
    }
}

fn main() {
    let orders = env_u32("SQLCM_ORDERS", 10_000);
    let n_queries = env_u32("SQLCM_QUERIES", 3_000);
    let full = env_flag("SQLCM_FULL");
    let (engine, db) = engine_with_db(orders);
    let workload = mixed::point_select_workload(&db, n_queries, 11);

    banner(
        "F2: rule evaluation + LAT maintenance overhead (Figure 2)",
        &format!(
            "{n_queries} single-row clustered-index selects on lineitem ({} rows); \
             every rule fires on every query and maintains its own 10-row LAT",
            db.lineitem_count
        ),
    );

    let runs = 3;
    let run = || {
        let t = std::time::Instant::now();
        run_queries(&engine, &workload).expect("workload");
        t.elapsed()
    };
    run(); // warmup
    println!("baseline (no rules): {:.3?}", run());
    println!("per cell: median of {runs} paired (baseline, monitored) rounds");
    println!();
    println!(
        "{:>6} {:>11} {:>12} {:>12} {:>10} {:>16}",
        "rules", "conditions", "baseline", "time", "overhead", "ns/(query·rule)"
    );

    let rule_counts: &[u32] = if full {
        &[100, 250, 500, 1000]
    } else {
        &[100, 250, 1000]
    };
    let cond_counts: &[usize] = if full { &[1, 5, 10, 20] } else { &[1, 20] };

    for &rules in rule_counts {
        for &conds in cond_counts {
            let sqlcm = Sqlcm::attach(&engine);
            sqlcm.detach(&engine);
            install(&sqlcm, rules, conds);
            // Paired rounds: baseline drift on a shared vCPU would otherwise
            // dominate the subtraction that yields the per-rule cost.
            let mut pairs: Vec<(std::time::Duration, std::time::Duration)> = (0..runs)
                .map(|_| {
                    let b = run();
                    sqlcm.reattach(&engine);
                    let m = run();
                    sqlcm.detach(&engine);
                    (b, m)
                })
                .collect();
            pairs.sort_by(|(b1, m1), (b2, m2)| {
                (m1.as_secs_f64() / b1.as_secs_f64())
                    .total_cmp(&(m2.as_secs_f64() / b2.as_secs_f64()))
            });
            let (base, t) = pairs[pairs.len() / 2];
            let per_rule_ns = (t.as_nanos() as f64 - base.as_nanos() as f64).max(0.0)
                / (n_queries as f64 * rules as f64);
            println!(
                "{:>6} {:>11} {:>12.3?} {:>12.3?} {:>9.2}% {:>16.0}",
                rules,
                conds,
                base,
                t,
                overhead_pct(base, t),
                per_rule_ns
            );
            let stats = sqlcm.stats();
            assert_eq!(stats.action_errors, 0, "no failed actions: {stats:?}");
        }
    }

    drop(engine);
    // Sanity anchor for finding 2/3: see a1_rules_vs_complexity for the
    // decomposition into pure-evaluation vs LAT-maintenance cost.
    println!();
    println!(
        "paper findings to compare: overhead grows with #rules; condition \
         complexity barely matters; LAT maintenance dominates (see bench a1)."
    );
    let _ = Engine::in_memory();
}
