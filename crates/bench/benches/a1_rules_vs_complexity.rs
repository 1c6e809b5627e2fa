//! **A1 — ablation: rule count vs. condition complexity vs. LAT maintenance.**
//!
//! Decomposes Figure 2's overhead to test the paper's two §5/§6.2.1 claims:
//!
//! * "the overhead for rule evaluation is mainly a function of the number of
//!   rules … but does not vary significantly between rules of different
//!   complexity";
//! * "the complexity of rules has very little impact on the additional
//!   overhead; rather, the overhead due to LAT maintenance … is the biggest
//!   factor".
//!
//! Four rule flavours, same workload:
//!   (a) evaluate-only — condition with k atoms ending in a false atom, so no
//!       action ever runs (pure evaluation cost);
//!   (b) fire + no-op-ish action — condition true, action `SendMail` to the
//!       recording sink (cheap action, no LAT);
//!   (c) fire + LAT insert — the Figure-2 configuration;
//!   (d) selective per-tenant — an equality guard (`Query.User = 'tenant_r'`)
//!       no workload event matches, the shape the guard index exists for:
//!       one probe prunes every rule.
//!
//! Flavours (a)–(c) are deliberately non-selective (every guard admits every
//! event), so the guard index cannot help there. Per-registered-rule cost of
//! the selective shape is tracked end to end by `benchmark/`'s
//! `storm_selective_1k` workload.

use sqlcm_bench::{banner, engine_with_db, env_u32};
use sqlcm_core::{Action, LatAggFunc, LatSpec, Rule, RuleEvent, Sqlcm};
use sqlcm_workloads::{mixed, run_queries};

fn cond(k: usize, fire: bool) -> String {
    let mut atoms: Vec<&str> = (0..k.saturating_sub(1))
        .map(|i| {
            [
                "Query.Duration >= 0",
                "Query.ID > 0",
                "Query.Estimated_Cost >= 0",
                "Query.Times_Blocked >= 0",
            ][i % 4]
        })
        .collect();
    atoms.push(if fire {
        "Query.Session_ID >= 0"
    } else {
        "Query.ID < 0"
    });
    atoms.join(" AND ")
}

fn main() {
    let orders = env_u32("SQLCM_ORDERS", 5_000);
    let n_queries = env_u32("SQLCM_QUERIES", 2_000);
    let rules = env_u32("SQLCM_RULES", 1_000);
    let (engine, db) = engine_with_db(orders);
    let workload = mixed::point_select_workload(&db, n_queries, 13);

    banner(
        "A1: what costs what — evaluation vs. firing vs. LAT maintenance",
        &format!("{n_queries} point selects, {rules} rules each flavour"),
    );

    let runs = 3;
    let run = || {
        let t = std::time::Instant::now();
        run_queries(&engine, &workload).expect("workload");
        t.elapsed()
    };
    run(); // warmup
    println!("baseline (no rules): {:.3?}", run());
    println!("per flavour: median of {runs} paired (baseline, monitored) rounds");
    println!();
    println!(
        "{:<34} {:>6} {:>12} {:>10}",
        "flavour", "conds", "time", "ns/q·rule"
    );

    // Paired measurement: each round runs baseline + monitored back-to-back so
    // shared-vCPU drift cancels out of the per-rule subtraction.
    let measure = |sqlcm: &Sqlcm| -> (std::time::Duration, f64) {
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
            (m1.as_secs_f64() / b1.as_secs_f64()).total_cmp(&(m2.as_secs_f64() / b2.as_secs_f64()))
        });
        let (b, m) = pairs[pairs.len() / 2];
        let per_rule = (m.as_nanos() as f64 - b.as_nanos() as f64).max(0.0)
            / (n_queries as f64 * rules as f64);
        (m, per_rule)
    };

    let report = |sqlcm: &Sqlcm, label: &str, k: usize| {
        let (time, per_rule) = measure(sqlcm);
        println!("{label:<34} {k:>6} {time:>12.3?} {per_rule:>10.0}");
    };

    for &k in &[1usize, 5, 20] {
        // (a) evaluate-only.
        let sqlcm = Sqlcm::attach(&engine);
        sqlcm.detach(&engine);
        for r in 0..rules {
            sqlcm
                .add_rule(
                    Rule::new(format!("eval_{r}"))
                        .on(RuleEvent::QueryCommit)
                        .when(&cond(k, false))
                        .then(Action::send_mail("x", "never sent")),
                )
                .expect("rule");
        }
        report(&sqlcm, "evaluate only (never fires)", k);
        assert_eq!(sqlcm.stats().fires, 0, "false tail atom must block firing");

        // (b) fire + cheap action.
        let sqlcm = Sqlcm::attach(&engine);
        sqlcm.detach(&engine);
        for r in 0..rules {
            sqlcm
                .add_rule(
                    Rule::new(format!("fire_{r}"))
                        .on(RuleEvent::QueryCommit)
                        .when(&cond(k, true))
                        .then(Action::send_mail("x", "fired")),
                )
                .expect("rule");
        }
        report(&sqlcm, "fire + SendMail (no LAT)", k);

        // (c) fire + LAT insert (the Figure-2 shape).
        let sqlcm = Sqlcm::attach(&engine);
        sqlcm.detach(&engine);
        for r in 0..rules {
            let lat = format!("lat_{r}");
            sqlcm
                .define_lat(
                    LatSpec::new(&lat)
                        .group_by("Query.ID", "ID")
                        .aggregate(LatAggFunc::Last, "Query.Query_Text", "Query_Text")
                        .aggregate(LatAggFunc::Last, "Query.Duration", "Duration")
                        .order_by("ID", true)
                        .max_rows(10),
                )
                .expect("lat");
            sqlcm
                .add_rule(
                    Rule::new(format!("latrule_{r}"))
                        .on(RuleEvent::QueryCommit)
                        .when(&cond(k, true))
                        .then(Action::insert(&lat)),
                )
                .expect("rule");
        }
        report(&sqlcm, "fire + LAT insert (Figure 2)", k);

        // (d) selective per-tenant equality guard: the guard-index shape.
        let sqlcm = Sqlcm::attach(&engine);
        sqlcm.detach(&engine);
        for r in 0..rules {
            sqlcm
                .add_rule(
                    Rule::new(format!("sel_{r}"))
                        .on(RuleEvent::QueryCommit)
                        .when(&format!("Query.User = 'tenant_{r}' AND {}", cond(k, true)))
                        .then(Action::send_mail("x", "tenant hit")),
                )
                .expect("rule");
        }
        report(&sqlcm, "selective per-tenant (no match)", k);
        assert_eq!(sqlcm.stats().fires, 0, "no workload user is a tenant");
        println!();
    }
    println!(
        "paper claims to compare: per-rule cost should rise only mildly with \
         condition count, and the LAT-insert flavour should dominate. The \
         selective flavour shows the guard index collapsing rule-count cost \
         when guards discriminate."
    );
}
