//! Monitoring rule catalogs for the workload drivers.
//!
//! Each workload module ships a vetted (LAT, rule) catalog describing what the
//! paper's scenarios monitor while that workload runs: outlier detection for
//! the mixed workload (Example 1), blocking hotspots for the lock-contention
//! workload (Example 2), top-k tracking for TPC-H (Example 3), and usage
//! auditing for the skewed customer-like workload. Benches and examples share
//! these catalogs instead of re-inventing ad-hoc rules, and CI lints every
//! catalog with the static analyzer in deny-warnings mode
//! (`cargo run --example lint_rules -- --workloads --deny-warnings`), so a
//! catalog edit that introduces even a warning-severity diagnostic fails the
//! build.
//!
//! Keep feeders (`Action::insert`) registered before the rules that read the
//! fed aggregates: the confluence pass (W301) flags the opposite order, and
//! the interference is real — a reader registered first observes pre-event
//! state, one registered after a feeder observes the update.

use sqlcm_core::{Action, LatAggFunc, LatSpec, Rule, RuleEvent};

/// A named, lint-clean set of LAT definitions plus ECA rules. Registration
/// order of `rules` is significant (§5 evaluates in registration order).
pub struct RuleCatalog {
    /// Workload module the catalog belongs to.
    pub name: &'static str,
    /// One-line description of what the rules watch.
    pub scenario: &'static str,
    pub lats: Vec<LatSpec>,
    pub rules: Vec<Rule>,
}

/// Example 1 / §6.2: outlier detection over the mixed workload. Tracks
/// per-signature duration statistics and mails the DBA when a query runs more
/// than 5× its historical average (with a warm-up floor of 30 samples).
pub fn mixed() -> RuleCatalog {
    RuleCatalog {
        name: "mixed",
        scenario: "per-signature duration outliers (Example 1)",
        lats: vec![LatSpec::new("Duration_LAT")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")],
        rules: vec![
            Rule::new("track_durations")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Duration_LAT")),
            Rule::new("report_outlier")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 5 * Duration_LAT.Avg_Duration AND Duration_LAT.N >= 30")
                .then(Action::send_mail("dba", "outlier: {Query.Query_Text}")),
        ],
    }
}

/// Example 3: top-k longest-running query signatures over the TPC-H workload,
/// persisted on a timer so the ranking survives monitor restarts.
pub fn tpch() -> RuleCatalog {
    RuleCatalog {
        name: "tpch",
        scenario: "top-k longest queries with hourly persist (Example 3)",
        lats: vec![LatSpec::new("TopK_LAT")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(10)],
        rules: vec![
            Rule::new("track_topk")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("TopK_LAT")),
            Rule::new("persist_topk")
                .on(RuleEvent::TimerAlarm("hourly".into()))
                .then(Action::persist_lat("topk_history", "TopK_LAT")),
        ],
    }
}

/// Example 1's stored-procedure variant: per-procedure latency statistics
/// with a slow-invocation alert and a nightly statistics reset.
pub fn procs() -> RuleCatalog {
    RuleCatalog {
        name: "procs",
        scenario: "per-procedure latency outliers with nightly reset",
        lats: vec![LatSpec::new("Proc_LAT")
            .group_by("Query.Procedure", "Proc")
            .aggregate(LatAggFunc::Count, "", "N")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D")
            .aggregate(LatAggFunc::Max, "Query.Duration", "Max_D")],
        rules: vec![
            Rule::new("track_procs")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Proc_LAT")),
            Rule::new("slow_proc_alert")
                .on(RuleEvent::QueryCommit)
                .when("Query.Duration > 4 * Proc_LAT.Avg_D AND Proc_LAT.N >= 20")
                .then(Action::send_mail(
                    "dba",
                    "slow procedure run: {Query.Procedure}",
                )),
            Rule::new("nightly_reset")
                .on(RuleEvent::TimerAlarm("nightly".into()))
                .then(Action::reset("Proc_LAT")),
        ],
    }
}

/// Example 2: blocking hotspots. Attributes each lock-wait episode to the
/// blocking statement and alerts on individual long blocks.
pub fn blocking() -> RuleCatalog {
    RuleCatalog {
        name: "blocking",
        scenario: "lock-wait time attributed to blocking statements (Example 2)",
        lats: vec![LatSpec::new("Blockers_LAT")
            .group_by("Blocker.Query_Text", "Statement")
            .aggregate(LatAggFunc::Sum, "Blocker.Wait_Time", "Total_Delay")
            .aggregate(LatAggFunc::Count, "", "Episodes")
            .aggregate(LatAggFunc::Max, "Blocker.Wait_Time", "Worst_Episode")
            .order_by("Total_Delay", true)
            .max_rows(100)],
        rules: vec![
            Rule::new("track_blocking")
                .on(RuleEvent::BlockReleased)
                .then(Action::insert("Blockers_LAT")),
            Rule::new("long_block_alert")
                .on(RuleEvent::BlockReleased)
                .when("Blocked.Wait_Time > 0.05")
                .then(Action::send_mail(
                    "dba",
                    "'{Blocker.Query_Text}' blocked '{Blocked.Query_Text}' for {Blocked.Wait_Time}s",
                )),
        ],
    }
}

/// Usage auditing for the skewed customer-like workload: per-application time
/// consumption, a hot-application alert, failed-login reporting, and a
/// timer-driven audit snapshot.
pub fn skewed() -> RuleCatalog {
    RuleCatalog {
        name: "skewed",
        scenario: "per-application usage audit with login-failure alerts",
        lats: vec![LatSpec::new("App_LAT")
            .group_by("Query.Application", "App")
            .aggregate(LatAggFunc::Count, "", "N")
            .aggregate(LatAggFunc::Sum, "Query.Duration", "Total_Time")],
        rules: vec![
            Rule::new("track_usage")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("App_LAT")),
            Rule::new("hot_app_alert")
                .on(RuleEvent::QueryCommit)
                .when("App_LAT.Total_Time > 60 AND App_LAT.N >= 100")
                .then(Action::send_mail(
                    "dba",
                    "application {Query.Application} is hot",
                )),
            Rule::new("login_failures")
                .on(RuleEvent::Login)
                .when("Session.Success = FALSE")
                .then(Action::send_mail(
                    "security",
                    "failed login: {Session.User}",
                )),
            Rule::new("persist_audit")
                .on(RuleEvent::TimerAlarm("audit".into()))
                .then(Action::persist_lat("usage_audit", "App_LAT")),
        ],
    }
}

/// Every shipped catalog, in a stable order.
pub fn catalogs() -> Vec<RuleCatalog> {
    vec![mixed(), tpch(), procs(), blocking(), skewed()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_core::Analyzer;

    /// The CI gate in library form: every catalog must lint completely clean —
    /// not a single diagnostic of any severity.
    #[test]
    fn all_catalogs_are_lint_clean() {
        for catalog in catalogs() {
            let rules: Vec<_> = catalog.rules.iter().map(Rule::ir).collect();
            let diags = Analyzer::check_ruleset(&catalog.lats, &rules);
            assert!(
                diags.is_empty(),
                "catalog `{}` is not lint-clean: {diags:?}",
                catalog.name
            );
        }
    }

    #[test]
    fn catalog_names_are_unique_and_nonempty() {
        let cats = catalogs();
        assert!(!cats.is_empty());
        let mut names: Vec<_> = cats.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cats.len(), "duplicate catalog names");
        for c in &cats {
            assert!(!c.rules.is_empty(), "catalog `{}` has no rules", c.name);
        }
    }
}
