//! Standalone lint front end for the static rule analyzer.
//!
//! Lints a ruleset *offline* — no engine, no event stream — exactly as
//! `Sqlcm::add_rule` / `define_lat` would at registration time, and prints
//! every diagnostic with its stable code.
//!
//! ```text
//! cargo run --example lint_rules                  # the paper's example ruleset: clean
//! cargo run --example lint_rules -- --bad         # adds broken rules, ≥1 per code
//! cargo run --example lint_rules -- --workloads   # lint the shipped workload catalogs
//! cargo run --example lint_rules -- --workloads --deny-warnings   # CI mode
//! ```
//!
//! Exits non-zero when any error-severity diagnostic is reported — or, with
//! `--deny-warnings`, when any diagnostic at all is reported — so the command
//! slots into CI for rule catalogs kept under version control.

use sqlcm_core::{
    rule_guard, Action, Analyzer, Diagnostic, LatAggFunc, LatSpec, Rule, RuleEvent, Severity,
};
use sqlcm_repro::workloads::rules::catalogs;

/// Cascade threshold used in `--bad` mode. The default (64) is sized for real
/// deployments; the demo lowers it so a 13-evaluation cascade is enough to
/// show W302 without drowning the output in filler rules.
pub(crate) const DEMO_CASCADE_THRESHOLD: usize = 12;

/// The paper's §3 idioms: outlier detection (Example 1), top-k with periodic
/// persist (Example 3), and an eviction spill rule (§4.3).
pub(crate) fn good_ruleset() -> (Vec<LatSpec>, Vec<Rule>) {
    let lats = vec![
        LatSpec::new("Duration_LAT")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration"),
        LatSpec::new("TopK")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(10),
    ];
    let rules = vec![
        Rule::new("track")
            .on(RuleEvent::QueryCommit)
            .then(Action::insert("Duration_LAT")),
        Rule::new("report_outlier")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration > 5 * Duration_LAT.Avg_Duration AND Duration_LAT.N >= 30")
            .then(Action::send_mail("dba", "outlier: $Query.Query_Text")),
        Rule::new("track_topk")
            .on(RuleEvent::QueryCommit)
            .then(Action::insert("TopK")),
        Rule::new("persist_topk")
            .on(RuleEvent::TimerAlarm("hourly".into()))
            .then(Action::persist_lat("topk_history", "TopK")),
    ];
    (lats, rules)
}

/// At least one deliberately broken rule (or LAT) per diagnostic code.
pub(crate) fn bad_ruleset() -> (Vec<LatSpec>, Vec<Rule>) {
    let (mut lats, mut rules) = good_ruleset();
    // E001: LAT spec with a misspelled source attribute.
    lats.push(
        LatSpec::new("Broken_LAT")
            .group_by("Query.Logical_Signatur", "Sig")
            .aggregate(LatAggFunc::Count, "", "N"),
    );
    // W203: defined and read below, but never fed by any Insert.
    lats.push(
        LatSpec::new("Idle_LAT")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N"),
    );
    // W302: a bounded LAT whose eviction fans out into many spill rules.
    lats.push(
        LatSpec::new("Spill_LAT")
            .group_by("Transaction.ID", "Txn")
            .aggregate(LatAggFunc::Count, "", "N")
            .max_rows(5),
    );
    rules.extend([
        // E001: probing a LAT that was never defined.
        Rule::new("probe_missing")
            .on(RuleEvent::QueryCommit)
            .when("Nope_LAT.N > 1"),
        // E002: COUNT column compared with a string.
        Rule::new("count_vs_text")
            .on(RuleEvent::QueryCommit)
            .when("Duration_LAT.N = 'many'"),
        // E002 (unsupported flavour): rule conditions have no function calls
        // — the registration gate denies this with the same code.
        Rule::new("abs_duration")
            .on(RuleEvent::QueryCommit)
            .when("ABS(Query.Duration) > 1"),
        // E003: Query-keyed LAT probed from a transaction event that never
        // has a Query in scope.
        Rule::new("unjoinable")
            .on(RuleEvent::TxnCommit)
            .when("Duration_LAT.Avg_Duration > 5"),
        // E004: feeding a bounded LAT from its own eviction event.
        Rule::new("refill")
            .on(RuleEvent::LatEviction("TopK".into()))
            .then(Action::insert("TopK")),
        // E006: COUNT columns are non-negative — provably unsatisfiable.
        Rule::new("never_fires")
            .on(RuleEvent::QueryCommit)
            .when("Duration_LAT.N < 0")
            .then(Action::send_mail("dba", "unreachable")),
        // W101: Session never in scope on QueryCommit — the rule is dead.
        Rule::new("dead")
            .on(RuleEvent::QueryCommit)
            .when("Session.Success = FALSE")
            .then(Action::send_mail("dba", "x")),
        // W102: exact duplicate of `track`.
        Rule::new("track_again")
            .on(RuleEvent::QueryCommit)
            .then(Action::insert("Duration_LAT")),
        // W201: persist + mail + external command on every query commit.
        Rule::new("heavy")
            .on(RuleEvent::QueryCommit)
            .when("Duration_LAT.N > 100")
            .then(Action::persist_lat("history", "Duration_LAT"))
            .then(Action::send_mail("dba", "x"))
            .then(Action::run_external("archive $Query.ID")),
        // W103: COUNT is always >= 0 — the condition is a tautology.
        Rule::new("always_fires")
            .on(RuleEvent::QueryCommit)
            .when("Duration_LAT.N >= 0")
            .then(Action::send_mail("dba", "every single commit")),
        // W104: the average can be zero (or still NULL) — possible div by 0.
        Rule::new("ratio_probe")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration / Duration_LAT.Avg_Duration > 5")
            .then(Action::send_mail("dba", "slow ratio")),
        // W203: Idle_LAT has no feeder anywhere in the ruleset.
        Rule::new("readonly_probe")
            .on(RuleEvent::QueryCommit)
            .when("Idle_LAT.N > 10")
            .then(Action::send_mail("dba", "idle lat moved?")),
        // W205: pattern-only condition on a hot event — the guard index has
        // no atom to probe, so every query commit evaluates the LIKE.
        Rule::new("ddl_watch")
            .on(RuleEvent::QueryCommit)
            .when("Query.Query_Text LIKE '%DROP TABLE%'")
            .then(Action::send_mail("dba", "DDL spotted")),
        // W105: two same-event conditions share the `Query.Duration > 1`
        // predicate (the whole conditions differ, so no W102).
        Rule::new("slow_admin")
            .on(RuleEvent::QueryStart)
            .when("Query.Duration > 1 AND Query.User = 'admin'")
            .then(Action::send_mail("dba", "slow admin query")),
        Rule::new("slow_costly")
            .on(RuleEvent::QueryStart)
            .when("Query.Duration > 1 AND Query.Estimated_Cost > 100")
            .then(Action::send_mail("dba", "slow costly query")),
        // W204: a mail on every query start, no condition to thin it.
        Rule::new("mail_every_start")
            .on(RuleEvent::QueryStart)
            .then(Action::send_mail("dba", "query started")),
        // W301: `order_writer` mutates what the adjacent earlier rule reads —
        // swapping the pair changes what `order_reader` observes.
        Rule::new("order_reader")
            .on(RuleEvent::QueryCommit)
            .when("Duration_LAT.Avg_Duration > 2")
            .then(Action::send_mail("dba", "avg drifted")),
        Rule::new("order_writer")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration > 30")
            .then(Action::insert("Duration_LAT")),
    ]);
    // W302: each eviction from Spill_LAT triggers 12 spill handlers; the
    // feeding rule amplifies one commit past the (demo) cascade threshold.
    for i in 0..DEMO_CASCADE_THRESHOLD {
        rules.push(
            Rule::new(format!("spill{i}"))
                .on(RuleEvent::LatEviction("Spill_LAT".into()))
                .then(Action::persist_lat(
                    &format!("spill_shard_{i}"),
                    "Spill_LAT",
                )),
        );
    }
    rules.push(
        Rule::new("cascade_src")
            .on(RuleEvent::TxnCommit)
            .then(Action::insert("Spill_LAT")),
    );
    (lats, rules)
}

fn print_diag(d: &Diagnostic) {
    let sev = match d.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
    };
    println!("{sev}[{}] {} — {}", d.code, d.rule, d.message);
    if let Some(span) = &d.span {
        println!("    at: {span}");
    }
    if let Some(help) = &d.help {
        println!("    help: {help}");
    }
}

/// Lint one (LAT, rule) set with a fresh analyzer; returns its diagnostics.
/// Also prints the per-rule guard verdict — whether dispatch can prune the
/// rule without evaluating it. This is the verdict registration stores and
/// the guard index installs, so it is what `telemetry.matching` counts.
fn lint(lats: &[LatSpec], rules: &[Rule], cascade_threshold: Option<usize>) -> Vec<Diagnostic> {
    let mut analyzer = Analyzer::new();
    if let Some(t) = cascade_threshold {
        analyzer.cascade_threshold = t;
    }
    let mut diags: Vec<Diagnostic> = Vec::new();
    for spec in lats {
        diags.extend(analyzer.check_lat(spec));
    }
    let irs: Vec<_> = rules.iter().map(Rule::ir).collect();
    for ir in &irs {
        diags.extend(analyzer.check_rule(ir));
    }
    println!("guard indexability (can dispatch prune the rule without evaluating it?):");
    for ir in &irs {
        match rule_guard(ir) {
            Ok(guard) => println!("  {:<16} indexable: {guard}", ir.name),
            Err(r) => println!("  {:<16} residual:  {}", ir.name, r.describe()),
        }
    }
    println!();
    diags
}

fn main() {
    let mut bad = false;
    let mut workloads = false;
    let mut deny_warnings = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--bad" => bad = true,
            "--workloads" => workloads = true,
            "--deny-warnings" => deny_warnings = true,
            other => {
                eprintln!(
                    "unknown argument `{other}` \
                     (usage: lint_rules [--bad] [--workloads] [--deny-warnings])"
                );
                std::process::exit(2);
            }
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    if workloads {
        // Each workload catalog is an independent ruleset: fresh analyzer each.
        for catalog in catalogs() {
            println!(
                "catalog `{}` ({}): {} LAT(s), {} rule(s)",
                catalog.name,
                catalog.scenario,
                catalog.lats.len(),
                catalog.rules.len(),
            );
            let diags = lint(&catalog.lats, &catalog.rules, None);
            println!("{} diagnostic(s)", diags.len());
            for d in &diags {
                print_diag(d);
            }
            errors += diags.iter().filter(|d| d.is_error()).count();
            warnings += diags.iter().filter(|d| !d.is_error()).count();
        }
    } else {
        let (lats, rules) = if bad { bad_ruleset() } else { good_ruleset() };
        let threshold = bad.then_some(DEMO_CASCADE_THRESHOLD);
        println!(
            "linting {} LAT spec(s), {} rule(s)\n",
            lats.len(),
            rules.len()
        );
        let diags = lint(&lats, &rules, threshold);
        println!("{} diagnostic(s)\n", diags.len());
        for d in &diags {
            print_diag(d);
        }
        errors = diags.iter().filter(|d| d.is_error()).count();
        warnings = diags.iter().filter(|d| !d.is_error()).count();
    }

    println!("\n{errors} error(s), {warnings} warning(s)");
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
