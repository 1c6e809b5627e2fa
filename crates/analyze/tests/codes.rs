//! One end-to-end test per diagnostic code: a bad ruleset fires it, and a
//! known-good ruleset (the paper's Examples 1–3 shape) passes clean.

use sqlcm_analyze::{
    Action, Analyzer, AttrRef, ClassName, Code, Condition, Diagnostic, LatAggFunc, LatSpec,
    RuleEvent, RuleIr, DEFAULT_CASCADE_THRESHOLD,
};
use sqlcm_sql::parse_expression;

fn duration_lat(bounded: bool) -> LatSpec {
    let spec = LatSpec::new("Duration_LAT")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration");
    if bounded {
        spec.max_rows(10)
    } else {
        spec
    }
}

fn rule(name: &str, event: RuleEvent, cond: Option<&str>, actions: Vec<Action>) -> RuleIr {
    RuleIr {
        name: name.into(),
        event,
        condition: cond.map(|c| Condition::lower(&parse_expression(c).unwrap())),
        actions,
    }
}

fn on_query_commit(name: &str, cond: Option<&str>, actions: Vec<Action>) -> RuleIr {
    rule(name, RuleEvent::QueryCommit, cond, actions)
}

fn mail() -> Action {
    Action::send_mail("dba", "x")
}

fn feed() -> Action {
    Action::insert("Duration_LAT")
}

fn codes(diags: &[sqlcm_analyze::Diagnostic]) -> Vec<Code> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn known_good_ruleset_passes_clean() {
    // Example 1 (outliers), Example 3 (top-k + persist on timer), eviction
    // spill — the idioms the paper's §3 examples use.
    let lats = vec![
        duration_lat(false),
        LatSpec::new("TopK")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(10),
    ];
    let rules = vec![
        on_query_commit("track", None, vec![feed()]),
        on_query_commit(
            "report_outlier",
            Some("Query.Duration > 5 * Duration_LAT.Avg_Duration AND Duration_LAT.N >= 30"),
            vec![mail()],
        ),
        on_query_commit("track_topk", None, vec![Action::insert("TopK")]),
        rule(
            "persist_topk",
            RuleEvent::TimerAlarm("hourly".into()),
            None,
            vec![Action::persist_lat("topk_history", "TopK")],
        ),
        rule(
            "keep_evicted",
            RuleEvent::LatEviction("TopK".into()),
            None,
            vec![Action::PersistObject {
                table: "evicted".into(),
                class: ClassName::Evicted("TopK".into()),
                attrs: vec!["Sig".into(), "D".into()],
            }],
        ),
    ];
    let diags = Analyzer::check_ruleset(&lats, &rules);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn e001_unknown_reference() {
    let diags =
        Analyzer::check_ruleset(&[], &[on_query_commit("r", Some("Nope_LAT.N > 1"), vec![])]);
    assert_eq!(codes(&diags), vec![Code::E001]);

    // An error on a LAT spec denies registration: the LAT stays unknown.
    let mut analyzer = Analyzer::new();
    let mut bad = duration_lat(false);
    bad.group_by[0].source = AttrRef::parse("Query.Nope").unwrap();
    assert_eq!(codes(&analyzer.check_lat(&bad)), vec![Code::E001]);
    assert!(analyzer.universe().lat("Duration_LAT").is_none());
}

#[test]
fn e002_type_mismatch() {
    let diags = Analyzer::check_ruleset(
        &[duration_lat(false)],
        &[on_query_commit(
            "r",
            Some("Duration_LAT.N = 'many'"),
            vec![],
        )],
    );
    assert_eq!(codes(&diags), vec![Code::E002]);
}

/// Function calls and parameters are not part of the condition language: the
/// linter reports what the registration gate would deny, with a span, and
/// piles no guard lint (W205) on the denied rule.
#[test]
fn e002_unsupported_expression() {
    for (cond, span) in [
        ("ABS(Query.Duration) > 1", "ABS(Query.Duration)"),
        ("Query.Duration > ?", "?"),
        ("Query.User = @who", "@who"),
    ] {
        let diags = Analyzer::check_ruleset(&[], &[on_query_commit("r", Some(cond), vec![mail()])]);
        assert_eq!(codes(&diags), vec![Code::E002], "{cond}: {diags:?}");
        assert_eq!(diags[0].span.as_deref(), Some(span), "{cond}");
    }
}

#[test]
fn e003_unjoinable_lat_probe() {
    let rule = rule(
        "r",
        RuleEvent::TxnCommit,
        Some("Duration_LAT.Avg_Duration > 5"),
        vec![],
    );
    let diags = Analyzer::check_ruleset(&[duration_lat(false)], &[rule]);
    assert_eq!(codes(&diags), vec![Code::E003]);
}

#[test]
fn e004_cascade_cycle() {
    let refill = rule(
        "refill",
        RuleEvent::LatEviction("Duration_LAT".into()),
        None,
        vec![feed()],
    );
    let diags = Analyzer::check_ruleset(&[duration_lat(true)], &[refill]);
    assert_eq!(codes(&diags), vec![Code::E004]);
}

#[test]
fn w101_dead_rule() {
    let diags = Analyzer::check_ruleset(
        &[],
        &[on_query_commit(
            "r",
            Some("Session.Success = FALSE"),
            vec![],
        )],
    );
    assert_eq!(codes(&diags), vec![Code::W101]);
}

#[test]
fn w102_duplicate_rule() {
    let diags = Analyzer::check_ruleset(
        &[],
        &[
            on_query_commit("a", Some("Query.Duration > 1"), vec![mail()]),
            on_query_commit("b", Some("Query.Duration > 1"), vec![mail()]),
        ],
    );
    assert_eq!(codes(&diags), vec![Code::W102]);
}

#[test]
fn e006_unsatisfiable_condition() {
    // Count aggregates are non-negative; N < 0 can never hold.
    let diags = Analyzer::check_ruleset(
        &[duration_lat(false)],
        &[
            on_query_commit("feed", None, vec![feed()]),
            on_query_commit("dead", Some("Duration_LAT.N < 0"), vec![mail()]),
        ],
    );
    assert_eq!(codes(&diags), vec![Code::E006]);

    // An unsatisfiable condition is an error: the rule is denied.
    let mut analyzer = Analyzer::new();
    assert!(analyzer.check_lat(&duration_lat(false)).is_empty());
    analyzer.check_rule(&on_query_commit(
        "dead",
        Some("Duration_LAT.N < 0"),
        vec![mail()],
    ));
    assert!(analyzer.rules().is_empty());
}

#[test]
fn w103_tautological_condition() {
    // Durations are non-negative, so `>= 0` always holds: the condition is
    // dead weight (and usually a sign the predicate is wrong).
    let diags = Analyzer::check_ruleset(
        &[],
        &[on_query_commit(
            "always",
            Some("Query.Duration >= 0"),
            vec![mail()],
        )],
    );
    assert_eq!(codes(&diags), vec![Code::W103]);
}

#[test]
fn w105_duplicated_predicate_across_same_event_rules() {
    // Two distinct conditions sharing the `Query.Duration > 1` predicate on
    // the same event: the lint reports the overlap. Not a W102 (the whole
    // conditions differ).
    let diags = Analyzer::check_ruleset(
        &[],
        &[
            on_query_commit(
                "a",
                Some("Query.Duration > 1 AND Query.User = 'admin'"),
                vec![mail()],
            ),
            on_query_commit(
                "b",
                Some("Query.Duration > 1 AND Query.Estimated_Cost > 100"),
                vec![mail()],
            ),
        ],
    );
    assert_eq!(codes(&diags), vec![Code::W105]);
}

#[test]
fn w104_possible_division_by_zero() {
    // N counts rows and may be 0 for a fresh group; dividing by it is a
    // runtime hazard the intervals can see statically.
    let diags = Analyzer::check_ruleset(
        &[duration_lat(false)],
        &[
            on_query_commit("feed", None, vec![feed()]),
            on_query_commit(
                "ratio",
                Some("Query.Duration / Duration_LAT.N > 2"),
                vec![mail()],
            ),
        ],
    );
    assert_eq!(codes(&diags), vec![Code::W104]);
}

#[test]
fn w203_read_only_lat_column() {
    // No admitted rule inserts into Duration_LAT, so its aggregates stay at
    // their initial state forever; reading them is almost certainly a bug.
    let diags = Analyzer::check_ruleset(
        &[duration_lat(false)],
        &[on_query_commit(
            "probe",
            Some("Duration_LAT.Avg_Duration > 100"),
            vec![mail()],
        )],
    );
    assert_eq!(codes(&diags), vec![Code::W203]);

    // A warning does not deny registration.
    let mut analyzer = Analyzer::new();
    assert!(analyzer.check_lat(&duration_lat(false)).is_empty());
    analyzer.check_rule(&on_query_commit(
        "probe",
        Some("Duration_LAT.Avg_Duration > 100"),
        vec![mail()],
    ));
    assert_eq!(analyzer.rules().len(), 1);
}

#[test]
fn w301_order_sensitive_pair() {
    // The reader is registered before the writer, so it observes the state
    // left by the previous event; registering the writer afterwards flags the
    // adjacent pair. (A conditional feeder keeps the reader's probe fed so
    // only the ordering is at issue.)
    let diags = Analyzer::check_ruleset(
        &[duration_lat(false)],
        &[
            on_query_commit("feed_slow", Some("Query.Duration > 5"), vec![feed()]),
            on_query_commit(
                "reader",
                Some("Duration_LAT.Avg_Duration > 100"),
                vec![mail()],
            ),
            on_query_commit("writer", None, vec![feed()]),
        ],
    );
    assert_eq!(codes(&diags), vec![Code::W301]);
}

#[test]
fn w302_cascade_amplification() {
    let mut analyzer = Analyzer::new();
    assert!(analyzer.check_lat(&duration_lat(true)).is_empty());
    for i in 0..DEFAULT_CASCADE_THRESHOLD {
        let spill = rule(
            &format!("spill{i}"),
            RuleEvent::LatEviction("Duration_LAT".into()),
            None,
            // Distinct target tables so the spills are not W102 duplicates.
            vec![Action::PersistObject {
                table: format!("spilled_{i}"),
                class: ClassName::Evicted("Duration_LAT".into()),
                attrs: vec!["Sig".into()],
            }],
        );
        assert!(analyzer.check_rule(&spill).is_empty(), "spill{i}");
    }
    // One commit insert may evict, fanning out to the 64 spill rules:
    // 1 + 64 = 65 > 64 worst-case evaluations per event. (The spill rules
    // themselves sit exactly at the threshold and stay clean.)
    let diags = analyzer.check_rule(&on_query_commit("feed", None, vec![feed()]));
    assert_eq!(codes(&diags), vec![Code::W302]);
}

#[test]
fn w204_unconditional_external_action() {
    // No condition + SendMail on QueryCommit: every query pays the sink.
    let diags = Analyzer::check_ruleset(&[], &[on_query_commit("blast", None, vec![mail()])]);
    assert_eq!(codes(&diags), vec![Code::W204]);

    // RunExternal on a Txn event is flagged the same way.
    let diags = Analyzer::check_ruleset(
        &[],
        &[rule(
            "hook",
            RuleEvent::TxnCommit,
            None,
            vec![Action::run_external("hook.sh")],
        )],
    );
    assert_eq!(codes(&diags), vec![Code::W204]);

    // A condition thins the firings: clean.
    let diags = Analyzer::check_ruleset(
        &[],
        &[on_query_commit(
            "filtered",
            Some("Query.Duration > 30"),
            vec![mail()],
        )],
    );
    assert!(diags.is_empty(), "{diags:?}");

    // Cold events (session lifecycle, timers) are excluded: an unconditional
    // mail on login is deliberate, not a hot-path hazard.
    let diags =
        Analyzer::check_ruleset(&[], &[rule("greet", RuleEvent::Login, None, vec![mail()])]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn w205_unindexable_hot_event_condition() {
    // Pattern-only condition on QueryCommit: payload-only reads but nothing
    // the guard index can probe, so the rule is evaluated on every query.
    let diags = Analyzer::check_ruleset(
        &[],
        &[on_query_commit(
            "droppy",
            Some("Query.Query_Text LIKE '%DROP TABLE%'"),
            vec![mail()],
        )],
    );
    assert_eq!(codes(&diags), vec![Code::W205]);

    // A leading equality conjunct makes it indexable: clean.
    let diags = Analyzer::check_ruleset(
        &[],
        &[on_query_commit(
            "scoped",
            Some("Query.User = 'etl' AND Query.Query_Text LIKE '%DROP TABLE%'"),
            vec![mail()],
        )],
    );
    assert!(diags.is_empty(), "{diags:?}");

    // LAT-reading rules are residual by design — the monitoring idiom — and
    // stay clean.
    let diags = Analyzer::check_ruleset(
        &[duration_lat(true)],
        &[
            on_query_commit("feed", None, vec![feed()]),
            on_query_commit("outlier", Some("Duration_LAT.N >= 30"), vec![mail()]),
        ],
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn code_table_is_exhaustive_and_distinct() {
    use std::collections::BTreeSet;
    let strs: BTreeSet<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
    assert_eq!(strs.len(), Code::ALL.len(), "duplicate code strings");
    assert_eq!(
        strs.iter().copied().collect::<Vec<_>>(),
        [
            "E001", "E002", "E003", "E004", "E006", "W101", "W102", "W103", "W104", "W105", "W201",
            "W203", "W204", "W205", "W301", "W302"
        ],
        "the codes and their names"
    );
    for code in Code::ALL {
        let s = code.as_str();
        assert!(!code.title().is_empty(), "{s} has no title");
        let expected = if s.starts_with('E') {
            sqlcm_analyze::Severity::Error
        } else {
            assert!(s.starts_with('W'), "{s}: codes are E.. or W..");
            sqlcm_analyze::Severity::Warning
        };
        assert_eq!(code.severity(), expected, "{s} severity");
        assert_eq!(
            Diagnostic::new(code, "r", "m").is_error(),
            expected == sqlcm_analyze::Severity::Error,
            "{s} is_error"
        );
    }
}

#[test]
fn w201_costly_rule() {
    let diags = Analyzer::check_ruleset(
        &[duration_lat(true)],
        &[
            on_query_commit("feed", None, vec![feed()]),
            on_query_commit(
                "heavy",
                Some("Duration_LAT.N > 100"),
                vec![
                    Action::persist_lat("h", "Duration_LAT"),
                    mail(),
                    Action::run_external("archive"),
                ],
            ),
        ],
    );
    assert_eq!(codes(&diags), vec![Code::W201]);
}
