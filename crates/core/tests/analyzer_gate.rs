//! Registration-time static analysis: `Sqlcm::add_rule` / `define_lat` deny
//! rules with error-severity diagnostics (coded E001–E006) and collect
//! warnings (W1xx/W2xx/W3xx) without blocking.

use sqlcm_core::{rule_guard, Action, LatAggFunc, LatSpec, Residual, Rule, RuleEvent, Sqlcm};
use sqlcm_engine::Engine;

fn setup() -> (Engine, Sqlcm) {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    (engine, sqlcm)
}

fn duration_lat() -> LatSpec {
    LatSpec::new("Duration_LAT")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")
}

#[test]
fn unknown_lat_reference_is_denied_with_e001() {
    let (_engine, sqlcm) = setup();
    let err = sqlcm
        .add_rule(
            Rule::new("r")
                .on(RuleEvent::QueryCommit)
                .when("Nope_LAT.N > 1"),
        )
        .unwrap_err();
    assert!(err.to_string().contains("E001"), "{err}");
    assert_eq!(sqlcm.rule_count(), 0);
}

#[test]
fn unknown_attribute_is_denied_with_e001() {
    let (_engine, sqlcm) = setup();
    let err = sqlcm
        .add_rule(
            Rule::new("r")
                .on(RuleEvent::QueryCommit)
                .when("Query.Durration > 1"),
        )
        .unwrap_err();
    assert!(err.to_string().contains("E001"), "{err}");
    assert!(err.to_string().contains("no attribute"), "{err}");
}

#[test]
fn type_mismatched_condition_is_denied_with_e002() {
    let (_engine, sqlcm) = setup();
    sqlcm.define_lat(duration_lat()).unwrap();
    // COUNT column (INT) compared with a string literal.
    let err = sqlcm
        .add_rule(
            Rule::new("r")
                .on(RuleEvent::QueryCommit)
                .when("Duration_LAT.N = 'many'"),
        )
        .unwrap_err();
    assert!(err.to_string().contains("E002"), "{err}");
    assert_eq!(sqlcm.rule_count(), 0);
}

#[test]
fn unjoinable_lat_probe_is_denied_with_e003() {
    let (_engine, sqlcm) = setup();
    sqlcm.define_lat(duration_lat()).unwrap();
    // TxnCommit carries only Transaction and the condition never names Query,
    // so the Query-keyed LAT probe can never bind: statically always false.
    let err = sqlcm
        .add_rule(
            Rule::new("r")
                .on(RuleEvent::TxnCommit)
                .when("Duration_LAT.Avg_Duration > 5"),
        )
        .unwrap_err();
    assert!(err.to_string().contains("E003"), "{err}");
}

#[test]
fn cascade_cycle_is_denied_with_e004() {
    let (_engine, sqlcm) = setup();
    sqlcm
        .define_lat(
            LatSpec::new("Top")
                .group_by("Query.ID", "ID")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .order_by("D", true)
                .max_rows(10),
        )
        .unwrap();
    // Inserting into the LAT from its own eviction event cascades forever.
    let err = sqlcm
        .add_rule(
            Rule::new("refill")
                .on(RuleEvent::LatEviction("Top".into()))
                .then(Action::insert("Top")),
        )
        .unwrap_err();
    assert!(err.to_string().contains("E004"), "{err}");
    assert_eq!(sqlcm.rule_count(), 0);

    // Two-rule cycle: feeder is admitted, the rule closing the loop is not.
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Top")),
        )
        .unwrap();
    sqlcm
        .define_lat(
            LatSpec::new("Spill")
                .group_by("Query.ID", "ID")
                .aggregate(LatAggFunc::Count, "", "N")
                .max_rows(5),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("spill")
                .on(RuleEvent::LatEviction("Top".into()))
                .then(Action::insert("Spill")),
        )
        .unwrap();
    let err = sqlcm
        .add_rule(
            Rule::new("close_loop")
                .on(RuleEvent::LatEviction("Spill".into()))
                .then(Action::insert("Top")),
        )
        .unwrap_err();
    assert!(err.to_string().contains("E004"), "{err}");
    assert!(err.to_string().contains("close_loop"), "{err}");
}

/// Timers are keyed exactly at runtime, so timer `tick` never raises
/// `Timer.Alarm(Tick)`: re-arming it from that alarm closes no cycle.
#[test]
fn timer_names_match_exactly_in_the_cascade_check() {
    let (_engine, sqlcm) = setup();
    sqlcm
        .add_rule(
            Rule::new("rearm")
                .on(RuleEvent::TimerAlarm("Tick".into()))
                .then(Action::set_timer("tick", 1_000_000, 1)),
        )
        .unwrap();
    let err = sqlcm
        .add_rule(
            Rule::new("loop")
                .on(RuleEvent::TimerAlarm("tick".into()))
                .then(Action::set_timer("tick", 1_000_000, 1)),
        )
        .unwrap_err();
    assert!(err.to_string().contains("E004"), "{err}");
    assert_eq!(sqlcm.rule_count(), 1);
}

#[test]
fn bad_lat_spec_is_denied_with_e001() {
    let (_engine, sqlcm) = setup();
    let err = sqlcm
        .define_lat(
            LatSpec::new("Bad")
                .group_by("Query.Logical_Signatur", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap_err();
    assert!(err.to_string().contains("E001"), "{err}");
    assert!(sqlcm.lat("Bad").is_none());
}

#[test]
fn warnings_are_collected_but_do_not_deny() {
    let (_engine, sqlcm) = setup();
    // W101: Session is not in the QueryCommit payload and not iterable.
    sqlcm
        .add_rule(
            Rule::new("dead")
                .on(RuleEvent::QueryCommit)
                .when("Session.Success = FALSE")
                .then(Action::send_mail("dba", "x")),
        )
        .unwrap();
    // W102: same event, identical (absent) condition and same actions as an
    // earlier rule.
    sqlcm
        .add_rule(
            Rule::new("a")
                .on(RuleEvent::Login)
                .then(Action::send_mail("dba", "x")),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("b")
                .on(RuleEvent::Login)
                .then(Action::send_mail("dba", "x")),
        )
        .unwrap();
    assert_eq!(sqlcm.rule_count(), 3);
    let warnings = sqlcm.analysis_warnings();
    let codes: Vec<&str> = warnings.iter().map(|d| d.code.as_str()).collect();
    assert!(codes.contains(&"W101"), "{warnings:?}");
    assert!(codes.contains(&"W102"), "{warnings:?}");
    assert!(warnings.iter().all(|w| !w.is_error()));
}

#[test]
fn costly_rule_warns_w201() {
    let (_engine, sqlcm) = setup();
    sqlcm
        .define_lat(
            duration_lat()
                .aggregate(LatAggFunc::Avg, "Query.Duration", "Win_Avg")
                .aging(60_000_000, 10_000_000)
                .order_by("N", true)
                .max_rows(100),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("heavy")
                .on(RuleEvent::QueryCommit)
                .when("Duration_LAT.Win_Avg > 1")
                .then(Action::insert("Duration_LAT"))
                .then(Action::persist_lat("history", "Duration_LAT"))
                .then(Action::send_mail("dba", "slow")),
        )
        .unwrap();
    let warnings = sqlcm.analysis_warnings();
    assert!(
        warnings.iter().any(|d| d.code.as_str() == "W201"),
        "{warnings:?}"
    );
}

#[test]
fn unsatisfiable_condition_is_denied_with_e006() {
    let (_engine, sqlcm) = setup();
    sqlcm.define_lat(duration_lat()).unwrap();
    sqlcm
        .add_rule(
            Rule::new("feed")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Duration_LAT")),
        )
        .unwrap();
    // COUNT columns are non-negative: the interval analysis proves the
    // condition can never hold and denies the rule.
    let err = sqlcm
        .add_rule(
            Rule::new("dead")
                .on(RuleEvent::QueryCommit)
                .when("Duration_LAT.N < 0")
                .then(Action::send_mail("dba", "never")),
        )
        .unwrap_err();
    assert!(err.to_string().contains("E006"), "{err}");
    assert_eq!(sqlcm.rule_count(), 1);
}

#[test]
fn read_only_lat_column_warns_w203_but_registers() {
    let (_engine, sqlcm) = setup();
    sqlcm.define_lat(duration_lat()).unwrap();
    // No rule inserts into Duration_LAT, so its aggregates never change:
    // the probe is almost certainly missing its feeder. Warning, not denial.
    sqlcm
        .add_rule(
            Rule::new("probe")
                .on(RuleEvent::QueryCommit)
                .when("Duration_LAT.Avg_Duration > 100")
                .then(Action::send_mail("dba", "slow")),
        )
        .unwrap();
    assert_eq!(sqlcm.rule_count(), 1);
    let warnings = sqlcm.analysis_warnings();
    assert!(
        warnings.iter().any(|d| d.code.as_str() == "W203"),
        "{warnings:?}"
    );
}

#[test]
fn analysis_warnings_dedupe_cap_and_clear() {
    let (_engine, sqlcm) = setup();
    // Re-registering the same shape re-emits the same (code, rule, message)
    // warning; the log keeps a single copy.
    for _ in 0..3 {
        sqlcm
            .add_rule(
                Rule::new("dead")
                    .on(RuleEvent::QueryCommit)
                    .when("Session.Success = FALSE")
                    .then(Action::send_mail("dba", "x")),
            )
            .unwrap();
        assert!(sqlcm.remove_rule("dead"));
    }
    let warnings = sqlcm.analysis_warnings();
    let w101 = warnings
        .iter()
        .filter(|d| d.code.as_str() == "W101" && d.rule == "dead")
        .count();
    assert_eq!(w101, 1, "{warnings:?}");

    // Distinct rule names produce distinct entries, and the log is bounded:
    // the oldest entries fall off once the cap is reached.
    for i in 0..1100 {
        let name = format!("dead{i}");
        sqlcm
            .add_rule(
                Rule::new(&name)
                    .on(RuleEvent::QueryCommit)
                    .when("Session.Success = FALSE")
                    .then(Action::send_mail("dba", "x")),
            )
            .unwrap();
        assert!(sqlcm.remove_rule(&name));
    }
    let warnings = sqlcm.analysis_warnings();
    assert_eq!(warnings.len(), 1024, "cap is 1024, oldest dropped");
    assert!(
        !warnings.iter().any(|d| d.rule == "dead"),
        "the very first entry was evicted"
    );
    assert!(
        warnings.iter().any(|d| d.rule == "dead1099"),
        "the newest entry is retained"
    );

    sqlcm.clear_analysis_warnings();
    assert!(sqlcm.analysis_warnings().is_empty());
}

#[test]
fn analyze_rule_probe_reports_without_registering() {
    let (_engine, sqlcm) = setup();
    let diags = sqlcm.analyze_rule(
        &Rule::new("probe")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration = 'slow'"),
    );
    assert!(diags.iter().any(|d| d.code.as_str() == "E002"), "{diags:?}");
    assert_eq!(sqlcm.rule_count(), 0);
}

/// The lint probe and the registration gate agree on expressions the
/// condition language does not have: same stable code, nothing registered.
#[test]
fn unsupported_expression_gets_the_same_code_from_lint_and_gate() {
    let (_engine, sqlcm) = setup();
    let rule = || {
        Rule::new("abs")
            .on(RuleEvent::QueryCommit)
            .when("ABS(Query.Duration) > 1")
    };
    let diags = sqlcm.analyze_rule(&rule());
    assert!(diags.iter().any(|d| d.code.as_str() == "E002"), "{diags:?}");
    let err = sqlcm.add_rule(rule()).unwrap_err().to_string();
    assert!(err.contains("E002"), "{err}");
    assert!(err.contains("ABS(Query.Duration)"), "{err}");
    assert_eq!(sqlcm.rule_count(), 0);
}

/// What the analyzer says about a rule's guard is what the dispatch plan
/// installs: for every condition shape, on two events, the plan's
/// indexed/residual counts equal the counts of the offline verdicts, and
/// W205 is logged exactly for the fixable hot-event residuals.
#[test]
fn analyzer_guard_verdicts_equal_the_installed_index() {
    let (_engine, sqlcm) = setup();
    sqlcm.define_lat(duration_lat()).unwrap();
    let mail = || Action::send_mail("dba", "x");
    let rules = vec![
        // QueryCommit (hot): every shape.
        Rule::new("feed")
            .on(RuleEvent::QueryCommit)
            .then(Action::insert("Duration_LAT")),
        Rule::new("eq")
            .on(RuleEvent::QueryCommit)
            .when("Query.User = 'alice'")
            .then(mail()),
        Rule::new("in")
            .on(RuleEvent::QueryCommit)
            .when("Query.Application IN ('etl', 'report')")
            .then(mail()),
        Rule::new("range")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration > 1 AND Query.Duration <= 10 AND Query.Duration > 2")
            .then(mail()),
        Rule::new("empty_range")
            .on(RuleEvent::QueryCommit)
            .when("Query.Estimated_Cost > 5 AND Query.Estimated_Cost < 3")
            .then(mail()),
        Rule::new("in_null")
            .on(RuleEvent::QueryCommit)
            .when("Query.Procedure IN (NULL)")
            .then(mail()),
        Rule::new("lat_reader")
            .on(RuleEvent::QueryCommit)
            .when("Duration_LAT.N >= 30")
            .then(mail()),
        Rule::new("non_payload")
            .on(RuleEvent::QueryCommit)
            .when("Table.Row_Count > 1000")
            .then(mail()),
        Rule::new("fallible")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration - Query.Time_Blocked > 1")
            .then(mail()),
        Rule::new("no_atom")
            .on(RuleEvent::QueryCommit)
            .when("Query.Query_Text LIKE '%DROP%'")
            .then(mail()),
        // Login (cold): same residual shapes, no W205.
        Rule::new("login_eq")
            .on(RuleEvent::Login)
            .when("Session.User = 'root'")
            .then(mail()),
        Rule::new("login_no_atom")
            .on(RuleEvent::Login)
            .when("Session.Application LIKE 'svc%'")
            .then(mail()),
        Rule::new("login_fallible")
            .on(RuleEvent::Login)
            .when("Session.Session_ID + 1 > 10")
            .then(mail()),
    ];

    // The offline verdicts, exactly as `lint_rules` computes them.
    let verdicts: Vec<_> = rules
        .iter()
        .map(|r| (r.name.clone(), rule_guard(&r.ir())))
        .collect();
    let indexed = verdicts.iter().filter(|(_, v)| v.is_ok()).count() as u64;
    // `lat_reader` has a LAT guard, installed because every commit hoists
    // its `Duration_LAT` row.
    assert_eq!(indexed, 7, "{verdicts:?}");

    for rule in rules {
        sqlcm.add_rule(rule).unwrap();
    }
    let summary = sqlcm.plan_summary();
    assert_eq!(summary.guard_indexed_rules, indexed);
    assert_eq!(
        summary.guard_residual_rules,
        verdicts.len() as u64 - indexed
    );

    let mut w205: Vec<String> = sqlcm
        .analysis_warnings()
        .into_iter()
        .filter(|d| d.code.as_str() == "W205")
        .map(|d| d.rule)
        .collect();
    w205.sort();
    let mut fixable_hot: Vec<String> = verdicts
        .iter()
        .filter(|(name, v)| {
            !name.starts_with("login")
                && matches!(v, Err(Residual::FallibleExpr | Residual::NoGuardAtom))
        })
        .map(|(name, _)| name.clone())
        .collect();
    fixable_hot.sort();
    assert_eq!(fixable_hot, ["fallible", "no_atom"]);
    assert_eq!(w205, fixable_hot);
}

/// `remove_rule` takes the rule out of the analyzer the monitor keeps
/// instead of discarding it. After every step of a seeded add/remove churn,
/// the kept analyzer's verdict on a fixed probe set (`analyze_rule`) equals
/// that of an analyzer freshly seeded from the registry: its LATs, then its
/// rules in registration order.
#[test]
fn remove_rule_keeps_the_analyzer_equal_to_a_freshly_seeded_one() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sqlcm_core::Analyzer;
    use std::sync::Arc;

    let (_engine, sqlcm) = setup();
    let lats = [
        duration_lat(),
        LatSpec::new("Top")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(4),
    ];
    for lat in &lats {
        sqlcm.define_lat(lat.clone()).unwrap();
    }
    let conditions = [
        None,
        Some("Query.Duration > 5"),
        Some("Query.Duration > 5 AND Query.User = 'u1'"),
        Some("Duration_LAT.N >= 2"),
        Some("Top.D > 1 OR Query.Duration > 5"),
    ];
    let actions = [
        Action::insert("Duration_LAT"),
        Action::insert("Top"),
        Action::reset("Duration_LAT"),
        Action::set_timer("t", 1_000, 1),
        Action::send_mail("dba", "x"),
    ];
    let events = [
        RuleEvent::QueryCommit,
        RuleEvent::QueryStart,
        RuleEvent::LatEviction("Top".into()),
        RuleEvent::TimerAlarm("t".into()),
    ];
    let shape = |rng: &mut SmallRng, name: String| {
        let mut rule = Rule::new(name).on(events[rng.gen_range(0..events.len())].clone());
        if let Some(c) = conditions[rng.gen_range(0..conditions.len())] {
            rule = rule.when(c);
        }
        rule.then(actions[rng.gen_range(0..actions.len())].clone())
    };
    // Probes meet every cross-rule lint: duplicates, shared predicates,
    // cascades, unfed reads, adjacent order and fan-out.
    let mut rng = SmallRng::seed_from_u64(7);
    let probes: Vec<Rule> = (0..40)
        .map(|i| shape(&mut rng, format!("probe{i}")))
        .collect();
    let mut live: Vec<String> = Vec::new();
    let mut removed = 0;
    for step in 0..400 {
        if rng.gen_range(0..3) == 0 && !live.is_empty() {
            let name = live.remove(rng.gen_range(0..live.len()));
            assert!(sqlcm.remove_rule(&name));
            removed += 1;
        } else {
            let name = format!("r{step}");
            if sqlcm.add_rule(shape(&mut rng, name.clone())).is_ok() {
                live.push(name);
            }
        }
        let mut fresh = Analyzer::new();
        for lat in &lats {
            fresh.check_lat(lat);
        }
        for name in &live {
            fresh.seed_rule(Arc::new(sqlcm.rule(name).unwrap().ir()));
        }
        for probe in &probes {
            assert_eq!(
                sqlcm.analyze_rule(probe),
                fresh.diagnose(&probe.ir()),
                "step {step}, probe {}",
                probe.name
            );
        }
    }
    assert!(removed > 100 && live.len() > 20, "{removed} {}", live.len());
}
