//! A condition is compiled to the column positions of the LAT it named at
//! registration, and the plan rebinds that LAT by name: dropping the LAT and
//! defining it again with another schema must break the rule (an error per
//! evaluation, like a dropped LAT), never let it read the wrong column of
//! the fresh rows — or past their end, on the thread that raised the event.

use sqlcm_common::{EngineEvent, QueryInfo};
use sqlcm_core::{Action, LatAggFunc, LatSpec, Rule, RuleEvent, Sqlcm};
use sqlcm_engine::Engine;

fn commit_event(sig: u64, secs: f64) -> EngineEvent {
    let mut q = QueryInfo::synthetic(sig, "SELECT 1");
    q.logical_signature = Some(sig);
    q.duration_micros = (secs * 1e6) as u64;
    EngineEvent::QueryCommit(q)
}

/// Columns `[Sig, N, Avg_Dur]`.
fn wide() -> LatSpec {
    LatSpec::new("L")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Dur")
}

fn on_commit(name: &str) -> Rule {
    Rule::new(name).on(RuleEvent::QueryCommit)
}

fn feeder(name: &str) -> Rule {
    on_commit(name).then(Action::insert("L"))
}

/// `L` as `wide()`, fed by `feed`, read (column 2) by `r`, which mails.
fn monitor() -> (Engine, Sqlcm) {
    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm.define_lat(wide()).unwrap();
    sqlcm.add_rule(feeder("feed")).unwrap();
    let reader = on_commit("r").when("L.Avg_Dur > 0");
    sqlcm
        .add_rule(reader.then(Action::send_mail("dba", "slow")))
        .unwrap();
    (engine, sqlcm)
}

/// `r` after `events` commits under a redefinition it cannot read: every
/// evaluation counted and recorded as an error naming the LAT, none fired.
fn assert_broken(sqlcm: &Sqlcm, events: u64) {
    let stats = sqlcm.rule("r").unwrap().stats();
    assert_eq!((stats.evaluations, stats.fires), (events, 0));
    let telemetry = sqlcm.telemetry();
    let r = telemetry.rules.iter().find(|t| t.name == "r").unwrap();
    let error = r.last_error.as_ref().expect("an error per evaluation");
    assert_eq!(error.count, events);
    assert!(
        error.message.contains("LAT L") && error.message.contains("different schema"),
        "{}",
        error.message
    );
    assert_eq!(sqlcm.last_error().as_deref(), Some(&*error.message));
}

#[test]
fn a_narrower_redefinition_breaks_the_reader() {
    let (_engine, sqlcm) = monitor();
    assert!(sqlcm.drop_lat("L"));
    let narrow = LatSpec::new("L")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N");
    sqlcm.define_lat(narrow).unwrap();
    sqlcm.inject_event(&commit_event(7, 1.0));
    sqlcm.inject_event(&commit_event(7, 1.0));
    assert_broken(&sqlcm, 2);
    // `feed` still holds the table it was registered against; a feeder of
    // the new one gives `r`'s lookup a two-column row to read column 2 of.
    sqlcm.add_rule(feeder("feed_new")).unwrap();
    sqlcm.inject_event(&commit_event(7, 1.0));
    sqlcm.inject_event(&commit_event(7, 1.0));
    assert_eq!(sqlcm.lat("L").unwrap().row_count(), 1);
    assert_broken(&sqlcm, 4);
}

#[test]
fn a_same_width_redefinition_with_the_column_elsewhere_breaks_the_reader() {
    let (_engine, sqlcm) = monitor();
    assert!(sqlcm.drop_lat("L"));
    // Column 2 is now `N`: always positive, where `Avg_Dur` is 0 here.
    let reordered = LatSpec::new("L")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Dur")
        .aggregate(LatAggFunc::Count, "", "N");
    sqlcm.define_lat(reordered).unwrap();
    sqlcm.add_rule(feeder("feed_new")).unwrap();
    sqlcm.inject_event(&commit_event(7, 0.0));
    sqlcm.inject_event(&commit_event(7, 0.0));
    assert_broken(&sqlcm, 2);
    assert!(sqlcm.outbox().is_empty());
}

#[test]
fn a_same_schema_redefinition_keeps_the_reader_working() {
    let (_engine, sqlcm) = monitor();
    assert!(sqlcm.drop_lat("L"));
    sqlcm.define_lat(wide()).unwrap();
    sqlcm.add_rule(feeder("feed_new")).unwrap();
    sqlcm.inject_event(&commit_event(7, 1.0));
    sqlcm.inject_event(&commit_event(7, 1.0));
    // `r` runs before `feed_new`: the first commit finds no row, the second
    // reads the one the first left and fires.
    let stats = sqlcm.rule("r").unwrap().stats();
    assert_eq!((stats.evaluations, stats.fires), (2, 1));
    assert_eq!(sqlcm.last_error(), None);
    assert_eq!(sqlcm.outbox().len(), 1);
}
