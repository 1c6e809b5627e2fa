//! The monitor's event path end to end: every `ProbeKind` reaches the rules
//! subscribed to its `RuleEvent`, once, under one name — `ProbeKind::name`,
//! `EngineEvent::name` and `RuleEvent`'s `Display` agree for each of the
//! twelve — and a rule whose condition names a class its event does not
//! carry evaluates once per live object of that class (§5.2).

use sqlcm_common::{BlockPairInfo, EngineEvent, ProbeKind, QueryInfo, SessionInfo, TxnInfo};
use sqlcm_core::{Action, LatAggFunc, LatSpec, Rule, RuleEvent, Sqlcm};
use sqlcm_engine::Engine;

/// Every probe kind with its rule event and one engine event of the kind.
fn probe_events() -> Vec<(ProbeKind, RuleEvent, EngineEvent)> {
    let query = QueryInfo::synthetic(1, "SELECT 1");
    let pair = BlockPairInfo {
        blocker: QueryInfo::synthetic(2, "UPDATE t SET x = 1"),
        blocked: QueryInfo::synthetic(3, "SELECT x FROM t"),
        resource: "t/row/1".into(),
        wait_micros: 10,
    };
    let txn = TxnInfo {
        id: 4,
        start_time: 0,
        duration_micros: 5,
        logical_signature: vec![1],
        physical_signature: vec![2],
        statements: 1,
        session_id: 1,
        user: "u".into(),
        application: "a".into(),
    };
    let session = SessionInfo {
        session_id: 1,
        user: "u".into(),
        application: "a".into(),
        success: true,
    };
    use {EngineEvent as E, ProbeKind as K, RuleEvent as R};
    vec![
        (K::QueryStart, R::QueryStart, E::QueryStart(query.clone())),
        (
            K::QueryCompile,
            R::QueryCompile,
            E::QueryCompile(query.clone()),
        ),
        (
            K::QueryCommit,
            R::QueryCommit,
            E::QueryCommit(query.clone()),
        ),
        (
            K::QueryRollback,
            R::QueryRollback,
            E::QueryRollback(query.clone()),
        ),
        (K::QueryCancel, R::QueryCancel, E::QueryCancel(query)),
        (
            K::QueryBlocked,
            R::QueryBlocked,
            E::QueryBlocked(pair.clone()),
        ),
        (K::BlockReleased, R::BlockReleased, E::BlockReleased(pair)),
        (K::TxnBegin, R::TxnBegin, E::TxnBegin(txn.clone())),
        (K::TxnCommit, R::TxnCommit, E::TxnCommit(txn.clone())),
        (K::TxnRollback, R::TxnRollback, E::TxnRollback(txn)),
        (K::Login, R::Login, E::Login(session.clone())),
        (K::Logout, R::Logout, E::Logout(session)),
    ]
}

#[test]
fn every_probe_kind_fires_its_rule_once_under_one_name() {
    let events = probe_events();
    let kinds: Vec<ProbeKind> = events.iter().map(|(kind, ..)| *kind).collect();
    assert_eq!(kinds, ProbeKind::ALL, "one row per probe kind, in order");
    for (kind, rule_event, engine_event) in &events {
        assert_eq!(engine_event.kind(), *kind);
        assert_eq!(engine_event.name(), kind.name(), "{kind:?}");
        assert_eq!(rule_event.to_string(), kind.name(), "{kind:?}");
    }

    let engine = Engine::in_memory();
    let sqlcm = Sqlcm::attach(&engine);
    for (kind, rule_event, _) in &events {
        let rule = Rule::new(format!("on_{kind:?}")).on(rule_event.clone());
        sqlcm.add_rule(rule).unwrap();
    }
    for (_, _, engine_event) in &events {
        sqlcm.inject_event(engine_event);
    }
    for (kind, ..) in &events {
        let stats = sqlcm.rule(&format!("on_{kind:?}")).unwrap().stats();
        assert_eq!((stats.evaluations, stats.fires), (1, 1), "{kind:?}");
    }
    let stats = sqlcm.stats();
    assert_eq!((stats.events, stats.fires), (12, 12));
    let probes = sqlcm.telemetry().probes;
    for kind in ProbeKind::ALL {
        let per_kind = probes.iter().find(|p| p.kind == kind.name());
        assert_eq!(per_kind.map(|p| p.events), Some(1), "{kind:?}");
    }
}

/// §5.2 live-object iteration: a `Query.Commit` rule naming `Table` runs
/// once per table per commit, each combination fetching its own row of a
/// LAT keyed by the table; a rule within the commit's payload runs once per
/// commit; a rule naming `Blocker` with no query blocked runs never.
#[test]
fn a_rule_naming_a_class_outside_its_payload_runs_once_per_live_object() {
    let engine = Engine::in_memory();
    engine
        .execute_batch(
            "CREATE TABLE a (id INT PRIMARY KEY); CREATE TABLE b (id INT PRIMARY KEY); \
             CREATE TABLE c (id INT PRIMARY KEY); INSERT INTO a VALUES (1);",
        )
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("ByTable")
                .group_by("Table.Name", "Name")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    let on_commit = |name: &str| Rule::new(name).on(RuleEvent::QueryCommit);
    for rule in [
        on_commit("count_tables")
            .when("Table.Row_Count >= 0")
            .then(Action::insert("ByTable")),
        on_commit("seen_twice").when("Table.Row_Count >= 0 AND ByTable.N >= 2"),
        on_commit("in_payload").when("Query.Duration + 0 >= 0"),
        on_commit("blocked_pairs").when("Blocker.ID >= 0"),
    ] {
        sqlcm.add_rule(rule).unwrap();
    }
    let tables = engine.catalog().tables().len() as u64;
    assert_eq!(tables, 3);
    let commits = 2;
    for id in 0..commits {
        sqlcm.inject_event(&EngineEvent::QueryCommit(QueryInfo::synthetic(
            id, "SELECT 1",
        )));
    }
    for (rule, evaluations, fires) in [
        ("count_tables", commits * tables, commits * tables),
        ("seen_twice", commits * tables, tables),
        ("in_payload", commits, commits),
        ("blocked_pairs", 0, 0),
    ] {
        let stats = sqlcm.rule(rule).unwrap().stats();
        assert_eq!(
            (stats.evaluations, stats.fires),
            (evaluations, fires),
            "{rule}"
        );
    }
    let dispatch = sqlcm.telemetry().dispatch;
    assert_eq!(
        dispatch.lat_row_fetches,
        commits * tables,
        "one per combination"
    );
    assert_eq!(dispatch.hoisted_lookup_hits, 0);
    let rows = sqlcm.lat("ByTable").unwrap().rows();
    assert_eq!(rows.len() as u64, tables);
    assert!(rows.iter().all(|row| row[1] == 2.into()), "{rows:?}");
}
