//! Integration tests: the five Section-3 monitoring scenarios, end to end
//! through the public API (engine + SQLCM attached as a monitor).

use sqlcm_repro::engine::engine::EngineConfig as Cfg;
use sqlcm_repro::monitor::objects;
use sqlcm_repro::prelude::*;
use sqlcm_repro::workloads::{blocking, mixed, procs, run_queries, tpch};

fn small_db(engine: &Engine) -> sqlcm_repro::workloads::TpchDb {
    tpch::load(
        engine,
        tpch::TpchConfig {
            orders: 300,
            parts: 50,
            customers: 20,
            seed: 9,
        },
    )
    .unwrap()
}

#[test]
fn example1_outliers_against_aging_average() {
    let engine = Engine::in_memory();
    let _db = small_db(&engine);
    engine
        .execute_batch("CREATE TABLE outliers (qtext TEXT, duration FLOAT);")
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Duration_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("report")
                .on(RuleEvent::QueryCommit)
                // Absolute floor keeps scheduler noise on µs-scale queries from
                // registering as outliers in the test.
                .when(
                    "Query.Duration > 5 * Duration_LAT.Avg_Duration \
                     AND Duration_LAT.N >= 5 AND Query.Duration > 0.05",
                )
                .then(Action::persist_object(
                    "outliers",
                    "Query",
                    &["Query_Text", "Duration"],
                )),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("track")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Duration_LAT")),
        )
        .unwrap();

    // Uniform template traffic — no outliers.
    let mut s = engine.connect("app", "t");
    for i in 1..=50 {
        s.execute_params(
            "SELECT o_status FROM orders WHERE o_orderkey = ?",
            &[Value::Int(i)],
        )
        .unwrap();
    }
    assert_eq!(
        engine.query("SELECT COUNT(*) FROM outliers").unwrap()[0][0],
        Value::Int(0)
    );

    // A synthetic 100×-slower instance of the same template (driven through the
    // monitor's public dispatch path via a fabricated engine event is not
    // possible from outside; instead run a real query made slow by a lock).
    let mut blocker = engine.connect("batch", "t");
    blocker.execute("BEGIN").unwrap();
    blocker
        .execute("UPDATE orders SET o_totalprice = 0.0 WHERE o_orderkey = 7")
        .unwrap();
    let t = std::thread::spawn(move || {
        let r = s.execute_params(
            "SELECT o_status FROM orders WHERE o_orderkey = ?",
            &[Value::Int(7)],
        );
        r.map(|_| s)
    });
    std::thread::sleep(std::time::Duration::from_millis(120));
    blocker.execute("COMMIT").unwrap();
    t.join().unwrap().unwrap();

    let rows = engine.query("SELECT duration FROM outliers").unwrap();
    assert_eq!(rows.len(), 1, "the delayed instance is an outlier");
    assert!(rows[0][0].as_f64().unwrap() > 0.1);
}

#[test]
fn example2_blocking_delay_attribution() {
    let engine = Engine::in_memory();
    let _db = small_db(&engine);
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Blockers")
                .group_by("Blocker.Query_Text", "Stmt")
                .aggregate(LatAggFunc::Sum, "Blocker.Wait_Time", "Total_Delay")
                .aggregate(LatAggFunc::Count, "", "Episodes")
                .order_by("Total_Delay", true)
                .max_rows(10),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("track")
                .on(RuleEvent::BlockReleased)
                .then(Action::insert("Blockers")),
        )
        .unwrap();
    let stats = blocking::run(
        &engine,
        blocking::BlockingConfig {
            writers: 2,
            readers: 4,
            iterations: 8,
            hold: std::time::Duration::from_millis(5),
            hot_rows: 1,
        },
    );
    assert_eq!(stats.errors, 0);
    let lat = sqlcm.lat("Blockers").unwrap();
    let rows = lat.rows_ordered();
    assert!(!rows.is_empty());
    // The UPDATE statement must be the top blocker, with real accumulated delay.
    assert!(rows[0][0].as_str().unwrap().starts_with("UPDATE orders"));
    assert!(rows[0][1].as_f64().unwrap() > 0.0);
    let episodes: i64 = rows.iter().map(|r| r[2].as_i64().unwrap()).sum();
    assert!(episodes > 0);
}

#[test]
fn example3_topk_matches_ground_truth() {
    // History gives the exact per-run truth; the LAT must agree with it.
    let engine = Engine::in_memory();
    let history = ServerHistory::attach(&engine);
    let db = small_db(&engine);
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm.define_topk_duration_lat("TopK", 5).unwrap();
    sqlcm
        .add_rule(
            Rule::new("track")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("TopK")),
        )
        .unwrap();
    history.drain();
    let w = mixed::generate(
        &db,
        mixed::MixedConfig {
            point_selects: 300,
            join_selects: 8,
            seed: 3,
        },
    );
    run_queries(&engine, &w).unwrap();

    // Truth: per-signature max duration, top 5.
    let all = history.drain();
    let mut per_sig: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for q in &all {
        let sig = q.logical_signature.unwrap();
        let d = q.duration_micros as f64 / 1e6;
        let e = per_sig.entry(sig).or_insert(0.0);
        if d > *e {
            *e = d;
        }
    }
    let mut truth: Vec<(u64, f64)> = per_sig.into_iter().collect();
    truth.sort_by(|a, b| b.1.total_cmp(&a.1));
    truth.truncate(5);

    let lat = sqlcm.lat("TopK").unwrap();
    let kept: Vec<(u64, f64)> = lat
        .rows_ordered()
        .iter()
        .map(|r| (r[0].as_i64().unwrap() as u64, r[1].as_f64().unwrap()))
        .collect();
    assert_eq!(kept.len(), truth.len().min(5));
    for ((ks, kd), (ts, td)) in kept.iter().zip(&truth) {
        assert_eq!(ks, ts, "same signatures in the same order");
        assert!((kd - td).abs() < 1e-9, "same max durations");
    }
}

#[test]
fn example4_timer_persist_cycle() {
    use sqlcm_common::ManualClock;
    let (clock, handle) = ManualClock::shared(0);
    let engine = Engine::new(Cfg {
        clock: Some(clock),
        ..Default::default()
    });
    engine
        .execute_batch(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT);\
             CREATE TABLE summary (qtype TEXT, n INT, at TIMESTAMP);",
        )
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("ByType")
                .group_by("Query.Query_Type", "QType")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("collect")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("ByType")),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("persist_daily")
                .on(RuleEvent::TimerAlarm("daily".into()))
                .then(Action::persist_lat("summary", "ByType"))
                .then(Action::reset("ByType")),
        )
        .unwrap();
    sqlcm.set_timer("daily", 1_000_000, -1);

    let mut s = engine.connect("u", "a");
    for i in 0..5 {
        s.execute_params("INSERT INTO t VALUES (?, 0)", &[Value::Int(i)])
            .unwrap();
    }
    handle.advance(1_000_001);
    sqlcm.poll_timers();
    // After the persist+reset, the LAT is empty and the table has one period.
    assert_eq!(sqlcm.lat("ByType").unwrap().row_count(), 0);
    let rows = engine
        .query("SELECT qtype, n FROM summary ORDER BY n DESC")
        .unwrap();
    assert_eq!(rows[0][0], Value::text("INSERT"));
    assert_eq!(rows[0][1], Value::Int(5));

    // Second period.
    s.execute("SELECT COUNT(*) FROM t").unwrap();
    handle.advance(1_000_001);
    sqlcm.poll_timers();
    let n: i64 = engine.query("SELECT COUNT(*) FROM summary").unwrap()[0][0]
        .as_i64()
        .unwrap();
    assert!(n >= 2, "two persisted periods, got {n}");
}

#[test]
fn example5_per_user_runaway_governor() {
    let engine = Engine::in_memory();
    let _db = small_db(&engine);
    let sqlcm = Sqlcm::attach(&engine);
    // Cancel queries from user 'intern' running longer than 100 ms.
    sqlcm
        .add_rule(
            Rule::new("governor")
                .on(RuleEvent::TimerAlarm("gov".into()))
                .when("Query.Duration > 0.1 AND Query.User = 'intern'")
                .then(Action::cancel("Query")),
        )
        .unwrap();
    sqlcm.set_timer("gov", 30_000, -1);
    sqlcm.start_timer_thread(std::time::Duration::from_millis(10));

    let mut intern = engine.connect("intern", "adhoc");
    let err = intern
        .execute(
            "SELECT COUNT(*) FROM lineitem a JOIN lineitem b ON a.l_quantity < b.l_quantity \
             JOIN lineitem c ON b.l_quantity < c.l_quantity",
        )
        .unwrap_err();
    assert_eq!(err, Error::Cancelled);

    // Other users are untouched even if slow-ish.
    let mut dba = engine.connect("dba", "adhoc");
    dba.execute("SELECT COUNT(*) FROM lineitem a JOIN orders o ON a.l_orderkey = o.o_orderkey")
        .unwrap();
}

#[test]
fn stored_procedure_code_paths_have_distinct_signatures() {
    let engine = Engine::in_memory();
    let db = small_db(&engine);
    procs::register(&engine).unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Paths")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Last, "Query.Query_Text", "Text"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("track_procs")
                .on(RuleEvent::QueryCommit)
                .when("Query.Query_Text LIKE 'EXEC %'")
                .then(Action::insert("Paths")),
        )
        .unwrap();
    let invs = procs::invocations(&db, 60, 0.5, 4);
    procs::run(&engine, &invs).unwrap();
    let lat = sqlcm.lat("Paths").unwrap();
    assert_eq!(
        lat.row_count(),
        2,
        "two code paths → two transaction signatures"
    );
    let total: i64 = lat.rows().iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(total, 60);
}

#[test]
fn eviction_rules_see_lat_columns() {
    let engine = Engine::in_memory();
    engine
        .execute_batch(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT);\
             CREATE TABLE graveyard (sig INT, d FLOAT);",
        )
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Tiny")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .order_by("D", true)
                .max_rows(1),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("track")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("Tiny")),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("bury")
                .on(RuleEvent::LatEviction("Tiny".into()))
                .then(Action::PersistObject {
                    table: "graveyard".into(),
                    class: objects::ClassName::Evicted("Tiny".into()),
                    attrs: vec!["Sig".into(), "D".into()],
                }),
        )
        .unwrap();
    let mut s = engine.connect("u", "a");
    // Distinct templates → distinct signatures → evictions.
    s.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    s.execute("SELECT v FROM t WHERE id = 1").unwrap();
    s.execute("SELECT COUNT(*) FROM t").unwrap();
    let buried: i64 = engine.query("SELECT COUNT(*) FROM graveyard").unwrap()[0][0]
        .as_i64()
        .unwrap();
    assert!(buried >= 2, "all but one template evicted, got {buried}");
}

#[test]
fn table_class_watchdog_rule() {
    use sqlcm_common::ManualClock;
    let (clock, handle) = ManualClock::shared(0);
    let engine = Engine::new(Cfg {
        clock: Some(clock),
        ..Default::default()
    });
    engine
        .execute_batch(
            "CREATE TABLE small (id INT PRIMARY KEY, v INT);\
                        CREATE TABLE big (id INT PRIMARY KEY, v INT);",
        )
        .unwrap();
    let mut s = engine.connect("u", "a");
    for i in 0..50 {
        s.execute_params("INSERT INTO big VALUES (?, 0)", &[Value::Int(i)])
            .unwrap();
    }
    s.execute("INSERT INTO small VALUES (1, 0)").unwrap();

    // Schema extension (§2.2): a Timer rule iterating over Table objects.
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("growth_watchdog")
                .on(RuleEvent::TimerAlarm("watch".into()))
                .when("Table.Row_Count > 10")
                .then(Action::send_mail(
                    "dba@example.org",
                    "table {Table.Name} has {Table.Row_Count} rows",
                )),
        )
        .unwrap();
    sqlcm.set_timer("watch", 1_000, 1);
    handle.advance(1_001);
    sqlcm.poll_timers();
    let mail = sqlcm.outbox().messages();
    assert_eq!(mail.len(), 1, "only the big table trips the watchdog");
    assert!(mail[0].1.contains("big has 50 rows"), "{}", mail[0].1);
}

#[test]
fn in_list_rule_condition() {
    let engine = Engine::in_memory();
    engine
        .execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .add_rule(
            Rule::new("writes_only")
                .on(RuleEvent::QueryCommit)
                .when("Query.Query_Type IN ('INSERT', 'UPDATE', 'DELETE')")
                .then(Action::send_mail("audit", "{Query.Query_Type}")),
        )
        .unwrap();
    let mut s = engine.connect("u", "a");
    s.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    s.execute("SELECT * FROM t").unwrap();
    s.execute("UPDATE t SET v = 1 WHERE id = 1").unwrap();
    let kinds: Vec<String> = sqlcm
        .outbox()
        .messages()
        .into_iter()
        .map(|(_, b)| b)
        .collect();
    assert_eq!(kinds, vec!["INSERT", "UPDATE"], "SELECT filtered out by IN");
}
