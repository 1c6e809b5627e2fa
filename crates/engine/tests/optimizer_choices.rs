//! Engine-level tests: join-order choice, EXPLAIN output, IN-list execution,
//! and signature canonicalization across FROM-order permutations.

use sqlcm_common::Value;
use sqlcm_engine::{Engine, EngineConfig};

fn engine_with_skewed_tables() -> Engine {
    let e = Engine::new(EngineConfig::default());
    e.execute_batch(
        "CREATE TABLE big (id INT PRIMARY KEY, k INT, pad TEXT);\
         CREATE TABLE tiny (k INT PRIMARY KEY, label TEXT);",
    )
    .unwrap();
    let mut s = e.connect("setup", "t");
    s.execute("BEGIN").unwrap();
    for i in 0..3000i64 {
        s.execute_params(
            "INSERT INTO big VALUES (?, ?, 'xxxxxxxxxxxxxxxx')",
            &[Value::Int(i), Value::Int(i % 10)],
        )
        .unwrap();
    }
    s.execute("COMMIT").unwrap();
    for k in 0..10i64 {
        s.execute_params(
            "INSERT INTO tiny VALUES (?, ?)",
            &[Value::Int(k), Value::text(format!("k{k}"))],
        )
        .unwrap();
    }
    e
}

fn explain(e: &Engine, sql: &str) -> String {
    e.query(&format!("EXPLAIN {sql}"))
        .unwrap()
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string() + "\n")
        .collect()
}

#[test]
fn join_order_is_cost_chosen_not_from_order() {
    let e = engine_with_skewed_tables();
    // Whichever order the user writes, the chosen plan (and therefore the
    // physical signature) is the same.
    let a = explain(
        &e,
        "SELECT b.id FROM big b JOIN tiny t ON b.k = t.k WHERE t.k = 3",
    );
    let b = explain(
        &e,
        "SELECT b.id FROM tiny t JOIN big b ON b.k = t.k WHERE t.k = 3",
    );
    let sig = |s: &str| {
        s.lines()
            .find(|l| l.contains("physical signature"))
            .unwrap()
            .to_string()
    };
    assert_eq!(sig(&a), sig(&b), "canonical join order\n{a}\n{b}");
    // tiny's point seek must be on the build/right side or pushed to a seek —
    // at minimum, tiny is accessed by IndexSeek, not scanned.
    assert!(a.contains("IndexSeek tiny"), "{a}");
}

#[test]
fn select_star_column_order_is_declaration_order() {
    let e = engine_with_skewed_tables();
    let r = e
        .query("SELECT * FROM big b JOIN tiny t ON b.k = t.k WHERE b.id = 1")
        .unwrap();
    assert_eq!(r[0].len(), 5, "3 big columns then 2 tiny columns");
    // id, k, pad, k, label — first column is big.id regardless of join order.
    assert_eq!(r[0][0], Value::Int(1));
    assert_eq!(r[0][4], Value::text("k1"));
}

#[test]
fn in_list_executes_through_scan_residual() {
    let e = engine_with_skewed_tables();
    let r = e
        .query("SELECT COUNT(*) FROM big WHERE k IN (1, 2, 3)")
        .unwrap();
    assert_eq!(r[0][0], Value::Int(900));
    let r = e
        .query("SELECT COUNT(*) FROM big WHERE k NOT IN (1, 2, 3)")
        .unwrap();
    assert_eq!(r[0][0], Value::Int(2100));
}

#[test]
fn explain_does_not_execute() {
    let e = engine_with_skewed_tables();
    let before = e.catalog().table("big").unwrap().row_count();
    e.query("EXPLAIN DELETE FROM big WHERE id >= 0").unwrap();
    assert_eq!(e.catalog().table("big").unwrap().row_count(), before);
}

#[test]
fn point_seek_beats_scan_in_estimates() {
    let e = engine_with_skewed_tables();
    let seek = explain(&e, "SELECT pad FROM big WHERE id = 7");
    let scan = explain(&e, "SELECT pad FROM big WHERE k = 7");
    let cost = |s: &str| -> f64 {
        s.lines()
            .find(|l| l.contains("estimated cost"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|x| x.parse().ok())
            .unwrap()
    };
    assert!(seek.contains("IndexSeek"), "{seek}");
    assert!(scan.contains("SeqScan"), "{scan}");
    assert!(cost(&seek) < cost(&scan));
}
