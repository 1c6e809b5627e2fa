//! Integration tests: the host engine's SQL surface, end to end.

use sqlcm_repro::prelude::*;

fn engine() -> Engine {
    let e = Engine::in_memory();
    e.execute_batch(
        "CREATE TABLE dept (id INT PRIMARY KEY, name TEXT);\
         CREATE TABLE emp (id INT PRIMARY KEY, dept_id INT, name TEXT, salary FLOAT);",
    )
    .unwrap();
    let mut s = e.connect("setup", "test");
    for (id, name) in [(1, "eng"), (2, "sales"), (3, "empty")] {
        s.execute_params(
            "INSERT INTO dept VALUES (?, ?)",
            &[Value::Int(id), Value::text(name)],
        )
        .unwrap();
    }
    for (id, dept, name, salary) in [
        (1, 1, "ada", 120.0),
        (2, 1, "brian", 100.0),
        (3, 2, "carol", 90.0),
        (4, 2, "dave", 80.0),
        (5, 1, "erin", 110.0),
    ] {
        s.execute_params(
            "INSERT INTO emp VALUES (?, ?, ?, ?)",
            &[
                Value::Int(id),
                Value::Int(dept),
                Value::text(name),
                Value::Float(salary),
            ],
        )
        .unwrap();
    }
    e
}

#[test]
fn join_group_order_limit() {
    let e = engine();
    let rows = e
        .query(
            "SELECT d.name, COUNT(*) AS n, AVG(e.salary) AS avg_sal \
             FROM emp e JOIN dept d ON e.dept_id = d.id \
             GROUP BY d.name ORDER BY avg_sal DESC LIMIT 2",
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::text("eng"));
    assert_eq!(rows[0][1], Value::Int(3));
    assert_eq!(rows[0][2], Value::Float(110.0));
    assert_eq!(rows[1][0], Value::text("sales"));
}

#[test]
fn predicates_and_expressions() {
    let e = engine();
    let rows = e
        .query("SELECT name FROM emp WHERE salary * 2 >= 220 ORDER BY name")
        .unwrap();
    assert_eq!(
        rows,
        vec![vec![Value::text("ada")], vec![Value::text("erin")]]
    );
    let rows = e
        .query("SELECT name FROM emp WHERE name LIKE '%a%' AND dept_id <> 2 ORDER BY name")
        .unwrap();
    assert_eq!(
        rows,
        vec![vec![Value::text("ada")], vec![Value::text("brian")]]
    );
}

#[test]
fn update_via_index_and_scan() {
    let e = engine();
    let mut s = e.connect("u", "t");
    // Point update through the clustered key.
    let r = s
        .execute("UPDATE emp SET salary = salary + 5 WHERE id = 3")
        .unwrap();
    assert_eq!(r.rows_affected, 1);
    // Scan update across a predicate.
    let r = s
        .execute("UPDATE emp SET salary = 0 WHERE dept_id = 1")
        .unwrap();
    assert_eq!(r.rows_affected, 3);
    let rows = e.query("SELECT SUM(salary) FROM emp").unwrap();
    assert_eq!(rows[0][0], Value::Float(95.0 + 80.0));
}

#[test]
fn primary_key_change_relocates_row() {
    let e = engine();
    let mut s = e.connect("u", "t");
    s.execute("UPDATE emp SET id = 100 WHERE id = 1").unwrap();
    assert!(e
        .query("SELECT name FROM emp WHERE id = 1")
        .unwrap()
        .is_empty());
    assert_eq!(
        e.query("SELECT name FROM emp WHERE id = 100").unwrap()[0][0],
        Value::text("ada")
    );
    // Collision with an existing key fails and rolls back.
    assert!(s.execute("UPDATE emp SET id = 2 WHERE id = 100").is_err());
    assert_eq!(
        e.query("SELECT COUNT(*) FROM emp").unwrap()[0][0],
        Value::Int(5)
    );
}

#[test]
fn delete_and_reinsert() {
    let e = engine();
    let mut s = e.connect("u", "t");
    assert_eq!(
        s.execute("DELETE FROM emp WHERE dept_id = 2")
            .unwrap()
            .rows_affected,
        2
    );
    assert_eq!(
        e.query("SELECT COUNT(*) FROM emp").unwrap()[0][0],
        Value::Int(3)
    );
    s.execute("INSERT INTO emp VALUES (3, 2, 'carol2', 91.0)")
        .unwrap();
    assert_eq!(
        e.query("SELECT name FROM emp WHERE id = 3").unwrap()[0][0],
        Value::text("carol2")
    );
}

#[test]
fn constraint_violations_are_clean_errors() {
    let e = engine();
    let mut s = e.connect("u", "t");
    assert!(s
        .execute("INSERT INTO emp VALUES (1, 1, 'dup', 1.0)")
        .is_err());
    assert!(s
        .execute("INSERT INTO emp VALUES (NULL, 1, 'nokey', 1.0)")
        .is_err());
    assert!(s.execute("INSERT INTO emp VALUES (9, 1, 'short')").is_err());
    assert!(s.execute("SELECT nope FROM emp").is_err());
    assert!(s.execute("SELECT * FROM missing").is_err());
    // Everything still consistent.
    assert_eq!(
        e.query("SELECT COUNT(*) FROM emp").unwrap()[0][0],
        Value::Int(5)
    );
}

#[test]
fn ddl_invalidates_plan_cache() {
    let e = engine();
    let mut s = e.connect("u", "t");
    s.execute("SELECT COUNT(*) FROM emp").unwrap();
    let before = e.plan_cache_stats();
    assert!(before.misses > 0);
    s.execute("DROP TABLE emp").unwrap();
    assert!(s.execute("SELECT COUNT(*) FROM emp").is_err());
    s.execute("CREATE TABLE emp (id INT PRIMARY KEY, x INT)")
        .unwrap();
    let rows = e.query("SELECT COUNT(*) FROM emp").unwrap();
    assert_eq!(rows[0][0], Value::Int(0), "new table, fresh plan");
}

#[test]
fn secondary_index_backfill_and_consistency() {
    let e = engine();
    let mut s = e.connect("u", "t");
    s.execute("CREATE INDEX emp_by_dept ON emp (dept_id)")
        .unwrap();
    // DML keeps the index in sync (verified via catalog internals).
    s.execute("INSERT INTO emp VALUES (6, 1, 'finn', 70.0)")
        .unwrap();
    s.execute("DELETE FROM emp WHERE id = 2").unwrap();
    let t = e.catalog().table("emp").unwrap();
    let idx = t.indexes.read()[0].clone();
    assert_eq!(
        idx.btree.len().unwrap(),
        5,
        "4 original + 1 insert - 1 delete + 1 = 5"
    );
}

#[test]
fn select_without_from_and_scalar_functions() {
    let e = engine();
    assert_eq!(
        e.query("SELECT 2 + 3 * 4 AS x").unwrap(),
        vec![vec![Value::Int(14)]]
    );
    assert_eq!(
        e.query("SELECT UPPER('abc')").unwrap(),
        vec![vec![Value::text("ABC")]]
    );
}

#[test]
fn transactions_isolate_and_unwind() {
    let e = engine();
    let mut s = e.connect("u", "t");
    s.execute("BEGIN").unwrap();
    s.execute("DELETE FROM emp WHERE id = 1").unwrap();
    s.execute("UPDATE emp SET salary = 1.0 WHERE id = 2")
        .unwrap();
    s.execute("INSERT INTO emp VALUES (50, 1, 'temp', 9.0)")
        .unwrap();
    s.execute("ROLLBACK").unwrap();
    let rows = e.query("SELECT COUNT(*), SUM(salary) FROM emp").unwrap();
    assert_eq!(rows[0][0], Value::Int(5));
    assert_eq!(rows[0][1], Value::Float(500.0));
}

#[test]
fn prepared_reuse_with_parameters() {
    let e = engine();
    let mut s = e.connect("u", "t");
    for want in 1..=5i64 {
        let rows = s
            .execute_params("SELECT name FROM emp WHERE id = ?", &[Value::Int(want)])
            .unwrap();
        assert_eq!(rows.rows.len(), 1);
    }
    let stats = e.plan_cache_stats();
    assert!(
        stats.hits >= 4,
        "template cached across executions: {stats:?}"
    );
}

#[test]
fn in_list_predicates() {
    let e = engine();
    let rows = e
        .query("SELECT name FROM emp WHERE id IN (1, 3, 99) ORDER BY id")
        .unwrap();
    assert_eq!(
        rows,
        vec![vec![Value::text("ada")], vec![Value::text("carol")]]
    );
    let rows = e
        .query("SELECT COUNT(*) FROM emp WHERE dept_id NOT IN (2)")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(3));
    // NULL semantics: x IN (..., NULL) with no match is UNKNOWN → filtered out.
    let rows = e
        .query("SELECT COUNT(*) FROM emp WHERE id IN (99, NULL)")
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(0));
    // Round-trip through the printer.
    let stmt =
        sqlcm_repro::sql::parse_statement("SELECT * FROM emp WHERE id NOT IN (1, 2)").unwrap();
    let again = sqlcm_repro::sql::parse_statement(&stmt.to_string()).unwrap();
    assert_eq!(stmt, again);
}

#[test]
fn explain_shows_plan_and_signatures() {
    let e = engine();
    let r = e
        .query("EXPLAIN SELECT d.name, COUNT(*) FROM emp e JOIN dept d ON e.dept_id = d.id GROUP BY d.name")
        .unwrap();
    let text: Vec<String> = r
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string())
        .collect();
    let joined = text.join("\n");
    assert!(joined.contains("HashJoin"), "{joined}");
    assert!(joined.contains("HashAggregate"), "{joined}");
    assert!(joined.contains("estimated cost"), "{joined}");
    assert!(joined.contains("logical signature"), "{joined}");

    // Point select explains to an index seek.
    let r = e
        .query("EXPLAIN SELECT name FROM emp WHERE id = 3")
        .unwrap();
    let joined: String = r
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string() + "\n")
        .collect();
    assert!(joined.contains("IndexSeek"), "{joined}");

    // DML explains to its template.
    let r = e
        .query("EXPLAIN UPDATE emp SET salary = 0 WHERE id = 1")
        .unwrap();
    let joined: String = r
        .iter()
        .map(|row| row[0].as_str().unwrap().to_string() + "\n")
        .collect();
    assert!(joined.contains("template: update(emp"), "{joined}");
}

#[test]
fn in_list_drives_plan_cache_templates() {
    // Different constants in an IN list share a template; different lengths don't.
    let e = engine();
    let sig = |sql: &str| {
        let r = e.query(&format!("EXPLAIN {sql}")).unwrap();
        r.iter()
            .map(|row| row[0].as_str().unwrap().to_string())
            .find(|l| l.contains("logical signature"))
            .unwrap()
    };
    assert_eq!(
        sig("SELECT name FROM emp WHERE id IN (1, 2)"),
        sig("SELECT name FROM emp WHERE id IN (7, 9)")
    );
    assert_ne!(
        sig("SELECT name FROM emp WHERE id IN (1, 2)"),
        sig("SELECT name FROM emp WHERE id IN (1, 2, 3)")
    );
}

/// A clustered-key seek reaches the rows its predicate selects, as a heap
/// table's scan of the same rows does: for SELECT, UPDATE and DELETE, with
/// two edges on one side, bounds of another type than the key and NULL.
#[test]
fn seeks_select_what_a_heap_scan_selects() {
    let e = Engine::in_memory();
    e.execute_batch(
        "CREATE TABLE c (id INT PRIMARY KEY, v INT);\
         CREATE TABLE h (id INT, v INT);",
    )
    .unwrap();
    let mut s = e.connect("u", "t");
    for i in 0..20i64 {
        for table in ["c", "h"] {
            s.execute_params(
                &format!("INSERT INTO {table} VALUES (?, ?)"),
                &[Value::Int(i), Value::Int(i % 3)],
            )
            .unwrap();
        }
    }
    for p in [
        "id > 10 AND id > 3",
        "id < 5 AND id <= 8 AND id >= 1",
        "id >= 2.5",
        "id = 2.5",
        "id <= 2.5",
        "id = '5'",
        "id < '5'",
        "id > NULL",
        "id = NULL",
        "5 > id AND v = 1",
    ] {
        let count = |table: &str| e.query(&format!("SELECT COUNT(*) FROM {table} WHERE {p}"));
        assert_eq!(count("c").unwrap(), count("h").unwrap(), "SELECT WHERE {p}");
        for dml in [
            "UPDATE {t} SET v = v + 1 WHERE {p}",
            "DELETE FROM {t} WHERE {p}",
        ] {
            s.execute("BEGIN").unwrap();
            let mut n = |t: &str| {
                let sql = dml.replace("{t}", t).replace("{p}", p);
                s.execute(&sql).unwrap().rows_affected
            };
            assert_eq!(n("c"), n("h"), "{dml} with {p}");
            s.execute("ROLLBACK").unwrap();
        }
    }
}
