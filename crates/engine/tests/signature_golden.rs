//! Golden signatures: the logical and physical plan text and hash of every
//! statement shape the engine prints, pinned byte for byte.
//!
//! Template-level log analysis groups on these values, so a change to the plan
//! printer must leave every line below unchanged. Every statement without
//! parameters also runs through a session, and the `Query.Commit` it emits
//! must carry the pinned hashes. The procedure test pins both code paths: the
//! statements each path runs, and the transaction signature over them that
//! `EXEC` reports as its own query signature.

use std::sync::Arc;

use parking_lot::Mutex;
use sqlcm_common::EngineEvent;
use sqlcm_engine::{optimizer, signature, Engine, Instrumentation, StoredProcedure};
use sqlcm_sql::{parse_statement, Statement};

/// Records (text, logical, physical) of every committed query.
#[derive(Default)]
struct Commits(Mutex<Vec<(String, u64, u64)>>);

impl Instrumentation for Commits {
    fn on_event(&self, ev: &EngineEvent) {
        if let EngineEvent::QueryCommit(q) = ev {
            let (l, p) = (q.logical_signature.unwrap(), q.physical_signature.unwrap());
            self.0.lock().push((q.text.to_string(), l, p));
        }
    }
}

fn engine() -> Engine {
    let e = Engine::in_memory();
    e.execute_batch(
        "CREATE TABLE t (a INT PRIMARY KEY, b INT, c TEXT);\
         CREATE TABLE u (x INT PRIMARY KEY, y TEXT);\
         CREATE TABLE w (k INT, v INT, PRIMARY KEY (k, v));\
         INSERT INTO t VALUES (1, 10, 'p'), (2, 20, 'q'), (3, 10, 'r');\
         INSERT INTO u VALUES (1, 'one'), (2, 'two');\
         INSERT INTO w VALUES (1, 1), (1, 2), (2, 1);",
    )
    .unwrap();
    e.catalog()
        .create_procedure(
            StoredProcedure::parse(
                "touch",
                &["mode", "id"],
                "IF @mode > 0 THEN SELECT b FROM t WHERE a = @id; \
                 ELSE UPDATE t SET b = b + 1 WHERE a = @id; \
                 DELETE FROM u WHERE x = @id; END;",
            )
            .unwrap(),
        )
        .unwrap();
    e
}

fn signatures(e: &Engine, sql: &str) -> signature::Signatures {
    match parse_statement(sql).unwrap() {
        Statement::Select(s) => {
            let p = optimizer::plan_select(e.catalog(), &s).unwrap();
            signature::compute(&p.logical, &p.physical)
        }
        other => signature::compute_for_statement(&other, None),
    }
}

/// (statement, logical text, logical hash, physical text, physical hash).
/// DML comes last, so the SELECTs run over the tables `engine` built.
const GOLDEN: &[(&str, &str, u64, &str, u64)] = &[
    (
        "SELECT 1 + 2",
        "Proj([(? + ?)];Dual)",
        0x70bd1f5f47355c7e,
        "Proj([(? + ?)];Dual)",
        0x70bd1f5f47355c7e,
    ),
    (
        "SELECT b FROM t WHERE a = 1",
        "Proj([b];Scan(t;as=t;pred=(a = ?)))",
        0x17bf903c9a783a73,
        "Proj([b];IndexSeek(t;as=t;eq=?;lo=;hi=;res=))",
        0x73785c36b26247a6,
    ),
    (
        "SELECT * FROM t WHERE a >= 1 AND a < 3 AND b = 10",
        "Proj([t.a,t.b,t.c];Scan(t;as=t;pred=(a < ?)&(a >= ?)&(b = ?)))",
        0xe0c0f9ea54656d39,
        "Proj([t.a,t.b,t.c];IndexSeek(t;as=t;eq=;lo=?=;hi=?;res=(b = ?)))",
        0x0859b7da7b65c935,
    ),
    (
        "SELECT v FROM w WHERE k = ? AND v > 0",
        "Proj([v];Scan(w;as=w;pred=(k = :p0)&(v > ?)))",
        0xf50c7ad4f672ab60,
        "Proj([v];IndexSeek(w;as=w;eq=:p0;lo=?;hi=;res=))",
        0x43565b448bb58a7a,
    ),
    (
        "SELECT a, c FROM t WHERE b > 5",
        "Proj([a,c];Scan(t;as=t;pred=(b > ?)))",
        0xbed1eec1049a68bf,
        "Proj([a,c];SeqScan(t;as=t;pred=(b > ?)))",
        0x165d7396552296a6,
    ),
    (
        "SELECT t.a, u.y FROM t JOIN u ON t.a < u.x",
        "Proj([t.a,u.y];Join((t.a < u.x);Scan(t;as=t;pred=);Scan(u;as=u;pred=)))",
        0xe1bd2f904c3d8a6d,
        "Proj([t.a,u.y];NLJoin((t.a < u.x);SeqScan(t;as=t;pred=);SeqScan(u;as=u;pred=)))",
        0xa097ae7888a9f90f,
    ),
    (
        "SELECT t.a, u.y FROM t JOIN u ON t.a = u.x WHERE t.b = 10",
        "Proj([t.a,u.y];Join((t.a = u.x);Scan(t;as=t;pred=(t.b = ?));Scan(u;as=u;pred=)))",
        0xe63d44b7f54fdd7f,
        "Proj([t.a,u.y];HashJoin(l=[t.a];r=[u.x];res=;SeqScan(t;as=t;pred=(t.b = ?));SeqScan(u;as=u;pred=)))",
        0x464b6f3c8a7a66a4,
    ),
    (
        "SELECT t.c, u.y, w.v FROM t JOIN u ON t.a = u.x JOIN w ON w.k = u.x WHERE w.v >= 1",
        "Proj([t.c,u.y,w.v];Join((t.a = u.x)&(w.k = u.x);Join(?;Scan(t;as=t;pred=);Scan(w;as=w;pred=(w.v >= ?)));Scan(u;as=u;pred=)))",
        0xa482bf54fc3c352f,
        "Proj([t.c,u.y,w.v];HashJoin(l=[t.a,w.k];r=[u.x,u.x];res=;NLJoin(?;SeqScan(t;as=t;pred=);SeqScan(w;as=w;pred=(w.v >= ?)));SeqScan(u;as=u;pred=)))",
        0x14692059756bdc37,
    ),
    (
        "SELECT b, COUNT(*) FROM t GROUP BY b",
        "Proj([b,count(*)];Agg(g=[b];a=[Count()];Scan(t;as=t;pred=)))",
        0x577c0087c6f0d299,
        "Proj([b,count(*)];HashAgg(g=[b];a=[Count()];SeqScan(t;as=t;pred=)))",
        0x245cf6293ef94126,
    ),
    (
        "SELECT b, SUM(a), MAX(c) FROM t GROUP BY b HAVING SUM(a) > 1 ORDER BY b",
        "Sort([b+];Proj([b,sum(a),max(c)];Filter((sum(a) > ?);Agg(g=[b];a=[Sum(a),Max(c)];Scan(t;as=t;pred=)))))",
        0x154c3e54baf1ab89,
        "Sort([b+];Proj([b,sum(a),max(c)];Filter((sum(a) > ?);HashAgg(g=[b];a=[Sum(a),Max(c)];SeqScan(t;as=t;pred=)))))",
        0x2049c1bf914f1e66,
    ),
    (
        "SELECT a FROM t ORDER BY b DESC, a LIMIT 2",
        "Limit(2;Proj([a];Sort([b-,a+];Scan(t;as=t;pred=))))",
        0xb38c9c924c00007a,
        "Limit(2;Proj([a];Sort([b-,a+];SeqScan(t;as=t;pred=))))",
        0x4036f158e3965aeb,
    ),
    (
        "SELECT * FROM t WHERE c LIKE 'p%' AND b IS NOT NULL AND a IN (1, 2, ?) AND NOT (b = @p) OR -a = 3",
        "Proj([t.a,t.b,t.c];Scan(t;as=t;pred=((((like(c,?) AND isnull!(b)) AND in(a;[?,?,:p0])) AND Not((b = :p))) OR (Neg(a) = ?))))",
        0xcbc0334014b48c4d,
        "Proj([t.a,t.b,t.c];SeqScan(t;as=t;pred=((((like(c,?) AND isnull!(b)) AND in(a;[?,?,:p0])) AND Not((b = :p))) OR (Neg(a) = ?))))",
        0xf7b3a879644fdb26,
    ),
    (
        "INSERT INTO t VALUES (4, 40, 'x')",
        "insert(t;cols=None;arity=3;rows=1)",
        0x94b69f2d9bbb7d1c,
        "insert(t;cols=None;arity=3;rows=1)",
        0x94b69f2d9bbb7d1c,
    ),
    (
        "INSERT INTO u (x, y) VALUES (?, ?), (?, ?)",
        "insert(u;cols=Some([\"x\", \"y\"]);arity=2;rows=2)",
        0xdc67de8355af0a5f,
        "insert(u;cols=Some([\"x\", \"y\"]);arity=2;rows=2)",
        0xdc67de8355af0a5f,
    ),
    (
        "UPDATE t SET c = 'z', b = b * 2 WHERE a = ? AND b > 1",
        "update(t;set=b=(b * ?),c=?;pred=(a = :p0)&(b > ?))",
        0x1139ae1da8f37c07,
        "update(t;set=b=(b * ?),c=?;pred=(a = :p0)&(b > ?))",
        0x1139ae1da8f37c07,
    ),
    (
        "DELETE FROM u WHERE y IS NULL",
        "delete(u;pred=isnull(y))",
        0x70467eedc8259ac4,
        "delete(u;pred=isnull(y))",
        0x70467eedc8259ac4,
    ),
    (
        "SELECT b FROM t WHERE a = @id",
        "Proj([b];Scan(t;as=t;pred=(a = :id)))",
        0x087a44d9a409a531,
        "Proj([b];IndexSeek(t;as=t;eq=:id;lo=;hi=;res=))",
        0x7df6b0a126c37acc,
    ),
    (
        "UPDATE t SET b = b + 1 WHERE a = @id",
        "update(t;set=b=(b + ?);pred=(a = :id))",
        0x7b77c69a7502e070,
        "update(t;set=b=(b + ?);pred=(a = :id))",
        0x7b77c69a7502e070,
    ),
    (
        "DELETE FROM u WHERE x = @id",
        "delete(u;pred=(x = :id))",
        0x84693a9df1574592,
        "delete(u;pred=(x = :id))",
        0x84693a9df1574592,
    ),
];

fn golden(sql: &str) -> (u64, u64) {
    let row = GOLDEN.iter().find(|g| g.0 == sql).unwrap();
    (row.2, row.4)
}

#[test]
fn statement_signatures_match_the_golden_table() {
    let e = engine();
    for (sql, ltext, lhash, ptext, phash) in GOLDEN {
        let s = signatures(&e, sql);
        assert_eq!(
            (s.logical_text.as_str(), s.logical),
            (*ltext, *lhash),
            "logical: {sql}"
        );
        assert_eq!(
            (s.physical_text.as_str(), s.physical),
            (*ptext, *phash),
            "physical: {sql}"
        );
    }
}

#[test]
fn executed_statements_report_the_golden_hashes() {
    let e = engine();
    let commits = Arc::new(Commits::default());
    e.attach_monitor(commits.clone());
    let mut s = e.connect("golden", "test");
    let unparameterized = GOLDEN.iter().filter(|g| !g.0.contains(['?', '@']));
    let mut expected = Vec::new();
    for (sql, _, lhash, _, phash) in unparameterized {
        s.execute(sql).unwrap();
        expected.push((sql.to_string(), *lhash, *phash));
    }
    assert_eq!(expected.len(), 12);
    assert_eq!(*commits.0.lock(), expected);
}

#[test]
fn procedure_code_paths_have_golden_transaction_signatures() {
    let e = engine();
    let commits = Arc::new(Commits::default());
    e.attach_monitor(commits.clone());
    let mut s = e.connect("golden", "test");
    let read = "SELECT b FROM t WHERE a = @id";
    let (write, delete) = (
        "UPDATE t SET b = b + 1 WHERE a = @id",
        "DELETE FROM u WHERE x = @id",
    );
    let paths = [
        (
            "EXEC touch(1, 2)",
            vec![read],
            0x664f985d93a6d9e1,
            0x2e90b876db4805fe,
        ),
        (
            "EXEC touch(0, 2)",
            vec![write, delete],
            0xa6fb144001515e8d,
            0xa6fb144001515e8d,
        ),
    ];
    for (exec, statements, lhash, phash) in paths {
        commits.0.lock().clear();
        s.execute(exec).unwrap();
        let mut expected: Vec<(String, u64, u64)> = statements
            .iter()
            .map(|sql| {
                let (l, p) = golden(sql);
                (sql.to_string(), l, p)
            })
            .collect();
        let (ls, ps): (Vec<u64>, Vec<u64>) = expected.iter().map(|r| (r.1, r.2)).unzip();
        assert_eq!(signature::transaction_signature(&ls), lhash, "{exec}");
        assert_eq!(signature::transaction_signature(&ps), phash, "{exec}");
        expected.push((exec.to_string(), lhash, phash));
        assert_eq!(*commits.0.lock(), expected);
    }
}
