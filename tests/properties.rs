//! Property-based tests over the workspace's core invariants.

use proptest::prelude::*;
use sqlcm_repro::common::{ManualClock, QueryInfo, Value};
use sqlcm_repro::monitor::objects::query_object;
use sqlcm_repro::monitor::{Lat, LatAggFunc, LatSpec};
use sqlcm_repro::prelude::*;

// ---------------------------------------------------------------- LATs

/// Insert a random stream into a plain LAT; every aggregate must equal the
/// naive recomputation per group.
#[test]
fn lat_aggregates_match_naive_recomputation() {
    let mut runner =
        proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(64));
    runner
        .run(
            &proptest::collection::vec((0u64..6, 1u64..100_000), 1..200),
            |stream| {
                let (clock, _) = ManualClock::shared(0);
                let lat = Lat::new(
                    LatSpec::new("P")
                        .group_by("Query.Logical_Signature", "Sig")
                        .aggregate(LatAggFunc::Count, "", "n")
                        .aggregate(LatAggFunc::Sum, "Query.Duration", "s")
                        .aggregate(LatAggFunc::Avg, "Query.Duration", "a")
                        .aggregate(LatAggFunc::Min, "Query.Duration", "mn")
                        .aggregate(LatAggFunc::Max, "Query.Duration", "mx")
                        .aggregate(LatAggFunc::StdDev, "Query.Duration", "sd")
                        .aggregate(LatAggFunc::First, "Query.Duration", "f")
                        .aggregate(LatAggFunc::Last, "Query.Duration", "l"),
                    clock,
                )
                .unwrap();
                let mut model: std::collections::HashMap<u64, Vec<f64>> =
                    std::collections::HashMap::new();
                for (sig, dur) in &stream {
                    let mut q = QueryInfo::synthetic(1, "q");
                    q.logical_signature = Some(*sig);
                    q.duration_micros = *dur;
                    lat.insert(&query_object(&q)).unwrap();
                    model.entry(*sig).or_default().push(*dur as f64 / 1e6);
                }
                for (sig, vals) in model {
                    let mut probe = QueryInfo::synthetic(1, "q");
                    probe.logical_signature = Some(sig);
                    let row = lat.lookup_for(&query_object(&probe)).unwrap();
                    let n = vals.len() as f64;
                    let sum: f64 = vals.iter().sum();
                    let mean = sum / n;
                    let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
                    let close = |a: f64, b: f64| (a - b).abs() < 1e-6 * b.abs().max(1.0);
                    prop_assert_eq!(row[1].as_i64().unwrap(), n as i64);
                    prop_assert!(close(row[2].as_f64().unwrap(), sum));
                    prop_assert!(close(row[3].as_f64().unwrap(), mean));
                    prop_assert!(close(
                        row[4].as_f64().unwrap(),
                        vals.iter().cloned().fold(f64::INFINITY, f64::min)
                    ));
                    prop_assert!(close(
                        row[5].as_f64().unwrap(),
                        vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                    ));
                    prop_assert!(close(row[6].as_f64().unwrap(), var.sqrt()));
                    prop_assert!(close(row[7].as_f64().unwrap(), vals[0]));
                    prop_assert!(close(row[8].as_f64().unwrap(), *vals.last().unwrap()));
                }
                Ok(())
            },
        )
        .unwrap();
}

/// The aging SUM over Δ-blocks must equal the brute-force block model.
#[test]
fn aging_sum_matches_block_model() {
    let window = 10_000u64;
    let block = 1_000u64;
    let mut runner =
        proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(64));
    runner
        .run(
            // (advance clock by, value) steps.
            &proptest::collection::vec((0u64..3_000, 1u64..1_000), 1..120),
            |steps| {
                let (clock, handle) = ManualClock::shared(0);
                let lat = Lat::new(
                    LatSpec::new("A")
                        .group_by("Query.Logical_Signature", "Sig")
                        .aggregate(LatAggFunc::Sum, "Query.Duration", "s")
                        .aging(window, block),
                    clock,
                )
                .unwrap();
                let mut events: Vec<(u64, f64)> = Vec::new(); // (ts, value in s)
                let mut now = 0u64;
                for (adv, val) in &steps {
                    handle.advance(*adv);
                    now += adv;
                    let mut q = QueryInfo::synthetic(1, "q");
                    q.logical_signature = Some(1);
                    q.duration_micros = *val;
                    lat.insert(&query_object(&q)).unwrap();
                    events.push((now, *val as f64 / 1e6));
                }
                // Block model: a block [b, b+Δ) is live iff b + Δ > now - t.
                let cutoff = now.saturating_sub(window);
                let expected: f64 = events
                    .iter()
                    .filter(|(ts, _)| {
                        let block_start = ts - ts % block;
                        block_start + block > cutoff
                    })
                    .map(|(_, v)| v)
                    .sum();
                let mut probe = QueryInfo::synthetic(1, "q");
                probe.logical_signature = Some(1);
                let row = lat.lookup_for(&query_object(&probe)).unwrap();
                let got = row[1].as_f64().unwrap_or(0.0);
                prop_assert!(
                    (got - expected).abs() < 1e-9 * expected.abs().max(1.0),
                    "got {got}, expected {expected}"
                );
                Ok(())
            },
        )
        .unwrap();
}

/// A top-k LAT must contain exactly the k largest per-group maxima.
#[test]
fn topk_lat_equals_sorting() {
    let mut runner =
        proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(64));
    runner
        .run(
            &proptest::collection::vec((0u64..50, 1u64..1_000_000), 1..300),
            |stream| {
                let (clock, _) = ManualClock::shared(0);
                let k = 7usize;
                let lat = Lat::new(
                    LatSpec::new("T")
                        .group_by("Query.Logical_Signature", "Sig")
                        .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                        .order_by("D", true)
                        .max_rows(k),
                    clock,
                )
                .unwrap();
                let mut model: std::collections::HashMap<u64, u64> =
                    std::collections::HashMap::new();
                for (sig, dur) in &stream {
                    let mut q = QueryInfo::synthetic(1, "q");
                    q.logical_signature = Some(*sig);
                    q.duration_micros = *dur;
                    lat.insert(&query_object(&q)).unwrap();
                    let e = model.entry(*sig).or_insert(0);
                    *e = (*e).max(*dur);
                }
                let mut expect: Vec<f64> = model.values().map(|&d| d as f64 / 1e6).collect();
                expect.sort_by(|a, b| b.total_cmp(a));
                expect.truncate(k);
                let got: Vec<f64> = lat
                    .rows_ordered()
                    .iter()
                    .map(|r| r[1].as_f64().unwrap())
                    .collect();
                prop_assert_eq!(got, expect);
                Ok(())
            },
        )
        .unwrap();
}

// ---------------------------------------------------------------- signatures

/// Any constants plugged into the same template give the same signature;
/// the probe arrives identically through the full engine pipeline.
#[test]
fn signature_invariant_under_constants_end_to_end() {
    let engine = Engine::in_memory();
    engine
        .execute_batch("CREATE TABLE t (a INT PRIMARY KEY, b INT, c TEXT);")
        .unwrap();
    let sqlcm = Sqlcm::attach(&engine);
    sqlcm
        .define_lat(
            LatSpec::new("Sigs")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("track")
                .on(RuleEvent::QueryCommit)
                .when("Query.Query_Type = 'SELECT'")
                .then(Action::insert("Sigs")),
        )
        .unwrap();
    let mut runner =
        proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(32));
    runner
        .run(
            &proptest::collection::vec((any::<i32>(), any::<i32>()), 1..20),
            |consts| {
                let mut s = engine.connect("p", "t");
                for (a, b) in &consts {
                    // Same template, different constants, assorted whitespace.
                    s.execute(&format!("SELECT   b FROM t   WHERE a = {a} AND b < {b}"))
                        .unwrap();
                }
                let lat = sqlcm.lat("Sigs").unwrap();
                prop_assert_eq!(
                    lat.row_count(),
                    1,
                    "one template must map to exactly one signature group"
                );
                lat.reset();
                Ok(())
            },
        )
        .unwrap();
}

// ---------------------------------------------------------------- engine

/// Random batches of inserts/deletes through SQL keep COUNT(*) consistent with
/// a model, across clustered and heap tables.
#[test]
fn dml_counts_match_model() {
    let mut runner =
        proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(24));
    runner
        .run(
            &proptest::collection::vec((any::<bool>(), 0i64..40), 1..120),
            |ops| {
                let engine = Engine::in_memory();
                engine
                    .execute_batch(
                        "CREATE TABLE c (id INT PRIMARY KEY, v INT);\
                         CREATE TABLE h (id INT, v INT);",
                    )
                    .unwrap();
                let mut s = engine.connect("p", "t");
                let mut model = std::collections::HashSet::new();
                let mut heap_count = 0i64;
                for (insert, id) in &ops {
                    if *insert {
                        if model.insert(*id) {
                            s.execute_params("INSERT INTO c VALUES (?, 0)", &[Value::Int(*id)])
                                .unwrap();
                        } else {
                            assert!(s
                                .execute_params("INSERT INTO c VALUES (?, 0)", &[Value::Int(*id)],)
                                .is_err());
                        }
                        s.execute_params("INSERT INTO h VALUES (?, 0)", &[Value::Int(*id)])
                            .unwrap();
                        heap_count += 1;
                    } else {
                        let removed = model.remove(id);
                        let r = s
                            .execute_params("DELETE FROM c WHERE id = ?", &[Value::Int(*id)])
                            .unwrap();
                        prop_assert_eq!(r.rows_affected, removed as u64);
                    }
                }
                let n = engine.query("SELECT COUNT(*) FROM c").unwrap()[0][0]
                    .as_i64()
                    .unwrap();
                prop_assert_eq!(n as usize, model.len());
                let nh = engine.query("SELECT COUNT(*) FROM h").unwrap()[0][0]
                    .as_i64()
                    .unwrap();
                prop_assert_eq!(nh, heap_count);
                Ok(())
            },
        )
        .unwrap();
}

/// The ids `SELECT id … WHERE p` returns, sorted.
fn ids_where(s: &mut Session, table: &str, p: &str) -> Vec<i64> {
    let rows = s
        .execute(&format!("SELECT id FROM {table} WHERE {p}"))
        .unwrap()
        .rows;
    let mut ids: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort_unstable();
    ids
}

/// One random predicate over `id` (the key) and `v` (not a key column).
/// `g = …` is prepended for the table whose key is `(g, id)`, so that its
/// point and range forms are seeks too.
fn render_predicate(
    (kind, a, b, lo_inc, hi_inc): (u8, i64, i64, bool, bool),
    composite_key: bool,
) -> String {
    let (lo, hi) = (a.min(b), a.max(b));
    let gt = if lo_inc { ">=" } else { ">" };
    let lt = if hi_inc { "<=" } else { "<" };
    let prefix = if composite_key {
        format!("g = {} AND ", a % 4)
    } else {
        String::new()
    };
    match kind {
        0 => format!("{prefix}id = {a}"),
        1 => format!("{prefix}id {gt} {lo} AND id {lt} {hi}"),
        2 => format!("{prefix}id {gt} {a}"),
        3 => format!("{prefix}id {lt} {a}"),
        4 => format!("{prefix}id {gt} {lo} AND id {lt} {hi} AND v <> {}", b % 10),
        _ => format!("v {lt} {} AND v <> {}", a % 10, b % 10),
    }
}

/// UPDATE and DELETE reach exactly the rows SELECT does under the same
/// predicate: full-key points, key ranges with every inclusive/exclusive mix
/// (with and without a residual), one-sided ranges and non-key predicates, on
/// a clustered table, a clustered table with a two-column key and a heap table.
/// Each check runs in a transaction that is rolled back.
#[test]
fn dml_reaches_the_rows_select_returns() {
    let mut runner =
        proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(24));
    let predicate = (0u8..6, 0i64..48, 0i64..48, any::<bool>(), any::<bool>());
    runner
        .run(
            &(
                proptest::collection::vec(0i64..10, 0..40),
                proptest::collection::vec(predicate, 1..6),
            ),
            |(vs, predicates)| {
                let engine = Engine::in_memory();
                engine
                    .execute_batch(
                        "CREATE TABLE c (id INT PRIMARY KEY, v INT, w INT);\
                         CREATE TABLE p (g INT, id INT, v INT, w INT, PRIMARY KEY (g, id));\
                         CREATE TABLE h (id INT, v INT, w INT);",
                    )
                    .unwrap();
                let mut s = engine.connect("p", "t");
                // Ids are spread out so that ranges start and end between rows.
                for (i, v) in vs.iter().enumerate() {
                    let (id, v) = (Value::Int(i as i64 * 3 / 2), Value::Int(*v));
                    let g = Value::Int(i as i64 * 3 / 2 % 4);
                    s.execute_params("INSERT INTO c VALUES (?, ?, 0)", &[id.clone(), v.clone()])
                        .unwrap();
                    s.execute_params(
                        "INSERT INTO p VALUES (?, ?, ?, 0)",
                        &[g, id.clone(), v.clone()],
                    )
                    .unwrap();
                    s.execute_params("INSERT INTO h VALUES (?, ?, 0)", &[id, v])
                        .unwrap();
                }
                for shape in &predicates {
                    for table in ["c", "p", "h"] {
                        let p = render_predicate(*shape, table == "p");
                        s.execute("BEGIN").unwrap();
                        let all = ids_where(&mut s, table, "1 = 1");
                        let selected = ids_where(&mut s, table, &p);
                        let updated = s
                            .execute(&format!("UPDATE {table} SET w = w + 1 WHERE {p}"))
                            .unwrap()
                            .rows_affected;
                        prop_assert_eq!(
                            updated,
                            selected.len() as u64,
                            "UPDATE {} WHERE {}",
                            table,
                            p
                        );
                        let deleted = s
                            .execute(&format!("DELETE FROM {table} WHERE {p}"))
                            .unwrap()
                            .rows_affected;
                        prop_assert_eq!(
                            deleted,
                            selected.len() as u64,
                            "DELETE {} WHERE {}",
                            table,
                            p
                        );
                        let left = ids_where(&mut s, table, "1 = 1");
                        let removed: Vec<i64> = all
                            .iter()
                            .filter(|id| !left.contains(id))
                            .copied()
                            .collect();
                        prop_assert_eq!(&removed, &selected, "{} WHERE {}", table, p);
                        s.execute("ROLLBACK").unwrap();
                        prop_assert_eq!(ids_where(&mut s, table, "1 = 1"), all);
                    }
                }
                Ok(())
            },
        )
        .unwrap();
}

/// GROUP BY through SQL equals a hand-rolled aggregation, for random data.
#[test]
fn sql_group_by_matches_model() {
    let mut runner =
        proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(24));
    runner
        .run(
            &proptest::collection::vec((0i64..5, 0i64..1000), 1..100),
            |rows| {
                let engine = Engine::in_memory();
                engine
                    .execute_batch("CREATE TABLE m (id INT PRIMARY KEY, g INT, v INT);")
                    .unwrap();
                let mut s = engine.connect("p", "t");
                for (i, (g, v)) in rows.iter().enumerate() {
                    s.execute_params(
                        "INSERT INTO m VALUES (?, ?, ?)",
                        &[Value::Int(i as i64), Value::Int(*g), Value::Int(*v)],
                    )
                    .unwrap();
                }
                let got = engine
                    .query("SELECT g, COUNT(*), SUM(v) FROM m GROUP BY g ORDER BY g")
                    .unwrap();
                let mut model: std::collections::BTreeMap<i64, (i64, f64)> =
                    std::collections::BTreeMap::new();
                for (g, v) in &rows {
                    let e = model.entry(*g).or_insert((0, 0.0));
                    e.0 += 1;
                    e.1 += *v as f64;
                }
                prop_assert_eq!(got.len(), model.len());
                for (row, (g, (n, sum))) in got.iter().zip(model) {
                    prop_assert_eq!(row[0].as_i64().unwrap(), g);
                    prop_assert_eq!(row[1].as_i64().unwrap(), n);
                    prop_assert_eq!(row[2].as_f64().unwrap(), sum);
                }
                Ok(())
            },
        )
        .unwrap();
}
