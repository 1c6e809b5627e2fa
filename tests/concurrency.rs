//! Integration tests: multi-session behaviour — blocking, deadlocks,
//! cancellation, monitor consistency under contention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sqlcm_repro::engine::engine::EngineConfig;
use sqlcm_repro::prelude::*;

fn engine() -> Engine {
    let e = Engine::new(EngineConfig {
        lock_wait_timeout: Duration::from_secs(5),
        ..Default::default()
    });
    e.execute_batch("CREATE TABLE acc (id INT PRIMARY KEY, bal INT);")
        .unwrap();
    let mut s = e.connect("setup", "t");
    for i in 1..=10 {
        s.execute_params("INSERT INTO acc VALUES (?, 100)", &[Value::Int(i)])
            .unwrap();
    }
    e
}

#[test]
fn writer_blocks_reader_then_unblocks() {
    let e = engine();
    let mut w = e.connect("writer", "t");
    w.execute("BEGIN").unwrap();
    w.execute("UPDATE acc SET bal = 0 WHERE id = 1").unwrap();

    let mut r = e.connect("reader", "t");
    let t = std::thread::spawn(move || {
        let rows = r.execute("SELECT bal FROM acc WHERE id = 1").unwrap();
        rows.rows[0][0].clone()
    });
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(e.blocked_pairs().len(), 1, "reader visible as blocked");
    w.execute("COMMIT").unwrap();
    assert_eq!(
        t.join().unwrap(),
        Value::Int(0),
        "reader sees committed value"
    );
    assert!(e.blocked_pairs().is_empty());
}

#[test]
fn deadlock_victim_can_retry() {
    let e = engine();
    let mut s1 = e.connect("a", "t");
    let mut s2 = e.connect("b", "t");
    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    s1.execute("UPDATE acc SET bal = 1 WHERE id = 1").unwrap();
    s2.execute("UPDATE acc SET bal = 2 WHERE id = 2").unwrap();

    // s2 waits on id=1; then s1 requests id=2 → deadlock, s1 is the victim.
    let t = std::thread::spawn(move || {
        let r = s2.execute("UPDATE acc SET bal = 2 WHERE id = 1");
        (r.is_ok(), s2)
    });
    std::thread::sleep(Duration::from_millis(50));
    let err = s1
        .execute("UPDATE acc SET bal = 1 WHERE id = 2")
        .unwrap_err();
    assert!(matches!(err, Error::Deadlock { .. }), "{err}");
    assert!(!s1.in_transaction(), "victim txn rolled back");
    let (ok, mut s2) = t.join().unwrap();
    assert!(ok, "survivor proceeds after victim rollback");
    s2.execute("COMMIT").unwrap();
    // Victim's first update was undone.
    assert_eq!(
        e.query("SELECT bal FROM acc WHERE id = 1").unwrap()[0][0],
        Value::Int(2)
    );
}

#[test]
fn lock_timeout_reports_resource() {
    let e = Engine::new(EngineConfig {
        lock_wait_timeout: Duration::from_millis(80),
        ..Default::default()
    });
    e.execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
        .unwrap();
    e.query("SELECT 1").unwrap();
    let mut a = e.connect("a", "t");
    a.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE t SET v = 9 WHERE id = 1").unwrap();
    let mut b = e.connect("b", "t");
    let err = b.execute("SELECT v FROM t WHERE id = 1").unwrap_err();
    match err {
        Error::LockTimeout {
            resource,
            waited_micros,
        } => {
            assert!(resource.contains("row"), "{resource}");
            assert!(waited_micros >= 60_000);
        }
        other => panic!("expected timeout, got {other}"),
    }
}

#[test]
fn monitor_counts_are_exact_under_concurrency() {
    let e = engine();
    let sqlcm = Sqlcm::attach(&e);
    sqlcm
        .define_lat(
            LatSpec::new("PerUser")
                .group_by("Query.User", "U")
                .aggregate(LatAggFunc::Count, "", "N"),
        )
        .unwrap();
    sqlcm
        .add_rule(
            Rule::new("count")
                .on(RuleEvent::QueryCommit)
                .then(Action::insert("PerUser")),
        )
        .unwrap();

    let per_thread = 300u64;
    let threads = 4;
    let committed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let e = &e;
            let committed = committed.clone();
            scope.spawn(move || {
                let mut s = e.connect(&format!("user{t}"), "t");
                for i in 0..per_thread {
                    let id = 1 + ((t as u64 * per_thread + i) % 10) as i64;
                    if s.execute_params(
                        "UPDATE acc SET bal = bal + 1 WHERE id = ?",
                        &[Value::Int(id)],
                    )
                    .is_ok()
                    {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let lat = sqlcm.lat("PerUser").unwrap();
    let counted: i64 = lat.rows().iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(
        counted as u64,
        committed.load(Ordering::Relaxed),
        "every committed statement counted exactly once"
    );
    // And the data agrees: sum of balances grew by exactly the commit count.
    let total = e.query("SELECT SUM(bal) FROM acc").unwrap()[0][0]
        .as_f64()
        .unwrap();
    assert_eq!(
        total as u64,
        1000 + committed.load(Ordering::Relaxed),
        "no lost updates in the data either"
    );
}

/// Stress: 8 threads × 10k events over overlapping keys into a bounded,
/// sharded LAT. COUNT is conserved — every delivered event is counted exactly
/// once, either in an evicted row snapshot or in a surviving row — the row
/// high-water mark never exceeds the size bound, and the insert counter
/// matches the events delivered.
#[test]
fn lat_stress_conserves_counts_under_8_thread_contention() {
    use sqlcm_repro::common::{QueryInfo, SystemClock};
    use sqlcm_repro::monitor::objects::query_object;

    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    const MAX_ROWS: usize = 32;
    const GROUPS: u64 = 64; // overlapping keys: every thread hits every group

    let spec = LatSpec::new("Stress")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .order_by("N", false)
        .max_rows(MAX_ROWS);
    let lat = Arc::new(sqlcm_repro::monitor::Lat::new(spec, SystemClock::shared()).unwrap());

    let evicted_count: i64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let lat = Arc::clone(&lat);
                scope.spawn(move || {
                    let mut evicted = 0i64;
                    for i in 0..PER_THREAD {
                        let sig = (t * PER_THREAD + i).wrapping_mul(2654435761) % GROUPS;
                        let mut q = QueryInfo::synthetic(1, format!("q{sig}"));
                        q.logical_signature = Some(sig);
                        for row in lat.insert(&query_object(&q)).unwrap() {
                            evicted += row[1].as_i64().unwrap();
                        }
                    }
                    evicted
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let surviving: i64 = lat.rows().iter().map(|r| r[1].as_i64().unwrap()).sum();
    let delivered = THREADS * PER_THREAD;
    assert_eq!(
        (evicted_count + surviving) as u64,
        delivered,
        "every event counted exactly once across evicted + surviving rows"
    );
    let stats = lat.stats();
    assert_eq!(stats.inserts, delivered, "insert counter exact");
    assert!(
        stats.row_high_water <= MAX_ROWS as u64,
        "high water {} exceeds bound {MAX_ROWS}",
        stats.row_high_water
    );
    assert!(lat.row_count() <= MAX_ROWS);
}

/// `Reset` racing new-group inserts on a bounded LAT. `reset` takes the
/// coordinator lock, so it can never land between a creator's insert and its
/// eviction; a barrier releases two creators and the resetter together, round
/// after round, and whatever interleaving results, the occupancy count, the
/// shard maps and the victim index must describe the same rows. The index is
/// not observable from here, so it is checked through what it decides: with
/// the LAT refilled, every further new group must evict exactly the row that
/// ranks last — a dangling or missing index entry evicts the wrong row, or
/// none.
#[test]
fn lat_reset_racing_creators_keeps_count_maps_and_victim_index_in_step() {
    use std::sync::Barrier;

    use sqlcm_repro::common::{QueryInfo, SystemClock};
    use sqlcm_repro::monitor::objects::query_object;

    const MAX_ROWS: usize = 6;
    const ROUNDS: u64 = 300;
    let obj = |sig: u64, secs: u64| {
        let mut q = QueryInfo::synthetic(1, format!("q{sig}"));
        q.logical_signature = Some(sig);
        q.duration_micros = secs * 1_000_000;
        query_object(&q)
    };
    // Ranked by the grouping column (filed once) and by an aggregate (re-filed
    // after folds): the two indexed classes.
    for order_by in ["Sig", "D"] {
        let spec = LatSpec::new("ResetRace")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by(order_by, true)
            .max_rows(MAX_ROWS);
        let lat = sqlcm_repro::monitor::Lat::new(spec, SystemClock::shared()).unwrap();
        let barrier = Barrier::new(3);
        for round in 0..ROUNDS {
            std::thread::scope(|scope| {
                for t in 0..2u64 {
                    let (lat, barrier, obj) = (&lat, &barrier, &obj);
                    scope.spawn(move || {
                        barrier.wait();
                        for i in 0..2 * MAX_ROWS as u64 {
                            // A new group (evicting once full), then a fold
                            // that raises a shared group's MAX; no two rows
                            // ever tie, so every victim is determined.
                            let sig = round * 1_000 + t * 100 + i + 1;
                            lat.insert(&obj(sig, 2 * sig)).unwrap();
                            lat.insert(&obj(round * 1_000, 2 * sig + 1)).unwrap();
                        }
                    });
                }
                barrier.wait();
                lat.reset();
            });
            let in_shards: usize = lat.shard_stats().iter().map(|s| s.rows).sum();
            assert_eq!(lat.row_count(), in_shards, "count vs Σ shard lengths");
            assert!(in_shards <= MAX_ROWS, "bound exceeded: {in_shards}");
        }
        assert_eq!(lat.stats().resets, ROUNDS);
        assert!(lat.stats().row_high_water <= MAX_ROWS as u64);

        let top = ROUNDS * 1_000;
        for i in 0..3 * MAX_ROWS as u64 {
            let last = lat.rows_ordered().pop();
            let full = lat.row_count() == MAX_ROWS;
            let evicted = lat.insert(&obj(top + i, 2 * (top + i))).unwrap();
            if full {
                assert_eq!(evicted, vec![last.unwrap()], "wrong victim ({order_by})");
            } else {
                assert!(evicted.is_empty());
            }
        }
        assert_eq!(lat.row_count(), MAX_ROWS);
    }
}

/// Stress: the telemetry snapshot's per-LAT insert counters sum exactly to
/// the events delivered — two QueryCommit rules each feed one LAT, so the sum
/// over LATs must be exactly twice the committed-statement count.
#[test]
fn telemetry_lat_insert_counts_sum_to_events_delivered() {
    let e = engine();
    let sqlcm = Sqlcm::attach(&e);
    for name in ["ByUser", "BySig"] {
        let (attr, alias) = match name {
            "ByUser" => ("Query.User", "U"),
            _ => ("Query.Logical_Signature", "Sig"),
        };
        sqlcm
            .define_lat(LatSpec::new(name).group_by(attr, alias).aggregate(
                LatAggFunc::Count,
                "",
                "N",
            ))
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new(format!("feed_{name}"))
                    .on(RuleEvent::QueryCommit)
                    .then(Action::insert(name)),
            )
            .unwrap();
    }

    let per_thread = 200u64;
    let threads = 8;
    let committed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let e = &e;
            let committed = committed.clone();
            scope.spawn(move || {
                let mut s = e.connect(&format!("user{t}"), "t");
                for i in 0..per_thread {
                    let id = 1 + ((t as u64 * per_thread + i) % 10) as i64;
                    if s.execute_params(
                        "UPDATE acc SET bal = bal + 1 WHERE id = ?",
                        &[Value::Int(id)],
                    )
                    .is_ok()
                    {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let delivered = committed.load(Ordering::Relaxed);
    let snap = sqlcm.telemetry();
    let per_lat: Vec<(String, u64)> = snap
        .lats
        .iter()
        .map(|l| (l.name.clone(), l.inserts))
        .collect();
    for (name, inserts) in &per_lat {
        assert_eq!(
            *inserts, delivered,
            "LAT {name} insert count matches committed statements"
        );
    }
    let total: u64 = per_lat.iter().map(|(_, n)| n).sum();
    assert_eq!(
        total,
        2 * delivered,
        "per-LAT insert counts sum exactly to events delivered"
    );
}

#[test]
fn cancel_from_another_session() {
    let e = engine();
    // Grow the table so a self-join runs long enough to cancel.
    let mut s = e.connect("setup2", "t");
    s.execute("BEGIN").unwrap();
    for i in 11..=2000 {
        s.execute_params("INSERT INTO acc VALUES (?, 1)", &[Value::Int(i)])
            .unwrap();
    }
    s.execute("COMMIT").unwrap();

    let mut victim = e.connect("victim", "t");
    let handle = std::thread::spawn(move || {
        victim.execute("SELECT COUNT(*) FROM acc a JOIN acc b ON a.bal < b.bal")
    });
    // Find the running query via the snapshot API and cancel it.
    let mut cancelled = false;
    for _ in 0..500 {
        if let Some(q) = e
            .snapshot_active()
            .into_iter()
            .find(|q| &*q.user == "victim")
        {
            cancelled = e.cancel_query(q.id);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(cancelled, "query was found and signalled");
    let err = handle.join().unwrap().unwrap_err();
    assert_eq!(err, Error::Cancelled);
}

#[test]
fn hot_rows_leave_an_empty_lock_table() {
    const SESSIONS: i64 = 8;
    const ROUNDS: i64 = 60;
    let e = Engine::new(EngineConfig {
        lock_wait_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    e.execute_batch("CREATE TABLE hot (id INT PRIMARY KEY, n INT);")
        .unwrap();
    for id in 0..4 {
        e.query(&format!("INSERT INTO hot VALUES ({id}, 0)"))
            .unwrap();
    }
    // Each transaction reads one hot row (S) and bumps another (X); a
    // deadlock victim is rolled back and runs again, nothing may time out.
    let rows = |s: i64, round: i64| ((s + round) % 4, (s * 3 + round) % 4);
    let handles: Vec<_> = (0..SESSIONS)
        .map(|s| {
            let mut session = e.connect(&format!("s{s}"), "t");
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let (read, bump) = rows(s, round);
                    loop {
                        let run = |session: &mut Session| -> Result<()> {
                            session.execute("BEGIN")?;
                            session.execute_params(
                                "SELECT n FROM hot WHERE id = ?",
                                &[Value::Int(read)],
                            )?;
                            session.execute_params(
                                "UPDATE hot SET n = n + 1 WHERE id = ?",
                                &[Value::Int(bump)],
                            )?;
                            session.execute("COMMIT")?;
                            Ok(())
                        };
                        match run(&mut session) {
                            Ok(()) => break,
                            Err(Error::Deadlock { .. }) => assert!(!session.in_transaction()),
                            Err(other) => panic!("session {s} round {round}: {other}"),
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut expected = [0i64; 4];
    for s in 0..SESSIONS {
        for round in 0..ROUNDS {
            expected[rows(s, round).1 as usize] += 1;
        }
    }
    let counts: Vec<Value> = e
        .query("SELECT n FROM hot ORDER BY id")
        .unwrap()
        .into_iter()
        .map(|row| row[0].clone())
        .collect();
    assert_eq!(counts, expected.map(Value::Int).to_vec());
    assert_eq!(e.handle().locks.resource_count(), 0);
    assert!(e.blocked_pairs().is_empty());
}
