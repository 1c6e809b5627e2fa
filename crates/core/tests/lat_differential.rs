//! Differential tests: the production `Lat` (sharded when unbounded, one
//! latched table when bounded) against the naive single-lock `ReferenceLat`
//! oracle (`oracle/lat.rs`).
//!
//! Randomized operation sequences — insert, evict-pressure (via row bounds),
//! reset, age-roll (via `ManualClock` advances), snapshot — are replayed
//! against both implementations, asserting identical observable state: rows
//! and aggregates, eviction victims (validated as global ordering-spec
//! minima), lookups, and reset behaviour. A logged-schedule harness extends
//! the same oracle to multi-threaded inserts: every insert is stamped with a
//! global sequence number, and the log is replayed into the oracle as the
//! linearization.
//!
//! Durations are generated as *integer-valued* seconds so that every f64
//! sum/sum-of-squares is exact and equality assertions are legitimate (the
//! production table folds incrementally, the oracle re-scans the log; with
//! inexact floats the two would differ in the last ulp).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::collection;
use proptest::prelude::*;
use sqlcm_common::{ManualClock, QueryInfo, Value};
use sqlcm_core::lat::{Lat, LatAggFunc, LatSpec};
use sqlcm_core::objects::{query_object, Object};

mod oracle;
use oracle::lat::ReferenceLat;

fn qobj(sig: i64, dur_units: u64) -> Object {
    user_obj(sig, 0, dur_units)
}

/// A query object whose `User` is `user_<usr>`.
fn user_obj(sig: i64, usr: u8, dur_units: u64) -> Object {
    let mut q = QueryInfo::synthetic(1, format!("q{sig}"));
    q.logical_signature = Some(sig as u64);
    q.user = format!("user_{usr}").into();
    // Whole seconds => Duration is an integer-valued f64 (exact arithmetic).
    q.duration_micros = dur_units * 1_000_000;
    query_object(&q)
}

/// The group keys the single- and multi-threaded differentials run under:
/// one integer column, one text column, and both. The first alias leads
/// the output row.
const KEY_SHAPES: [&[(&str, &str)]; 3] = [
    &[("Query.Logical_Signature", "Sig")],
    &[("Query.User", "Usr")],
    &[("Query.Logical_Signature", "Sig"), ("Query.User", "Usr")],
];

fn grouped(name: &str, shape: usize) -> LatSpec {
    KEY_SHAPES[shape]
        .iter()
        .fold(LatSpec::new(name), |spec, (attr, alias)| {
            spec.group_by(attr, alias)
        })
}

const WINDOW: u64 = 300;
const BLOCK: u64 = 100;

/// The all-aggregates differential spec: every aggregate kind, plus aging
/// AVG/COUNT columns rolling on the manual clock.
fn diff_spec(shape: usize, max_rows: Option<usize>, order_col: usize, desc: bool) -> LatSpec {
    let key = KEY_SHAPES[shape][0].1;
    let columns = [key, "N", "S", "A", "SD", "MN", "MX", "F", "L", "AW", "NW"];
    let mut spec = grouped("Diff", shape)
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Sum, "Query.Duration", "S")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "A")
        .aggregate(LatAggFunc::StdDev, "Query.Duration", "SD")
        .aggregate(LatAggFunc::Min, "Query.Duration", "MN")
        .aggregate(LatAggFunc::Max, "Query.Duration", "MX")
        .aggregate(LatAggFunc::First, "Query.Duration", "F")
        .aggregate(LatAggFunc::Last, "Query.Duration", "L")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "AW")
        .aging(WINDOW, BLOCK)
        .aggregate(LatAggFunc::Count, "", "NW")
        .aging(WINDOW, BLOCK)
        .order_by(columns[order_col % columns.len()], desc);
    if let Some(m) = max_rows {
        spec = spec.max_rows(m);
    }
    spec
}

#[derive(Debug, Clone)]
enum Op {
    Insert { sig: i64, usr: u8, dur: u64 },
    Advance { micros: u64 },
    Reset,
    Snapshot,
}

/// Users per generator: a text key of its own has this many groups.
const USERS: u8 = 6;

fn op_strategy() -> BoxedStrategy<Op> {
    let insert =
        || (0i64..10, 0..USERS, 0u64..8).prop_map(|(sig, usr, dur)| Op::Insert { sig, usr, dur });
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        (1u64..250).prop_map(|micros| Op::Advance { micros }),
        Just(Op::Reset),
        Just(Op::Snapshot),
    ]
    .boxed()
}

fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The headline differential: randomized op sequences produce identical
    /// observable state in the sharded table and the oracle, under every key
    /// shape. Eviction victims are validated inside `insert_matching` (global
    /// minimum under the ordering spec, output row recomputed from the raw
    /// log).
    #[test]
    fn sharded_lat_matches_reference_oracle(
        shape in 0usize..KEY_SHAPES.len(),
        max_rows in prop_oneof![Just(None), (1usize..5).prop_map(Some)],
        order_col in 0usize..11,
        desc in any::<bool>(),
        ops in collection::vec(op_strategy(), 1..48),
    ) {
        let (clock, handle) = ManualClock::shared(0);
        let spec = diff_spec(shape, max_rows, order_col, desc);
        let lat = Lat::new(spec.clone(), clock.clone()).unwrap();
        let oracle = ReferenceLat::new(spec, clock).unwrap();
        for op in &ops {
            match op {
                Op::Insert { sig, usr, dur } => {
                    let obj = user_obj(*sig, *usr, *dur);
                    let evicted = lat.insert(&obj).unwrap();
                    oracle.insert_matching(&obj, &evicted).unwrap();
                    if let Some(m) = max_rows {
                        prop_assert!(lat.row_count() <= m.max(1));
                    }
                }
                Op::Advance { micros } => handle.advance(*micros),
                Op::Reset => {
                    lat.reset();
                    oracle.reset();
                }
                Op::Snapshot => {
                    prop_assert_eq!(canonical(lat.rows()), canonical(oracle.rows()));
                }
            }
        }
        // Terminal state: rows, counts, and point lookups all agree.
        prop_assert_eq!(lat.row_count(), oracle.row_count());
        prop_assert_eq!(canonical(lat.rows()), canonical(oracle.rows()));
        for sig in 0..10 {
            for usr in 0..USERS {
                let probe = user_obj(sig, usr, 0);
                prop_assert_eq!(lat.lookup_for(&probe), oracle.lookup_for(&probe));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite: for *every* ordering spec — asc/desc over each aggregate
    /// kind, plain and aging — the evicted row is the extremal row of a naive
    /// sort of the full table at eviction time. Each proptest case runs one
    /// op sequence through all 32 (kind × direction × aging) specs; the
    /// oracle's `insert_matching` performs the naive extremality check.
    #[test]
    fn eviction_victim_is_global_extremum_for_every_ordering_spec(
        seq in collection::vec((0i64..8, 0u64..6, 0u64..120), 8..32),
    ) {
        let kinds = [
            LatAggFunc::Count,
            LatAggFunc::Sum,
            LatAggFunc::Avg,
            LatAggFunc::StdDev,
            LatAggFunc::Min,
            LatAggFunc::Max,
            LatAggFunc::First,
            LatAggFunc::Last,
        ];
        for kind in kinds {
            for desc in [false, true] {
                for aging in [false, true] {
                    let (clock, handle) = ManualClock::shared(0);
                    let source = match kind {
                        LatAggFunc::Count => "",
                        _ => "Query.Duration",
                    };
                    let mut spec = LatSpec::new("Evict")
                        .group_by("Query.Logical_Signature", "Sig")
                        .aggregate(kind, source, "K");
                    if aging {
                        spec = spec.aging(WINDOW, BLOCK);
                    }
                    let spec = spec.order_by("K", desc).max_rows(3);
                    let lat = Lat::new(spec.clone(), clock.clone()).unwrap();
                    let oracle = ReferenceLat::new(spec, clock).unwrap();
                    for (sig, dur, advance) in &seq {
                        handle.advance(*advance);
                        let obj = qobj(*sig, *dur);
                        let evicted = lat.insert(&obj).unwrap();
                        // Panics inside when a victim is not a legal global
                        // minimum of the naive full-table sort.
                        oracle.insert_matching(&obj, &evicted).unwrap();
                        prop_assert!(lat.row_count() <= 3);
                    }
                    prop_assert_eq!(canonical(lat.rows()), canonical(oracle.rows()));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: a moving-window AVG/STDEV over the sharded LAT equals a
    /// recomputation from the raw event log, within one block of slack at the
    /// window boundary. The inclusion unit is the Δ-aligned block (§4.3), so
    /// the value must (a) exactly equal the block-rule recomputation and
    /// (b) never include an event older than `window + block`.
    #[test]
    fn aging_avg_stdev_match_raw_log_within_one_block(
        steps in collection::vec((0u64..6, 0u64..180), 4..40),
    ) {
        let (clock, handle) = ManualClock::shared(0);
        let spec = LatSpec::new("Aging")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "AW")
            .aging(WINDOW, BLOCK)
            .aggregate(LatAggFunc::StdDev, "Query.Duration", "SW")
            .aging(WINDOW, BLOCK);
        let lat = Lat::new(spec, clock.clone()).unwrap();
        let mut raw_log: Vec<(u64, f64)> = Vec::new();
        for (dur, advance) in &steps {
            handle.advance(*advance);
            let now = clock.now_micros();
            lat.insert(&qobj(1, *dur)).unwrap();
            raw_log.push((now, *dur as f64));

            // Block-rule recomputation from the raw event log.
            let included: Vec<f64> = raw_log
                .iter()
                .filter(|(te, _)| te - te % BLOCK + BLOCK > now.saturating_sub(WINDOW))
                .map(|(_, v)| *v)
                .collect();
            // One block of slack: nothing older than window + block included,
            // everything inside the exact window included.
            prop_assert!(raw_log
                .iter()
                .filter(|(te, _)| te - te % BLOCK + BLOCK > now.saturating_sub(WINDOW))
                .all(|(te, _)| *te + WINDOW + BLOCK > now));
            prop_assert_eq!(
                raw_log.iter().filter(|(te, _)| *te > now.saturating_sub(WINDOW)).count()
                    <= included.len(),
                true
            );

            let row = lat.lookup_for(&qobj(1, 0)).unwrap();
            let n = included.len() as f64;
            let expect_avg = included.iter().sum::<f64>() / n;
            let mean = expect_avg;
            let expect_sd = (included.iter().map(|v| v * v).sum::<f64>() / n - mean * mean)
                .max(0.0)
                .sqrt();
            prop_assert_eq!(row[1].clone(), Value::Float(expect_avg));
            prop_assert_eq!(row[2].clone(), Value::Float(expect_sd));
        }
    }
}

/// Commutative-aggregate spec for the multi-threaded differential: no
/// FIRST/LAST (order-dependent), no aging (time-dependent), integer-valued
/// inputs (exact f64) — so the final state is independent of interleaving
/// and any logged schedule is a valid linearization.
fn mt_spec(shape: usize) -> LatSpec {
    grouped("MtDiff", shape)
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Sum, "Query.Duration", "S")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "A")
        .aggregate(LatAggFunc::StdDev, "Query.Duration", "SD")
        .aggregate(LatAggFunc::Min, "Query.Duration", "MN")
        .aggregate(LatAggFunc::Max, "Query.Duration", "MX")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Logged-schedule multi-threaded differential: 4 threads insert
    /// concurrently into the sharded table, stamping every insert with a
    /// global sequence number; the log, replayed in sequence order into the
    /// single-lock oracle, must produce identical observable state, under
    /// every key shape.
    #[test]
    fn concurrent_inserts_match_reference_via_logged_schedule(
        shape in 0usize..KEY_SHAPES.len(),
        per_thread in collection::vec(
            collection::vec((0i64..12, 0..USERS, 0u64..9), 16..17),
            4..5,
        ),
    ) {
        let (clock, _handle) = ManualClock::shared(0);
        let lat = Arc::new(Lat::new(mt_spec(shape), clock.clone()).unwrap());
        let seq = AtomicU64::new(0);
        let mut schedule: Vec<(u64, i64, u8, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_thread
                .iter()
                .map(|ops| {
                    let lat = Arc::clone(&lat);
                    let seq = &seq;
                    scope.spawn(move || {
                        let mut local = Vec::with_capacity(ops.len());
                        for &(sig, usr, dur) in ops {
                            let s = seq.fetch_add(1, Ordering::SeqCst);
                            lat.insert(&user_obj(sig, usr, dur)).unwrap();
                            local.push((s, sig, usr, dur));
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        schedule.sort_by_key(|(s, ..)| *s);

        let oracle = ReferenceLat::new(mt_spec(shape), clock).unwrap();
        for &(_, sig, usr, dur) in &schedule {
            oracle.insert(&user_obj(sig, usr, dur)).unwrap();
        }
        prop_assert_eq!(lat.row_count(), oracle.row_count());
        prop_assert_eq!(canonical(lat.rows()), canonical(oracle.rows()));
        let total: u64 = per_thread.iter().map(|v| v.len() as u64).sum();
        prop_assert_eq!(lat.stats().inserts, total);
    }
}

// ------------------------------------------------------- victim-index cases
//
// The bounded LAT files its rows in an ordered victim index instead of
// scanning at eviction time. The cases below aim at what such an index can
// get wrong: a fold that *lowers* a filed row's rank between two evictions,
// multi-column orderings mixing directions over grouping and aggregate
// columns, an aging ordering column (whose rank moves with the clock alone),
// no ordering spec at all, and `seed_row`/`reset` rewriting map and index
// together. Every eviction still goes through `insert_matching`.

/// A fold moves the most important row to the bottom of the ranking between
/// two evictions; the next victim must be that row, not the row a stale index
/// entry would name.
#[test]
fn fold_that_lowers_a_filed_rows_rank_changes_the_next_victim() {
    for (kind, col) in [
        (LatAggFunc::Avg, "A"),
        (LatAggFunc::Min, "MN"),
        (LatAggFunc::Last, "L"),
    ] {
        for desc in [true, false] {
            let (clock, _) = ManualClock::shared(0);
            let spec = LatSpec::new("Lowered")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(kind, "Query.Duration", col)
                .order_by(col, desc)
                .max_rows(3);
            let lat = Lat::new(spec.clone(), clock.clone()).unwrap();
            let oracle = ReferenceLat::new(spec, clock).unwrap();
            // Under ASC the smaller value is the more important one: mirror.
            let rank = |v: u64| if desc { v } else { 100 - v };
            let insert = |sig: i64, v: u64| {
                let obj = qobj(sig, rank(v));
                let evicted = lat.insert(&obj).unwrap();
                oracle.insert_matching(&obj, &evicted).unwrap();
                evicted
            };
            insert(1, 50);
            insert(2, 20);
            insert(3, 30);
            let evicted = insert(4, 25);
            assert_eq!(evicted[0][0], Value::Int(2), "{kind:?} desc={desc}");
            // Group 1 leads; these folds drag it below every other row
            // (MIN can only fall, so under ASC it keeps its place).
            for _ in 0..4 {
                insert(1, 0);
            }
            let evicted = insert(5, 40);
            assert_eq!(evicted.len(), 1);
            if desc || kind != LatAggFunc::Min {
                assert_eq!(evicted[0][0], Value::Int(1), "{kind:?} desc={desc}");
            }
            // And one that raises a row again before the next eviction.
            insert(4, 90);
            insert(6, 35);
            assert_eq!(canonical(lat.rows()), canonical(oracle.rows()));
        }
    }
}

/// Every seedable column of [`diff_spec`] (STDEV cannot be re-seeded exactly).
const RICH_COLUMNS: [&str; 10] = ["Sig", "N", "S", "A", "MN", "MX", "F", "L", "AW", "NW"];

/// Like [`diff_spec`] without STDEV, ordered by any number of columns —
/// grouping, plain-aggregate and aging — each with its own direction.
fn rich_spec(max_rows: Option<usize>, ordering: &[(usize, bool)]) -> LatSpec {
    let mut spec = LatSpec::new("Rich")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Sum, "Query.Duration", "S")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "A")
        .aggregate(LatAggFunc::Min, "Query.Duration", "MN")
        .aggregate(LatAggFunc::Max, "Query.Duration", "MX")
        .aggregate(LatAggFunc::First, "Query.Duration", "F")
        .aggregate(LatAggFunc::Last, "Query.Duration", "L")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "AW")
        .aging(WINDOW, BLOCK)
        .aggregate(LatAggFunc::Count, "", "NW")
        .aging(WINDOW, BLOCK);
    for (col, desc) in ordering {
        spec = spec.order_by(RICH_COLUMNS[*col], *desc);
    }
    match max_rows {
        Some(m) => spec.max_rows(m),
        None => spec,
    }
}

#[derive(Debug, Clone)]
enum RichOp {
    Insert { sig: i64, dur: u64 },
    Seed { sig: i64, dur: u64 },
    Advance { micros: u64 },
    Reset,
}

fn rich_op_strategy() -> BoxedStrategy<RichOp> {
    let insert = || (0i64..10, 0u64..8).prop_map(|(sig, dur)| RichOp::Insert { sig, dur });
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        insert(),
        (0i64..10, 0u64..8).prop_map(|(sig, dur)| RichOp::Seed { sig, dur }),
        (1u64..250).prop_map(|micros| RichOp::Advance { micros }),
        Just(RichOp::Reset),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Randomized insert / seed / reset / clock sequences under 0–3 ordering
    /// columns of mixed direction and kind. A seed is mirrored into the oracle
    /// as the one insert that produces the same row; `seed_row` reports no
    /// victims, so they are read off the row snapshots around it and handed
    /// to `insert_matching` like any other eviction.
    #[test]
    fn victim_index_matches_reference_under_rich_orderings_seeds_and_resets(
        max_rows in prop_oneof![Just(None), (1usize..5).prop_map(Some)],
        ordering in collection::vec((0usize..10, any::<bool>()), 0..4),
        ops in collection::vec(rich_op_strategy(), 1..64),
    ) {
        let (clock, handle) = ManualClock::shared(0);
        let spec = rich_spec(max_rows, &ordering);
        let lat = Lat::new(spec.clone(), clock.clone()).unwrap();
        let oracle = ReferenceLat::new(spec, clock.clone()).unwrap();
        for op in &ops {
            match op {
                RichOp::Seed { sig, dur } if lat.lookup_for(&qobj(*sig, 0)).is_none() => {
                    let obj = qobj(*sig, *dur);
                    // The row one insert of `obj` produces, from a scratch oracle.
                    let scratch = ReferenceLat::new(rich_spec(None, &[]), clock.clone()).unwrap();
                    scratch.insert(&obj).unwrap();
                    let seeded = scratch.rows().remove(0);
                    let mut before = lat.rows();
                    lat.seed_row(&seeded, 1).unwrap();
                    before.push(seeded);
                    let after = lat.rows();
                    let victims: Vec<_> = before
                        .into_iter()
                        .filter(|r| !after.iter().any(|a| a[0] == r[0]))
                        .collect();
                    oracle.insert_matching(&obj, &victims).unwrap();
                }
                // Seeding a held group replaces its row, which the oracle
                // cannot mirror: fold instead.
                RichOp::Insert { sig, dur } | RichOp::Seed { sig, dur } => {
                    let obj = qobj(*sig, *dur);
                    let evicted = lat.insert(&obj).unwrap();
                    oracle.insert_matching(&obj, &evicted).unwrap();
                }
                RichOp::Advance { micros } => handle.advance(*micros),
                RichOp::Reset => {
                    lat.reset();
                    oracle.reset();
                }
            }
            if let Some(m) = max_rows {
                prop_assert!(lat.row_count() <= m.max(1));
                prop_assert!(lat.stats().row_high_water <= m.max(1) as u64);
            }
            prop_assert_eq!(lat.row_count(), oracle.row_count());
            let in_shards: usize = lat.shard_stats().iter().map(|s| s.rows).sum();
            prop_assert_eq!(lat.row_count(), in_shards);
        }
        prop_assert_eq!(canonical(lat.rows()), canonical(oracle.rows()));
    }
}
