//! **A3 — ablation: LAT latching under concurrency** (paper §6.1).
//!
//! "As all rule evaluation and LAT updates occur in the same thread which
//! triggers the event … each LAT row as well as the ordering heap as a whole
//! and each entry in the hash table are protected through latches … initial
//! experiments with large number of short queries executing concurrently on the
//! database indicate that this latching does not introduce a new hotspot even
//! under severe stress, as the latches are held for very short times."
//!
//! This reproduction stripes an unbounded LAT's rows over 16 tables, each
//! under its own latch, in place of a latch per row. Stress shapes, T
//! threads each doing N inserts:
//!   * one LAT, **one hot group** — every insert takes the same table latch;
//!   * one LAT, spread groups — two threads meet in one table 1 time in 16;
//!   * per-thread private LATs — the no-sharing upper bound.

use std::sync::Arc;
use std::time::Instant;

use sqlcm_bench::{banner, env_u32};
use sqlcm_common::{QueryInfo, SystemClock};
use sqlcm_core::objects::query_object;
use sqlcm_core::{Lat, LatAggFunc, LatSpec};

fn mk_lat(name: &str) -> Arc<Lat> {
    Arc::new(
        Lat::new(
            LatSpec::new(name)
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D"),
            SystemClock::shared(),
        )
        .expect("lat"),
    )
}

fn obj(sig: u64) -> sqlcm_core::Object {
    let mut q = QueryInfo::synthetic(sig, "q");
    q.logical_signature = Some(sig);
    q.duration_micros = 1000;
    query_object(&q)
}

fn run(threads: usize, per_thread: u64, shared: Option<Arc<Lat>>, spread: u64) -> (f64, u64) {
    let t0 = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lat = shared
                    .clone()
                    .unwrap_or_else(|| mk_lat(&format!("private_{t}")));
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let sig = if spread == 1 {
                            0
                        } else {
                            (i * 7 + t as u64) % spread
                        };
                        lat.insert(&obj(sig)).expect("insert");
                    }
                    per_thread
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread")).sum()
    });
    let secs = t0.elapsed().as_secs_f64();
    (total as f64 / secs / 1e6, total)
}

fn main() {
    let per_thread = env_u32("SQLCM_QUERIES", 200_000) as u64;
    let threads = env_u32("SQLCM_THREADS", 4) as usize;
    banner(
        "A3: LAT latch contention under concurrent inserts (§6.1)",
        &format!("{threads} threads × {per_thread} inserts"),
    );
    println!("{:<38} {:>16}", "configuration", "M inserts/sec");

    let shared = mk_lat("hot");
    let (hot_tput, n) = run(threads, per_thread, Some(shared.clone()), 1);
    println!("{:<38} {:>16.2}", "shared LAT, one hot group", hot_tput);
    let counted: i64 = shared.rows().iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(counted as u64, n, "no lost updates under contention");

    let shared = mk_lat("spread");
    let (spread_tput, _) = run(threads, per_thread, Some(shared), 1024);
    println!("{:<38} {:>16.2}", "shared LAT, 1024 groups", spread_tput);

    let (private_tput, _) = run(threads, per_thread, None, 1024);
    println!("{:<38} {:>16.2}", "private LAT per thread", private_tput);

    println!();
    let ratio = private_tput / hot_tput.max(1e-9);
    println!(
        "hot-row slowdown vs. no sharing: {ratio:.2}× — the paper's claim is that \
         latching does not become a hotspot (ratio stays small, single digits)."
    );
}
