//! **T1 — signature-computation overhead** (paper §6.2.1, text result).
//!
//! "We measured the overhead of the signature computation relative to the total
//! time used for *optimization* … the relative time decreases with the
//! complexity of the queries. The extreme points in our measurements were 0.5%
//! (for single-line selection queries without conditions) and 0.011% (for
//! complex TPC-H queries)."
//!
//! This harness times, per template of a complexity ladder: (a) binding +
//! optimization alone, (b) signature computation alone, and reports the
//! signature share of total compile time. Expected shape: the share *falls* as
//! queries get more complex, spanning roughly an order of magnitude or more
//! between the extremes.

use std::time::Instant;

use sqlcm_bench::{banner, engine_with_db, env_u32};
use sqlcm_engine::{optimizer, signature};
use sqlcm_sql::{parse_statement, Statement};

const LADDER: &[(&str, &str)] = &[
    (
        "trivial select (no condition)",
        "SELECT l_price FROM lineitem",
    ),
    (
        "single-row point select",
        "SELECT l_price FROM lineitem WHERE l_orderkey = 17 AND l_linenumber = 1",
    ),
    (
        "range + residual predicates",
        "SELECT l_price, l_quantity FROM lineitem WHERE l_orderkey >= 10 AND l_orderkey < 500 AND l_quantity > 5 AND l_shipmode = 'AIR'",
    ),
    (
        "2-way join",
        "SELECT l.l_price, o.o_status FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE o.o_totalprice > 1000",
    ),
    (
        "3-way join + aggregate + sort (TPC-H-ish)",
        "SELECT o.o_custkey, COUNT(*) AS n, SUM(l.l_price), AVG(p.p_retailprice) \
         FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey \
         JOIN part p ON l.l_partkey = p.p_partkey \
         WHERE o.o_status = 'open' AND l.l_quantity > 2 AND p.p_retailprice > 10 \
         GROUP BY o.o_custkey HAVING COUNT(*) > 3 ORDER BY SUM(l.l_price) DESC LIMIT 50",
    ),
];

fn main() {
    let iters = env_u32("SQLCM_QUERIES", 2_000) as usize;
    let (engine, _db) = engine_with_db(env_u32("SQLCM_ORDERS", 2_000));
    banner(
        "T1: signature computation overhead relative to optimization (§6.2.1)",
        &format!("{iters} timed iterations per template; paper extremes: 0.5% → 0.011%"),
    );
    println!(
        "{:<45} {:>12} {:>12} {:>10}",
        "query template", "optimize", "signature", "sig share"
    );

    let mut shares = Vec::new();
    for (label, sql) in LADDER {
        let stmt = parse_statement(sql).expect("ladder statement parses");
        let select = match &stmt {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        // Time optimization alone (bind + logical + lower).
        let t = Instant::now();
        for _ in 0..iters {
            let p = optimizer::plan_select(engine.catalog(), select).expect("plans");
            std::hint::black_box(&p.physical);
        }
        let opt_ns = t.elapsed().as_nanos() as f64 / iters as f64;

        // Time signature computation alone, on a prepared plan.
        let planned = optimizer::plan_select(engine.catalog(), select).expect("plans");
        let t = Instant::now();
        for _ in 0..iters {
            let s = signature::compute(&planned.logical, &planned.physical);
            std::hint::black_box(s.logical);
        }
        let sig_ns = t.elapsed().as_nanos() as f64 / iters as f64;

        let share = sig_ns / (opt_ns + sig_ns) * 100.0;
        shares.push(share);
        println!(
            "{:<45} {:>9.1} µs {:>9.2} µs {:>9.2}%",
            label,
            opt_ns / 1000.0,
            sig_ns / 1000.0,
            share
        );
    }
    println!();
    println!(
        "shape check: share falls from {:.2}% (trivial) to {:.2}% (complex) — {}",
        shares.first().unwrap(),
        shares.last().unwrap(),
        if shares.last().unwrap() < shares.first().unwrap() {
            "matches the paper's trend"
        } else {
            "DOES NOT match the paper's trend"
        }
    );
    println!(
        "note: with the plan cache, a signature is computed once per template, \
         never per execution (§4.2)."
    );
}
