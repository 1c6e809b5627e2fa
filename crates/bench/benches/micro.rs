//! Microbenchmarks for the framework's primitive operations: LAT insert,
//! rule-condition evaluation, signature computation, B-tree point lookup,
//! lock acquire/release, slotted-page insert.
//!
//! These are the per-operation numbers behind the figure-level harnesses; they
//! are hardware-portable in a way the percentages are not. The harness is a
//! plain timing loop (no external bench framework): each case is warmed up,
//! then timed over batches until `SQLCM_BENCH_MS` (default 200) of wall clock
//! accumulates, and the per-iteration median of the batch means is printed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlcm_common::{QueryInfo, SystemClock, Value};
use sqlcm_core::ir::CondIr;
use sqlcm_core::objects::query_object;
use sqlcm_core::rules::EvalContext;
use sqlcm_core::vm::{self, Program, VmStats};
use sqlcm_core::{Lat, LatAggFunc, LatSpec};
use sqlcm_engine::active::ActiveQueryState;
use sqlcm_engine::lock::{LockManager, LockMode, ResourceId};
use sqlcm_engine::{optimizer, signature};
use sqlcm_sql::parse_expression;
use sqlcm_storage::{BTree, BufferPool, InMemoryDisk, SlottedPage, PAGE_SIZE};

#[path = "../../core/tests/oracle/mod.rs"]
mod oracle;

/// Time `f` in batches of `batch` iterations until `budget` elapses; print the
/// median per-iteration time.
fn bench_function(name: &str, mut f: impl FnMut()) {
    let budget = Duration::from_millis(sqlcm_bench::env_u32("SQLCM_BENCH_MS", 200) as u64);
    // Warmup + batch sizing: grow the batch until one batch takes >= 1ms.
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let mut per_iter: Vec<f64> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_iter.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter[per_iter.len() / 2];
    println!("{name:<36} {:>12.1} ns/iter", median * 1e9);
}

fn bench_lat_insert() {
    let lat = Lat::new(
        LatSpec::new("L")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D")
            .aggregate(LatAggFunc::Last, "Query.Query_Text", "Text"),
        SystemClock::shared(),
    )
    .unwrap();
    let mut q = QueryInfo::synthetic(1, "SELECT x FROM t WHERE id = ?");
    q.logical_signature = Some(7);
    q.duration_micros = 1234;
    let obj = query_object(&q);
    bench_function("lat_insert_existing_group", || {
        lat.insert(std::hint::black_box(&obj)).unwrap();
    });

    let topk = Lat::new(
        LatSpec::new("T")
            .group_by("Query.ID", "ID")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(10),
        SystemClock::shared(),
    )
    .unwrap();
    let mut id = 0u64;
    bench_function("lat_insert_with_eviction", || {
        id += 1;
        let mut q = QueryInfo::synthetic(id, "q");
        q.duration_micros = id % 5000;
        topk.insert(&query_object(&q)).unwrap();
    });
}

fn bench_condition_eval() {
    let mut q = QueryInfo::synthetic(1, "SELECT 1");
    q.duration_micros = 1_000_000;
    let objs = vec![query_object(&q)];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: &[],
    };
    let one = parse_expression("Query.Duration > 100").unwrap();
    let twenty = parse_expression(
        &(0..20)
            .map(|_| "Query.Duration >= 0")
            .collect::<Vec<_>>()
            .join(" AND "),
    )
    .unwrap();
    let compile = |e: &sqlcm_sql::Expr| {
        let ir = sqlcm_sql::ExprIr::lower(e).fold();
        let cond = CondIr::from_ir(&ir, &std::collections::HashMap::new(), &[]).unwrap();
        Program::emit(&cond, &std::collections::HashMap::new())
    };
    let one_vm = compile(&one);
    let twenty_vm = compile(&twenty);
    let mut stats = VmStats::default();
    bench_function("condition_eval_1_atom_oracle", || {
        oracle::eval_condition(std::hint::black_box(&one), &ctx).unwrap();
    });
    bench_function("condition_eval_1_atom_vm", || {
        vm::eval_condition(std::hint::black_box(&one_vm), &ctx, &mut [], &mut stats).unwrap();
    });
    bench_function("condition_eval_20_atoms_oracle", || {
        oracle::eval_condition(std::hint::black_box(&twenty), &ctx).unwrap();
    });
    bench_function("condition_eval_20_atoms_vm", || {
        vm::eval_condition(std::hint::black_box(&twenty_vm), &ctx, &mut [], &mut stats).unwrap();
    });
}

fn bench_signature() {
    let engine = sqlcm_engine::Engine::in_memory();
    engine
        .execute_batch(
            "CREATE TABLE t (a INT PRIMARY KEY, b INT);\
             CREATE TABLE u (a INT PRIMARY KEY, c INT);",
        )
        .unwrap();
    let stmt = sqlcm_sql::parse_statement(
        "SELECT t.b, COUNT(*) FROM t JOIN u ON t.a = u.a WHERE t.b > 5 GROUP BY t.b",
    )
    .unwrap();
    let sel = match stmt {
        sqlcm_sql::Statement::Select(s) => s,
        _ => unreachable!(),
    };
    let planned = optimizer::plan_select(engine.catalog(), &sel).unwrap();
    bench_function("signature_compute_join_query", || {
        std::hint::black_box(signature::compute(&planned.logical, &planned.physical));
    });
    bench_function("optimize_join_query", || {
        optimizer::plan_select(engine.catalog(), &sel).unwrap();
    });
}

fn bench_btree() {
    let pool = Arc::new(BufferPool::new(InMemoryDisk::shared(), 1024));
    let tree = BTree::create(pool).unwrap();
    for i in 0..100_000i64 {
        tree.insert(&[Value::Int(i)], &i.to_le_bytes()).unwrap();
    }
    let mut i = 0i64;
    bench_function("btree_point_get_100k", || {
        i = (i + 7919) % 100_000;
        std::hint::black_box(tree.get(&[Value::Int(i)]).unwrap());
    });
}

fn bench_locks() {
    let mc = Arc::new(sqlcm_engine::instrument::Multicast::new());
    let mgr = LockManager::new(SystemClock::shared(), mc);
    let q = ActiveQueryState::new(
        1,
        "q".into(),
        sqlcm_common::QueryType::Select,
        1,
        1,
        "u".into(),
        "a".into(),
        None,
        0,
    );
    let mut k = 0i64;
    bench_function("lock_acquire_release_uncontended", || {
        k += 1;
        let r = ResourceId::Row(1, vec![Value::Int(k % 64)]);
        mgr.acquire(1, &q, &r, LockMode::Shared).unwrap();
        mgr.release_all(1, std::slice::from_ref(&r));
    });
}

fn bench_page() {
    let mut buf = vec![0u8; PAGE_SIZE];
    let mut p = SlottedPage::init(&mut buf);
    bench_function("slotted_page_insert_delete", || {
        let s = p.insert(b"0123456789abcdef").unwrap();
        p.delete(s);
    });
}

fn main() {
    sqlcm_bench::banner(
        "micro",
        "per-operation costs of the framework's primitives (median ns/iter)",
    );
    bench_lat_insert();
    bench_condition_eval();
    bench_signature();
    bench_btree();
    bench_locks();
    bench_page();
}
