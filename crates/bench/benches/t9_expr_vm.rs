//! **T9 — expression-VM latency** (§2.1 low-overhead goal; DESIGN.md §15
//! IR/VM contract).
//!
//! One 24-atom arithmetic condition evaluated by the register-bytecode VM
//! vs. the tree-walk oracle on identical contexts. Gate: the VM must be at
//! least as fast as the oracle. (Cross-rule subexpression sharing is pinned
//! by count in `monitor_differential.rs` and timed by `benchmark/`'s
//! `storm_shared_lat` workload.)
//!
//! Writes `BENCH_t9_expr_vm.json` and exits non-zero when the gate fails,
//! so CI can gate on it.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sqlcm_bench::{banner, env_u32};
use sqlcm_common::QueryInfo;
use sqlcm_core::ir::CondIr;
use sqlcm_core::objects::query_object;
use sqlcm_core::rules::EvalContext;
use sqlcm_core::vm::{self, Program, VmStats};
use sqlcm_sql::parse_expression;

#[path = "../../core/tests/oracle/mod.rs"]
mod oracle;

/// Median ns/iter of `f` over batches sized to ≥1ms, within a wall budget.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(env_u32("SQLCM_BENCH_MS", 300) as u64);
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
        per_iter.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    per_iter.sort_by(f64::total_cmp);
    per_iter[per_iter.len() / 2]
}

/// One deep condition, oracle walk vs. VM loop.
fn deep_expression() -> (f64, f64) {
    let src = (0..24)
        .map(|i| {
            format!(
                "(Query.Duration * {} + Query.ID) / {} >= 0.{i:02}",
                i + 1,
                i + 2
            )
        })
        .collect::<Vec<_>>()
        .join(" AND ");
    let expr = parse_expression(&src).expect("deep expression parses");
    let ir = sqlcm_sql::ExprIr::lower(&expr).fold();
    let cond = CondIr::from_ir(&ir, &HashMap::new(), &[]).expect("resolves");
    let prog = Program::emit(&cond, &HashMap::new());

    let mut q = QueryInfo::synthetic(5, "SELECT 1");
    q.duration_micros = 2_000_000;
    let objs = vec![query_object(&q)];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: &[],
    };

    let oracle_ns = median_ns(|| {
        oracle::eval_condition(std::hint::black_box(&expr), &ctx).unwrap();
    });
    let mut stats = VmStats::default();
    let vm_ns = median_ns(|| {
        vm::eval_condition(std::hint::black_box(&prog), &ctx, &mut [], &mut stats).unwrap();
    });
    (oracle_ns, vm_ns)
}

fn main() {
    banner(
        "T9: expression VM — deep-condition latency, VM vs. tree-walk oracle",
        &format!("{} ms per side", env_u32("SQLCM_BENCH_MS", 300)),
    );
    let (oracle_ns, vm_ns) = deep_expression();
    println!("deep 24-atom condition, oracle:   {oracle_ns:>8.1} ns/eval");
    println!("deep 24-atom condition, VM:       {vm_ns:>8.1} ns/eval");

    let json = format!(
        "{{\"bench\":\"t9_expr_vm\",\"deep_oracle_ns\":{oracle_ns:.1},\
         \"deep_vm_ns\":{vm_ns:.1},\"gate_vm_le_oracle\":true}}"
    );
    std::fs::write("BENCH_t9_expr_vm.json", &json).expect("write BENCH json");
    println!("\nwrote BENCH_t9_expr_vm.json: {json}");

    if vm_ns > oracle_ns {
        eprintln!("FAIL: VM {vm_ns:.1} ns/eval slower than oracle {oracle_ns:.1} ns/eval");
        std::process::exit(1);
    }
    println!("PASS: VM ≤ oracle ({vm_ns:.1} vs {oracle_ns:.1} ns)");
}
