//! Shared scaffolding for the benchmark harnesses.
//!
//! Every experiment is a `harness = false` bench binary that prints the rows of
//! the paper table/figure it regenerates. Scales come from environment
//! variables so `cargo bench` finishes in minutes by default but can be pushed
//! toward paper scale:
//!
//! * `SQLCM_ORDERS` — TPC-H-lite order count (default per bench);
//! * `SQLCM_QUERIES` — workload query count;
//! * `SQLCM_FULL=1` — run the full parameter grid instead of the corners.

use std::time::{Duration, Instant};

use sqlcm_engine::engine::{EngineConfig, HistoryMode};
use sqlcm_engine::Engine;
use sqlcm_workloads::tpch::{self, TpchConfig, TpchDb};

/// Read a scale knob from the environment.
pub fn env_u32(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

pub fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| v == "1").unwrap_or(false)
}

/// Build an engine (optionally with history) and load TPC-H-lite at `orders`.
pub fn engine_with_db(orders: u32, history: HistoryMode) -> (Engine, TpchDb) {
    let engine = Engine::new(EngineConfig {
        history,
        ..Default::default()
    });
    let db = tpch::load(
        &engine,
        TpchConfig {
            orders,
            parts: (orders / 10).max(50),
            customers: (orders / 25).max(20),
            seed: 42,
        },
    )
    .expect("tpch load");
    (engine, db)
}

/// Median wall-clock of `runs` executions of `f` (first run discarded as
/// warmup when `runs > 1`).
pub fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    assert!(runs >= 1);
    let mut samples = Vec::with_capacity(runs);
    if runs > 1 {
        f(); // warmup
    }
    for _ in 0..runs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// Percentage overhead of `t` over `base`.
pub fn overhead_pct(base: Duration, t: Duration) -> f64 {
    if base.as_nanos() == 0 {
        return 0.0;
    }
    (t.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

/// Print a header for a bench report.
pub fn banner(title: &str, detail: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("{detail}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing() {
        std::env::set_var("SQLCM_TEST_KNOB", "17");
        assert_eq!(env_u32("SQLCM_TEST_KNOB", 3), 17);
        assert_eq!(env_u32("SQLCM_TEST_MISSING", 3), 3);
        std::env::set_var("SQLCM_TEST_FLAG", "1");
        assert!(env_flag("SQLCM_TEST_FLAG"));
        assert!(!env_flag("SQLCM_TEST_FLAG_MISSING"));
    }

    #[test]
    fn overhead_math() {
        let base = Duration::from_millis(100);
        assert!((overhead_pct(base, Duration::from_millis(104)) - 4.0).abs() < 0.01);
        assert!(overhead_pct(base, Duration::from_millis(100)).abs() < 0.01);
    }

    #[test]
    fn median_of_runs() {
        let mut n = 0;
        let d = median_time(3, || {
            n += 1;
        });
        assert_eq!(n, 4, "3 samples + 1 warmup");
        assert!(d < Duration::from_millis(50));
    }
}
