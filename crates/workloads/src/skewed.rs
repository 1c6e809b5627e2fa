//! A skewed, "customer-like" workload.
//!
//! §6.2.2 ends with: "We also executed the same set of experiments on a real
//! (customer) workload used within Microsoft, resulting in similar trends,
//! which are not reported for lack of space." That workload is unavailable;
//! this generator stands in for it (see DESIGN.md's substitution table): a
//! fixed set of query *templates* of varying cost, invoked with Zipf-like
//! template popularity — the shape enterprise OLTP traces typically have.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlcm_common::Value;

use crate::mixed::WorkloadQuery;
use crate::tpch::TpchDb;

/// Template catalogue, cheapest to most expensive.
const TEMPLATES: &[&str] = &[
    "SELECT o_status FROM orders WHERE o_orderkey = ?",
    "SELECT l_price FROM lineitem WHERE l_orderkey = ? AND l_linenumber = 1",
    "SELECT l_price, l_shipmode FROM lineitem WHERE l_orderkey = ?",
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey >= ? AND o_orderkey < ? + 50",
    "SELECT COUNT(*) AS n, AVG(l_price) FROM lineitem WHERE l_orderkey >= ? AND l_orderkey < ? + 200 GROUP BY l_shipmode",
];

/// Zipf-ish template choice: template `i` has weight `1/(i+1)`.
fn pick_template(rng: &mut SmallRng) -> usize {
    let weights: Vec<f64> = (0..TEMPLATES.len()).map(|i| 1.0 / (i + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    TEMPLATES.len() - 1
}

/// Generate `n` statements with skewed template popularity.
pub fn generate(db: &TpchDb, n: u32, seed: u64) -> Vec<WorkloadQuery> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let t = pick_template(&mut rng);
            let okey = rng.gen_range(1..=db.config.orders) as i64;
            let params = match t {
                3 | 4 => vec![Value::Int(okey), Value::Int(okey)],
                _ => vec![Value::Int(okey)],
            };
            WorkloadQuery {
                sql: TEMPLATES[t].to_string(),
                params,
                is_join: false,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{load, TpchConfig};
    use sqlcm_engine::Engine;
    use std::collections::HashMap;

    #[test]
    fn skew_favors_cheap_templates() {
        let engine = Engine::in_memory();
        let db = load(&engine, TpchConfig::tiny()).unwrap();
        let w = generate(&db, 2_000, 17);
        let mut freq: HashMap<&str, u32> = HashMap::new();
        for q in &w {
            *freq
                .entry(TEMPLATES.iter().find(|t| **t == q.sql).unwrap())
                .or_default() += 1;
        }
        assert_eq!(freq.len(), TEMPLATES.len(), "all templates appear");
        assert!(
            freq[TEMPLATES[0]] > freq[TEMPLATES[4]] * 2,
            "popularity is skewed"
        );
    }

    #[test]
    fn statements_run() {
        let engine = Engine::in_memory();
        let db = load(&engine, TpchConfig::tiny()).unwrap();
        let w = generate(&db, 100, 23);
        let stats = crate::run_queries(&engine, &w).unwrap();
        assert_eq!(stats.errors, 0);
    }
}
