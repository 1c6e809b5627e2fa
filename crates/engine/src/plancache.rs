//! The plan cache.
//!
//! Keyed on exact statement text (the ad-hoc caching model). A hit returns the
//! parsed statement, the physical plan (for SELECTs), *and the signatures* — the
//! paper's §4.2 point that "if a query plan is cached, so is its signature,
//! thereby avoiding the need to recompute it often". The Figure 2/3 workloads
//! re-execute identical statements, so after warmup the per-query planning cost
//! is one hash lookup, exactly as in the prototype.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sqlcm_sql::Statement;

use crate::plan::PhysicalPlan;
use crate::signature::Signatures;

/// Cached planning output for a SELECT.
pub struct CachedSelect {
    pub physical: PhysicalPlan,
    pub estimated_cost: f64,
    pub output_names: Vec<String>,
}

/// Everything cached for one statement text.
pub struct CachedPlan {
    pub statement: Statement,
    pub select: Option<CachedSelect>,
    pub signatures: Signatures,
    pub param_count: usize,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// Bounded map from statement text to [`CachedPlan`].
pub struct PlanCache {
    map: Mutex<HashMap<String, Arc<CachedPlan>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    pub fn get(&self, sql: &str) -> Option<Arc<CachedPlan>> {
        let got = self.map.lock().get(sql).cloned();
        match &got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    pub fn insert(&self, sql: String, plan: Arc<CachedPlan>) {
        let mut map = self.map.lock();
        if map.len() >= self.capacity && !map.contains_key(&sql) {
            // Evict an arbitrary entry; template counts are tiny in practice and
            // an LRU would cost more than it saves here.
            if let Some(k) = map.keys().next().cloned() {
                map.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(sql, plan);
    }

    /// Invalidate everything (DDL changed the catalog).
    pub fn clear(&self) {
        self.map.lock().clear();
    }

    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(stmt: &str) -> Arc<CachedPlan> {
        let statement = sqlcm_sql::parse_statement(stmt).unwrap();
        Arc::new(CachedPlan {
            signatures: crate::signature::compute_for_statement(&statement, None),
            statement,
            select: None,
            param_count: 0,
        })
    }

    #[test]
    fn hit_miss_and_eviction() {
        let c = PlanCache::new(2);
        assert!(c.get("BEGIN").is_none());
        c.insert("BEGIN".into(), plan("BEGIN"));
        assert!(c.get("BEGIN").is_some());
        c.insert("COMMIT".into(), plan("COMMIT"));
        c.insert("ROLLBACK".into(), plan("ROLLBACK"));
        assert_eq!(c.len(), 2, "capacity enforced");
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn clear_empties() {
        let c = PlanCache::new(4);
        c.insert("BEGIN".into(), plan("BEGIN"));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_same_key_does_not_evict() {
        let c = PlanCache::new(1);
        c.insert("BEGIN".into(), plan("BEGIN"));
        c.insert("BEGIN".into(), plan("BEGIN"));
        assert_eq!(c.stats().evictions, 0);
    }
}
