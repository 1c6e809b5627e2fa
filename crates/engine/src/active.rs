//! Live query state: the engine-side objects behind `Query` probes.
//!
//! Every executing statement has an [`ActiveQueryState`] registered in the
//! engine's [`ActiveRegistry`]. Three consumers read it:
//!
//! * probe points, which snapshot it into a [`QueryInfo`] for events;
//! * the *polling* interfaces (the PULL baseline asks for a snapshot of the
//!   currently active queries — Section 6.2.2 (b));
//! * rules whose condition iterates over "all query objects currently in the
//!   system" (Section 5.2) and the `Cancel()` action (Section 5.3).
//!
//! Counters are atomics so concurrent probe reads never block execution.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use sqlcm_common::{QueryInfo, QueryType, SharedClock, Timestamp};

/// Shared, mutable-by-atomics state of one executing query.
#[derive(Debug)]
pub struct ActiveQueryState {
    pub id: u64,
    pub text: Arc<str>,
    pub query_type: QueryType,
    pub session_id: u64,
    pub txn_id: u64,
    pub user: Arc<str>,
    pub application: Arc<str>,
    pub procedure: Option<Arc<str>>,
    pub start_time: Timestamp,
    /// Set once by the optimizer (f64 bits).
    estimated_cost: AtomicU64,
    /// Signatures become available after optimization (§4.1: probes register
    /// "when they are available to the system").
    signatures: OnceLock<(u64, u64)>,
    /// Final duration; `u64::MAX` while still running.
    duration: AtomicU64,
    time_blocked: AtomicU64,
    times_blocked: AtomicU32,
    queries_blocked: AtomicU32,
    cancel: AtomicBool,
}

impl ActiveQueryState {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u64,
        text: Arc<str>,
        query_type: QueryType,
        session_id: u64,
        txn_id: u64,
        user: Arc<str>,
        application: Arc<str>,
        procedure: Option<Arc<str>>,
        start_time: Timestamp,
    ) -> Arc<Self> {
        Arc::new(ActiveQueryState {
            id,
            text,
            query_type,
            session_id,
            txn_id,
            user,
            application,
            procedure,
            start_time,
            estimated_cost: AtomicU64::new(0f64.to_bits()),
            signatures: OnceLock::new(),
            duration: AtomicU64::new(u64::MAX),
            time_blocked: AtomicU64::new(0),
            times_blocked: AtomicU32::new(0),
            queries_blocked: AtomicU32::new(0),
            cancel: AtomicBool::new(false),
        })
    }

    /// Record the optimizer's estimate.
    pub fn set_estimated_cost(&self, cost: f64) {
        self.estimated_cost.store(cost.to_bits(), Ordering::Relaxed);
    }

    pub fn estimated_cost(&self) -> f64 {
        f64::from_bits(self.estimated_cost.load(Ordering::Relaxed))
    }

    /// Record the (logical, physical) signatures once available.
    pub fn set_signatures(&self, logical: u64, physical: u64) {
        let _ = self.signatures.set((logical, physical));
    }

    pub fn signatures(&self) -> Option<(u64, u64)> {
        self.signatures.get().copied()
    }

    /// Mark completion, freezing `Duration`.
    pub fn finish(&self, now: Timestamp) {
        self.duration
            .store(now.saturating_sub(self.start_time), Ordering::Relaxed);
    }

    /// True once `finish` was called.
    pub fn is_finished(&self) -> bool {
        self.duration.load(Ordering::Relaxed) != u64::MAX
    }

    /// Elapsed µs — final duration if finished, otherwise time running so far.
    pub fn duration_so_far(&self, now: Timestamp) -> u64 {
        let d = self.duration.load(Ordering::Relaxed);
        if d == u64::MAX {
            now.saturating_sub(self.start_time)
        } else {
            d
        }
    }

    /// Add one blocking episode of `micros` to this query's wait accounting.
    pub fn add_blocked(&self, micros: u64) {
        self.time_blocked.fetch_add(micros, Ordering::Relaxed);
    }

    /// Count the onset of a blocking episode.
    pub fn note_blocked_once(&self) {
        self.times_blocked.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one victim blocked by this query.
    pub fn note_blocked_other(&self) {
        self.queries_blocked.fetch_add(1, Ordering::Relaxed);
    }

    /// Request cooperative cancellation. The executor polls
    /// [`ActiveQueryState::is_cancelled`] between batches; the paper's `Cancel()`
    /// action "only sends the cancel signal to the thread(s) currently executing
    /// the query" (§5).
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Assemble the probe snapshot (Appendix A attribute set).
    pub fn snapshot(&self, now: Timestamp) -> QueryInfo {
        let (logical, physical) = match self.signatures() {
            Some((l, p)) => (Some(l), Some(p)),
            None => (None, None),
        };
        QueryInfo {
            id: self.id,
            text: self.text.clone(),
            logical_signature: logical,
            physical_signature: physical,
            start_time: self.start_time,
            duration_micros: self.duration_so_far(now),
            estimated_cost: self.estimated_cost(),
            time_blocked_micros: self.time_blocked.load(Ordering::Relaxed),
            times_blocked: self.times_blocked.load(Ordering::Relaxed),
            queries_blocked: self.queries_blocked.load(Ordering::Relaxed),
            query_type: self.query_type,
            session_id: self.session_id,
            txn_id: self.txn_id,
            user: self.user.clone(),
            application: self.application.clone(),
            procedure: self.procedure.clone(),
        }
    }
}

/// Registry of currently executing queries.
pub struct ActiveRegistry {
    clock: SharedClock,
    queries: RwLock<HashMap<u64, Arc<ActiveQueryState>>>,
}

impl ActiveRegistry {
    pub fn new(clock: SharedClock) -> Self {
        ActiveRegistry {
            clock,
            queries: RwLock::new(HashMap::new()),
        }
    }

    pub fn register(&self, q: Arc<ActiveQueryState>) {
        self.queries.write().insert(q.id, q);
    }

    pub fn unregister(&self, id: u64) {
        self.queries.write().remove(&id);
    }

    /// Shared handle to one live query.
    pub fn get(&self, id: u64) -> Option<Arc<ActiveQueryState>> {
        self.queries.read().get(&id).cloned()
    }

    /// Number of live queries.
    pub fn len(&self) -> usize {
        self.queries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.queries.read().is_empty()
    }

    /// Snapshot every live query's probe attributes. This is the polling surface
    /// the PULL baseline hits; its cost *scales with the number of live queries*,
    /// which is exactly the overhead-vs-accuracy trade-off of Figure 3.
    pub fn snapshot_all(&self) -> Vec<QueryInfo> {
        let now = self.clock.now_micros();
        self.queries
            .read()
            .values()
            .map(|q| q.snapshot(now))
            .collect()
    }

    /// Live handles, for rules that iterate over all `Query` objects (§5.2).
    pub fn handles(&self) -> Vec<Arc<ActiveQueryState>> {
        self.queries.read().values().cloned().collect()
    }

    /// Signal cancellation of query `id`; true if it was live. Callers go
    /// through `EngineInner::cancel_query`, which also wakes lock waiters.
    pub(crate) fn cancel(&self, id: u64) -> bool {
        match self.get(id) {
            Some(q) => {
                q.request_cancel();
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_common::ManualClock;

    fn q(id: u64) -> Arc<ActiveQueryState> {
        ActiveQueryState::new(
            id,
            format!("SELECT {id}").into(),
            QueryType::Select,
            1,
            0,
            "alice".into(),
            "app".into(),
            None,
            100,
        )
    }

    #[test]
    fn snapshot_reflects_running_then_final_duration() {
        let (clock, handle) = ManualClock::shared(100);
        let reg = ActiveRegistry::new(clock);
        let query = q(1);
        reg.register(query.clone());
        handle.advance(50);
        let snap = reg.snapshot_all();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].duration_micros, 50);
        handle.advance(25);
        query.finish(175);
        assert_eq!(query.duration_so_far(9999), 75);
        assert!(query.is_finished());
    }

    #[test]
    fn cancel_roundtrip() {
        let (clock, _) = ManualClock::shared(0);
        let reg = ActiveRegistry::new(clock);
        let query = q(9);
        reg.register(query.clone());
        assert!(!query.is_cancelled());
        assert!(reg.cancel(9));
        assert!(query.is_cancelled());
        reg.unregister(9);
        assert!(!reg.cancel(9));
    }

    #[test]
    fn len_counts_live_queries() {
        let (clock, _) = ManualClock::shared(0);
        let reg = ActiveRegistry::new(clock);
        for id in 0..5 {
            reg.register(q(id));
        }
        assert_eq!(reg.len(), 5);
    }

    #[test]
    fn signatures_set_once() {
        let query = q(1);
        assert_eq!(query.signatures(), None);
        query.set_signatures(10, 20);
        query.set_signatures(30, 40); // ignored
        assert_eq!(query.signatures(), Some((10, 20)));
    }

    #[test]
    fn blocking_counters() {
        let query = q(1);
        query.note_blocked_once();
        query.add_blocked(500);
        query.note_blocked_other();
        let s = query.snapshot(1_000);
        assert_eq!(s.times_blocked, 1);
        assert_eq!(s.time_blocked_micros, 500);
        assert_eq!(s.queries_blocked, 1);
    }
}
