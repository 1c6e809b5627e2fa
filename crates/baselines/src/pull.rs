//! The `PULL` baseline (§6.2.2 (b)).
//!
//! "A client monitoring application repeatedly polls from the database a
//! snapshot of the currently active queries and their execution time and
//! computes the most expensive ones externally … this approach may not identify
//! the correct queries, with the error dependent on the frequency of polling."
//!
//! A [`Poller`] snapshots the active queries ([`Engine::snapshot_active`]) at
//! start and every `interval`, and the report remembers, per query id, the
//! largest duration it ever saw. Queries that start and finish *between* two
//! polls are never observed — exactly the lossiness Figure 3 quantifies.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sqlcm_common::{Poller, QueryInfo};
use sqlcm_engine::Engine;

use crate::topk::{top_k, QueryCost};

/// What the poller accumulated.
#[derive(Debug, Clone, Default)]
pub struct PullReport {
    /// Snapshots taken.
    pub polls: u64,
    /// Total query records copied out of the server (the volume cost).
    pub records_copied: u64,
    /// Distinct queries ever observed.
    pub observed: Vec<QueryCost>,
}

impl PullReport {
    pub fn top_k(&self, k: usize) -> Vec<QueryCost> {
        top_k(&self.observed, k)
    }

    /// Fold one snapshot of the active queries in: count the poll and its
    /// records, and keep the largest duration seen per query id.
    fn merge(&mut self, snapshot: Vec<QueryInfo>) {
        self.polls += 1;
        self.records_copied += snapshot.len() as u64;
        for q in snapshot {
            match self.observed.iter_mut().find(|o| o.query_id == q.id) {
                Some(o) => o.duration_micros = o.duration_micros.max(q.duration_micros),
                None => self.observed.push(QueryCost {
                    query_id: q.id,
                    text: q.text,
                    duration_micros: q.duration_micros,
                }),
            }
        }
    }
}

/// The polling client.
pub struct PullMonitor {
    poller: Poller,
    report: Arc<Mutex<PullReport>>,
}

impl PullMonitor {
    /// Start polling `engine` now and every `interval`.
    pub fn start(engine: &Engine, interval: Duration) -> PullMonitor {
        let report = Arc::new(Mutex::new(PullReport::default()));
        let poller = {
            let report = Arc::clone(&report);
            let engine = engine.handle();
            Poller::start(interval, move || {
                let snapshot = engine.active.snapshot_all();
                report.lock().merge(snapshot);
            })
        };
        PullMonitor { poller, report }
    }

    /// Take one snapshot synchronously (deterministic tests).
    pub fn poll_once(engine: &Engine, state: &mut PullReport) {
        state.merge(engine.snapshot_active());
    }

    /// Stop the poller and collect its report.
    pub fn stop(self) -> PullReport {
        self.poller.stop();
        std::mem::take(&mut *self.report.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_common::Value;

    #[test]
    fn poller_misses_fast_queries_between_polls() {
        let engine = Engine::in_memory();
        engine
            .execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
            .unwrap();
        let mut s = engine.connect("u", "a");
        // Fast queries complete entirely between polls: a synchronous
        // poll-after-the-fact sees nothing.
        for i in 0..10 {
            s.execute_params("INSERT INTO t VALUES (?, 1)", &[Value::Int(i)])
                .unwrap();
        }
        let mut report = PullReport::default();
        PullMonitor::poll_once(&engine, &mut report);
        assert_eq!(report.polls, 1);
        assert!(
            report.observed.is_empty(),
            "completed queries are invisible to PULL"
        );
    }

    #[test]
    fn poller_thread_start_stop() {
        let engine = Engine::in_memory();
        engine
            .execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
            .unwrap();
        let monitor = PullMonitor::start(&engine, Duration::from_millis(1));
        let mut s = engine.connect("u", "a");
        for i in 0..200 {
            s.execute_params("INSERT INTO t VALUES (?, 1)", &[Value::Int(i)])
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(10));
        let report = monitor.stop();
        assert!(report.polls >= 2);
        // It may or may not have caught anything — but the accounting holds.
        assert!(report.observed.len() as u64 <= report.records_copied + 1);
        let _ = report.top_k(10);
    }

    #[test]
    fn merge_keeps_the_longest_duration_per_query_id() {
        let seen = |id: u64, duration_micros: u64| QueryInfo {
            duration_micros,
            ..QueryInfo::synthetic(id, "q")
        };
        let mut report = PullReport::default();
        report.merge(vec![seen(1, 5), seen(2, 7)]);
        report.merge(vec![seen(1, 9), seen(3, 4)]);
        report.merge(vec![seen(1, 6)]);
        assert_eq!(report.polls, 3);
        assert_eq!(report.records_copied, 5);
        let observed: Vec<(u64, u64)> = report
            .observed
            .iter()
            .map(|o| (o.query_id, o.duration_micros))
            .collect();
        assert_eq!(observed, vec![(1, 9), (2, 7), (3, 4)]);
    }
}
