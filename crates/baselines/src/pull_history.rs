//! The `PULL_history` baseline (§6.2.2 (c)).
//!
//! "Identical to \[PULL\], except … the server keeps a history of all queries and
//! their execution times, which is only erased when being 'picked up' by the
//! outside monitoring application. While this is not a realistic solution in
//! practice, we use it to model a solution without push or filtering, but
//! keeping history."
//!
//! Requires the engine to be built with `HistoryMode::Unbounded` (or `Bounded`,
//! which then loses data — the report exposes the drop counter). The report
//! tracks the *peak server-side memory* the history consumed between pickups —
//! Figure 3's tuning dilemma: poll rarely and the history "requires significant
//! memory, in turn degrading the server's ability to cache pages".

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sqlcm_common::Poller;
use sqlcm_engine::{Engine, HistoryBuffer};

use crate::topk::{top_k, QueryCost};

/// Accumulated result of the history poller.
#[derive(Debug, Clone, Default)]
pub struct PullHistoryReport {
    pub polls: u64,
    /// Records copied out of the server.
    pub records_copied: u64,
    /// Peak bytes the server-side history held right before a pickup.
    pub peak_history_bytes: usize,
    /// Entries the server dropped because its history buffer was bounded.
    pub dropped_by_server: u64,
    pub observed: Vec<QueryCost>,
}

impl PullHistoryReport {
    pub fn top_k(&self, k: usize) -> Vec<QueryCost> {
        top_k(&self.observed, k)
    }
}

/// The history-draining client.
pub struct PullHistory {
    poller: Poller,
    report: Arc<Mutex<PullHistoryReport>>,
}

/// One pickup: note the history's size, then drain it into `report`. An
/// engine without a history has nothing to pick up.
fn drain_into(history: Option<&HistoryBuffer>, report: &mut PullHistoryReport) {
    let Some(history) = history else {
        return;
    };
    let (_, bytes) = history.usage();
    report.peak_history_bytes = report.peak_history_bytes.max(bytes);
    let drained = history.drain();
    report.polls += 1;
    report.records_copied += drained.len() as u64;
    report.dropped_by_server = history.dropped();
    for q in drained {
        report.observed.push(QueryCost {
            query_id: q.id,
            text: q.text,
            duration_micros: q.duration_micros,
        });
    }
}

impl PullHistory {
    /// Start draining `engine`'s history now and every `interval`.
    ///
    /// Panics if the engine was built without a history buffer — that is a
    /// configuration error, not a runtime condition.
    pub fn start(engine: &Engine, interval: Duration) -> PullHistory {
        assert!(
            engine.history().is_some(),
            "PULL_history requires EngineConfig::history != Disabled"
        );
        let report = Arc::new(Mutex::new(PullHistoryReport::default()));
        let poller = {
            let report = Arc::clone(&report);
            let engine = engine.handle();
            Poller::start(interval, move || {
                drain_into(engine.history.as_ref(), &mut report.lock());
            })
        };
        PullHistory { poller, report }
    }

    /// One synchronous pickup (deterministic tests / final drain).
    pub fn poll_once(engine: &Engine, report: &mut PullHistoryReport) {
        drain_into(engine.history(), report);
    }

    /// Stop and collect, with one final pickup so nothing is left behind.
    pub fn stop(self, engine: &Engine) -> PullHistoryReport {
        self.poller.stop();
        let mut report = std::mem::take(&mut *self.report.lock());
        drain_into(engine.history(), &mut report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_common::Value;
    use sqlcm_engine::engine::{EngineConfig, HistoryMode};

    fn engine_with_history(mode: HistoryMode) -> Engine {
        let e = Engine::new(EngineConfig {
            history: mode,
            ..Default::default()
        });
        e.execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
            .unwrap();
        e
    }

    #[test]
    fn exact_results_unlike_pull() {
        let engine = engine_with_history(HistoryMode::Unbounded);
        let mut s = engine.connect("u", "a");
        for i in 0..25 {
            s.execute_params("INSERT INTO t VALUES (?, 1)", &[Value::Int(i)])
                .unwrap();
        }
        let mut report = PullHistoryReport::default();
        PullHistory::poll_once(&engine, &mut report);
        assert_eq!(report.observed.len(), 25, "history loses nothing");
        assert!(report.peak_history_bytes > 0);
        // Second pickup: server side was erased.
        let mut report2 = PullHistoryReport::default();
        PullHistory::poll_once(&engine, &mut report2);
        assert!(report2.observed.is_empty());
    }

    #[test]
    fn bounded_history_reports_drops() {
        let engine = engine_with_history(HistoryMode::Bounded(5));
        let mut s = engine.connect("u", "a");
        for i in 0..20 {
            s.execute_params("INSERT INTO t VALUES (?, 1)", &[Value::Int(i)])
                .unwrap();
        }
        let mut report = PullHistoryReport::default();
        PullHistory::poll_once(&engine, &mut report);
        assert_eq!(report.observed.len(), 5);
        assert_eq!(report.dropped_by_server, 15);
    }

    #[test]
    fn threaded_poller_collects_everything() {
        let engine = engine_with_history(HistoryMode::Unbounded);
        let monitor = PullHistory::start(&engine, Duration::from_millis(1));
        let mut s = engine.connect("u", "a");
        for i in 0..100 {
            s.execute_params("INSERT INTO t VALUES (?, 1)", &[Value::Int(i)])
                .unwrap();
        }
        let report = monitor.stop(&engine);
        assert_eq!(report.observed.len(), 100, "exact despite threading");
        assert_eq!(report.top_k(10).len(), 10);
    }

    #[test]
    #[should_panic(expected = "requires EngineConfig::history")]
    fn start_requires_history() {
        let engine = engine_with_history(HistoryMode::Disabled);
        let _ = PullHistory::start(&engine, Duration::from_millis(1));
    }
}
