//! The `PULL_history` baseline (§6.2.2 (c)).
//!
//! "Identical to \[PULL\], except … the server keeps a history of all queries and
//! their execution times, which is only erased when being 'picked up' by the
//! outside monitoring application. While this is not a realistic solution in
//! practice, we use it to model a solution without push or filtering, but
//! keeping history."
//!
//! The client owns the history it drains: a [`ServerHistory`] probe sink
//! attached to the engine. The report tracks the *peak server-side memory*
//! the history consumed between pickups — Figure 3's tuning dilemma: poll
//! rarely and the history "requires significant memory, in turn degrading the
//! server's ability to cache pages".

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sqlcm_common::Poller;

use crate::history::ServerHistory;
use crate::topk::{top_k, QueryCost};

/// Accumulated result of the history poller.
#[derive(Debug, Clone, Default)]
pub struct PullHistoryReport {
    pub polls: u64,
    /// Records copied out of the server.
    pub records_copied: u64,
    /// Peak bytes the server-side history held right before a pickup.
    pub peak_history_bytes: usize,
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
    history: Arc<ServerHistory>,
    report: Arc<Mutex<PullHistoryReport>>,
}

/// One pickup: note the history's size, then drain it into `report`.
fn drain_into(history: &ServerHistory, report: &mut PullHistoryReport) {
    report.peak_history_bytes = report.peak_history_bytes.max(history.usage());
    let drained = history.drain();
    report.polls += 1;
    report.records_copied += drained.len() as u64;
    report
        .observed
        .extend(drained.into_iter().map(QueryCost::from));
}

impl PullHistory {
    /// Start draining `history` now and every `interval`.
    pub fn start(history: &Arc<ServerHistory>, interval: Duration) -> PullHistory {
        let report = Arc::new(Mutex::new(PullHistoryReport::default()));
        let poller = {
            let report = Arc::clone(&report);
            let history = Arc::clone(history);
            Poller::start(interval, move || drain_into(&history, &mut report.lock()))
        };
        PullHistory {
            poller,
            history: Arc::clone(history),
            report,
        }
    }

    /// One synchronous pickup (deterministic tests / final drain).
    pub fn poll_once(history: &ServerHistory, report: &mut PullHistoryReport) {
        drain_into(history, report);
    }

    /// Stop and collect, with one final pickup so nothing is left behind.
    pub fn stop(self) -> PullHistoryReport {
        self.poller.stop();
        let mut report = std::mem::take(&mut *self.report.lock());
        drain_into(&self.history, &mut report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_common::Value;
    use sqlcm_engine::Engine;

    fn engine_with_history() -> (Engine, Arc<ServerHistory>) {
        let e = Engine::in_memory();
        e.execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
            .unwrap();
        let history = ServerHistory::attach(&e);
        (e, history)
    }

    #[test]
    fn exact_results_unlike_pull() {
        let (engine, history) = engine_with_history();
        let mut s = engine.connect("u", "a");
        for i in 0..25 {
            s.execute_params("INSERT INTO t VALUES (?, 1)", &[Value::Int(i)])
                .unwrap();
        }
        let mut report = PullHistoryReport::default();
        PullHistory::poll_once(&history, &mut report);
        assert_eq!(report.observed.len(), 25, "history loses nothing");
        assert!(report.peak_history_bytes > 0);
        // Second pickup: server side was erased.
        let mut report2 = PullHistoryReport::default();
        PullHistory::poll_once(&history, &mut report2);
        assert!(report2.observed.is_empty());
    }

    #[test]
    fn threaded_poller_collects_everything() {
        let (engine, history) = engine_with_history();
        let monitor = PullHistory::start(&history, Duration::from_millis(1));
        let mut s = engine.connect("u", "a");
        for i in 0..100 {
            s.execute_params("INSERT INTO t VALUES (?, 1)", &[Value::Int(i)])
                .unwrap();
        }
        let report = monitor.stop();
        assert_eq!(report.observed.len(), 100, "exact despite threading");
        assert_eq!(report.top_k(10).len(), 10);
    }
}
