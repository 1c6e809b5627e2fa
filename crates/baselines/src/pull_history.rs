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

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use sqlcm_engine::Engine;

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
    stop: Arc<AtomicBool>,
    state: Arc<Mutex<PullHistoryReport>>,
    peak: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

fn drain_into(engine: &Engine, report: &mut PullHistoryReport, peak: &AtomicU64) {
    let history = match engine.history() {
        Some(h) => h,
        None => return,
    };
    let (len, bytes) = history.usage();
    let _ = len;
    peak.fetch_max(bytes as u64, Ordering::Relaxed);
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
    /// Start draining `engine`'s history every `interval`.
    ///
    /// Panics if the engine was built without a history buffer — that is a
    /// configuration error, not a runtime condition.
    pub fn start(engine: &Engine, interval: Duration) -> PullHistory {
        assert!(
            engine.history().is_some(),
            "PULL_history requires EngineConfig::history != Disabled"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(PullHistoryReport::default()));
        let peak = Arc::new(AtomicU64::new(0));
        let thread = {
            let stop = stop.clone();
            let state = state.clone();
            let peak = peak.clone();
            // Engine is not Clone; poll through a second facade over the same
            // inner (Engine::handle is shared), reconstructed via the public
            // surface we need: history lives on EngineInner.
            let inner = engine.handle();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(history) = inner.history.as_ref() {
                        let (_, bytes) = history.usage();
                        peak.fetch_max(bytes as u64, Ordering::Relaxed);
                        let drained = history.drain();
                        let mut st = state.lock();
                        st.polls += 1;
                        st.records_copied += drained.len() as u64;
                        st.dropped_by_server = history.dropped();
                        st.peak_history_bytes = st.peak_history_bytes.max(bytes);
                        for q in drained {
                            st.observed.push(QueryCost {
                                query_id: q.id,
                                text: q.text,
                                duration_micros: q.duration_micros,
                            });
                        }
                    }
                    std::thread::sleep(interval);
                }
            })
        };
        PullHistory {
            stop,
            state,
            peak,
            thread: Some(thread),
        }
    }

    /// One synchronous pickup (deterministic tests / final drain).
    pub fn poll_once(engine: &Engine, report: &mut PullHistoryReport) {
        let peak = AtomicU64::new(report.peak_history_bytes as u64);
        drain_into(engine, report, &peak);
    }

    /// Stop and collect, with one final pickup so nothing is left behind.
    pub fn stop(mut self, engine: &Engine) -> PullHistoryReport {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let mut report = self.state.lock().clone();
        report.peak_history_bytes = report
            .peak_history_bytes
            .max(self.peak.load(Ordering::Relaxed) as usize);
        drain_into(engine, &mut report, &self.peak);
        report
    }
}

impl Drop for PullHistory {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
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
        })
        .unwrap();
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
