//! The server-kept history of completed queries that `PULL_history` drains.
//!
//! Section 6.2.2 (c) of the paper: "the server keeps a history of all queries and
//! their execution times, which is only erased when being 'picked up' by the
//! outside monitoring application. While this is not a realistic solution in
//! practice, we use it to model a solution without push or filtering, but keeping
//! history."
//!
//! [`ServerHistory`] is a probe sink: attached to an engine it keeps the
//! `QueryInfo` of every `Query.Commit`, `Query.Rollback` and `Query.Cancel`
//! until a pickup drains it. It tracks its approximate memory footprint so
//! Figure 3's discussion point — history memory "degrading the server's
//! ability to cache pages" — can be reported.

use std::sync::Arc;

use parking_lot::Mutex;
use sqlcm_common::{EngineEvent, ProbeKind, QueryInfo};
use sqlcm_engine::instrument::Instrumentation;
use sqlcm_engine::Engine;

#[derive(Default)]
struct Held {
    entries: Vec<QueryInfo>,
    bytes: usize,
}

/// Every completed query since the last pickup.
pub struct ServerHistory {
    held: Mutex<Held>,
}

fn approx_size(q: &QueryInfo) -> usize {
    std::mem::size_of::<QueryInfo>()
        + q.text.len()
        + q.user.len()
        + q.application.len()
        + q.procedure.as_ref().map_or(0, |p| p.len())
}

impl ServerHistory {
    /// A history attached to `engine`: it keeps every query completed from now on.
    pub fn attach(engine: &Engine) -> Arc<ServerHistory> {
        let history = Arc::new(ServerHistory {
            held: Mutex::default(),
        });
        engine.attach_monitor(history.clone());
        history
    }

    /// Take everything kept so far, erasing the server-side copy — the
    /// "picked up" semantics of the paper.
    pub fn drain(&self) -> Vec<QueryInfo> {
        std::mem::take(&mut *self.held.lock()).entries
    }

    /// Approximate bytes currently held server-side.
    pub fn usage(&self) -> usize {
        self.held.lock().bytes
    }
}

impl Instrumentation for ServerHistory {
    fn on_event(&self, event: &EngineEvent) {
        if let EngineEvent::QueryCommit(q)
        | EngineEvent::QueryRollback(q)
        | EngineEvent::QueryCancel(q) = event
        {
            let mut held = self.held.lock();
            held.bytes += approx_size(q);
            held.entries.push(q.clone());
        }
    }

    fn name(&self) -> &str {
        "server_history"
    }

    fn wants(&self, kind: ProbeKind) -> bool {
        matches!(
            kind,
            ProbeKind::QueryCommit | ProbeKind::QueryRollback | ProbeKind::QueryCancel
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_common::{Error, QueryType, Value};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Records the query each completion probe carries.
    #[derive(Default)]
    struct Spy(Mutex<Vec<QueryInfo>>);

    impl Instrumentation for Spy {
        fn on_event(&self, event: &EngineEvent) {
            if let EngineEvent::QueryCommit(q)
            | EngineEvent::QueryRollback(q)
            | EngineEvent::QueryCancel(q) = event
            {
                self.0.lock().push(q.clone());
            }
        }

        fn name(&self) -> &str {
            "spy"
        }
    }

    /// Cancels the first SELECT as it starts.
    struct CancelFirstSelect {
        engine: Arc<sqlcm_engine::engine::EngineInner>,
        fired: AtomicBool,
    }

    impl Instrumentation for CancelFirstSelect {
        fn on_event(&self, event: &EngineEvent) {
            if let EngineEvent::QueryStart(q) = event {
                if q.query_type == QueryType::Select && !self.fired.swap(true, Ordering::SeqCst) {
                    self.engine.cancel_query(q.id);
                }
            }
        }

        fn name(&self) -> &str {
            "cancel-first-select"
        }
    }

    #[test]
    fn each_completion_reaches_the_history_once_as_its_probe_carried_it() {
        let engine = Engine::in_memory();
        engine
            .execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
            .unwrap();
        let history = ServerHistory::attach(&engine);
        let spy = Arc::new(Spy::default());
        engine.attach_monitor(spy.clone());
        engine.attach_monitor(Arc::new(CancelFirstSelect {
            engine: engine.handle(),
            fired: AtomicBool::new(false),
        }));
        let mut s = engine.connect("u", "a");
        s.execute_params("INSERT INTO t VALUES (?, 1)", &[Value::Int(1)])
            .unwrap();
        assert!(s.execute("INSERT INTO t VALUES (1, 2)").is_err());
        assert_eq!(
            s.execute("SELECT id FROM t WHERE v >= 0").unwrap_err(),
            Error::Cancelled
        );

        let kept = history.drain();
        assert_eq!(kept.len(), 3, "one entry per completed query");
        assert_eq!(kept, *spy.0.lock(), "the probes' own snapshots");
        let ids: Vec<u64> = kept.iter().map(|q| q.id).collect();
        assert!(ids[0] < ids[1] && ids[1] < ids[2], "{ids:?}");
        assert!(
            history.drain().is_empty(),
            "a pickup erases the server copy"
        );
        assert_eq!(history.usage(), 0);
    }

    #[test]
    fn usage_grows_with_each_query_and_clears_on_drain() {
        let engine = Engine::in_memory();
        let history = ServerHistory::attach(&engine);
        engine.query("SELECT 1").unwrap();
        let one = history.usage();
        assert!(one > std::mem::size_of::<QueryInfo>());
        engine.query("SELECT 1").unwrap();
        assert_eq!(history.usage(), 2 * one);
        assert_eq!(history.drain().len(), 2);
        assert_eq!(history.usage(), 0);
    }
}
