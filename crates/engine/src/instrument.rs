//! The instrumentation boundary between the engine and attached monitors.
//!
//! The engine calls [`Instrumentation::on_event`] at every probe point,
//! synchronously, in the thread that raised the event; control returns to the
//! execution path when the call returns (paper §6.1: "rule evaluation is
//! triggered in the code path of the event … branching into the SQLCM code and
//! then resuming execution afterwards. Thus no context switching is required").
//!
//! SQLCM (`sqlcm-core`), the `Query_logging` baseline, and test spies all
//! implement this trait. [`Multicast`] fans one event out to several monitors in
//! registration order.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use sqlcm_common::{EngineEvent, ProbeKind, ProbeMask};

/// A monitor attached to the engine. Implementations must be cheap: they run on
/// the query's own thread.
pub trait Instrumentation: Send + Sync {
    /// Called at each probe point. Must not panic; errors must be swallowed or
    /// recorded internally (a monitoring failure must never fail a query).
    fn on_event(&self, event: &EngineEvent);

    /// Declare interest in a probe kind. The engine skips *assembling* events
    /// no attached monitor wants — the paper's "no monitoring is performed
    /// unless it is required by a rule" (§2.1). Default: everything.
    fn wants(&self, _kind: ProbeKind) -> bool {
        true
    }

    /// Monitors that need lock-graph traversal (timer-driven Blocker/Blocked
    /// rules) receive the engine handle after attachment via `sqlcm-core`'s own
    /// channel; the trait itself stays minimal.
    fn name(&self) -> &str {
        "anonymous-monitor"
    }
}

/// A monitor that ignores everything (the "no monitoring" baseline).
#[derive(Debug, Default)]
pub struct NullInstrumentation;

impl Instrumentation for NullInstrumentation {
    fn on_event(&self, _event: &EngineEvent) {}

    fn name(&self) -> &str {
        "null"
    }
}

/// Fan-out to any number of dynamically attached monitors.
///
/// Detachment is supported so benches can attach/detach SQLCM between phases of
/// the same engine lifetime.
///
/// The union of every sink's [`Instrumentation::wants`] answers is cached as a
/// per-kind bitmask, so the probe hot path decides "does *anyone* want this?"
/// with one relaxed atomic load instead of querying every monitor per event.
/// The mask is recomputed on [`attach`](Multicast::attach) /
/// [`detach`](Multicast::detach); a monitor whose interest changes while
/// attached (SQLCM's does, whenever a rule is added or removed) must call
/// [`refresh_interest`](Multicast::refresh_interest).
#[derive(Default)]
pub struct Multicast {
    sinks: RwLock<Vec<Arc<dyn Instrumentation>>>,
    /// [`ProbeMask`] bits: bit `ProbeKind::index()` is set iff some attached
    /// sink wants that kind.
    interest: AtomicU32,
}

impl Multicast {
    pub fn new() -> Self {
        Multicast::default()
    }

    fn interest_of(sinks: &[Arc<dyn Instrumentation>]) -> ProbeMask {
        let mut mask = ProbeMask::EMPTY;
        for sink in sinks {
            for kind in ProbeKind::ALL {
                if sink.wants(kind) {
                    mask.set(kind);
                }
            }
        }
        mask
    }

    /// The cached union interest mask (one relaxed load; for telemetry/tests).
    pub fn interest(&self) -> ProbeMask {
        ProbeMask::from_bits(self.interest.load(Ordering::Acquire))
    }

    /// Recompute the cached interest bitmask from the attached sinks. Cheap
    /// (called per attach/detach/rule change, never per event).
    pub fn refresh_interest(&self) {
        let sinks = self.sinks.read();
        self.interest
            .store(Multicast::interest_of(&sinks).bits(), Ordering::Release);
    }

    /// Attach a monitor; it starts receiving events immediately.
    pub fn attach(&self, sink: Arc<dyn Instrumentation>) {
        let mut sinks = self.sinks.write();
        sinks.push(sink);
        self.interest
            .store(Multicast::interest_of(&sinks).bits(), Ordering::Release);
    }

    /// Detach by name; returns true when a monitor was removed.
    pub fn detach(&self, name: &str) -> bool {
        self.detach_where(|s| s.name() == name)
    }

    /// Detach one specific monitor by identity (other monitors sharing its
    /// name stay attached); returns true when it was attached.
    pub fn detach_sink(&self, sink: &Arc<dyn Instrumentation>) -> bool {
        self.detach_where(|s| std::ptr::addr_eq(Arc::as_ptr(s), Arc::as_ptr(sink)))
    }

    fn detach_where(&self, gone: impl Fn(&Arc<dyn Instrumentation>) -> bool) -> bool {
        let mut sinks = self.sinks.write();
        let before = sinks.len();
        sinks.retain(|s| !gone(s));
        self.interest
            .store(Multicast::interest_of(&sinks).bits(), Ordering::Release);
        sinks.len() != before
    }

    /// Number of attached monitors.
    pub fn len(&self) -> usize {
        self.sinks.read().len()
    }

    /// True when no monitor is attached (the hot path checks this to skip event
    /// assembly entirely — "no monitoring is performed unless it is required").
    pub fn is_empty(&self) -> bool {
        self.sinks.read().is_empty()
    }

    /// Deliver an event to every attached monitor, in attach order.
    pub fn emit(&self, event: &EngineEvent) {
        for sink in self.sinks.read().iter() {
            sink.on_event(event);
        }
    }

    /// Build an event lazily and deliver it only to monitors that declared
    /// interest in `kind`; skip construction entirely when nobody did. The
    /// no-listener fast path is a single atomic load of the cached bitmask.
    pub fn emit_with_kind(&self, kind: ProbeKind, make: impl FnOnce() -> EngineEvent) {
        if !self.interest().contains(kind) {
            return;
        }
        let sinks = self.sinks.read();
        let event = make();
        debug_assert_eq!(event.kind(), kind, "emitted event must match its kind");
        for sink in sinks.iter() {
            if sink.wants(kind) {
                sink.on_event(&event);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use parking_lot::Mutex;

    /// Records every event it sees; used across the engine's unit tests.
    #[derive(Default)]
    pub struct Spy {
        pub events: Mutex<Vec<EngineEvent>>,
    }

    impl Instrumentation for Spy {
        fn on_event(&self, event: &EngineEvent) {
            self.events.lock().push(event.clone());
        }

        fn name(&self) -> &str {
            "spy"
        }
    }

    impl Spy {
        pub fn names(&self) -> Vec<&'static str> {
            self.events.lock().iter().map(|e| e.name()).collect()
        }

        /// The queries of every `Query.Commit`, `Rollback` and `Cancel` seen.
        pub fn completed(&self) -> Vec<sqlcm_common::QueryInfo> {
            self.events
                .lock()
                .iter()
                .filter_map(|e| match e {
                    EngineEvent::QueryCommit(q)
                    | EngineEvent::QueryRollback(q)
                    | EngineEvent::QueryCancel(q) => Some(q.clone()),
                    _ => None,
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::Spy;
    use super::*;
    use sqlcm_common::QueryInfo;

    #[test]
    fn multicast_attach_detach() {
        let m = Multicast::new();
        assert!(m.is_empty());
        let spy = Arc::new(Spy::default());
        m.attach(spy.clone());
        assert_eq!(m.len(), 1);
        m.emit(&EngineEvent::QueryStart(QueryInfo::synthetic(1, "q")));
        assert_eq!(spy.events.lock().len(), 1);
        assert!(m.detach("spy"));
        assert!(!m.detach("spy"));
        m.emit(&EngineEvent::QueryStart(QueryInfo::synthetic(2, "q")));
        assert_eq!(spy.events.lock().len(), 1, "detached monitor sees nothing");
    }

    #[test]
    fn emit_with_skips_construction_when_empty() {
        let m = Multicast::new();
        let mut built = false;
        m.emit_with_kind(sqlcm_common::ProbeKind::QueryStart, || {
            built = true;
            EngineEvent::QueryStart(QueryInfo::synthetic(1, "q"))
        });
        assert!(!built, "event must not be constructed with no listeners");
    }

    /// A sink that only wants commits.
    struct CommitOnly(Mutex<u32>);
    impl Instrumentation for CommitOnly {
        fn on_event(&self, _e: &EngineEvent) {
            *self.0.lock() += 1;
        }
        fn wants(&self, kind: sqlcm_common::ProbeKind) -> bool {
            kind == sqlcm_common::ProbeKind::QueryCommit
        }
        fn name(&self) -> &str {
            "commit-only"
        }
    }
    use parking_lot::Mutex;

    #[test]
    fn wants_filters_construction_and_delivery() {
        let m = Multicast::new();
        let sink = Arc::new(CommitOnly(Mutex::new(0)));
        m.attach(sink.clone());
        let mut built = 0;
        m.emit_with_kind(sqlcm_common::ProbeKind::QueryStart, || {
            built += 1;
            EngineEvent::QueryStart(QueryInfo::synthetic(1, "q"))
        });
        m.emit_with_kind(sqlcm_common::ProbeKind::QueryCommit, || {
            built += 1;
            EngineEvent::QueryCommit(QueryInfo::synthetic(1, "q"))
        });
        assert_eq!(built, 1, "unwanted event never assembled");
        assert_eq!(*sink.0.lock(), 1);
    }

    /// A sink whose interest can be flipped after attachment, like SQLCM's
    /// (whose `wants` answers depend on the registered rules).
    struct Toggle {
        interested: std::sync::atomic::AtomicBool,
        seen: Mutex<u32>,
    }
    impl Instrumentation for Toggle {
        fn on_event(&self, _e: &EngineEvent) {
            *self.seen.lock() += 1;
        }
        fn wants(&self, _kind: ProbeKind) -> bool {
            self.interested.load(Ordering::Relaxed)
        }
        fn name(&self) -> &str {
            "toggle"
        }
    }

    #[test]
    fn refresh_interest_picks_up_dynamic_wants() {
        let m = Multicast::new();
        let sink = Arc::new(Toggle {
            interested: std::sync::atomic::AtomicBool::new(false),
            seen: Mutex::new(0),
        });
        m.attach(sink.clone());
        let mut built = 0;
        let emit = |m: &Multicast, built: &mut u32| {
            m.emit_with_kind(ProbeKind::QueryCommit, || {
                *built += 1;
                EngineEvent::QueryCommit(QueryInfo::synthetic(1, "q"))
            });
        };
        emit(&m, &mut built);
        assert_eq!(built, 0, "mask cached at attach: not interested");
        sink.interested.store(true, Ordering::Relaxed);
        emit(&m, &mut built);
        assert_eq!(built, 0, "stale mask until refresh_interest");
        m.refresh_interest();
        emit(&m, &mut built);
        assert_eq!(built, 1);
        assert_eq!(*sink.seen.lock(), 1);
        sink.interested.store(false, Ordering::Relaxed);
        m.refresh_interest();
        emit(&m, &mut built);
        assert_eq!(built, 1, "refresh also clears bits");
    }

    /// A sink that tags deliveries into a shared log, to observe fan-out order.
    struct Tagged(&'static str, Arc<Mutex<Vec<&'static str>>>);
    impl Instrumentation for Tagged {
        fn on_event(&self, _e: &EngineEvent) {
            self.1.lock().push(self.0);
        }
        fn name(&self) -> &str {
            self.0
        }
    }

    #[test]
    fn fan_out_follows_attach_order() {
        let m = Multicast::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in ["first", "second", "third"] {
            m.attach(Arc::new(Tagged(tag, log.clone())));
        }
        m.emit_with_kind(ProbeKind::QueryCommit, || {
            EngineEvent::QueryCommit(QueryInfo::synthetic(1, "q"))
        });
        m.emit(&EngineEvent::QueryStart(QueryInfo::synthetic(2, "q")));
        assert_eq!(
            *log.lock(),
            vec!["first", "second", "third", "first", "second", "third"]
        );
        // Detaching the middle sink preserves the relative order of the rest.
        assert!(m.detach("second"));
        log.lock().clear();
        m.emit_with_kind(ProbeKind::QueryCommit, || {
            EngineEvent::QueryCommit(QueryInfo::synthetic(3, "q"))
        });
        assert_eq!(*log.lock(), vec!["first", "third"]);
    }
}
