//! Bounded ring of recent rule firings ("flight recorder").
//!
//! When a test fails or a cancel storm trips rules faster than anyone can
//! watch, the question is always "what were the last things the monitor did?"
//! The recorder keeps the answer: a fixed-capacity ring of [`FlightRecord`]s,
//! oldest evicted first, with a monotone sequence number so wraparound is
//! visible in the output. The depth is fixed at construction, so the ring's
//! memory is bounded for the recorder's lifetime, and records carry the
//! active trace ID so they cross-link with the causal traces of
//! `sqlcm-core::trace`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::{Describe, Field, Metric};

/// A name a record carries: an `Arc<str>` made once where the name is known
/// (a rule's, at registration) and cloned into each record without
/// allocating. Reads and compares as the `str` it holds.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Label(Arc<str>);

impl std::ops::Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl<T: Into<Arc<str>>> From<T> for Label {
    fn from(name: T) -> Label {
        Label(name.into())
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&*self.0, f)
    }
}

/// One recorded rule evaluation that fired (or errored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotone sequence number across the recorder's lifetime; gaps in a
    /// snapshot mean records were evicted, not lost.
    pub seq: u64,
    /// Triggering event, e.g. `"Query.Commit"`.
    pub event: Label,
    /// Rule name.
    pub rule: Label,
    /// Condition outcome (false only for recorded condition errors).
    pub fired: bool,
    /// Actions executed.
    pub actions: u32,
    /// Condition/action errors encountered.
    pub errors: u32,
    /// Whole evaluation (condition + actions), nanoseconds.
    pub duration_nanos: u64,
    /// Causal-trace ID active when the evaluation ran (0 = not traced), so
    /// recorder entries cross-link with `Sqlcm::traces()` snapshots.
    pub trace_id: u64,
}

impl Describe for FlightRecord {
    const FIELDS: &'static [Field<Self>] = &[
        ("seq", |r| Metric::Count(r.seq)),
        ("event", |r| Metric::Label(&r.event)),
        ("rule", |r| Metric::Label(&r.rule)),
        ("fired", |r| Metric::Flag(r.fired)),
        ("actions", |r| Metric::Count(r.actions.into())),
        ("errors", |r| Metric::Count(r.errors.into())),
        ("duration_nanos", |r| Metric::Count(r.duration_nanos)),
        ("trace_id", |r| Metric::Count(r.trace_id)),
    ];
}

struct Ring {
    next_seq: u64,
    buf: VecDeque<FlightRecord>,
}

/// Thread-safe ring of [`FlightRecord`]s with a fixed capacity.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// A ring of `capacity` records (clamped to at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(Ring {
                next_seq: 0,
                buf: VecDeque::with_capacity(capacity),
            }),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a record, evicting the oldest at capacity. The record's `seq`
    /// is assigned by the recorder; the total ever recorded is returned.
    pub fn record(&self, mut rec: FlightRecord) -> u64 {
        let mut ring = self.ring.lock().unwrap();
        rec.seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.buf.len() == self.capacity {
            ring.buf.pop_front();
        }
        ring.buf.push_back(rec);
        ring.next_seq
    }

    /// Records ever appended (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.ring.lock().unwrap().next_seq
    }

    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current contents, oldest first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        self.ring.lock().unwrap().buf.iter().cloned().collect()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("total_recorded", &self.total_recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rule: &str) -> FlightRecord {
        FlightRecord {
            seq: 0,
            event: "Query.Commit".into(),
            rule: rule.into(),
            fired: true,
            actions: 1,
            errors: 0,
            duration_nanos: 42,
            trace_id: 0,
        }
    }

    #[test]
    fn keeps_insertion_order_below_capacity() {
        let r = FlightRecorder::new(4);
        r.record(rec("a"));
        r.record(rec("b"));
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].rule, "a");
        assert_eq!(snap[1].rule, "b");
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[1].seq, 1);
    }

    #[test]
    fn wraparound_evicts_oldest_and_keeps_seq() {
        let r = FlightRecorder::new(3);
        for name in ["a", "b", "c", "d", "e"] {
            r.record(rec(name));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_recorded(), 5);
        let snap = r.snapshot();
        let rules: Vec<&str> = snap.iter().map(|x| &*x.rule).collect();
        assert_eq!(rules, ["c", "d", "e"]);
        let seqs: Vec<u64> = snap.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, [2, 3, 4], "sequence numbers survive eviction");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let r = FlightRecorder::new(0);
        assert_eq!(r.capacity(), 1);
        r.record(rec("a"));
        r.record(rec("b"));
        assert_eq!(r.snapshot()[0].rule, "b");
    }

    #[test]
    fn trace_id_rides_along() {
        let r = FlightRecorder::new(2);
        let mut traced = rec("a");
        traced.trace_id = 77;
        r.record(traced);
        assert_eq!(r.snapshot()[0].trace_id, 77);
    }

    #[test]
    fn concurrent_records_never_exceed_capacity() {
        let r = std::sync::Arc::new(FlightRecorder::new(8));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.record(rec("t"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.len(), 8);
        assert_eq!(r.total_recorded(), 4000);
        // Snapshot seqs are strictly increasing.
        let snap = r.snapshot();
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
