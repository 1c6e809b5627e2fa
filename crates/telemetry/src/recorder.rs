//! Bounded rings of recent rule firings ("flight recorder"), one per
//! dispatcher stripe.
//!
//! When a test fails or a cancel storm trips rules faster than anyone can
//! watch, the question is always "what were the last things the monitor did?"
//! The recorder keeps the answer. Each dispatcher stripe ([`Stripes`]) has its
//! own lane: a fixed-depth ring of [`FlightRecord`] slots, overwritten in
//! place once full. A firing takes only its own lane's lock — uncontended
//! while no more threads dispatch than there are stripes — and writes no
//! cache line another dispatcher writes. It hands its labels in borrowed, and
//! a slot clones a label only when it holds a different one, so a rule that
//! fires again and again touches no shared reference count.
//!
//! A lane numbers its records itself: `seq` packs (lane tag, lane-local
//! sequence), the tag shared with the tracer's lane on the same stripe
//! ([`LaneTags`]), so a gap within one lane means records were evicted, not
//! lost. [`FlightRecorder::snapshot`] merges the lanes by
//! `(stamp, seq)` — the stamp is the one the causing event entered the
//! monitor with, held back so it never runs backwards within a lane — and
//! keeps the newest `capacity` records; one dispatcher's records keep their
//! exact order. Memory is bounded by stripes × capacity records for the
//! recorder's lifetime. Records carry the active trace ID so they cross-link
//! with the causal traces of `sqlcm-core::trace`.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::ring::lock;
use crate::stripe::{LaneTags, Stripes};
use crate::{Describe, Field, Metric, Stamp};

#[cfg(debug_assertions)]
thread_local! {
    static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A name a record carries: an `Arc<str>` made once where the name is known
/// (a rule's, at registration) and cloned into each record without
/// allocating. Reads and compares as the `str` it holds.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Label(Arc<str>);

impl Label {
    /// Reference-count increments label clones made on this thread: what
    /// the label-reuse pins count. Debug builds only.
    #[cfg(debug_assertions)]
    pub fn clones_on_this_thread() -> u64 {
        CLONES.with(std::cell::Cell::get)
    }
}

impl Clone for Label {
    fn clone(&self) -> Label {
        #[cfg(debug_assertions)]
        CLONES.with(|c| c.set(c.get() + 1));
        Label(Arc::clone(&self.0))
    }

    /// Keeps the held `Arc` when `source` holds the same one: a slot
    /// overwritten with the label it already has touches no reference count.
    fn clone_from(&mut self, source: &Label) {
        if !Arc::ptr_eq(&self.0, &source.0) {
            *self = source.clone();
        }
    }
}

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightRecord {
    /// The record's lane and its place there, packed as
    /// `tag << LANE_SHIFT | sequence`; gaps within one lane mean records
    /// were evicted, not lost.
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

/// A firing as the dispatcher hands it to [`FlightRecorder::record`]: a
/// record's fields, its labels borrowed, and `at`, when the causing event
/// entered the monitor.
#[derive(Debug, Clone, Copy)]
pub struct Firing<'a> {
    pub at: Stamp,
    pub event: &'a Label,
    pub rule: &'a Label,
    pub fired: bool,
    pub actions: u32,
    pub errors: u32,
    pub duration_nanos: u64,
    pub trace_id: u64,
}

/// One stripe's ring, on cache lines of its own. A record is written field
/// by field into a slot that always holds a whole record, so a panicking
/// holder leaves the ring usable ([`lock`]).
#[repr(align(64))]
struct Lane(Mutex<Ring>);

/// A lane's records, and how far it has got.
#[derive(Default)]
struct Ring {
    /// Records this lane ever took.
    recorded: u64,
    /// The newest record's merge stamp.
    latest: Option<Stamp>,
    /// The slot the next record writes.
    next: usize,
    /// Records with their merge stamps: the firing's `at`, held back to the
    /// lane's previous stamp if earlier. Grows to the recorder's capacity
    /// once, then is overwritten in place.
    slots: Vec<(Stamp, FlightRecord)>,
}

/// [`FlightRecord`] rings, one per dispatcher stripe, of a fixed depth each.
pub struct FlightRecorder {
    capacity: usize,
    tags: Arc<LaneTags>,
    lanes: Stripes<Lane>,
}

impl FlightRecorder {
    /// Rings of `capacity` records (clamped to at least 1), the bound on a
    /// merged snapshot too.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            tags: Arc::default(),
            lanes: Stripes::new(|| {
                let slots = Vec::with_capacity(capacity);
                Lane(Mutex::new(Ring {
                    slots,
                    ..Ring::default()
                }))
            }),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The lane tags `seq` is packed with, for another per-stripe recorder
    /// to share.
    pub fn lane_tags(&self) -> &Arc<LaneTags> {
        &self.tags
    }

    /// Append a record to the calling dispatcher's lane, overwriting its
    /// oldest at capacity. The lane assigns `seq`.
    pub fn record(&self, f: Firing<'_>) {
        let mut ring = lock(&self.lanes.mine().0);
        let ring = &mut *ring;
        let seq = self.tags.mine() | ring.recorded;
        let at = *ring
            .latest
            .insert(ring.latest.map_or(f.at, |l| l.max(f.at)));
        if ring.next == ring.slots.len() {
            ring.slots.push((at, FlightRecord::default()));
        }
        let (slot_at, slot) = &mut ring.slots[ring.next];
        slot.event.clone_from(f.event);
        slot.rule.clone_from(f.rule);
        (*slot_at, slot.seq, slot.fired, slot.actions) = (at, seq, f.fired, f.actions);
        (slot.errors, slot.duration_nanos) = (f.errors, f.duration_nanos);
        slot.trace_id = f.trace_id;
        ring.next += 1;
        if ring.next == self.capacity {
            ring.next = 0;
        }
        ring.recorded += 1;
    }

    fn rings(&self) -> impl Iterator<Item = MutexGuard<'_, Ring>> {
        self.lanes.iter().map(|l| lock(&l.0))
    }

    /// Records ever appended (including evicted ones), summed over the
    /// lanes.
    pub fn total_recorded(&self) -> u64 {
        self.rings().map(|r| r.recorded).sum()
    }

    /// Records a snapshot returns.
    pub fn len(&self) -> usize {
        self.capacity.min(self.rings().map(|r| r.slots.len()).sum())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The newest `capacity` records of all lanes, oldest first, ordered by
    /// `(merge stamp, seq)`: each lane's records in the order it took them.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        self.merged().into_iter().map(|(_, r)| r).collect()
    }

    /// [`FlightRecorder::snapshot`] with each record's merge stamp.
    fn merged(&self) -> Vec<(Stamp, FlightRecord)> {
        let mut all: Vec<_> = self.rings().flat_map(|r| r.slots.clone()).collect();
        all.sort_unstable_by_key(|(at, r)| (*at, r.seq));
        all.drain(..all.len().saturating_sub(self.capacity));
        all
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

    /// A firing of `rule` now. Its labels live as long as the test binary.
    fn rec(rule: &str) -> Firing<'static> {
        Firing {
            at: Stamp::now(),
            event: Box::leak(Box::new("Query.Commit".into())),
            rule: Box::leak(Box::new(rule.into())),
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

    #[cfg(debug_assertions)]
    #[test]
    fn a_wrapped_lane_keeps_the_labels_its_slots_hold() {
        let r = FlightRecorder::new(4);
        let (event, a, b): (Label, Label, Label) = ("e".into(), "a".into(), "b".into());
        let template = rec("a");
        let firing = |rule| Firing {
            event: &event,
            rule,
            ..template
        };
        let clones = |f: &dyn Fn()| {
            let before = Label::clones_on_this_thread();
            f();
            Label::clones_on_this_thread() - before
        };
        // Filling the ring clones both labels into each new slot.
        assert_eq!(clones(&|| (0..4).for_each(|_| r.record(firing(&a)))), 8);
        // Overwriting a slot with the labels it holds clones neither.
        assert_eq!(clones(&|| (0..40).for_each(|_| r.record(firing(&a)))), 0);
        // A new rule is cloned into each slot once, then reused there too.
        assert_eq!(clones(&|| (0..40).for_each(|_| r.record(firing(&b)))), 4);
        assert!(r.snapshot().iter().all(|x| x.rule == "b"));
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
        // The snapshot is strictly ordered by the merge key.
        let snap = r.merged();
        assert!(snap
            .windows(2)
            .all(|w| (w[0].0, w[0].1.seq) < (w[1].0, w[1].1.seq)));
    }
}
