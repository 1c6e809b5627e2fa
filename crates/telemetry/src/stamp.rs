//! Stamps: the one place the event path reads `Instant`.
//!
//! A span is the distance between two stamps, and adjacent spans share the
//! stamp between them: one read ends a span and starts the next. The monitor
//! stamps every event's entry and exit, and a rule's condition and firing
//! spans on the rule's own sampling schedule, so a span that is not timed
//! reads nothing.

use std::time::Instant;

#[cfg(debug_assertions)]
thread_local! {
    static READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One reading of the monotonic clock; stamps order as their readings do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp(Instant);

impl Stamp {
    pub fn now() -> Stamp {
        #[cfg(debug_assertions)]
        READS.with(|r| r.set(r.get() + 1));
        Stamp(Instant::now())
    }

    /// Nanoseconds from `earlier` to this stamp (0 if `earlier` is later).
    pub fn nanos_since(self, earlier: Stamp) -> u64 {
        // Saturating: a u64 of nanoseconds covers ~584 years.
        let nanos = self.0.saturating_duration_since(earlier.0).as_nanos();
        nanos.min(u64::MAX as u128) as u64
    }

    /// [`Stamp::now`] calls this thread has made: what the clock-read pins
    /// count. Debug builds only — a release build counts nothing.
    #[cfg(debug_assertions)]
    pub fn reads_on_this_thread() -> u64 {
        READS.with(std::cell::Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_spans_partition_the_whole() {
        let a = Stamp::now();
        std::hint::black_box(17u64);
        let b = Stamp::now();
        let c = Stamp::now();
        assert_eq!(
            b.nanos_since(a) + c.nanos_since(b),
            c.nanos_since(a),
            "spans derived from adjacent stamps telescope exactly"
        );
        assert_eq!(a.nanos_since(c), 0, "saturates backwards");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn reads_are_counted_per_thread() {
        let before = Stamp::reads_on_this_thread();
        let _ = (Stamp::now(), Stamp::now());
        assert_eq!(Stamp::reads_on_this_thread() - before, 2);
        let elsewhere = std::thread::spawn(Stamp::reads_on_this_thread)
            .join()
            .expect("the spawned thread only reads a counter");
        assert_eq!(elsewhere, 0);
    }
}
