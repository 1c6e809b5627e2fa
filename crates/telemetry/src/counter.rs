//! Striped atomic counter: uncontended increments, summing reads.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stripe::Stripes;

/// One counter stripe, padded to a cache line so neighbouring stripes of the
/// same counter never false-share.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

/// A monotonically increasing counter optimised for concurrent writers: one
/// cache-line stripe per dispatcher slot ([`Stripes`]), so threads that
/// are live together increment different lines while there are no more of
/// them than stripes.
///
/// `add` touches only the calling thread's stripe; `get` sums all stripes.
/// The sum is not a linearizable snapshot under concurrent writes (like any
/// striped counter), but is exact once writers are quiescent — which is when
/// telemetry snapshots are taken.
#[derive(Default)]
pub struct ShardedCounter {
    shards: Stripes<Shard>,
}

impl ShardedCounter {
    pub fn new() -> ShardedCounter {
        ShardedCounter::default()
    }

    /// Add `n`; returns the calling thread's stripe after the add — what a
    /// dispatcher can pace its own periodic work by, without reading the
    /// other stripes.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.shards.mine().0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Add one; returns the calling thread's stripe after the add.
    #[inline]
    pub fn incr(&self) -> u64 {
        self.add(1)
    }

    /// Sum of all stripes.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ShardedCounter").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn single_thread_counts() {
        let c = ShardedCounter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    /// Eight threads live at once hold eight distinct slots, which wrap onto
    /// fewer stripes whenever the machine has fewer than eight: shared
    /// stripes still lose no increment.
    #[test]
    fn concurrent_increments_sum_exactly() {
        const THREADS: usize = 8;
        let c = Arc::new(ShardedCounter::new());
        let start = Arc::new(Barrier::new(THREADS));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let (c, start) = (Arc::clone(&c), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
