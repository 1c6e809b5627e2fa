//! Generic bounded ring (drop-oldest) and buffer pool — the storage
//! primitives behind the causal-trace subsystem in `sqlcm-core::trace`.
//!
//! * [`BoundedRing`] keeps the most recent N items, evicting the oldest on
//!   overflow and *returning* the evicted item to the caller so its backing
//!   buffers can be recycled instead of freed.
//! * [`BufferPool`] recycles `Vec<T>` backing storage across uses (bounded,
//!   so a burst cannot hoard memory forever).
//!
//! Both are touched once per *completed trace* — sampled, not per event —
//! and the tracer keeps one of each per dispatcher stripe, so each one's
//! mutex is taken by its own stripe's dispatcher and by readers only: the
//! event hot path itself never reaches these types (per-thread staging
//! buffers are handed over whole on trace completion), and the disabled path
//! never even samples. A panic while a lock is held (a `T` whose `Clone`
//! panics inside [`BoundedRing::snapshot`]) leaves the ring whole, so later
//! callers take the lock as it is instead of panicking in turn.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Take `m` whatever a panicking holder left poisoned. For this crate's
/// rings and pools only: each of their updates leaves the data whole at
/// every step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fixed-capacity, thread-safe ring that drops the oldest item on overflow.
#[derive(Debug)]
pub struct BoundedRing<T> {
    capacity: usize,
    /// Items evicted by overflow since creation.
    dropped: AtomicU64,
    /// Items ever pushed (including later-evicted ones).
    total: AtomicU64,
    buf: Mutex<VecDeque<T>>,
}

impl<T> BoundedRing<T> {
    /// Capacity is clamped to at least 1.
    pub fn new(capacity: usize) -> BoundedRing<T> {
        let capacity = capacity.max(1);
        BoundedRing {
            capacity,
            dropped: AtomicU64::new(0),
            total: AtomicU64::new(0),
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append an item; at capacity the oldest is evicted and returned so the
    /// caller can recycle its buffers.
    pub fn push(&self, item: T) -> Option<T> {
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut buf = lock(&self.buf);
        let evicted = if buf.len() == self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            buf.pop_front()
        } else {
            None
        };
        buf.push_back(item);
        evicted
    }

    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items evicted by overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Items ever pushed (including evicted ones).
    pub fn total_pushed(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Drain the ring, returning the contents oldest-first (for recycling).
    pub fn drain(&self) -> Vec<T> {
        lock(&self.buf).drain(..).collect()
    }
}

impl<T: Clone> BoundedRing<T> {
    /// Current contents, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        lock(&self.buf).iter().cloned().collect()
    }
}

/// Bounded pool of reusable `Vec<T>` buffers. `take` hands out a cleared
/// buffer (pooled capacity preserved); `put` returns one, dropping it when
/// the pool is full so a burst cannot hoard memory.
#[derive(Debug)]
pub struct BufferPool<T> {
    bound: usize,
    bufs: Mutex<Vec<Vec<T>>>,
}

impl<T> BufferPool<T> {
    pub fn new(bound: usize) -> BufferPool<T> {
        BufferPool {
            bound: bound.max(1),
            bufs: Mutex::new(Vec::new()),
        }
    }

    /// A cleared buffer, reusing pooled backing storage when available.
    pub fn take(&self) -> Vec<T> {
        lock(&self.bufs).pop().unwrap_or_default()
    }

    /// Return a buffer to the pool. Contents are cleared; the allocation is
    /// kept only while the pool is under its bound.
    pub fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        let mut bufs = lock(&self.bufs);
        if bufs.len() < self.bound {
            bufs.push(buf);
        }
    }

    /// Buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        lock(&self.bufs).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let ring: BoundedRing<u32> = BoundedRing::new(3);
        assert_eq!(ring.push(1), None);
        assert_eq!(ring.push(2), None);
        assert_eq!(ring.push(3), None);
        assert_eq!(ring.push(4), Some(1), "oldest comes back for recycling");
        assert_eq!(ring.push(5), Some(2));
        assert_eq!(ring.snapshot(), vec![3, 4, 5]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.total_pushed(), 5);
    }

    #[test]
    fn ring_zero_capacity_is_clamped() {
        let ring: BoundedRing<u8> = BoundedRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(1);
        assert_eq!(ring.push(2), Some(1));
        assert_eq!(ring.snapshot(), vec![2]);
    }

    #[test]
    fn ring_drain_empties_and_preserves_order() {
        let ring: BoundedRing<u32> = BoundedRing::new(4);
        for i in 0..4 {
            ring.push(i);
        }
        assert_eq!(ring.drain(), vec![0, 1, 2, 3]);
        assert!(ring.is_empty());
        // Drain does not count as drop.
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_concurrent_pushes_stay_bounded() {
        let ring = std::sync::Arc::new(BoundedRing::new(8));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ring.push(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.total_pushed(), 4000);
        assert_eq!(ring.dropped(), 4000 - 8);
    }

    /// A `u8` whose clone panics when it is 0.
    #[derive(Debug, PartialEq)]
    struct Fuse(u8);

    impl Clone for Fuse {
        fn clone(&self) -> Fuse {
            assert_ne!(self.0, 0, "a blown fuse does not clone");
            Fuse(self.0)
        }
    }

    #[test]
    fn a_panic_inside_snapshot_does_not_poison_later_callers() {
        let ring = std::sync::Arc::new(BoundedRing::new(1));
        ring.push(Fuse(0));
        let reader = std::sync::Arc::clone(&ring);
        let blown = std::thread::spawn(move || reader.snapshot()).join();
        assert!(blown.is_err(), "the clone panicked holding the lock");
        let writer = std::sync::Arc::clone(&ring);
        let later = std::thread::spawn(move || {
            assert_eq!(writer.push(Fuse(1)), Some(Fuse(0)));
            writer.snapshot()
        });
        assert_eq!(later.join().unwrap(), vec![Fuse(1)]);
    }

    #[test]
    fn pool_reuses_backing_storage_up_to_bound() {
        let pool: BufferPool<u64> = BufferPool::new(2);
        let mut a = pool.take();
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.pooled(), 1);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "backing storage is reused");
        // Over-filling the pool drops the excess buffer.
        pool.put(Vec::new());
        pool.put(Vec::new());
        pool.put(Vec::new());
        assert_eq!(pool.pooled(), 2);
    }
}
