//! Per-dispatcher stripes: the storage every hot counter is split across.
//!
//! A thread claims a *dispatcher slot* on its first use — the lowest free bit
//! of a process-wide mask — and its thread-local releases the slot when the
//! thread exits. Live threads therefore hold distinct slots, and a new thread
//! takes the lowest one an exited thread freed. A slot's stripe is the slot
//! modulo the stripe count S: while at most S threads are live no two share a
//! stripe, and beyond that the slots wrap.
//!
//! S is the machine's available parallelism rounded up to a power of two,
//! capped at 16, and computed once: more stripes than cores can
//! run at once buy no fewer collisions, only memory.
//!
//! Stripes are storage, not thread-owned: a released slot's counts stay in
//! its stripe, and the next thread to claim the slot adds to them, so a sum
//! over the stripes never loses a count.
//!
//! [`LaneRing`] is the one bounded ring built on them, behind the flight
//! recorder and the tracer alike: per stripe a fixed-depth lane of slots,
//! overwritten in place once full, and one merged read.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::Stamp;

/// Upper bound on the stripe count, whatever the machine.
const MAX_STRIPES: usize = 16;

/// Claimed dispatcher slots, one bit each.
static CLAIMED: AtomicU64 = AtomicU64::new(0);

/// The stripe count S: available parallelism rounded up to a power of two,
/// at most 16.
pub fn stripe_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .next_power_of_two()
            .min(MAX_STRIPES)
    })
}

/// A thread's dispatcher slot: the claimed bit (`None` when all 64 were
/// live), and the stripe it writes.
struct Slot {
    bit: Option<u32>,
    stripe: usize,
}

impl Slot {
    fn claim() -> Slot {
        let mut held = CLAIMED.load(Ordering::Relaxed);
        while held != u64::MAX {
            let bit = (!held).trailing_zeros();
            match CLAIMED.compare_exchange_weak(
                held,
                held | 1 << bit,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Slot {
                        bit: Some(bit),
                        stripe: bit as usize & (stripe_count() - 1),
                    }
                }
                Err(now) => held = now,
            }
        }
        // Sixty-four live dispatchers already share the stripes; one more
        // shares the first.
        Slot {
            bit: None,
            stripe: 0,
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        if let Some(bit) = self.bit {
            CLAIMED.fetch_and(!(1 << bit), Ordering::Relaxed);
        }
    }
}

std::thread_local! {
    static SLOT: Slot = Slot::claim();
}

/// The calling thread's stripe, below [`stripe_count`]. A thread whose
/// thread-locals are already torn down writes stripe 0.
#[inline]
fn my_stripe() -> usize {
    SLOT.try_with(|s| s.stripe).unwrap_or(0)
}

/// One `T` per stripe. `T` pads itself to whole cache lines, so stripes of
/// one value never share a line.
pub struct Stripes<T>(Box<[T]>);

impl<T: Default> Default for Stripes<T> {
    fn default() -> Self {
        Stripes::new(T::default)
    }
}

impl<T> Stripes<T> {
    /// One `make()` per stripe.
    pub fn new(make: impl FnMut() -> T) -> Stripes<T> {
        Stripes(std::iter::repeat_with(make).take(stripe_count()).collect())
    }

    /// The calling thread's stripe.
    pub fn mine(&self) -> &T {
        &self.0[my_stripe()]
    }

    /// Every stripe, for a reader to sum.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }
}

/// Where a lane's tag sits in a packed (lane, sequence) id:
/// `tag << LANE_SHIFT | sequence`.
pub const LANE_SHIFT: u32 = 48;

/// Tags for the stripes of one monitor's per-stripe recorders (the flight
/// recorder, the tracer), shared so that a stripe's flight records and traces
/// carry one lane key. A stripe is tagged at its first call, in call order —
/// one write per stripe, none per id — so ids are unique across lanes, and a
/// lone dispatcher's lane has tag 0 whatever its stripe: its ids are its
/// plain sequence numbers.
#[derive(Default)]
pub struct LaneTags {
    handed: AtomicU64,
    tags: Stripes<Tag>,
}

/// A stripe's tag, shifted into place, on cache lines of its own.
#[derive(Default)]
#[repr(align(64))]
struct Tag(OnceLock<u64>);

impl LaneTags {
    /// The calling stripe's id base: its tag `<< LANE_SHIFT`.
    pub fn mine(&self) -> u64 {
        let next = || self.handed.fetch_add(1, Ordering::Relaxed) << LANE_SHIFT;
        *self.tags.mine().0.get_or_init(next)
    }
}

/// Take `m` whatever a panicking holder left poisoned. For [`LaneRing`]'s
/// lanes only: a write leaves every slot a whole item at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Rings of the newest `capacity` items, one per stripe, merged when read.
/// A write takes only its own stripe's lane lock — uncontended while no more
/// threads write than there are stripes — and fills a slot in place, so a
/// wrapped lane allocates nothing and an item's buffers are reused by the
/// next item written over it. Memory is bounded by stripes × capacity items.
pub struct LaneRing<T> {
    capacity: usize,
    lanes: Stripes<Lane<T>>,
}

/// One stripe's ring, on cache lines of its own.
#[repr(align(64))]
struct Lane<T>(Mutex<Ring<T>>);

/// A lane's items, and how far it has got.
#[derive(Default)]
struct Ring<T> {
    /// Items this lane ever took, cleared ones included.
    recorded: u64,
    /// The newest item's merge stamp.
    latest: Option<Stamp>,
    /// The slot the next item writes.
    next: usize,
    /// Items with their merge stamps and lane-local sequence numbers. Grows
    /// to the ring's capacity once, then is overwritten in place.
    slots: Vec<(Stamp, u64, T)>,
}

impl<T: Default> LaneRing<T> {
    /// Lanes of `capacity` items (clamped to at least 1), the bound on a
    /// merged read too.
    pub fn new(capacity: usize) -> LaneRing<T> {
        let capacity = capacity.max(1);
        LaneRing {
            capacity,
            lanes: Stripes::new(|| {
                Lane(Mutex::new(Ring {
                    slots: Vec::with_capacity(capacity),
                    ..Ring::default()
                }))
            }),
        }
    }

    /// Write an item into the calling stripe's lane, over its oldest at
    /// capacity: `fill` gets the item's lane-local sequence number and the
    /// slot, which holds the evicted item (a default one while the lane
    /// fills). `at` orders the item in a merged read; it is held back to the
    /// lane's previous stamp if earlier, so a lane's items keep the order
    /// they were written in.
    // Inlined into its caller with `fill`: out of line, a flight record
    // cost ≈ 6 ns more (≈ 50 against ≈ 44 ns on a 2-vCPU box).
    #[inline]
    pub fn write(&self, at: Stamp, fill: impl FnOnce(u64, &mut T)) {
        let mut ring = lock(&self.lanes.mine().0);
        let ring = &mut *ring;
        let at = *ring.latest.insert(ring.latest.map_or(at, |l| l.max(at)));
        let seq = ring.recorded;
        if ring.next == ring.slots.len() {
            ring.slots.push((at, seq, T::default()));
        }
        let slot = &mut ring.slots[ring.next];
        (slot.0, slot.1) = (at, seq);
        fill(seq, &mut slot.2);
        ring.next += 1;
        if ring.next == self.capacity {
            ring.next = 0;
        }
        ring.recorded += 1;
    }
}

impl<T> LaneRing<T> {
    fn rings(&self) -> impl Iterator<Item = MutexGuard<'_, Ring<T>>> {
        self.lanes.iter().map(|l| lock(&l.0))
    }

    /// Items ever written (evicted and cleared ones included), summed over
    /// the lanes.
    pub fn recorded(&self) -> u64 {
        self.rings().map(|r| r.recorded).sum()
    }

    /// Items a merged read returns.
    pub fn len(&self) -> usize {
        self.capacity.min(self.rings().map(|r| r.slots.len()).sum())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empty every lane. [`LaneRing::recorded`] keeps counting the items.
    pub fn clear(&self) {
        for mut ring in self.rings() {
            ring.slots.clear();
            ring.next = 0;
        }
    }
}

impl<T: Clone> LaneRing<T> {
    /// The newest `capacity` items of all lanes, oldest first, ordered by
    /// (merge stamp, lane-local sequence): each lane's items in the order it
    /// took them.
    pub fn snapshot(&self) -> Vec<T> {
        self.merged().into_iter().map(|(_, item)| item).collect()
    }

    /// [`LaneRing::snapshot`] with each item's merge key.
    fn merged(&self) -> Vec<((Stamp, u64, usize), T)> {
        let mut all = Vec::new();
        for (lane, ring) in self.rings().enumerate() {
            let items = ring.slots.iter();
            all.extend(items.map(|(at, seq, item)| ((*at, *seq, lane), item.clone())));
        }
        all.sort_unstable_by_key(|(key, _)| *key);
        let hidden = all.len().saturating_sub(self.capacity);
        all.split_off(hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_count_is_a_bounded_power_of_two() {
        let s = stripe_count();
        assert!(s.is_power_of_two() && s <= MAX_STRIPES);
        assert_eq!(Stripes::<u8>::default().iter().count(), s);
    }

    /// Write `item` now into the calling thread's lane.
    fn put<T: Default>(ring: &LaneRing<T>, item: T) {
        ring.write(Stamp::now(), |_, slot| *slot = item);
    }

    #[test]
    fn a_lane_overwrites_its_oldest_and_counts_every_write() {
        let ring = LaneRing::new(3);
        let mut evicted = Vec::new();
        for i in 1..=5u32 {
            ring.write(Stamp::now(), |seq, slot| {
                assert_eq!(seq, u64::from(i - 1), "lane-local sequence");
                evicted.push(std::mem::replace(slot, i));
            });
        }
        assert_eq!(evicted, [0, 0, 0, 1, 2], "a wrapped slot holds its oldest");
        assert_eq!(ring.snapshot(), [3, 4, 5]);
        let dropped = ring.recorded() - ring.len() as u64;
        assert_eq!((ring.len(), ring.recorded(), dropped), (3, 5, 2));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = LaneRing::new(0);
        put(&ring, 1u8);
        put(&ring, 2);
        assert_eq!((ring.snapshot(), ring.len()), (vec![2], 1));
    }

    #[test]
    fn clear_empties_the_lanes_and_keeps_the_totals() {
        let ring = LaneRing::new(4);
        (0..4u32).for_each(|i| put(&ring, i));
        ring.clear();
        assert!(ring.is_empty() && ring.snapshot().is_empty());
        assert_eq!(ring.recorded(), 4, "cleared items stay counted");
        (4..7).for_each(|i| put(&ring, i));
        assert_eq!(ring.snapshot(), [4, 5, 6], "later writes keep their order");
        assert_eq!(ring.recorded(), 7);
    }

    #[test]
    fn concurrent_writers_stay_bounded_and_ordered() {
        let ring = LaneRing::new(8);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let ring = &ring;
                s.spawn(move || (0..1000u32).for_each(|i| put(ring, (t, i))));
            }
        });
        assert_eq!((ring.len(), ring.recorded()), (8, 4000));
        // Across lanes, the merged read is strictly ordered by the merge key.
        let merged = ring.merged();
        assert_eq!(merged.len(), 8);
        assert!(merged.windows(2).all(|w| w[0].0 < w[1].0), "{merged:?}");
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        for t in 0..4 {
            let mine: Vec<u32> = snap.iter().filter(|x| x.0 == t).map(|x| x.1).collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "{t}: {mine:?}");
        }
    }

    #[test]
    fn a_merged_read_keeps_the_newest_across_lanes() {
        // Two lanes, as two writers on distinct stripes leave them: items
        // alternate between the lanes, each lane's in the order written.
        let lanes = [Lane(Mutex::default()), Lane(Mutex::default())];
        let ring = LaneRing {
            capacity: 3,
            lanes: Stripes(Box::new(lanes)),
        };
        for i in 1..=6u32 {
            let mut lane = lock(&ring.lanes.0[(i as usize + 1) % 2].0);
            let seq = lane.recorded;
            lane.slots.push((Stamp::now(), seq, i));
            lane.recorded += 1;
        }
        assert_eq!(ring.snapshot(), [4, 5, 6], "newest three of both lanes");
        assert_eq!((ring.len(), ring.recorded()), (3, 6));
    }

    /// A `u8` whose clone panics when it is 0.
    #[derive(Debug, Default, PartialEq)]
    struct Fuse(u8);

    impl Clone for Fuse {
        fn clone(&self) -> Fuse {
            assert_ne!(self.0, 0, "a blown fuse does not clone");
            Fuse(self.0)
        }
    }

    #[test]
    fn a_panic_inside_a_merged_read_does_not_poison_later_callers() {
        let ring = LaneRing::new(1);
        put(&ring, Fuse(0));
        let blown = std::thread::scope(|s| s.spawn(|| ring.snapshot()).join());
        assert!(
            blown.is_err(),
            "the clone panicked holding this lane's lock"
        );
        // This thread writes the lane the reader poisoned.
        put(&ring, Fuse(1));
        let later = std::thread::scope(|s| s.spawn(|| ring.snapshot()).join());
        assert_eq!(later.unwrap(), [Fuse(1)]);
    }
}
