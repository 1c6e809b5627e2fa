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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_count_is_a_bounded_power_of_two() {
        let s = stripe_count();
        assert!(s.is_power_of_two() && s <= MAX_STRIPES);
        assert_eq!(Stripes::<u8>::default().iter().count(), s);
    }
}
