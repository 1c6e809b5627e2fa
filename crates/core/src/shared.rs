//! What a plan shares with the plan it extends.
//!
//! Registering a rule publishes a new immutable plan that differs from its
//! predecessor by that one rule. Each structure here is made of `Arc`'d
//! pieces so the new plan copies only the piece the rule lands in and shares
//! the rest: a registration copies a bounded amount whatever the plan holds,
//! and freeing the superseded plan frees only what it did not share.
//!
//! * [`Blocks`] — a sequence in registration order, in blocks of 64: an
//!   append fills a free slot of the shared last block (or of the shared
//!   spine of blocks) and copies nothing, but for a spine copy of twice the
//!   size when the spine is full — amortised O(1).
//! * [`Partitioned`] — a map keyed by a hash the caller computed, split into
//!   partitions by bits of the hash: an insert copies one partition's
//!   entries (64–128), one chunk of 64 partition pointers and the chunk
//!   pointers (one per `64 · 64` entries). The
//!   partition count doubles whenever the map doubles, and that re-split
//!   copies every entry once, so the entries copied per insert stay
//!   amortised O(1).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// The hasher of tables whose keys are hashes already: a key writes one
/// `u64`, and that is the hash.
#[derive(Default)]
pub(crate) struct StoredHash(u64);

impl Hasher for StoredHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("keys write only their stored hash")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

const BLOCK: usize = 64;

type Block<T> = Arc<[OnceLock<T>]>;

fn slots<U>(n: usize) -> Arc<[OnceLock<U>]> {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// Items in order, in `Arc`'d blocks of 64 slots — for plan rules, the
/// bitset word dispatch walks them by. No item sits behind a pointer of its
/// own: indexing reads a spine slot, then a block slot.
///
/// The blocks, and the spine of block pointers, are shared by every plan
/// that holds their first item, and each plan reads its first `len` items
/// only. So an append fills the next free slot of the shared last block, or
/// of the shared spine, in place, and copies nothing. A copy is made only of
/// a last block made short by `From`, of a spine that is full (to one of
/// twice the capacity), and of a block or spine whose next slot a plan built
/// on this one took already.
pub(crate) struct Blocks<T> {
    spine: Arc<[OnceLock<Block<T>>]>,
    len: usize,
}

impl<T> Clone for Blocks<T> {
    fn clone(&self) -> Blocks<T> {
        Blocks {
            spine: self.spine.clone(),
            len: self.len,
        }
    }
}

impl<T> Default for Blocks<T> {
    fn default() -> Blocks<T> {
        Blocks {
            spine: slots(0),
            len: 0,
        }
    }
}

impl<T> Blocks<T> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The items in order, read block by block.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        let blocks = self.spine[..self.len.div_ceil(BLOCK)].iter().enumerate();
        blocks.flat_map(move |(b, block)| {
            let block = block.get().expect("a plan's blocks are set");
            let items = block[..BLOCK.min(self.len - b * BLOCK)].iter();
            items.map(|slot| slot.get().expect("a plan's items are set"))
        })
    }

    /// How many leading items `pred` holds for; the items must be
    /// partitioned by it, as for `slice::partition_point`.
    pub fn partition_point(&self, pred: impl Fn(&T) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(&self[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn block(&self, b: usize) -> &Block<T> {
        self.spine[b].get().expect("a plan's blocks are set")
    }
}

impl<T: Clone> Blocks<T> {
    /// These items followed by `item`.
    pub fn with(&self, item: T) -> Blocks<T> {
        let (b, at) = (self.len / BLOCK, self.len % BLOCK);
        let appended = |spine| Blocks {
            spine,
            len: self.len + 1,
        };
        let item = match (at, self.spine.get(b).and_then(OnceLock::get)) {
            (1.., Some(last)) if last.len() == BLOCK => match last[at].set(item) {
                Ok(()) => return appended(self.spine.clone()),
                Err(item) => item,
            },
            _ => item,
        };
        let block: Block<T> = slots(BLOCK);
        for (slot, i) in block.iter().zip(self.len - at..self.len) {
            let _ = slot.set(self[i].clone());
        }
        let _ = block[at].set(item);
        if let Some(free) = self.spine.get(b).filter(|_| at == 0) {
            if free.set(block.clone()).is_ok() {
                return appended(self.spine.clone());
            }
        }
        let capacity = match b < self.spine.len() {
            true => self.spine.len(),
            false => (2 * self.spine.len()).max(1),
        };
        let spine = slots(capacity);
        for (slot, kept) in spine.iter().zip(&self.spine[..b]) {
            let _ = slot.set(kept.get().expect("a plan's blocks are set").clone());
        }
        let _ = spine[b].set(block);
        appended(spine)
    }
}

impl<T> From<Vec<T>> for Blocks<T> {
    fn from(items: Vec<T>) -> Blocks<T> {
        let len = items.len();
        let mut items = items.into_iter();
        let spine = (0..len.div_ceil(BLOCK)).map(|_| {
            let block: Block<T> = items.by_ref().take(BLOCK).map(OnceLock::from).collect();
            OnceLock::from(block)
        });
        Blocks {
            spine: spine.collect(),
            len,
        }
    }
}

impl<T> std::ops::Index<usize> for Blocks<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "index {i} past {} items", self.len);
        let slot = &self.block(i / BLOCK)[i % BLOCK];
        slot.get().expect("a plan's items are set")
    }
}

/// Mean entries per partition of a [`Partitioned`] map between re-splits
/// (from this to twice this).
const PARTITION: usize = 64;

/// Partition pointers per chunk of a [`Partitioned`] map's table.
const CHUNK: usize = 64;

type Part<V> = HashMap<u64, V, BuildHasherDefault<StoredHash>>;

/// A map keyed by a hash the caller computed, in `2^bits` `Arc`'d
/// partitions picked by `bits` of the hash's bits, whose pointers sit in
/// `Arc`'d chunks of 64. A clone shares everything until it writes
/// an entry, which copies that entry's partition and chunk and the chunk
/// pointers.
#[derive(Clone)]
pub(crate) struct Partitioned<V> {
    chunks: Vec<Arc<[Arc<Part<V>>]>>,
    bits: u32,
    len: usize,
}

impl<V> Default for Partitioned<V> {
    fn default() -> Partitioned<V> {
        Partitioned {
            chunks: vec![Arc::new([Arc::default()])],
            bits: 0,
            len: 0,
        }
    }
}

impl<V: Clone + Default> Partitioned<V> {
    /// The partition of `hash`: its `bits` bits from bit 32 up, which the
    /// partition's table uses for neither buckets (low bits) nor tags (top
    /// seven), so splitting by them leaves each table's hashes spread.
    fn part(&self, hash: u64) -> (usize, usize) {
        let p = (hash >> 32) as usize & ((1 << self.bits) - 1);
        (p / CHUNK, p % CHUNK)
    }

    pub fn get(&self, hash: u64) -> Option<&V> {
        let (c, p) = self.part(hash);
        self.chunks[c][p].get(&hash)
    }

    /// The value under `hash`, inserted as `V::default()` when missing.
    pub fn entry(&mut self, hash: u64) -> &mut V {
        if self.len >= PARTITION << self.bits {
            self.split();
        }
        let (c, p) = self.part(hash);
        let part = Arc::make_mut(&mut Arc::make_mut(&mut self.chunks[c])[p]);
        self.len += usize::from(!part.contains_key(&hash));
        part.entry(hash).or_default()
    }

    /// Double the partitions: partition `i` becomes `i` and `i + 2^bits`, by
    /// the next bit of the hash.
    fn split(&mut self) {
        self.bits += 1;
        let mut parts: Vec<Part<V>> = vec![Part::default(); 1 << self.bits];
        for part in self.chunks.iter().flat_map(|chunk| chunk.iter()) {
            for (&hash, value) in part.iter() {
                let (c, p) = self.part(hash);
                parts[c * CHUNK + p].insert(hash, value.clone());
            }
        }
        let mut parts = parts.into_iter().map(Arc::new);
        let chunks = (1usize << self.bits).div_ceil(CHUNK);
        self.chunks = (0..chunks)
            .map(|_| parts.by_ref().take(CHUNK).collect())
            .collect();
    }
}

#[cfg(test)]
impl<T> Blocks<T> {
    pub const BLOCK: usize = BLOCK;

    pub fn last(&self) -> Option<&T> {
        self.len.checked_sub(1).map(|i| &self[i])
    }
}

#[cfg(test)]
impl<V> Partitioned<V> {
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &V)> + '_ {
        let parts = self.chunks.iter().flat_map(|chunk| chunk.iter());
        parts.flat_map(|part| part.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(b: &Blocks<u32>) -> Vec<u32> {
        b.iter().copied().collect()
    }

    /// Appends share what they can and never show one plan another's items:
    /// two plans appended to one predecessor — built at once, or appended
    /// item by item — each see their own items.
    #[test]
    fn blocks_appended_twice_to_one_predecessor_keep_their_own_items() {
        let appended = |n| (0..n).fold(Blocks::default(), |b: Blocks<u32>, i| b.with(i));
        let built = |n| Blocks::from((0..n).collect::<Vec<u32>>());
        for (n, base) in [0, 1, 63, 64, 65, 127, 128, 192, 200]
            .into_iter()
            .flat_map(|n| [(n, appended(n)), (n, built(n))])
        {
            let mut grown = base.with(1_000);
            for i in 0..70 {
                grown = grown.with(2_000 + i);
            }
            let other = base.with(3_000);
            let mut want: Vec<u32> = (0..n).collect();
            assert_eq!(items(&base), want, "{n}");
            want.push(3_000);
            assert_eq!(items(&other), want, "{n}");
            want.pop();
            want.push(1_000);
            want.extend(2_000..2_070);
            assert_eq!(items(&grown), want, "{n}");
        }
    }

    #[test]
    fn partitioned_keeps_every_entry_across_splits_and_clones() {
        let mut map: Partitioned<u32> = Partitioned::default();
        let mut before = None;
        for k in 0..10_000u64 {
            let hash = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            *map.entry(hash) += k as u32;
            if k == 5_000 {
                before = Some(map.clone());
            }
        }
        assert_eq!(map.len, 10_000);
        assert!(map.bits >= 7, "re-split as it grew: {} bits", map.bits);
        for k in 0..10_000u64 {
            let hash = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(map.get(hash), Some(&(k as u32)));
            let old = before.as_ref().unwrap().get(hash);
            assert_eq!(
                old,
                (k <= 5_000).then_some(&(k as u32)),
                "the clone is untouched"
            );
        }
    }
}
