//! A buffer pool with LRU replacement. Its capacity is a bound: a frame's
//! buffer is allocated at its first fault and kept across evictions, so the
//! pool holds one page buffer for each frame it has ever used, never more.
//!
//! The pool is the memory the paper's LATs "compete for … with operator workspace
//! memory and buffer pool space" (Section 4.3), and the resource that the
//! PULL_history baseline degrades when its server-side history grows (Figure 3
//! discussion: "storing the historical state requires significant memory, in turn
//! degrading the server's ability to cache pages"). Hit/miss/eviction statistics
//! are therefore first-class: the benches report them.
//!
//! Access pattern is closure-based ([`BufferPool::with_page_read`] /
//! [`BufferPool::with_page_write`]); the page is pinned for the duration of the
//! closure and unpinned afterwards, so callers cannot leak pins.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};
use sqlcm_common::{Error, Result};

use crate::disk::{PageId, SharedDisk};
use crate::page::PAGE_SIZE;

/// Counters exposed by [`BufferPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub dirty_writebacks: u64,
}

struct Frame {
    /// Empty until the frame's first fault, then `PAGE_SIZE` bytes for good.
    data: Box<[u8]>,
    dirty: bool,
}

struct Meta {
    /// page id -> frame index
    page_table: HashMap<PageId, usize>,
    /// frame index -> (page id, pin count, lru tick of last unpin)
    frame_info: Vec<FrameInfo>,
    /// Indices of frames that map no page; `u32`, like page ids, to keep a
    /// new pool's bookkeeping small.
    free: Vec<u32>,
    tick: u64,
}

#[derive(Clone, Copy)]
struct FrameInfo {
    page: PageId,
    pins: u32,
    last_used: u64,
}

/// A shared, thread-safe buffer pool over a [`SharedDisk`].
pub struct BufferPool {
    disk: SharedDisk,
    frames: Vec<RwLock<Frame>>,
    meta: Mutex<Meta>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `disk`. Capacity must be ≥ 1.
    pub fn new(disk: SharedDisk, capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let frame_ids = u32::try_from(capacity).expect("buffer pool frame count fits in u32");
        let frames = (0..capacity)
            .map(|_| {
                RwLock::new(Frame {
                    data: Box::default(),
                    dirty: false,
                })
            })
            .collect();
        BufferPool {
            disk,
            frames,
            meta: Mutex::new(Meta {
                page_table: HashMap::new(),
                frame_info: (0..capacity)
                    .map(|_| FrameInfo {
                        page: PageId::MAX,
                        pins: 0,
                        last_used: 0,
                    })
                    .collect(),
                free: (0..frame_ids).rev().collect(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// The disk under this pool.
    pub fn disk(&self) -> &SharedDisk {
        &self.disk
    }

    pub fn stats(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            dirty_writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    /// Allocate a brand-new page on disk and cache it (dirty) in the pool.
    pub fn new_page(&self) -> Result<PageId> {
        let id = self.disk.allocate_page()?;
        // Pin it in so the first writer doesn't immediately fault it back.
        let frame = self.pin(id)?;
        {
            let mut f = self.frames[frame].write();
            f.data.fill(0);
            f.dirty = true;
        }
        self.unpin(frame);
        Ok(id)
    }

    /// Run `f` with shared access to the page bytes.
    pub fn with_page_read<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let frame = self.pin(id)?;
        let out = {
            let g = self.frames[frame].read();
            f(&g.data)
        };
        self.unpin(frame);
        Ok(out)
    }

    /// Run `f` with exclusive access to the page bytes; the page is marked dirty.
    pub fn with_page_write<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let frame = self.pin(id)?;
        let out = {
            let mut g = self.frames[frame].write();
            g.dirty = true;
            f(&mut g.data)
        };
        self.unpin(frame);
        Ok(out)
    }

    /// Write every dirty frame back to disk.
    pub fn flush_all(&self) -> Result<()> {
        let meta = self.meta.lock();
        for (idx, info) in meta.frame_info.iter().enumerate() {
            if info.page == PageId::MAX {
                continue;
            }
            let mut frame = self.frames[idx].write();
            if frame.dirty {
                self.disk.write_page(info.page, &frame.data)?;
                frame.dirty = false;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.disk.sync()
    }

    /// Pin `id` into a frame, faulting it from disk if needed.
    fn pin(&self, id: PageId) -> Result<usize> {
        let mut meta = self.meta.lock();
        meta.tick += 1;
        let tick = meta.tick;
        if let Some(&idx) = meta.page_table.get(&id) {
            meta.frame_info[idx].pins += 1;
            meta.frame_info[idx].last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(idx);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let idx = match meta.free.pop() {
            Some(idx) => idx as usize,
            None => self.evict_locked(&mut meta)?,
        };
        // Fault the page in while holding the meta lock. This serializes faults,
        // which is acceptable: the experiment workloads are sized so their hot set
        // fits in the pool, and correctness is far easier to see this way.
        {
            let mut frame = self.frames[idx].write();
            debug_assert!(!frame.dirty);
            if frame.data.is_empty() {
                frame.data = vec![0u8; PAGE_SIZE].into_boxed_slice();
            }
            if let Err(e) = self.disk.read_page(id, &mut frame.data) {
                // The frame is clean and maps no page: it is free again.
                meta.free.push(idx as u32);
                return Err(e);
            }
        }
        meta.page_table.insert(id, idx);
        meta.frame_info[idx] = FrameInfo {
            page: id,
            pins: 1,
            last_used: tick,
        };
        Ok(idx)
    }

    fn unpin(&self, idx: usize) {
        let mut meta = self.meta.lock();
        let info = &mut meta.frame_info[idx];
        debug_assert!(info.pins > 0, "unpin without pin");
        info.pins -= 1;
    }

    /// Choose the least-recently-used unpinned frame, write it back if dirty, and
    /// return it. Caller holds the meta lock.
    fn evict_locked(&self, meta: &mut Meta) -> Result<usize> {
        let victim = meta
            .frame_info
            .iter()
            .enumerate()
            .filter(|(_, i)| i.pins == 0 && i.page != PageId::MAX)
            .min_by_key(|(_, i)| i.last_used)
            .map(|(idx, _)| idx)
            .ok_or_else(|| Error::Storage("buffer pool exhausted: every frame is pinned".into()))?;
        let page = meta.frame_info[victim].page;
        {
            let mut frame = self.frames[victim].write();
            if frame.dirty {
                self.disk.write_page(page, &frame.data)?;
                frame.dirty = false;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        meta.page_table.remove(&page);
        meta.frame_info[victim].page = PageId::MAX;
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;
    use std::sync::Arc;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(InMemoryDisk::shared(), frames)
    }

    #[test]
    fn write_then_read_back() {
        let p = pool(4);
        let id = p.new_page().unwrap();
        p.with_page_write(id, |b| b[10] = 42).unwrap();
        let v = p.with_page_read(id, |b| b[10]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn eviction_and_fault_back() {
        let p = pool(2);
        let ids: Vec<_> = (0..5).map(|_| p.new_page().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_write(id, |b| b[0] = i as u8).unwrap();
        }
        // Only 2 frames: earlier pages were evicted (dirty) and must fault back.
        for (i, &id) in ids.iter().enumerate() {
            let v = p.with_page_read(id, |b| b[0]).unwrap();
            assert_eq!(v, i as u8);
        }
        let s = p.stats();
        assert!(s.evictions > 0);
        assert!(s.dirty_writebacks > 0);
        assert!(s.misses > 0);
    }

    #[test]
    fn hits_counted() {
        let p = pool(2);
        let id = p.new_page().unwrap();
        for _ in 0..10 {
            p.with_page_read(id, |_| ()).unwrap();
        }
        assert!(p.stats().hits >= 10);
    }

    #[test]
    fn flush_all_persists() {
        let disk = InMemoryDisk::shared();
        let p = BufferPool::new(disk.clone(), 4);
        let id = p.new_page().unwrap();
        p.with_page_write(id, |b| b[7] = 9).unwrap();
        p.flush_all().unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        disk.read_page(id, &mut buf).unwrap();
        assert_eq!(buf[7], 9);
    }

    #[test]
    fn concurrent_access() {
        let p = Arc::new(pool(8));
        let ids: Vec<_> = (0..8).map(|_| p.new_page().unwrap()).collect();
        let mut handles = vec![];
        for t in 0..4 {
            let p = p.clone();
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..500u64 {
                    let id = ids[(t + round as usize) % ids.len()];
                    p.with_page_write(id, |b| {
                        b[t] = b[t].wrapping_add(1);
                    })
                    .unwrap();
                    p.with_page_read(id, |b| b[t]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Each thread wrote its own byte index 500 times across pages; totals add up.
        let mut total = 0u64;
        for &id in &ids {
            total += p
                .with_page_read(id, |b| b[..4].iter().map(|&x| x as u64).sum::<u64>())
                .unwrap();
        }
        assert_eq!(total, 4 * 500);
    }

    #[test]
    fn read_of_unallocated_page_errors() {
        let p = pool(2);
        assert!(p.with_page_read(123, |_| ()).is_err());
    }

    #[test]
    fn a_failed_fault_gives_its_frame_back() {
        let p = pool(2);
        assert!(p.with_page_read(123, |_| ()).is_err());
        assert!(p.with_page_read(124, |_| ()).is_err());
        let id = p.new_page().unwrap();
        p.with_page_write(id, |b| b[0] = 5).unwrap();
        assert_eq!(p.with_page_read(id, |b| b[0]).unwrap(), 5);
        let other = p.new_page().unwrap();
        assert_eq!(p.with_page_read(other, |b| b[0]).unwrap(), 0);
    }
}
