//! Memory pins for the buffer pool: a frame's page buffer is allocated at
//! its first fault and kept, so a pool holds no buffer for a frame it has not
//! used, and never more than one per frame.
//!
//! Live bytes are counted by a wrapping `#[global_allocator]`, so this file is
//! its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sqlcm_storage::{BufferPool, BufferStats, InMemoryDisk, PAGE_SIZE};

/// Counts the bytes each thread has allocated and not yet freed: the harness
/// runs tests on parallel threads, and a test must only see its own.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn add(bytes: isize) {
    // `try_with`: the allocator still runs while a thread's locals unwind.
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Room for page tables, free lists and `Vec` growth: well under one page.
const SLACK: isize = 4 * 1024;

const PAGE: isize = PAGE_SIZE as isize;

#[test]
fn a_new_pool_holds_no_page_buffers() {
    let before = live();
    let pool = BufferPool::new(InMemoryDisk::shared(), 4096);
    let held = live() - before;
    assert!(held < 256 * 1024, "a new 4096-frame pool holds {held} B");
    drop(pool);
}

#[test]
fn each_written_page_costs_one_frame_and_one_disk_copy() {
    let pool = BufferPool::new(InMemoryDisk::shared(), 4096);
    let before = live();
    for i in 0..3u8 {
        let id = pool.new_page().unwrap();
        pool.with_page_write(id, |b| b[0] = i).unwrap();
    }
    let added = live() - before;
    assert!(
        added <= 6 * PAGE + SLACK,
        "3 written pages added {added} B, more than 6 pages of {PAGE} B"
    );
    assert!(added >= 6 * PAGE, "3 written pages added only {added} B");
}

#[test]
fn a_small_pool_cycles_pages_through_its_frames() {
    let before = live();
    let pool = BufferPool::new(InMemoryDisk::shared(), 4);
    let ids: Vec<_> = (0..10).map(|_| pool.new_page().unwrap()).collect();
    for (i, &id) in ids.iter().enumerate() {
        pool.with_page_write(id, |b| b[1] = i as u8).unwrap();
    }
    for _ in 0..2 {
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(pool.with_page_read(id, |b| b[1]).unwrap(), i as u8);
        }
    }
    let held = live() - before;
    assert!(
        held <= (10 + 4) * PAGE + SLACK,
        "10 disk pages through 4 frames hold {held} B, more than 14 pages"
    );
    assert_eq!(
        pool.stats(),
        BufferStats {
            hits: 0,
            misses: 40,
            evictions: 36,
            dirty_writebacks: 20,
        }
    );
}
