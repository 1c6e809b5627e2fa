//! Memory pin for engine start-up: `Engine::in_memory()` allocates its buffer
//! frames on demand, so an idle engine holds well under a megabyte.
//!
//! Live bytes are counted by a wrapping `#[global_allocator]`, so this file is
//! its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use sqlcm_engine::Engine;

/// Counts the bytes the process has allocated and not yet freed. The file
/// has one test, so no other test allocates while it measures.
struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn an_idle_engine_holds_under_a_megabyte() {
    let before = LIVE.load(Ordering::Relaxed);
    let engine = Engine::in_memory();
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert!(held < 1024 * 1024, "Engine::in_memory() holds {held} B");
    // The engine still works: its first table faults its first frames in.
    let mut s = engine.connect("u", "app");
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    s.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    drop(s);
    drop(engine);
}
