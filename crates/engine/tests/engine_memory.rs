//! Memory pins for the engine: `Engine::in_memory()` allocates its buffer
//! frames on demand, the lock table keeps nothing for a lock that has ended,
//! and a point select allocates no more than it did while the table kept
//! every row it had ever locked.
//!
//! Live bytes and allocations are counted by a wrapping `#[global_allocator]`,
//! so this file is its own test binary. The counts are process-wide: each
//! test holds `SERIAL` while it runs, so no two measure at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use sqlcm_common::Value;
use sqlcm_engine::{Engine, Session};
use sqlcm_storage::PAGE_SIZE;

/// Counts the bytes the process has allocated and not yet freed, and the
/// allocations it has made.
struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

const ORDERS: i64 = 5_000;
const MIB: isize = 1024 * 1024;
const POINT_SELECT: &str = "SELECT * FROM orders WHERE id = ?";

/// An engine whose `orders` table got `ORDERS` rows, each by its own INSERT,
/// committed 1 000 to a transaction; and the session that loaded it.
fn loaded() -> (Engine, Session) {
    let engine = Engine::in_memory();
    let mut s = engine.connect("u", "app");
    s.execute("CREATE TABLE orders (id INT PRIMARY KEY, cust INT, total FLOAT, status TEXT)")
        .unwrap();
    for batch in 0..ORDERS / 1_000 {
        s.execute("BEGIN").unwrap();
        for id in batch * 1_000 + 1..=(batch + 1) * 1_000 {
            let row = [
                Value::Int(id),
                Value::Int(id % 97),
                Value::Float(id as f64 * 1.5),
                Value::text("open"),
            ];
            s.execute_params("INSERT INTO orders VALUES (?, ?, ?, ?)", &row)
                .unwrap();
        }
        s.execute("COMMIT").unwrap();
    }
    (engine, s)
}

/// `n` point selects spread over the table.
fn point_selects(s: &mut Session, n: i64) {
    for i in 0..n {
        let id = i * 7_919 % ORDERS + 1;
        let rows = s.execute_params(POINT_SELECT, &[Value::Int(id)]).unwrap();
        assert_eq!(rows.rows.len(), 1);
    }
}

#[test]
fn an_idle_engine_holds_under_a_megabyte() {
    let _serial = serial();
    let before = live();
    let engine = Engine::in_memory();
    let held = live() - before;
    assert!(held < MIB, "Engine::in_memory() holds {held} B");
    // The engine still works: its first table faults its first frames in.
    let mut s = engine.connect("u", "app");
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    s.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    drop(s);
    drop(engine);
}

#[test]
fn a_loaded_engine_holds_its_pages_and_under_a_megabyte_more() {
    let _serial = serial();
    let before = live();
    let (engine, mut s) = loaded();
    point_selects(&mut s, 1_000);
    let held = live() - before;
    let pool = engine.catalog().pool();
    let pages = pool.disk().num_pages() as usize;
    // Each page has its disk copy, and at most one frame.
    let page_bytes = ((pages + pages.min(pool.capacity())) * PAGE_SIZE) as isize;
    assert!(
        held <= page_bytes + MIB,
        "{held} B live after the load, {} B over its {pages} pages' {page_bytes} B",
        held - page_bytes
    );
    assert_eq!(engine.handle().locks.resource_count(), 0);
}

/// Allocations a warm point select made, on average, while the lock table
/// kept an entry for every row it had ever locked.
const POINT_SELECT_ALLOCS: f64 = 264.744;

#[test]
fn a_warm_point_select_allocates_no_more_than_before() {
    let _serial = serial();
    let (_engine, mut s) = loaded();
    point_selects(&mut s, 100);
    let before = ALLOCS.load(Ordering::Relaxed);
    point_selects(&mut s, 1_000);
    let per_select = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / 1_000.0;
    assert!(
        per_select <= POINT_SELECT_ALLOCS,
        "{per_select} allocations per point select, more than {POINT_SELECT_ALLOCS}"
    );
}
