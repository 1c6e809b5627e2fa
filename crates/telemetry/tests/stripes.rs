//! Dispatcher slots, observed from outside the crate: each test thread adds a
//! mark to its own stripe of a `Stripes<AtomicU64>`, and the test reads where
//! the marks landed. Slots are process-wide, so the tests run one at a time
//! (`SERIAL`) and only the threads they spawn and join ever claim one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use sqlcm_telemetry::{stripe_count, Stripes};

static SERIAL: Mutex<()> = Mutex::new(());

/// Run one thread per mark, each adding its mark to its own stripe; with
/// `together`, every thread holds its slot until all have added.
fn mark_stripes(marks: &[u64], together: bool) -> Vec<u64> {
    let stripes = Arc::new(Stripes::<AtomicU64>::default());
    let all = Arc::new(Barrier::new(marks.len()));
    let mut joined = Vec::new();
    for &mark in marks {
        let (stripes, all) = (Arc::clone(&stripes), Arc::clone(&all));
        let thread = std::thread::spawn(move || {
            stripes.mine().fetch_add(mark, Ordering::Relaxed);
            if together {
                all.wait();
            }
        });
        if together {
            joined.push(thread);
        } else {
            // Joined before the next thread starts: its slot is free again.
            thread.join().unwrap();
        }
    }
    for thread in joined {
        thread.join().unwrap();
    }
    stripes.iter().map(|s| s.load(Ordering::Relaxed)).collect()
}

#[test]
fn two_live_threads_never_share_a_stripe() {
    let _serial = SERIAL.lock().unwrap();
    let (a, b) = (1, 1 << 32);
    let stripes = mark_stripes(&[a, b], true);
    if stripe_count() >= 2 {
        assert!(stripes.contains(&a) && stripes.contains(&b), "{stripes:?}");
    } else {
        assert_eq!(stripes, [a + b]);
    }
}

#[test]
fn an_exited_thread_frees_its_slot_and_its_stripe_keeps_the_count() {
    let _serial = SERIAL.lock().unwrap();
    let stripes = mark_stripes(&[5, 3], false);
    // The second thread took the slot the first freed, and added to its count.
    assert_eq!(
        stripes.iter().filter(|&&n| n != 0).count(),
        1,
        "{stripes:?}"
    );
    assert!(stripes.contains(&8), "{stripes:?}");
}
