//! [`Poller`]: the one periodic background loop of the workspace.
//!
//! SQLCM's timer thread and deferred-action executor (paper §5) and the
//! §6.2.2 PULL and PULL_history clients each run one closure periodically on a
//! thread of their own. A [`Poller`] runs it once at start and then after each
//! interval. Stopping it wakes the waiting thread at once — it never sleeps out
//! the rest of an interval — and joins it.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A closure run on its own thread: once at start, then after each interval,
/// until [`Poller::stop`] or drop.
pub struct Poller {
    stop: Arc<Stop>,
    thread: Option<JoinHandle<()>>,
}

/// The stop flag, and the condvar the waiting thread sleeps on.
#[derive(Default)]
struct Stop {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl Stop {
    /// Wait out `interval` unless stopped first; true once stopped.
    fn wait(&self, interval: Duration) -> bool {
        // An interval past the clock's range waits for the stop alone.
        let deadline = Instant::now().checked_add(interval);
        let mut stopped = self.stopped.lock();
        while !*stopped {
            match deadline {
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    self.wake.wait_for(&mut stopped, left);
                }
                None => self.wake.wait(&mut stopped),
            }
        }
        true
    }
}

impl Poller {
    /// Run `poll` on a new thread now, then every `interval` after each run
    /// returns. `poll` runs at least once, even when the poller is stopped
    /// before its thread starts.
    pub fn start(interval: Duration, mut poll: impl FnMut() + Send + 'static) -> Poller {
        let stop = Arc::new(Stop::default());
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                poll();
                if stop.wait(interval) {
                    break;
                }
            })
        };
        Poller {
            stop,
            thread: Some(thread),
        }
    }

    /// Wake the thread, let a running `poll` finish, and join it.
    ///
    /// # Panics
    ///
    /// With `poll`'s own panic, if it panicked.
    pub fn stop(mut self) {
        if let Err(panic) = self.halt() {
            std::panic::resume_unwind(panic);
        }
    }

    /// Set the stop flag, wake the thread and join it — unless this is the
    /// poller's own thread (its `poll` dropped the poller), which cannot join
    /// itself and exits once `poll` returns.
    fn halt(&mut self) -> std::thread::Result<()> {
        *self.stop.stopped.lock() = true;
        self.stop.wake.notify_one();
        match self.thread.take() {
            Some(thread) if thread.thread().id() != std::thread::current().id() => thread.join(),
            _ => Ok(()),
        }
    }
}

impl Drop for Poller {
    /// Stop and join as [`Poller::stop`] does, except that a panic of `poll`
    /// is dropped: `Drop` must not panic.
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc;

    #[test]
    fn stop_wakes_a_waiting_poller_at_once_after_exactly_one_poll() {
        let polls = Arc::new(AtomicU32::new(0));
        let (polled, first_poll) = mpsc::channel();
        let poller = {
            let polls = Arc::clone(&polls);
            Poller::start(Duration::from_secs(3600), move || {
                polls.fetch_add(1, Ordering::SeqCst);
                let _ = polled.send(());
            })
        };
        first_poll.recv().expect("the poller polls at start");
        let t0 = Instant::now();
        poller.stop();
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        assert_eq!(polls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn polls_every_interval_until_dropped() {
        let (polled, polls) = mpsc::channel();
        let poller = Poller::start(Duration::from_millis(1), move || {
            let _ = polled.send(());
        });
        for _ in 0..3 {
            polls.recv().expect("a poll");
        }
        drop(poller);
        // Joined: the closure, and its sender, are gone.
        while polls.recv().is_ok() {}
    }

    #[test]
    fn an_endless_interval_still_polls_once_and_stops() {
        let polls = Arc::new(AtomicU32::new(0));
        let poller = {
            let polls = Arc::clone(&polls);
            Poller::start(Duration::MAX, move || {
                polls.fetch_add(1, Ordering::SeqCst);
            })
        };
        poller.stop();
        assert_eq!(polls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_poll_that_drops_its_own_poller_does_not_join_itself() {
        let slot: Arc<Mutex<Option<Poller>>> = Arc::default();
        let (done, dropped) = mpsc::channel();
        let mut guard = slot.lock();
        *guard = Some({
            let slot = Arc::clone(&slot);
            Poller::start(Duration::from_millis(1), move || {
                drop(slot.lock().take());
                let _ = done.send(());
            })
        });
        drop(guard);
        dropped
            .recv()
            .expect("the poll dropped its poller and returned");
        assert!(slot.lock().is_none());
    }

    #[test]
    #[should_panic(expected = "poll failed")]
    fn stop_resumes_the_panic_of_poll() {
        let poller = Poller::start(Duration::from_secs(3600), || panic!("poll failed"));
        poller.stop();
    }
}
