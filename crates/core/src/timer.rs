//! `Timer` objects (paper §5.1 and Appendix A).
//!
//! "In cases where the condition evaluation cannot be tied to a system event …
//! the Timer object can be used to instrument a background thread that
//! periodically evaluates such rules." A timer is configured by the `Set(Time,
//! number_alarms)` action: `number_alarms` of `0` disables, a negative number
//! loops forever.
//!
//! The registry itself is passive: [`TimerRegistry::due_timers`] returns the
//! timers whose alarm time has passed (advancing their schedule). Production
//! code drives it from a background thread (`Sqlcm::start_timer_thread`); tests
//! drive it directly with a manual clock for determinism.

use parking_lot::Mutex;
use sqlcm_common::{SharedClock, Timestamp};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct TimerState {
    period_micros: u64,
    /// Alarms left; negative = infinite.
    remaining: i64,
    next_fire: Timestamp,
}

/// A due alarm, as handed to the rule engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DueAlarm {
    pub name: String,
    pub fired_at: Timestamp,
    /// Alarms remaining *after* this one (negative = infinite).
    pub remaining: i64,
}

/// All timers of one SQLCM instance.
pub struct TimerRegistry {
    clock: SharedClock,
    timers: Mutex<HashMap<String, TimerState>>,
}

impl TimerRegistry {
    pub fn new(clock: SharedClock) -> Self {
        TimerRegistry {
            clock,
            timers: Mutex::new(HashMap::new()),
        }
    }

    /// The `Set(Time, number_alarms)` action (§5.3).
    pub fn set(&self, name: &str, period_micros: u64, number_alarms: i64) {
        let mut timers = self.timers.lock();
        if number_alarms == 0 {
            timers.remove(name);
            return;
        }
        let now = self.clock.now_micros();
        timers.insert(
            name.to_string(),
            TimerState {
                period_micros: period_micros.max(1),
                remaining: number_alarms,
                next_fire: now + period_micros.max(1),
            },
        );
    }

    /// Is this timer armed?
    pub fn is_set(&self, name: &str) -> bool {
        self.timers.lock().contains_key(name)
    }

    pub fn len(&self) -> usize {
        self.timers.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collect every alarm due at the current clock reading and advance (or
    /// retire) the corresponding timers. A timer that fell far behind fires once
    /// per poll, not once per missed period (alarm coalescing).
    pub fn due_timers(&self) -> Vec<DueAlarm> {
        let now = self.clock.now_micros();
        let mut due = Vec::new();
        let mut timers = self.timers.lock();
        timers.retain(|name, t| {
            if t.next_fire > now {
                return true;
            }
            if t.remaining > 0 {
                t.remaining -= 1;
            }
            due.push(DueAlarm {
                name: name.clone(),
                fired_at: now,
                remaining: t.remaining,
            });
            if t.remaining == 0 {
                return false;
            }
            // Schedule strictly after `now` (coalesce missed periods).
            let missed = (now - t.next_fire) / t.period_micros + 1;
            t.next_fire += missed * t.period_micros;
            true
        });
        due.sort_by(|a, b| a.name.cmp(&b.name));
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_common::ManualClock;

    #[test]
    fn fires_on_schedule_and_counts_down() {
        let (clock, handle) = ManualClock::shared(0);
        let reg = TimerRegistry::new(clock);
        reg.set("audit", 1000, 2);
        assert!(reg.is_set("audit"));
        assert!(reg.due_timers().is_empty(), "not due yet");
        handle.advance(1000);
        let due = reg.due_timers();
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].name, "audit");
        assert_eq!(due[0].remaining, 1);
        handle.advance(1000);
        let due = reg.due_timers();
        assert_eq!(due[0].remaining, 0);
        assert!(!reg.is_set("audit"), "retired after last alarm");
        handle.advance(1000);
        assert!(reg.due_timers().is_empty());
    }

    #[test]
    fn infinite_timer_keeps_firing() {
        let (clock, handle) = ManualClock::shared(0);
        let reg = TimerRegistry::new(clock);
        reg.set("forever", 10, -1);
        for _ in 0..5 {
            handle.advance(10);
            let due = reg.due_timers();
            assert_eq!(due.len(), 1);
            assert_eq!(due[0].remaining, -1);
        }
        assert!(reg.is_set("forever"));
    }

    #[test]
    fn zero_alarms_disables() {
        let (clock, _) = ManualClock::shared(0);
        let reg = TimerRegistry::new(clock);
        reg.set("t", 10, -1);
        reg.set("t", 10, 0);
        assert!(!reg.is_set("t"));
        assert!(reg.is_empty());
    }

    #[test]
    fn missed_periods_coalesce() {
        let (clock, handle) = ManualClock::shared(0);
        let reg = TimerRegistry::new(clock);
        reg.set("t", 10, -1);
        handle.advance(95); // 9 periods behind
        let due = reg.due_timers();
        assert_eq!(due.len(), 1, "one alarm, not nine");
        assert!(reg.due_timers().is_empty(), "rescheduled after now");
        handle.advance(10);
        assert_eq!(reg.due_timers().len(), 1);
    }
}
