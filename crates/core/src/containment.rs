//! Fault containment: per-rule circuit breakers.
//!
//! The paper's synchronous evaluation model (§5) means a misbehaving rule —
//! one whose condition or actions start erroring, or whose latency explodes —
//! taxes the monitored workload directly. A per-rule circuit breaker
//! (`RuleBreaker`) bounds that damage. It keeps a sliding window of the
//! last [`BREAKER_WINDOW`] evaluation outcomes in a single atomic bitmask.
//! When the error (or over-latency-budget) count within the window crosses
//! the threshold, the rule trips `Closed → Open` and is quarantined: its
//! in-service bit (`Rule::in_service`, the one flag dispatch pins per event)
//! is cleared in place. The rule stays in its dispatch plan and its guard
//! index — no transition rebuilds anything. After `cooldown_micros` the
//! breaker moves `Open → HalfOpen` (the monitor scans for expired cooldowns
//! every [`CHECKPOINT_INTERVAL`] events) and the bit is set again, on
//! probation: exactly one trial evaluation is let through; success closes
//! the breaker, failure re-opens it and restarts the cooldown. Breakers are
//! always on; every rule is judged by the one [`BreakerConfig`] the monitor
//! keeps (`Containment::breaker`, set through `MonitorConfig::breaker`), so
//! a threshold change applies to rules registered before it and after it. A
//! rule that must never trip gets thresholds above [`BREAKER_WINDOW`] — a
//! value, not a switch. There is no load shedding: the event path is kept
//! cheap enough to leave on instead.
//!
//! Healthy-path cost discipline: the window's position is the number of
//! outcomes recorded since its last reset, and that count is striped by
//! dispatcher in the rule's books (`crate::rules::RuleBooks`). Recording a
//! good outcome into a clean window is one relaxed read-modify-write of the
//! caller's own stripe and two loads of masks nobody writes — no shared line
//! written, no locks, no allocation, no clock read, no threshold read. Only a
//! bad outcome, or a window that is not clean, sums the stripes for its
//! position (exact when outcomes arrive one at a time, which is when the
//! window is an ordered sequence at all) and sets or clears its bit in the
//! shared masks; the thresholds and the clock are consulted only on a bad
//! outcome, and the clock only when a breaker actually trips or a
//! quarantined rule is scanned for re-admission. The whole-system
//! differential tests (`crates/core/tests/monitor_differential.rs`) run with
//! breakers live and require a healthy run to match a reference monitor that
//! has none.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};

use sqlcm_telemetry::ShardedCounter;

use crate::rules::RuleBooks;

/// Sliding-window width in outcomes (one bit per outcome; fixed so the whole
/// window lives in one `AtomicU64`).
pub const BREAKER_WINDOW: u32 = 64;

/// Events between scans for quarantined rules whose cooldown expired.
/// Power of two: the gate is a mask test on the global event counter.
pub const CHECKPOINT_INTERVAL: u64 = 1024;

/// Breaker state machine states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; outcomes feed the sliding window.
    Closed,
    /// Tripped: the rule is quarantined — out of service — until the
    /// cooldown expires.
    Open,
    /// Probation: the rule is back in service, but only one trial
    /// evaluation is admitted at a time.
    HalfOpen,
}

impl BreakerState {
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

const ST_CLOSED: u8 = 0;
const ST_OPEN: u8 = 1;
const ST_HALF_OPEN: u8 = 2;

/// Breaker thresholds, one set for every rule. All counts are *within the
/// sliding window of the last [`BREAKER_WINDOW`] outcomes*, so a threshold
/// above it never trips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Errored outcomes within the window that trip the breaker.
    pub error_threshold: u32,
    /// Outcomes over the latency budget within the window that trip it.
    pub slow_threshold: u32,
    /// Outcomes that must have been recorded (since the last reset) before
    /// the breaker may trip — a fresh rule is not tripped by its first error.
    pub min_outcomes: u32,
    /// Per-evaluation latency budget in nanoseconds; `None` disables the
    /// latency dimension. The breaker judges the spans the latency telemetry
    /// measures, and its slow check needs every one: while a budget is set,
    /// every evaluation and every firing is timed, not one in 64 per rule.
    pub latency_budget_nanos: Option<u64>,
    /// Quarantine duration before the `Open → HalfOpen` probation.
    pub cooldown_micros: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            error_threshold: 32,
            slow_threshold: 48,
            min_outcomes: BREAKER_WINDOW,
            latency_budget_nanos: None,
            cooldown_micros: 5_000_000,
        }
    }
}

/// The per-rule breaker: state and window, judged by the thresholds the
/// caller passes in. Lives on [`crate::plan::Registered`], so it survives
/// plan rebuilds, enable/disable cycles, and LAT churn. The count of
/// outcomes that positions the window lives in the rule's books.
#[derive(Default)]
pub(crate) struct RuleBreaker {
    state: AtomicU8,
    /// Ring of the last 64 outcomes: bit set ⇒ errored.
    err_mask: AtomicU64,
    /// Ring of the last 64 outcomes: bit set ⇒ over the latency budget.
    slow_mask: AtomicU64,
    /// When an `Open` breaker may move to `HalfOpen` (clock micros).
    reopen_at: AtomicU64,
    /// `HalfOpen` trial admission latch (one trial at a time).
    trial_inflight: AtomicBool,
    /// Times this breaker tripped `Closed → Open` or re-opened from a failed
    /// trial.
    trips: AtomicU64,
    /// Evaluations skipped because the breaker was not `Closed`.
    skipped: AtomicU64,
}

/// What the dispatch path should do with one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerGate {
    /// Evaluate normally.
    Proceed,
    /// Evaluate as the half-open trial: the outcome decides close vs re-open.
    Trial,
    /// Skip the evaluation (quarantined, or a trial is already in flight).
    Skip,
}

impl RuleBreaker {
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Relaxed) {
            ST_OPEN => BreakerState::Open,
            ST_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    pub fn is_open(&self) -> bool {
        self.state.load(Ordering::Relaxed) == ST_OPEN
    }

    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Admission decision for one evaluation. `Closed` is the steady state:
    /// one relaxed load.
    pub fn gate(&self) -> BreakerGate {
        match self.state.load(Ordering::Relaxed) {
            ST_CLOSED => BreakerGate::Proceed,
            ST_HALF_OPEN
                if self
                    .trial_inflight
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok() =>
            {
                BreakerGate::Trial
            }
            _ => {
                self.skipped.fetch_add(1, Ordering::Relaxed);
                BreakerGate::Skip
            }
        }
    }

    /// Record one `Closed`-state outcome into the sliding window, counting
    /// it in the caller's stripe of the rule's `books`; returns
    /// `true` when this outcome tripped the breaker (the caller then
    /// quarantines the rule). `thresholds` is called only on a bad outcome,
    /// `now` only on an actual trip.
    pub fn record_outcome(
        &self,
        books: &RuleBooks,
        error: bool,
        slow: bool,
        thresholds: impl FnOnce() -> BreakerConfig,
        now: impl FnOnce() -> u64,
    ) -> bool {
        books.mine().outcomes.fetch_add(1, Ordering::Relaxed);
        let bad = error || slow;
        // A good outcome into a clean window leaves both masks as they are:
        // its bit is already clear, wherever the window stands.
        if !bad
            && self.err_mask.load(Ordering::Relaxed) == 0
            && self.slow_mask.load(Ordering::Relaxed) == 0
        {
            return false;
        }
        let recorded = books.outcomes();
        // A reset racing this outcome can leave the sum at 0.
        let bit = 1u64 << (recorded.wrapping_sub(1) & (BREAKER_WINDOW as u64 - 1));
        let put = |mask: &AtomicU64, bad: bool| {
            if bad {
                mask.fetch_or(bit, Ordering::Relaxed);
            } else if mask.load(Ordering::Relaxed) & bit != 0 {
                mask.fetch_and(!bit, Ordering::Relaxed);
            }
        };
        put(&self.err_mask, error);
        put(&self.slow_mask, slow);
        if !bad {
            return false;
        }
        // Trip check only on a bad outcome — the healthy path never counts
        // bits or reads thresholds.
        let cfg = thresholds();
        if recorded < u64::from(cfg.min_outcomes) {
            return false;
        }
        let errs = self.err_mask.load(Ordering::Relaxed).count_ones();
        let slows = self.slow_mask.load(Ordering::Relaxed).count_ones();
        if errs < cfg.error_threshold && slows < cfg.slow_threshold {
            return false;
        }
        self.trip(now(), cfg.cooldown_micros)
    }

    /// `Closed/HalfOpen → Open` with a fresh cooldown. Returns whether this
    /// call performed the transition (concurrent trippers race; one wins).
    fn trip(&self, now_micros: u64, cooldown_micros: u64) -> bool {
        let prev = self.state.swap(ST_OPEN, Ordering::AcqRel);
        if prev == ST_OPEN {
            return false;
        }
        self.reopen_at.store(
            now_micros.saturating_add(cooldown_micros),
            Ordering::Relaxed,
        );
        self.trial_inflight.store(false, Ordering::Relaxed);
        self.trips.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// `Open → HalfOpen` once the cooldown expired. Returns whether this call
    /// performed the transition.
    pub fn maybe_half_open(&self, now_micros: u64) -> bool {
        if self.state.load(Ordering::Relaxed) != ST_OPEN
            || now_micros < self.reopen_at.load(Ordering::Relaxed)
        {
            return false;
        }
        if self
            .state
            .compare_exchange(ST_OPEN, ST_HALF_OPEN, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.trial_inflight.store(false, Ordering::Relaxed);
        true
    }

    /// Successful half-open trial: close the breaker and reset the window
    /// (the rule starts from a clean slate; `min_outcomes` applies afresh):
    /// every stripe of the outcome count in `books` is zeroed.
    pub fn trial_succeeded(&self, books: &RuleBooks) {
        books.reset_outcomes();
        self.err_mask.store(0, Ordering::Relaxed);
        self.slow_mask.store(0, Ordering::Relaxed);
        self.state.store(ST_CLOSED, Ordering::Release);
        self.trial_inflight.store(false, Ordering::Relaxed);
    }

    /// Failed half-open trial: back to `Open`, cooldown restarted from `now`.
    pub fn trial_failed(&self, now_micros: u64, cooldown_micros: u64) -> bool {
        self.trip(now_micros, cooldown_micros)
    }
}

/// Shared containment state owned by `SqlcmInner`: the breaker thresholds
/// and all containment counters.
pub(crate) struct Containment {
    // The one stored copy of the breaker thresholds, as atomics: the latency
    // budget is read per evaluation with one relaxed load, the rest only on
    // a bad outcome.
    error_threshold: AtomicU32,
    slow_threshold: AtomicU32,
    min_outcomes: AtomicU32,
    /// 0 ⇒ latency dimension off.
    latency_budget_nanos: AtomicU64,
    cooldown_micros: AtomicU64,
    /// Registered rules whose quarantine bit is set, kept by the deltas
    /// `Rule::set_quarantined` and `Rule::set_registered` report: zero lets
    /// the checkpoint skip its walk for breakers to re-admit.
    pub quarantined: AtomicI64,
    pub breaker_trips: ShardedCounter,
    pub breaker_reopens: ShardedCounter,
    pub breaker_closes: ShardedCounter,
    pub breaker_skips: ShardedCounter,
}

impl Containment {
    pub fn new() -> Containment {
        let c = Containment {
            error_threshold: AtomicU32::new(0),
            slow_threshold: AtomicU32::new(0),
            min_outcomes: AtomicU32::new(0),
            latency_budget_nanos: AtomicU64::new(0),
            cooldown_micros: AtomicU64::new(0),
            quarantined: AtomicI64::new(0),
            breaker_trips: ShardedCounter::new(),
            breaker_reopens: ShardedCounter::new(),
            breaker_closes: ShardedCounter::new(),
            breaker_skips: ShardedCounter::new(),
        };
        c.set_breaker(BreakerConfig::default());
        c
    }

    /// Replace the breaker thresholds every rule is judged by (state and
    /// windows are untouched; trip thresholds are clamped to at least 1).
    pub fn set_breaker(&self, cfg: BreakerConfig) {
        self.error_threshold
            .store(cfg.error_threshold.max(1), Ordering::Relaxed);
        self.slow_threshold
            .store(cfg.slow_threshold.max(1), Ordering::Relaxed);
        self.min_outcomes.store(cfg.min_outcomes, Ordering::Relaxed);
        self.latency_budget_nanos
            .store(cfg.latency_budget_nanos.unwrap_or(0), Ordering::Relaxed);
        self.cooldown_micros
            .store(cfg.cooldown_micros, Ordering::Relaxed);
    }

    pub fn breaker(&self) -> BreakerConfig {
        let budget = self.latency_budget_nanos();
        BreakerConfig {
            error_threshold: self.error_threshold.load(Ordering::Relaxed),
            slow_threshold: self.slow_threshold.load(Ordering::Relaxed),
            min_outcomes: self.min_outcomes.load(Ordering::Relaxed),
            latency_budget_nanos: (budget > 0).then_some(budget),
            cooldown_micros: self.cooldown_micros.load(Ordering::Relaxed),
        }
    }

    /// Per-evaluation latency budget in nanoseconds, 0 when off.
    pub fn latency_budget_nanos(&self) -> u64 {
        self.latency_budget_nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A breaker with its rule's books, recording on this thread's stripe.
    #[derive(Default)]
    struct Ruled {
        breaker: RuleBreaker,
        books: RuleBooks,
    }

    impl std::ops::Deref for Ruled {
        type Target = RuleBreaker;

        fn deref(&self) -> &RuleBreaker {
            &self.breaker
        }
    }

    impl Ruled {
        fn record(&self, error: bool, slow: bool, cfg: BreakerConfig, now: u64) -> bool {
            self.breaker
                .record_outcome(&self.books, error, slow, || cfg, || now)
        }
    }

    fn trip_now(b: &Ruled, cfg: BreakerConfig, n: u32) -> bool {
        let mut tripped = false;
        for _ in 0..n {
            tripped |= b.record(true, false, cfg, 1_000);
        }
        tripped
    }

    #[test]
    fn breaker_trips_only_past_min_outcomes_and_threshold() {
        let b = Ruled::default();
        let cfg = BreakerConfig {
            error_threshold: 4,
            min_outcomes: 8,
            ..Default::default()
        };
        // 7 outcomes (4 errors) — under min_outcomes, no trip.
        for i in 0..7 {
            assert!(!b.record(i % 2 == 0, false, cfg, 0));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // 8th outcome is the 4th error within the window and past min.
        assert!(b.record(true, false, cfg, 123));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn window_slides_old_errors_out() {
        let b = Ruled::default();
        let cfg = BreakerConfig {
            error_threshold: 8,
            min_outcomes: 4,
            ..Default::default()
        };
        // 7 errors, then > 64 successes: the errors age out of the mask.
        assert!(!trip_now(&b, cfg, 7));
        for _ in 0..70 {
            assert!(!b.record(false, false, cfg, 0));
        }
        // 7 fresh errors still under the threshold of 8.
        assert!(!trip_now(&b, cfg, 7));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_one_trial_and_outcome_decides() {
        let b = Ruled::default();
        let cfg = BreakerConfig {
            error_threshold: 2,
            min_outcomes: 2,
            cooldown_micros: 100,
            ..Default::default()
        };
        assert!(trip_now(&b, cfg, 2));
        assert!(!b.maybe_half_open(50), "cooldown not expired");
        assert!(b.maybe_half_open(1_100));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.gate(), BreakerGate::Trial);
        assert_eq!(b.gate(), BreakerGate::Skip, "second trial denied");
        // Failed trial: re-open, cooldown restarts.
        assert!(b.trial_failed(2_000, cfg.cooldown_micros));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        assert!(!b.maybe_half_open(2_050));
        assert!(b.maybe_half_open(2_100));
        assert_eq!(b.gate(), BreakerGate::Trial);
        b.trial_succeeded(&b.books);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.books.outcomes(), 0);
        assert_eq!(b.gate(), BreakerGate::Proceed);
    }

    /// The window as it was kept before its outcome count was striped: one
    /// sequence positions the ring and every outcome writes its bit. The
    /// reference the striped breaker's sequential behaviour is pinned to.
    #[derive(Default)]
    struct SequenceRing {
        seq: u64,
        err: u64,
        slow: u64,
    }

    impl SequenceRing {
        /// Record one outcome; returns whether the window now trips.
        fn record(&mut self, error: bool, slow: bool, cfg: BreakerConfig) -> bool {
            let bit = 1u64 << (self.seq & (u64::from(BREAKER_WINDOW) - 1));
            self.seq += 1;
            for (mask, bad) in [(&mut self.err, error), (&mut self.slow, slow)] {
                if bad {
                    *mask |= bit;
                } else {
                    *mask &= !bit;
                }
            }
            (error || slow)
                && self.seq >= u64::from(cfg.min_outcomes)
                && (self.err.count_ones() >= cfg.error_threshold
                    || self.slow.count_ones() >= cfg.slow_threshold)
        }
    }

    /// Seeded good / error / slow sequences, in phases of different bad-outcome
    /// rates (a phase with none leaves clean windows behind), through the
    /// striped breaker and the sequence ring: the same outcome trips both,
    /// and after every outcome both masks and the outcome count agree —
    /// across wraps past 64, the `min_outcomes` crossing, and the reset of a
    /// successful half-open trial.
    #[test]
    fn striped_breaker_matches_the_sequence_ring() {
        let mut trips = 0;
        for seed in 0..24u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let cfg = BreakerConfig {
                error_threshold: 4 + next(12) as u32,
                slow_threshold: 4 + next(12) as u32,
                min_outcomes: [0, 10, 64, 100][seed as usize % 4],
                ..Default::default()
            };
            let b = Ruled::default();
            let mut reference = SequenceRing::default();
            let mut bad_per_64 = 0;
            for step in 0..2_000u64 {
                if step % 150 == 0 {
                    bad_per_64 = [0, 1, 4, 16][next(4) as usize];
                }
                let (error, slow) = match next(64) < bad_per_64 {
                    false => (false, false),
                    true => [(true, false), (false, true), (true, true)][next(3) as usize],
                };
                let tripped = b.record(error, slow, cfg, step);
                assert_eq!(
                    tripped,
                    reference.record(error, slow, cfg),
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    (
                        b.err_mask.load(Ordering::Relaxed),
                        b.slow_mask.load(Ordering::Relaxed),
                        b.books.outcomes()
                    ),
                    (reference.err, reference.slow, reference.seq),
                    "seed {seed} step {step}"
                );
                if tripped {
                    trips += 1;
                    assert!(b.maybe_half_open(u64::MAX));
                    assert_eq!(b.gate(), BreakerGate::Trial);
                    b.trial_succeeded(&b.books);
                    reference = SequenceRing::default();
                }
            }
        }
        assert!(trips > 24, "{trips} trips");
    }
}
