//! Fault containment: per-rule circuit breakers and the overload ladder.
//!
//! The paper's synchronous evaluation model (§5) means a misbehaving rule —
//! one whose condition or actions start erroring, or whose latency explodes —
//! taxes the monitored workload directly. This module bounds that damage:
//!
//! * **Per-rule circuit breakers** ([`RuleBreaker`]) keep a sliding window of
//!   the last [`BREAKER_WINDOW`] evaluation outcomes in a single atomic
//!   bitmask. When the error (or over-latency-budget) count within the window
//!   crosses the threshold, the rule trips `Closed → Open` and is
//!   quarantined: its in-service bit (`Rule::in_service`, the one flag
//!   dispatch pins per event) is cleared in place. The rule stays in its
//!   dispatch plan and its guard index — no transition rebuilds anything.
//!   After `cooldown_micros` the breaker moves `Open → HalfOpen` and the bit
//!   is set again, on probation: exactly one trial evaluation is let
//!   through; success closes the breaker, failure re-opens it and restarts
//!   the cooldown. Breakers are always on; every rule is judged by the one
//!   [`BreakerConfig`] the monitor keeps ([`Containment::breaker`], set
//!   through `MonitorConfig::breaker`), so a threshold change applies to
//!   rules registered before it and after it. A rule that must never trip
//!   gets thresholds above [`BREAKER_WINDOW`] — a value, not a switch.
//! * **The overload ladder** ([`OverloadPolicy`]) estimates the event rate at
//!   a fixed checkpoint cadence (every [`LADDER_CHECK_INTERVAL`] events) and
//!   steps through degradation stages with hysteresis:
//!   `Full → ShedTracing → SampleLowPriority → Tightened`. Stage 1 suppresses
//!   causal-trace sampling, stage 2 samples low-priority rules 1-in-2^k,
//!   stage 3 halves every breaker threshold so flaky rules quarantine faster.
//!   Every transition is counted, flight-recorded, and (when a rule
//!   subscribes) dispatched as a synthetic `Monitor`-class event.
//!
//! Healthy-path cost discipline: recording a good outcome into a clean
//! window is one relaxed read-modify-write (the sequence) and two loads — no
//! locks, no allocation, no clock read, no threshold read (the thresholds
//! and the clock are consulted only on a bad outcome, and the clock only when
//! a breaker actually trips or a quarantined rule is scanned for
//! re-admission). The whole-system differential suite pins that a healthy
//! run with breakers live matches the breaker-less reference monitor.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};

use parking_lot::RwLock;
use sqlcm_telemetry::ShardedCounter;

/// Sliding-window width in outcomes (one bit per outcome; fixed so the whole
/// window lives in one `AtomicU64`).
pub const BREAKER_WINDOW: u32 = 64;

/// Events between containment checkpoints (re-admission scan + ladder step).
/// Power of two: the gate is a mask test on the global event counter.
pub const LADDER_CHECK_INTERVAL: u64 = 1024;

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
    /// latency dimension. The breaker reads the latency telemetry measured
    /// and adds no clock reads of its own.
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

impl BreakerConfig {
    /// The thresholds halved (ladder stage 3), none below 1.
    pub fn tightened(self) -> BreakerConfig {
        BreakerConfig {
            error_threshold: (self.error_threshold / 2).max(1),
            slow_threshold: (self.slow_threshold / 2).max(1),
            min_outcomes: (self.min_outcomes / 2).max(1),
            ..self
        }
    }
}

/// The per-rule breaker: state and window, judged by the thresholds the
/// caller passes in. Lives on [`crate::plan::Registered`], so it survives
/// plan rebuilds, enable/disable cycles, and LAT churn.
#[derive(Default)]
pub(crate) struct RuleBreaker {
    state: AtomicU8,
    /// Outcomes recorded since the last window reset (positions the ring).
    seq: AtomicU64,
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

    /// Record one `Closed`-state outcome into the sliding window; returns
    /// `true` when this outcome tripped the breaker (the caller then
    /// quarantines the rule). `thresholds` is called only on a bad outcome,
    /// `now` only on an actual trip.
    pub fn record_outcome(
        &self,
        error: bool,
        slow: bool,
        thresholds: impl FnOnce() -> BreakerConfig,
        now: impl FnOnce() -> u64,
    ) -> bool {
        let pos = self.seq.fetch_add(1, Ordering::Relaxed) & (BREAKER_WINDOW as u64 - 1);
        let bit = 1u64 << pos;
        // A good outcome leaves a mask whose bit is already clear alone: a
        // healthy rule's window stays all-zero, read but never written, and
        // the sequence above is its one read-modify-write.
        let put = |mask: &AtomicU64, bad: bool| {
            if bad {
                mask.fetch_or(bit, Ordering::Relaxed);
            } else if mask.load(Ordering::Relaxed) & bit != 0 {
                mask.fetch_and(!bit, Ordering::Relaxed);
            }
        };
        put(&self.err_mask, error);
        put(&self.slow_mask, slow);
        if !error && !slow {
            return false;
        }
        // Trip check only on a bad outcome — the healthy path never counts
        // bits or reads thresholds.
        let cfg = thresholds();
        if self.seq.load(Ordering::Relaxed) < u64::from(cfg.min_outcomes) {
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
    /// (the rule starts from a clean slate; `min_outcomes` applies afresh).
    pub fn trial_succeeded(&self) {
        self.seq.store(0, Ordering::Relaxed);
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

// ------------------------------------------------------------ overload ladder

/// Degradation stages of the overload ladder, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverloadStage {
    /// Everything on.
    Full,
    /// Causal-trace sampling suppressed.
    ShedTracing,
    /// Low-priority rules evaluated 1-in-2^k.
    SampleLowPriority,
    /// Breaker thresholds halved on top of stages 1–2.
    Tightened,
}

impl OverloadStage {
    pub fn from_u8(v: u8) -> OverloadStage {
        match v {
            1 => OverloadStage::ShedTracing,
            2 => OverloadStage::SampleLowPriority,
            3 => OverloadStage::Tightened,
            _ => OverloadStage::Full,
        }
    }

    pub fn as_u8(self) -> u8 {
        match self {
            OverloadStage::Full => 0,
            OverloadStage::ShedTracing => 1,
            OverloadStage::SampleLowPriority => 2,
            OverloadStage::Tightened => 3,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            OverloadStage::Full => "full",
            OverloadStage::ShedTracing => "shed-tracing",
            OverloadStage::SampleLowPriority => "sample-low-priority",
            OverloadStage::Tightened => "tightened",
        }
    }
}

/// Event-rate thresholds for the overload ladder. The ladder is opt-in
/// (`MonitorConfig::overload`); with no policy installed the per-event
/// cost is a masked counter test and nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Events/second that *enter* stage 1 (shed tracing).
    pub stage1_events_per_sec: f64,
    /// Events/second that enter stage 2 (sample low-priority rules).
    pub stage2_events_per_sec: f64,
    /// Events/second that enter stage 3 (tighten breakers).
    pub stage3_events_per_sec: f64,
    /// Hysteresis: a stage is exited only when the rate drops below
    /// `enter × (1 − hysteresis)` — and stays there for `quiet_checkpoints`
    /// consecutive checkpoints. Both guards stop threshold flapping.
    pub hysteresis: f64,
    /// Consecutive below-exit-threshold checkpoints required to de-escalate
    /// one stage.
    pub quiet_checkpoints: u32,
    /// Stage ≥ 2 samples low-priority rules 1-in-2^`sample_shift`.
    pub sample_shift: u32,
}

impl Default for OverloadPolicy {
    fn default() -> OverloadPolicy {
        OverloadPolicy {
            stage1_events_per_sec: 50_000.0,
            stage2_events_per_sec: 100_000.0,
            stage3_events_per_sec: 200_000.0,
            hysteresis: 0.2,
            quiet_checkpoints: 2,
            sample_shift: 3,
        }
    }
}

impl OverloadPolicy {
    fn enter_threshold(&self, stage: u8) -> f64 {
        match stage {
            1 => self.stage1_events_per_sec,
            2 => self.stage2_events_per_sec,
            _ => self.stage3_events_per_sec,
        }
    }

    fn exit_threshold(&self, stage: u8) -> f64 {
        self.enter_threshold(stage) * (1.0 - self.hysteresis.clamp(0.0, 1.0))
    }
}

/// A ladder transition computed by [`Containment::ladder_step`], reported to
/// the monitor so it can flight-record it and raise the synthetic event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LadderTransition {
    pub from: OverloadStage,
    pub to: OverloadStage,
    pub rate_events_per_sec: f64,
}

/// Shared containment state owned by `SqlcmInner`: the breaker thresholds,
/// ladder stage, and all containment counters.
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
    stage: AtomicU8,
    policy_on: AtomicBool,
    policy: RwLock<OverloadPolicy>,
    /// `(1 << sample_shift) − 1`, cached for the dispatch path.
    sample_mask: AtomicU64,
    /// Low-priority sampling tick (advances only while stage ≥ 2).
    pub shed_seq: AtomicU64,
    /// Registered rules whose quarantine bit is set, kept by the deltas
    /// `Rule::set_quarantined` and `Rule::set_registered` report: zero lets
    /// the checkpoint skip its walk for breakers to re-admit.
    pub quarantined: AtomicI64,
    last_check_micros: AtomicU64,
    last_check_events: AtomicU64,
    quiet_checkpoints: AtomicU32,
    pub transitions: ShardedCounter,
    pub shed_traces: ShardedCounter,
    pub shed_evaluations: ShardedCounter,
    pub breaker_trips: ShardedCounter,
    pub breaker_reopens: ShardedCounter,
    pub breaker_closes: ShardedCounter,
    pub breaker_skips: ShardedCounter,
}

impl Containment {
    pub fn new() -> Containment {
        let policy = OverloadPolicy::default();
        let c = Containment {
            error_threshold: AtomicU32::new(0),
            slow_threshold: AtomicU32::new(0),
            min_outcomes: AtomicU32::new(0),
            latency_budget_nanos: AtomicU64::new(0),
            cooldown_micros: AtomicU64::new(0),
            stage: AtomicU8::new(0),
            policy_on: AtomicBool::new(false),
            sample_mask: AtomicU64::new((1u64 << policy.sample_shift) - 1),
            policy: RwLock::new(policy),
            shed_seq: AtomicU64::new(0),
            quarantined: AtomicI64::new(0),
            last_check_micros: AtomicU64::new(0),
            last_check_events: AtomicU64::new(0),
            quiet_checkpoints: AtomicU32::new(0),
            transitions: ShardedCounter::new(),
            shed_traces: ShardedCounter::new(),
            shed_evaluations: ShardedCounter::new(),
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

    /// The thresholds a bad outcome is judged by: [`Containment::breaker`],
    /// halved at ladder stage 3.
    pub fn trip_thresholds(&self) -> BreakerConfig {
        let cfg = self.breaker();
        if self.stage() >= 3 {
            cfg.tightened()
        } else {
            cfg
        }
    }

    /// Per-evaluation latency budget in nanoseconds, 0 when off.
    pub fn latency_budget_nanos(&self) -> u64 {
        self.latency_budget_nanos.load(Ordering::Relaxed)
    }

    pub fn stage(&self) -> u8 {
        self.stage.load(Ordering::Relaxed)
    }

    pub fn sample_mask(&self) -> u64 {
        self.sample_mask.load(Ordering::Relaxed)
    }

    pub fn policy_enabled(&self) -> bool {
        self.policy_on.load(Ordering::Relaxed)
    }

    /// The installed ladder policy, if any.
    pub fn policy(&self) -> Option<OverloadPolicy> {
        self.policy_enabled().then(|| *self.policy.read())
    }

    /// Install (or update) the ladder policy, `now` anchoring its first rate
    /// window; `None` disables the ladder and returns it to `Full`.
    pub fn set_policy(&self, policy: Option<OverloadPolicy>, now_micros: u64, events_now: u64) {
        self.quiet_checkpoints.store(0, Ordering::Relaxed);
        let Some(policy) = policy else {
            self.policy_on.store(false, Ordering::Relaxed);
            self.stage.store(0, Ordering::Relaxed);
            return;
        };
        self.sample_mask
            .store((1u64 << policy.sample_shift.min(20)) - 1, Ordering::Relaxed);
        *self.policy.write() = policy;
        self.last_check_micros.store(now_micros, Ordering::Relaxed);
        self.last_check_events.store(events_now, Ordering::Relaxed);
        self.policy_on.store(true, Ordering::Relaxed);
    }

    /// One ladder checkpoint: estimate the event rate since the previous
    /// checkpoint and move at most one stage up or down. Cold path (runs
    /// every [`LADDER_CHECK_INTERVAL`] events, and only with a policy on).
    pub fn ladder_step(&self, now_micros: u64, events_now: u64) -> Option<LadderTransition> {
        if !self.policy_on.load(Ordering::Relaxed) {
            return None;
        }
        let prev_t = self.last_check_micros.swap(now_micros, Ordering::Relaxed);
        let prev_e = self.last_check_events.swap(events_now, Ordering::Relaxed);
        let dt = now_micros.saturating_sub(prev_t);
        if dt == 0 {
            return None;
        }
        let rate = events_now.saturating_sub(prev_e) as f64 / (dt as f64 / 1e6);
        let policy = *self.policy.read();
        let cur = self.stage.load(Ordering::Relaxed);
        // Escalate one stage per checkpoint while above the next threshold.
        if cur < 3 && rate >= policy.enter_threshold(cur + 1) {
            self.quiet_checkpoints.store(0, Ordering::Relaxed);
            self.stage.store(cur + 1, Ordering::Relaxed);
            return Some(LadderTransition {
                from: OverloadStage::from_u8(cur),
                to: OverloadStage::from_u8(cur + 1),
                rate_events_per_sec: rate,
            });
        }
        // De-escalate only after `quiet_checkpoints` consecutive windows
        // below the exit threshold of the current stage.
        if cur > 0 && rate < policy.exit_threshold(cur) {
            let quiet = self.quiet_checkpoints.fetch_add(1, Ordering::Relaxed) + 1;
            if quiet >= policy.quiet_checkpoints.max(1) {
                self.quiet_checkpoints.store(0, Ordering::Relaxed);
                self.stage.store(cur - 1, Ordering::Relaxed);
                return Some(LadderTransition {
                    from: OverloadStage::from_u8(cur),
                    to: OverloadStage::from_u8(cur - 1),
                    rate_events_per_sec: rate,
                });
            }
        } else {
            self.quiet_checkpoints.store(0, Ordering::Relaxed);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip_now(b: &RuleBreaker, cfg: BreakerConfig, n: u32) -> bool {
        let mut tripped = false;
        for _ in 0..n {
            tripped |= b.record_outcome(true, false, || cfg, || 1_000);
        }
        tripped
    }

    #[test]
    fn breaker_trips_only_past_min_outcomes_and_threshold() {
        let b = RuleBreaker::default();
        let cfg = BreakerConfig {
            error_threshold: 4,
            min_outcomes: 8,
            ..Default::default()
        };
        // 7 outcomes (4 errors) — under min_outcomes, no trip.
        for i in 0..7 {
            assert!(!b.record_outcome(i % 2 == 0, false, || cfg, || 0));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // 8th outcome is the 4th error within the window and past min.
        assert!(b.record_outcome(true, false, || cfg, || 123));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn window_slides_old_errors_out() {
        let b = RuleBreaker::default();
        let cfg = BreakerConfig {
            error_threshold: 8,
            min_outcomes: 4,
            ..Default::default()
        };
        // 7 errors, then > 64 successes: the errors age out of the mask.
        assert!(!trip_now(&b, cfg, 7));
        for _ in 0..70 {
            assert!(!b.record_outcome(false, false, || cfg, || 0));
        }
        // 7 fresh errors still under the threshold of 8.
        assert!(!trip_now(&b, cfg, 7));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_one_trial_and_outcome_decides() {
        let b = RuleBreaker::default();
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
        b.trial_succeeded();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.gate(), BreakerGate::Proceed);
    }

    #[test]
    fn tighten_halves_thresholds() {
        let b = RuleBreaker::default();
        let cfg = BreakerConfig {
            error_threshold: 8,
            min_outcomes: 8,
            ..Default::default()
        };
        // 4 errors in 8 outcomes: trips only when tightened (8/2 = 4).
        for _ in 0..4 {
            assert!(!b.record_outcome(false, false, || cfg.tightened(), || 0));
        }
        let mut tripped = false;
        for _ in 0..4 {
            tripped |= b.record_outcome(true, false, || cfg.tightened(), || 0);
        }
        assert!(tripped);
    }

    #[test]
    fn ladder_escalates_and_deescalates_with_hysteresis() {
        let c = Containment::new();
        let policy = OverloadPolicy {
            stage1_events_per_sec: 100.0,
            stage2_events_per_sec: 200.0,
            stage3_events_per_sec: 400.0,
            hysteresis: 0.5,
            quiet_checkpoints: 2,
            sample_shift: 2,
        };
        c.set_policy(Some(policy), 0, 0);
        // 1s window with 150 events: 150 ev/s ≥ stage-1 enter.
        let t = c.ladder_step(1_000_000, 150).unwrap();
        assert_eq!(
            (t.from, t.to),
            (OverloadStage::Full, OverloadStage::ShedTracing)
        );
        assert_eq!(c.stage(), 1);
        // 250 ev/s: stage 2.
        assert!(c.ladder_step(2_000_000, 400).is_some());
        assert_eq!(c.stage(), 2);
        // 120 ev/s: above the stage-2 exit threshold (200 × 0.5 = 100) — hold.
        assert!(c.ladder_step(3_000_000, 520).is_none());
        assert_eq!(c.stage(), 2);
        // Two consecutive quiet windows (50 ev/s < 100) de-escalate one stage.
        assert!(c.ladder_step(4_000_000, 570).is_none());
        let t = c.ladder_step(5_000_000, 620).unwrap();
        assert_eq!(t.to, OverloadStage::ShedTracing);
        assert_eq!(c.stage(), 1);
    }

    #[test]
    fn clear_policy_returns_to_full() {
        let c = Containment::new();
        c.set_policy(Some(OverloadPolicy::default()), 0, 0);
        c.stage.store(3, Ordering::Relaxed);
        c.set_policy(None, 0, 0);
        assert_eq!(c.stage(), 0);
        assert!(c.ladder_step(1_000_000, 1_000_000).is_none());
    }
}
