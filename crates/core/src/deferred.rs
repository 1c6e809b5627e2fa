//! Bounded deferred-action queue: async external actions with retry,
//! exponential backoff + jitter, and a counted loss ledger.
//!
//! The paper executes every action synchronously in the raising thread (§5) —
//! fine for LAT inserts, fatal for external sinks that stall. When async mode
//! is on (`MonitorConfig::async_actions`), the *external* actions
//! (`SendMail`, `RunExternal`, `Persist`) are resolved eagerly — templates
//! substituted, rows snapshotted — and enqueued here instead of touching the
//! sink; `Insert`/`Reset`/`SetTimer`/`Cancel` keep the paper's synchronous
//! deferred-side-effect semantics because their effects feed back into LATs
//! and rule state the very next event may read.
//!
//! Containment properties:
//! * the queue is **bounded** ([`DEFAULT_QUEUE_CAPACITY`], or
//!   `MonitorConfig::deferred_capacity`); overflow drops the *oldest* entry
//!   — the queue stays in arrival order, a retry re-entering at the back —
//!   and charges it to the [loss ledger](LossEntry): the event path never
//!   blocks, and no loss is silent;
//! * each failed attempt reschedules with exponential backoff
//!   `base · 2^(attempts−1)` capped at `max_backoff`, ± a seeded jitter
//!   fraction, until `max_attempts` — then the action lands in the ledger as
//!   `retries-exhausted`;
//! * an action runs at most once per attempt: `DeferredQueue::take_due`
//!   removes it under the queue lock, a success is never queued again, and
//!   a failure re-enters the queue only through the retry schedule.

use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlcm_common::Value;
use sqlcm_telemetry::{Describe, Field, Metric};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default bound on the deferred-action queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Bound on distinct (rule, reason) loss-ledger entries; beyond it, losses
/// still count into a catch-all `"…"` rule entry so totals stay conserved.
const LEDGER_CAPACITY: usize = 256;

/// Seed for the jitter RNG — fixed so retry schedules are reproducible.
const JITTER_SEED: u64 = 0x51C3;

/// Retry schedule for deferred external actions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries). 1 ⇒ no retries.
    pub max_attempts: u32,
    /// Backoff before retry n (1-based) is `base · 2^(n−1)`, capped below.
    pub base_backoff_micros: u64,
    pub max_backoff_micros: u64,
    /// Jitter fraction: the actual backoff is uniform in
    /// `[backoff·(1−jitter), backoff·(1+jitter)]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_micros: 100_000,
            max_backoff_micros: 10_000_000,
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// Deterministic (pre-jitter) backoff for the retry after `attempts`
    /// failed tries: `base · 2^(attempts−1)`, capped.
    pub fn backoff_micros(&self, attempts: u32) -> u64 {
        let exp = attempts.saturating_sub(1).min(32);
        self.base_backoff_micros
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_micros)
    }
}

/// The resolved payload of a deferred external action. All template
/// substitution and row snapshotting happened at enqueue time, in the raising
/// thread, against the paper-mandated evaluation context.
#[derive(Debug, Clone, PartialEq)]
pub enum DeferredKind {
    Mail {
        to: String,
        body: String,
    },
    Command {
        cmd: String,
    },
    Persist {
        table: String,
        rows: Vec<Vec<Value>>,
    },
}

impl DeferredKind {
    pub fn kind_str(&self) -> &'static str {
        match self {
            DeferredKind::Mail { .. } => "mail",
            DeferredKind::Command { .. } => "command",
            DeferredKind::Persist { .. } => "persist",
        }
    }
}

/// One queued action with its retry bookkeeping.
#[derive(Debug, Clone)]
pub struct DeferredAction {
    /// Rule that produced the action (loss-ledger and breaker attribution).
    pub rule: String,
    pub kind: DeferredKind,
    /// Failed attempts so far.
    pub attempts: u32,
    /// Not eligible to run before this clock instant (micros).
    pub due_micros: u64,
}

/// Why an action was lost, as recorded in the loss ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// Dropped (oldest-first) because the queue was full.
    QueueOverflow,
    /// Dropped after `max_attempts` failed tries.
    RetriesExhausted,
}

impl LossReason {
    pub fn as_str(self) -> &'static str {
        match self {
            LossReason::QueueOverflow => "queue-overflow",
            LossReason::RetriesExhausted => "retries-exhausted",
        }
    }
}

/// One loss-ledger row: `count` actions from `rule` lost for `reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossEntry {
    pub rule: String,
    pub reason: &'static str,
    pub count: u64,
}

impl Describe for LossEntry {
    const FIELDS: &'static [Field<Self>] = &[
        ("rule", |l| Metric::Label(&l.rule)),
        ("reason", |l| Metric::Label(l.reason)),
        ("count", |l| Metric::Count(l.count)),
    ];
}

struct QueueInner {
    queue: VecDeque<DeferredAction>,
    jitter_rng: SmallRng,
    ledger: HashMap<(String, &'static str), u64>,
}

/// The bounded deferred-action queue plus all its counters. Owned by
/// `SqlcmInner`; drained by `Sqlcm::pump_deferred_actions` or the background
/// executor thread.
pub(crate) struct DeferredQueue {
    inner: Mutex<QueueInner>,
    capacity: AtomicUsize,
    policy_bits: Mutex<RetryPolicy>,
    pub enqueued: AtomicU64,
    pub executed: AtomicU64,
    pub failed_attempts: AtomicU64,
    pub retries: AtomicU64,
    pub dropped_overflow: AtomicU64,
    pub dropped_exhausted: AtomicU64,
    pub high_water: AtomicU64,
}

/// What happened to one failed attempt.
pub(crate) enum AttemptOutcome {
    /// Rescheduled; `attempts` is below the policy cap.
    Retry,
    /// Retries exhausted, charged to the ledger.
    Exhausted,
}

impl DeferredQueue {
    pub fn new() -> DeferredQueue {
        DeferredQueue {
            inner: Mutex::new(QueueInner {
                queue: VecDeque::new(),
                jitter_rng: SmallRng::seed_from_u64(JITTER_SEED),
                ledger: HashMap::new(),
            }),
            capacity: AtomicUsize::new(DEFAULT_QUEUE_CAPACITY),
            policy_bits: Mutex::new(RetryPolicy::default()),
            enqueued: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            failed_attempts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            dropped_overflow: AtomicU64::new(0),
            dropped_exhausted: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    pub fn set_capacity(&self, cap: usize) {
        self.capacity.store(cap.max(1), Ordering::Relaxed);
    }

    pub fn policy(&self) -> RetryPolicy {
        *self.policy_bits.lock()
    }

    pub fn set_policy(&self, policy: RetryPolicy) {
        *self.policy_bits.lock() = policy;
    }

    pub fn depth(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Enqueue a freshly resolved action. Never blocks: at capacity, the
    /// oldest queued action is dropped into the loss ledger first.
    pub fn enqueue(&self, rule: &str, kind: DeferredKind, now_micros: u64) {
        let action = DeferredAction {
            rule: rule.to_string(),
            kind,
            attempts: 0,
            due_micros: now_micros,
        };
        let depth = self.push_bounded(&mut self.inner.lock(), action);
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Take the first action that is due at `now`, leaving the others in
    /// order: a far-future retry never blocks fresh work, and the front of
    /// the queue stays the oldest action — the one overflow drops.
    pub fn take_due(&self, now_micros: u64) -> Option<DeferredAction> {
        let mut inner = self.inner.lock();
        let at = inner
            .queue
            .iter()
            .position(|a| a.due_micros <= now_micros)?;
        inner.queue.remove(at)
    }

    /// Handle a failed attempt: either reschedule with backoff + jitter or
    /// exhaust into the ledger. `action.attempts` must already count the
    /// failed attempt when passed in (the caller increments before calling).
    pub fn reschedule_or_exhaust(
        &self,
        mut action: DeferredAction,
        now_micros: u64,
    ) -> AttemptOutcome {
        self.failed_attempts.fetch_add(1, Ordering::Relaxed);
        let policy = self.policy();
        if action.attempts >= policy.max_attempts {
            let mut inner = self.inner.lock();
            Self::charge_loss(
                &mut inner.ledger,
                &action.rule,
                LossReason::RetriesExhausted,
            );
            drop(inner);
            self.dropped_exhausted.fetch_add(1, Ordering::Relaxed);
            return AttemptOutcome::Exhausted;
        }
        let base = policy.backoff_micros(action.attempts);
        let jitter = policy.jitter.clamp(0.0, 1.0);
        let mut inner = self.inner.lock();
        let factor = if jitter > 0.0 {
            inner.jitter_rng.gen_range(1.0 - jitter..=1.0 + jitter)
        } else {
            1.0
        };
        action.due_micros = now_micros.saturating_add((base as f64 * factor) as u64);
        // Re-entry respects the bound too: a retry can displace the oldest.
        self.push_bounded(&mut inner, action);
        drop(inner);
        self.retries.fetch_add(1, Ordering::Relaxed);
        AttemptOutcome::Retry
    }

    /// The one overflow policy: drop the oldest queued actions into the
    /// ledger until there is room under the bound, then push `action` at the
    /// back. Returns the new depth.
    fn push_bounded(&self, inner: &mut QueueInner, action: DeferredAction) -> u64 {
        let cap = self.capacity();
        while inner.queue.len() >= cap {
            let Some(victim) = inner.queue.pop_front() else {
                break;
            };
            Self::charge_loss(&mut inner.ledger, &victim.rule, LossReason::QueueOverflow);
            self.dropped_overflow.fetch_add(1, Ordering::Relaxed);
        }
        inner.queue.push_back(action);
        inner.queue.len() as u64
    }

    fn charge_loss(ledger: &mut HashMap<(String, &'static str), u64>, rule: &str, why: LossReason) {
        let reason = why.as_str();
        if let Some(n) = ledger.get_mut(&(rule.to_string(), reason)) {
            *n += 1;
            return;
        }
        let key = if ledger.len() >= LEDGER_CAPACITY {
            ("…".to_string(), reason)
        } else {
            (rule.to_string(), reason)
        };
        *ledger.entry(key).or_insert(0) += 1;
    }

    /// Snapshot of the loss ledger, sorted for stable output.
    pub fn losses(&self) -> Vec<LossEntry> {
        let inner = self.inner.lock();
        let mut out: Vec<LossEntry> = inner
            .ledger
            .iter()
            .map(|((rule, reason), count)| LossEntry {
                rule: rule.clone(),
                reason,
                count: *count,
            })
            .collect();
        drop(inner);
        out.sort_by(|a, b| (&a.rule, a.reason).cmp(&(&b.rule, b.reason)));
        out
    }

    /// Total losses across the ledger (conservation checks).
    pub fn total_losses(&self) -> u64 {
        self.dropped_overflow.load(Ordering::Relaxed)
            + self.dropped_exhausted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mail(rule: &str) -> DeferredKind {
        DeferredKind::Mail {
            to: format!("{rule}@x"),
            body: "b".into(),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff_micros: 100,
            max_backoff_micros: 1_000,
            jitter: 0.0,
        };
        assert_eq!(p.backoff_micros(1), 100);
        assert_eq!(p.backoff_micros(2), 200);
        assert_eq!(p.backoff_micros(3), 400);
        assert_eq!(p.backoff_micros(4), 800);
        assert_eq!(p.backoff_micros(5), 1_000, "capped");
        assert_eq!(p.backoff_micros(30), 1_000);
    }

    #[test]
    fn overflow_drops_oldest_into_ledger() {
        let q = DeferredQueue::new();
        q.set_capacity(2);
        q.enqueue("r1", mail("r1"), 0);
        q.enqueue("r2", mail("r2"), 0);
        q.enqueue("r3", mail("r3"), 0);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.dropped_overflow.load(Ordering::Relaxed), 1);
        let losses = q.losses();
        assert_eq!(losses.len(), 1);
        assert_eq!(losses[0].rule, "r1");
        assert_eq!(losses[0].reason, "queue-overflow");
        assert_eq!(losses[0].count, 1);
        // The survivors are the two newest.
        assert_eq!(q.take_due(0).unwrap().rule, "r2");
        assert_eq!(q.take_due(0).unwrap().rule, "r3");
    }

    #[test]
    fn take_due_skips_future_retries() {
        let q = DeferredQueue::new();
        q.enqueue("early", mail("early"), 0);
        let mut a = q.take_due(0).unwrap();
        a.attempts = 1;
        q.set_policy(RetryPolicy {
            jitter: 0.0,
            ..Default::default()
        });
        // Re-queue with a future due time, then enqueue fresh work behind it.
        assert!(matches!(
            q.reschedule_or_exhaust(a, 0),
            AttemptOutcome::Retry
        ));
        q.enqueue("fresh", mail("fresh"), 0);
        // At t=0 only "fresh" is due even though "early" is in front.
        assert_eq!(q.take_due(0).unwrap().rule, "fresh");
        assert!(q.take_due(0).is_none());
        // After the backoff elapses the retry becomes due.
        assert_eq!(q.take_due(200_000).unwrap().rule, "early");
    }

    /// Taking a due action from behind a not-yet-due retry keeps the retry in
    /// front: at capacity the next enqueue drops the retry — the oldest —
    /// not the fresh action queued after it.
    #[test]
    fn take_due_keeps_the_oldest_in_front() {
        let q = DeferredQueue::new();
        q.set_capacity(3);
        q.set_policy(RetryPolicy {
            jitter: 0.0,
            ..Default::default()
        });
        q.enqueue("retry", mail("retry"), 0);
        let mut a = q.take_due(0).unwrap();
        a.attempts = 1;
        assert!(matches!(
            q.reschedule_or_exhaust(a, 0),
            AttemptOutcome::Retry
        ));
        q.enqueue("f1", mail("f1"), 0);
        q.enqueue("f2", mail("f2"), 0);
        assert_eq!(q.take_due(0).unwrap().rule, "f1");
        q.enqueue("f3", mail("f3"), 0);
        q.enqueue("f4", mail("f4"), 0);
        let losses = q.losses();
        assert_eq!(losses.len(), 1);
        assert_eq!(losses[0].rule, "retry", "overflow dropped a newer action");
        for rule in ["f2", "f3", "f4"] {
            assert_eq!(q.take_due(u64::MAX).unwrap().rule, rule);
        }
    }

    #[test]
    fn exhaustion_lands_in_ledger() {
        let q = DeferredQueue::new();
        q.set_policy(RetryPolicy {
            max_attempts: 2,
            jitter: 0.0,
            ..Default::default()
        });
        q.enqueue("r", mail("r"), 0);
        let mut a = q.take_due(0).unwrap();
        a.attempts += 1;
        assert!(matches!(
            q.reschedule_or_exhaust(a, 0),
            AttemptOutcome::Retry
        ));
        let mut a = q.take_due(u64::MAX).unwrap();
        a.attempts += 1;
        assert!(matches!(
            q.reschedule_or_exhaust(a, 0),
            AttemptOutcome::Exhausted
        ));
        assert_eq!(q.dropped_exhausted.load(Ordering::Relaxed), 1);
        assert_eq!(q.losses()[0].reason, "retries-exhausted");
        // Conservation: enqueued == executed + losses + depth.
        assert_eq!(
            q.enqueued.load(Ordering::Relaxed),
            q.executed.load(Ordering::Relaxed) + q.total_losses() + q.depth() as u64
        );
    }
}
