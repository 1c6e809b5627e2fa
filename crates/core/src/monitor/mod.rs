//! The SQLCM facade: LAT registry, rule registry, event dispatch.
//!
//! [`Sqlcm::attach`] hooks an instance into a host engine as an
//! [`Instrumentation`] sink. Events are processed *synchronously on the thread
//! that raised them* (paper §6.1); actions whose side effects raise further
//! events (LAT evictions) are queued thread-locally and drained after all rules
//! for the current event ran — the deferred-side-effect semantics of §5 ("any
//! action, that as a side-effect may trigger further events, is not executed
//! synchronously").
//!
//! Rule-evaluation order is fixed: registration order, and "for any given
//! event, all applicable rules are triggered before any later event is
//! processed".
//!
//! The hot path runs on an immutable, published `DispatchPlan` (see
//! [`crate::plan`]): one atomic load per event while the plan is unchanged, no
//! registry locks, and payload objects assembled from pooled thread-local
//! buffers — steady-state dispatch performs zero heap allocations for payload
//! assembly. The plan is a function of the registry: it is rebuilt (and the
//! epoch bumped) by `add_rule`, `remove_rule`, `define_lat` and `drop_lat`,
//! and by nothing else.
//!
//! Everything an operator sets is one [`MonitorConfig`] value, read with
//! [`Sqlcm::config`] and applied with [`Sqlcm::configure`]. Self-telemetry
//! and circuit breakers are not among the settings: both are always on.
//!
//! This file holds the handle, its state, the configuration and the pollers;
//! `registry` holds LATs and rules, `dispatch` everything an event reaches,
//! and `admin` the snapshots and self-monitoring.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};
use sqlcm_common::SharedClock;
use sqlcm_engine::engine::EngineInner;
use sqlcm_engine::instrument::Instrumentation;
use sqlcm_engine::Engine;

use sqlcm_analyze::Analyzer;
use sqlcm_telemetry::ShardedCounter;

use crate::containment::{BreakerConfig, Containment};
use crate::deferred::{AttemptOutcome, DeferredQueue, RetryPolicy};
use crate::lat::Lat;
use crate::objects;
use crate::plan::{DispatchPlan, PlanCell};
use crate::rules::RuleEvent;
use crate::sinks::{CommandSink, MailSink, RecordingCommandSink, RecordingMailSink};
use crate::telemetry::{Telem, SELF_MONITOR_TIMER};
use crate::timer::TimerRegistry;
use crate::trace::{TraceSampling, Tracer};

mod admin;
mod dispatch;
mod registry;

use dispatch::SqlcmMonitor;
use registry::{RuleTable, WarningLog};

/// Aggregate counters for one SQLCM instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SqlcmStats {
    /// Engine events seen (before rule filtering).
    pub events: u64,
    /// Rule-condition evaluations (one per object combination, §5).
    pub evaluations: u64,
    /// Conditions that evaluated true.
    pub fires: u64,
    /// Actions executed.
    pub actions: u64,
    /// Actions that failed (swallowed; see `last_error`).
    pub action_errors: u64,
}

/// Everything an operator sets about a monitor, as one value: read the live
/// settings with [`Sqlcm::config`] and apply a changed copy with
/// [`Sqlcm::configure`] —
/// `sqlcm.configure(MonitorConfig { async_actions: true, ..sqlcm.config() })`.
///
/// Telemetry and circuit breakers are always on and have no field here; a
/// rule that must never trip is one whose thresholds lie above
/// [`crate::containment::BREAKER_WINDOW`]. Operations — `set_rule_enabled`,
/// `set_timer` — are not settings either.
#[derive(Clone)]
pub struct MonitorConfig {
    /// The circuit-breaker thresholds every rule is judged by, rules
    /// registered before and after the change alike.
    pub breaker: BreakerConfig,
    /// Route external actions (`SendMail`, `RunExternal`, `Persist*`) through
    /// the bounded deferred queue instead of executing them in the raising
    /// thread. `Insert`/`Reset`/`Set`/`Cancel` stay synchronous — their
    /// effects feed rule state the very next event may read (§5). Off by
    /// default: the paper's synchronous semantics.
    pub async_actions: bool,
    /// Bound on the deferred-action queue (clamped to ≥ 1; default
    /// [`crate::deferred::DEFAULT_QUEUE_CAPACITY`]). Lowering it below the
    /// current depth sheds the oldest entries into the loss ledger on the
    /// next enqueue.
    pub deferred_capacity: usize,
    /// Retry schedule of failed deferred actions.
    pub retry: RetryPolicy,
    /// Causal-trace sampling (default [`TraceSampling::Off`]). A sampled root
    /// event records a full span tree — LAT lookups, per-rule condition
    /// decisions with explainers, actions, LAT mutations, and every cascaded
    /// event linked to the span that caused it — into a bounded ring
    /// readable via [`Sqlcm::traces`]. With sampling off, the only per-event
    /// cost is one relaxed atomic load.
    pub trace_sampling: TraceSampling,
    /// Where `SendMail` goes; by default the recording outbox
    /// [`Sqlcm::outbox`] returns.
    pub mail_sink: Arc<dyn MailSink>,
    /// Where `RunExternal` goes; by default the recording log
    /// [`Sqlcm::command_log`] returns.
    pub command_sink: Arc<dyn CommandSink>,
}

struct SqlcmInner {
    engine: Arc<EngineInner>,
    clock: SharedClock,
    lats: RwLock<HashMap<String, Arc<Lat>>>,
    rules: RwLock<RuleTable>,
    /// The published dispatch plan the hot path runs on (`crate::plan`).
    plan: PlanCell,
    /// Serializes the four registry mutations, each from its first look at
    /// the registry to the plan it publishes: the published plan is always the
    /// plan of the registry, and [`DispatchPlan::next`] always has exactly
    /// one change to account for. What it guards is the analyzer those
    /// mutations keep current — `define_lat` and `add_rule` admit into it,
    /// `remove_rule` takes its rule back out, `drop_lat` discards it
    /// (`SchemaUniverse` has no removal) and its next user seeds a fresh one
    /// from the registry.
    registration: Mutex<Option<Analyzer>>,
    timers: TimerRegistry,
    outbox: Arc<RecordingMailSink>,
    command_log: Arc<RecordingCommandSink>,
    mail_sink: RwLock<Arc<dyn MailSink>>,
    command_sink: RwLock<Arc<dyn CommandSink>>,
    /// Striped by dispatcher, like every counter the event path writes.
    events: ShardedCounter,
    evaluations: ShardedCounter,
    fires: ShardedCounter,
    actions: ShardedCounter,
    action_errors: ShardedCounter,
    last_error: Mutex<Option<String>>,
    /// Warnings collected by the static analyzer across registrations.
    /// Deduplicated by (code, rule, message) and capped at
    /// `registry::MAX_ANALYSIS_WARNINGS`, oldest dropped first.
    analysis_warnings: Mutex<WarningLog>,
    /// Self-telemetry state (probe/rule/LAT metrics, flight recorder).
    telemetry: Telem,
    /// Causal-trace state (sampling policy, trace ring, span pool).
    tracer: Tracer,
    /// Fault-containment state: breaker thresholds and counters.
    containment: Containment,
    /// Bounded deferred-action queue (async external actions).
    deferred: DeferredQueue,
    /// [`MonitorConfig::async_actions`].
    async_actions: AtomicBool,
    shutdown: AtomicBool,
}

/// A live SQLCM instance attached to an engine.
pub struct Sqlcm {
    inner: Arc<SqlcmInner>,
    /// The adapter registered with the engine; identity-detached on drop.
    monitor: Arc<SqlcmMonitor>,
    timer_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    executor_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl SqlcmInner {
    /// Drain every currently-due deferred action, executing, retrying, or
    /// exhausting each. Returns the number of successful executions.
    fn pump_deferred(&self) -> u32 {
        let now = self.clock.now_micros();
        let mut done = 0u32;
        while let Some(mut a) = self.deferred.take_due(now) {
            match self.execute_external(a.kind.clone()) {
                Ok(()) => {
                    self.deferred.executed.fetch_add(1, Ordering::Relaxed);
                    self.breaker_outcome_by_name(&a.rule, false);
                    done += 1;
                }
                Err(e) => {
                    a.attempts += 1;
                    self.action_errors.incr();
                    self.record_error(
                        &a.rule,
                        format!(
                            "deferred {} action of rule {} failed (attempt {}): {e}",
                            a.kind.kind_str(),
                            a.rule,
                            a.attempts
                        ),
                    );
                    self.breaker_outcome_by_name(&a.rule, true);
                    let rule = a.rule.clone();
                    if let AttemptOutcome::Exhausted = self.deferred.reschedule_or_exhaust(a, now) {
                        self.record_error(
                            &rule,
                            format!("deferred action of rule {rule} exhausted its retries"),
                        );
                    }
                }
            }
        }
        done
    }

    /// Attribute a deferred-execution outcome back to the producing rule's
    /// breaker (and its per-rule error counter on failure).
    fn breaker_outcome_by_name(&self, rule: &str, error: bool) {
        let Some(reg) = self.registered(rule) else {
            return;
        };
        if error {
            reg.rule
                .books
                .mine()
                .action_errors
                .fetch_add(1, Ordering::Relaxed);
        }
        self.record_breaker_outcome(&reg, false, error, 0);
    }

    /// Fire due timers on the calling thread. Alarms on the reserved
    /// self-monitoring timer become `Monitor.Tick` events instead of
    /// `Timer.Alarm` ones.
    fn poll_timers(&self) {
        // Timer polling doubles as a re-admission heartbeat: quarantined
        // rules get their probation even when no events are flowing.
        self.scan_quarantined();
        for alarm in self.timers.due_timers() {
            if alarm.name == SELF_MONITOR_TIMER {
                self.poll_self_monitor();
                continue;
            }
            let obj = objects::timer_object(&alarm.name, alarm.fired_at, alarm.remaining);
            self.dispatch(RuleEvent::TimerAlarm(alarm.name.clone()), vec![obj]);
        }
    }
}

impl Sqlcm {
    /// Create an instance and attach it to `engine`'s probe stream.
    pub fn attach(engine: &Engine) -> Sqlcm {
        let handle = engine.handle();
        let clock = handle.clock.clone();
        let outbox = Arc::new(RecordingMailSink::new());
        let command_log = Arc::new(RecordingCommandSink::new());
        let telemetry = Telem::new();
        let tracer = Tracer::new(telemetry.recorder.lane_tags());
        let inner = Arc::new(SqlcmInner {
            engine: handle,
            clock: clock.clone(),
            lats: RwLock::new(HashMap::new()),
            rules: RwLock::new(RuleTable::default()),
            plan: PlanCell::new(Arc::new(DispatchPlan::default())),
            registration: Mutex::new(None),
            timers: TimerRegistry::new(clock),
            mail_sink: RwLock::new(outbox.clone() as Arc<dyn MailSink>),
            command_sink: RwLock::new(command_log.clone() as Arc<dyn CommandSink>),
            outbox,
            command_log,
            events: ShardedCounter::new(),
            evaluations: ShardedCounter::new(),
            fires: ShardedCounter::new(),
            actions: ShardedCounter::new(),
            action_errors: ShardedCounter::new(),
            last_error: Mutex::new(None),
            analysis_warnings: Mutex::new(WarningLog::default()),
            telemetry,
            tracer,
            containment: Containment::new(),
            deferred: DeferredQueue::new(),
            async_actions: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let monitor = Arc::new(SqlcmMonitor {
            inner: inner.clone(),
        });
        engine.attach_monitor(monitor.clone());
        Sqlcm {
            inner,
            monitor,
            timer_thread: Mutex::new(None),
            executor_thread: Mutex::new(None),
        }
    }

    /// Detach from the engine (no more events are delivered). LATs and rules
    /// stay readable.
    pub fn detach(&self, engine: &Engine) -> bool {
        self.detach_from(&engine.handle().monitors)
    }

    /// Remove this instance's adapter — and no other monitor — from `sinks`.
    fn detach_from(&self, sinks: &sqlcm_engine::instrument::Multicast) -> bool {
        let sink: Arc<dyn Instrumentation> = self.monitor.clone();
        sinks.detach_sink(&sink)
    }

    /// Re-attach this instance after a [`Sqlcm::detach`], keeping its LATs,
    /// rules, timers, and statistics.
    pub fn reattach(&self, engine: &Engine) {
        engine.attach_monitor(self.monitor.clone());
    }

    // ------------------------------------------------------------ timers

    /// Arm a timer directly (equivalent to the `Set` action).
    pub fn set_timer(&self, name: &str, period_micros: u64, number_alarms: i64) {
        self.inner.timers.set(name, period_micros, number_alarms);
    }

    /// Fire due timers on the calling thread (deterministic testing with a
    /// manual clock; the background thread calls this too).
    pub fn poll_timers(&self) {
        self.inner.poll_timers();
    }

    /// Start the background timer thread, polling at `interval`.
    pub fn start_timer_thread(&self, interval: std::time::Duration) {
        self.start_poller(&self.timer_thread, interval, SqlcmInner::poll_timers);
    }

    /// Run `poll` every `interval` on a background thread kept in `slot`,
    /// unless one is already there. The thread holds only a `Weak`, and
    /// exits on the first wake-up after the `Sqlcm` is dropped.
    fn start_poller(
        &self,
        slot: &Mutex<Option<std::thread::JoinHandle<()>>>,
        interval: std::time::Duration,
        poll: impl Fn(&SqlcmInner) + Send + 'static,
    ) {
        let mut guard = slot.lock();
        if guard.is_some() {
            return;
        }
        let weak: Weak<SqlcmInner> = Arc::downgrade(&self.inner);
        *guard = Some(std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            match weak.upgrade() {
                Some(inner) if !inner.shutdown.load(Ordering::Relaxed) => poll(&inner),
                _ => break,
            }
        }));
    }

    // ------------------------------------------------------------ configuration

    /// Apply `cfg`, each field as [`MonitorConfig`] documents it. Applying
    /// the live config again changes nothing: the deferred queue keeps its
    /// actions and trace sampling its count.
    pub fn configure(&self, cfg: MonitorConfig) {
        let inner = &self.inner;
        inner.containment.set_breaker(cfg.breaker);
        inner
            .async_actions
            .store(cfg.async_actions, Ordering::Relaxed);
        inner.deferred.set_capacity(cfg.deferred_capacity);
        inner.deferred.set_policy(cfg.retry);
        if cfg.trace_sampling != inner.tracer.sampling() {
            inner.tracer.set_sampling(cfg.trace_sampling);
        }
        *inner.mail_sink.write() = cfg.mail_sink;
        *inner.command_sink.write() = cfg.command_sink;
    }

    /// The live settings, sinks included.
    pub fn config(&self) -> MonitorConfig {
        let inner = &self.inner;
        MonitorConfig {
            breaker: inner.containment.breaker(),
            async_actions: inner.async_actions.load(Ordering::Relaxed),
            deferred_capacity: inner.deferred.capacity(),
            retry: inner.deferred.policy(),
            trace_sampling: inner.tracer.sampling(),
            mail_sink: inner.mail_sink.read().clone(),
            command_sink: inner.command_sink.read().clone(),
        }
    }

    /// Re-admit quarantined rules whose cooldown expired, half-open, now
    /// (the event-path checkpoint and timer polling do this too).
    /// Returns how many breakers re-opened into probation.
    pub fn poll_breakers(&self) -> u32 {
        self.inner.scan_quarantined()
    }

    /// Drain due deferred actions on the calling thread; returns successful
    /// executions. Deterministic twin of [`Sqlcm::start_action_executor`].
    pub fn pump_deferred_actions(&self) -> u32 {
        self.inner.pump_deferred()
    }

    /// Start the background executor thread draining the deferred queue at
    /// `interval`.
    pub fn start_action_executor(&self, interval: std::time::Duration) {
        self.start_poller(&self.executor_thread, interval, |inner| {
            inner.pump_deferred();
        });
    }
}

impl Drop for Sqlcm {
    fn drop(&mut self) {
        // The engine's monitor list holds `monitor` → `inner` → the engine
        // handle: left attached, that cycle would keep the engine (buffer
        // pool included) alive forever.
        self.detach_from(&self.inner.engine.monitors);
        // The threads hold only a Weak; they exit on their next poll.
        self.inner.shutdown.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
impl Sqlcm {
    /// The published plan, and the plan [`DispatchPlan::build`] makes of the
    /// registry it was published for — `crate::plan`'s differential test
    /// compares the two.
    pub(crate) fn plan_and_oracle(&self) -> (Arc<DispatchPlan>, DispatchPlan) {
        let _registration = self.inner.registration.lock();
        let plan = self.inner.plan.load();
        let (rules, lats) = (self.inner.rules.read(), self.inner.lats.read());
        let oracle = DispatchPlan::build(plan.epoch, &rules, &lats);
        (plan, oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Action;
    use crate::lat::{LatAggFunc, LatSpec};
    use crate::objects::ClassName;
    use crate::rules::Rule;
    use sqlcm_common::{EngineEvent, Value};
    use sqlcm_engine::engine::{EngineConfig, HistoryMode};

    fn setup() -> (Engine, Sqlcm) {
        let engine = Engine::new(EngineConfig {
            history: HistoryMode::Disabled,
            ..Default::default()
        });
        engine
            .execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);")
            .unwrap();
        let sqlcm = Sqlcm::attach(&engine);
        (engine, sqlcm)
    }

    fn seed(engine: &Engine, n: i64) {
        let mut s = engine.connect("seed", "seed");
        for i in 0..n {
            s.execute_params(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i), Value::Int(i * 10)],
            )
            .unwrap();
        }
    }

    #[test]
    fn insert_rule_populates_lat() {
        let (engine, sqlcm) = setup();
        sqlcm
            .define_lat(
                LatSpec::new("ByType")
                    .group_by("Query.Query_Type", "QType")
                    .aggregate(LatAggFunc::Count, "", "N"),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("track")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::insert("ByType")),
            )
            .unwrap();
        seed(&engine, 5);
        engine.query("SELECT * FROM t").unwrap();
        let lat = sqlcm.lat("ByType").unwrap();
        let rows = lat.rows();
        let get = |ty: &str| {
            rows.iter()
                .find(|r| r[0] == Value::text(ty))
                .map(|r| r[1].clone())
        };
        assert_eq!(get("INSERT"), Some(Value::Int(5)));
        assert_eq!(get("SELECT"), Some(Value::Int(1)));
        assert!(sqlcm.stats().fires >= 6);
    }

    #[test]
    fn example1_outlier_detection() {
        let (engine, sqlcm) = setup();
        engine
            .execute_batch("CREATE TABLE outliers (qtext TEXT, duration FLOAT);")
            .unwrap();
        sqlcm
            .define_lat(
                LatSpec::new("Duration_LAT")
                    .group_by("Query.Logical_Signature", "Sig")
                    .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")
                    .order_by("Avg_Duration", true)
                    .max_rows(100),
            )
            .unwrap();
        // The paper's Example-1 rule, verbatim structure.
        sqlcm
            .add_rule(
                Rule::new("report_outliers")
                    .on(RuleEvent::QueryCommit)
                    // The 1-second floor keeps scheduler noise on µs-scale
                    // test queries from counting as outliers.
                    .when("Query.Duration > 5 * Duration_LAT.Avg_Duration AND Query.Duration > 1")
                    .then(Action::persist_object(
                        "outliers",
                        "Query",
                        &["Query_Text", "Duration"],
                    )),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("track_durations")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::insert("Duration_LAT")),
            )
            .unwrap();
        seed(&engine, 3);
        // Build an average from several fast point selects (same template).
        for i in 0..10 {
            engine
                .query(&format!("SELECT v FROM t WHERE id = {i}"))
                .unwrap();
        }
        assert_eq!(
            engine.query("SELECT COUNT(*) FROM outliers").unwrap()[0][0],
            Value::Int(0),
            "uniform durations: no outliers"
        );
        // A wildly slower instance of the same template: simulate by inserting
        // a fabricated commit event directly (duration cannot be forced through
        // the real engine deterministically).
        let lat = sqlcm.lat("Duration_LAT").unwrap();
        let sig_row = lat.rows();
        assert!(!sig_row.is_empty());
        let mut q = sqlcm_common::QueryInfo::synthetic(999, "SELECT v FROM t WHERE id = 0");
        q.logical_signature = Some(sig_row[0][0].as_i64().unwrap() as u64);
        q.duration_micros = 60_000_000; // 60 s ≫ 5×avg
        let monitor = SqlcmMonitor {
            inner: Sqlcm::attach(&engine).inner.clone(),
        };
        let _ = monitor; // silence: we use the original instance's dispatch
                         // Dispatch through the attached instance by emitting a real event:
        sqlcm
            .inner
            .dispatch(RuleEvent::QueryCommit, vec![objects::query_object(&q)]);
        assert_eq!(
            engine.query("SELECT COUNT(*) FROM outliers").unwrap()[0][0],
            Value::Int(1),
            "outlier persisted"
        );
    }

    #[test]
    fn example3_topk_and_persist() {
        let (engine, sqlcm) = setup();
        engine
            .execute_batch("CREATE TABLE topk (sig INT, duration FLOAT, qtext TEXT, at TIMESTAMP);")
            .unwrap();
        sqlcm.define_topk_duration_lat("Top3", 3).unwrap();
        sqlcm
            .add_rule(
                Rule::new("track")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::insert("Top3")),
            )
            .unwrap();
        // Synthetic commits with controlled durations and distinct signatures.
        for (sig, secs) in [(1u64, 1.0), (2, 9.0), (3, 3.0), (4, 7.0), (5, 5.0)] {
            let mut q = sqlcm_common::QueryInfo::synthetic(sig, format!("q{sig}"));
            q.logical_signature = Some(sig);
            q.duration_micros = (secs * 1e6) as u64;
            sqlcm
                .inner
                .dispatch(RuleEvent::QueryCommit, vec![objects::query_object(&q)]);
        }
        let lat = sqlcm.lat("Top3").unwrap();
        let kept: Vec<f64> = lat
            .rows_ordered()
            .iter()
            .map(|r| r[1].as_f64().unwrap())
            .collect();
        assert_eq!(kept, vec![9.0, 7.0, 5.0]);
        let n = sqlcm.persist_lat("Top3", "topk").unwrap();
        assert_eq!(n, 3);
        let rows = engine
            .query("SELECT sig FROM topk ORDER BY duration DESC")
            .unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn eviction_event_feeds_rules() {
        let (engine, sqlcm) = setup();
        engine
            .execute_batch("CREATE TABLE evicted (sig INT, d FLOAT);")
            .unwrap();
        sqlcm
            .define_lat(
                LatSpec::new("Small")
                    .group_by("Query.Logical_Signature", "Sig")
                    .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                    .order_by("D", true)
                    .max_rows(1),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("track")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::insert("Small")),
            )
            .unwrap();
        // Rule on the eviction event persists evicted rows (§4.3).
        sqlcm
            .add_rule(
                Rule::new("keep_evicted")
                    .on(RuleEvent::LatEviction("Small".into()))
                    .then(Action::PersistObject {
                        table: "evicted".into(),
                        class: ClassName::Evicted("Small".into()),
                        attrs: vec!["Sig".into(), "D".into()],
                    }),
            )
            .unwrap();
        for (sig, secs) in [(1u64, 5.0), (2, 9.0)] {
            let mut q = sqlcm_common::QueryInfo::synthetic(sig, "q");
            q.logical_signature = Some(sig);
            q.duration_micros = (secs * 1e6) as u64;
            sqlcm
                .inner
                .dispatch(RuleEvent::QueryCommit, vec![objects::query_object(&q)]);
        }
        let rows = engine.query("SELECT sig, d FROM evicted").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Float(5.0)]]);
    }

    /// An eviction rule's template reads the evicted row through its LAT's
    /// name, in any case.
    #[test]
    fn eviction_templates_read_the_evicted_row() {
        let (_engine, sqlcm) = setup();
        sqlcm
            .define_lat(
                LatSpec::new("Small")
                    .group_by("Query.Logical_Signature", "Sig")
                    .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                    .order_by("D", true)
                    .max_rows(1),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("track")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::insert("Small")),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("mail_evicted")
                    .on(RuleEvent::LatEviction("Small".into()))
                    .then(Action::send_mail("dba", "{Small.Sig} {sMALL.D}")),
            )
            .unwrap();
        // Each commit outlasts the one before it, so evicts it.
        for sig in 1..=6u64 {
            let mut q = sqlcm_common::QueryInfo::synthetic(sig, "q");
            q.logical_signature = Some(sig);
            q.duration_micros = sig * 1_000_000 + 500_000;
            sqlcm
                .inner
                .dispatch(RuleEvent::QueryCommit, vec![objects::query_object(&q)]);
        }
        let bodies: Vec<String> = sqlcm
            .outbox()
            .messages()
            .into_iter()
            .map(|(_, body)| body)
            .collect();
        assert_eq!(bodies, ["1 1.5", "2 2.5", "3 3.5", "4 4.5", "5 5.5"]);
    }

    /// A LAT is named case-insensitively everywhere: the feeder, the
    /// eviction subscription and the evicted-object class may each spell it
    /// differently from its definition and still reach the same rows.
    #[test]
    fn eviction_rules_match_the_lat_name_in_any_case() {
        let (engine, sqlcm) = setup();
        engine
            .execute_batch("CREATE TABLE evicted (sig INT, d FLOAT);")
            .unwrap();
        sqlcm
            .define_lat(
                LatSpec::new("Small")
                    .group_by("Query.Logical_Signature", "Sig")
                    .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                    .order_by("D", true)
                    .max_rows(1),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("track")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::insert("small")),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("keep_evicted")
                    .on(RuleEvent::LatEviction("small".into()))
                    .then(Action::PersistObject {
                        table: "evicted".into(),
                        class: ClassName::Evicted("small".into()),
                        attrs: vec!["Sig".into(), "D".into()],
                    }),
            )
            .unwrap();
        for (sig, secs) in [(1u64, 5.0), (2, 9.0)] {
            let mut q = sqlcm_common::QueryInfo::synthetic(sig, "q");
            q.logical_signature = Some(sig);
            q.duration_micros = (secs * 1e6) as u64;
            sqlcm
                .inner
                .dispatch(RuleEvent::QueryCommit, vec![objects::query_object(&q)]);
        }
        assert_eq!(sqlcm.lat("Small").unwrap().stats().evictions, 1);
        assert_eq!(sqlcm.rule("keep_evicted").unwrap().stats().fires, 1);
        assert_eq!(sqlcm.cascade_depth_bound(), 1);
        let rows = engine.query("SELECT sig, d FROM evicted").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Float(5.0)]]);
    }

    #[test]
    fn timer_rule_with_manual_clock() {
        use sqlcm_common::ManualClock;
        let (clock, handle) = ManualClock::shared(0);
        let engine = Engine::new(EngineConfig {
            clock: Some(clock),
            ..Default::default()
        });
        engine
            .execute_batch("CREATE TABLE beats (name TEXT, at TIMESTAMP);")
            .unwrap();
        let sqlcm = Sqlcm::attach(&engine);
        sqlcm
            .add_rule(
                Rule::new("heartbeat")
                    .on(RuleEvent::TimerAlarm("hb".into()))
                    .then(Action::PersistObject {
                        table: "beats".into(),
                        class: ClassName::Timer,
                        attrs: vec!["Name".into(), "Time".into()],
                    }),
            )
            .unwrap();
        sqlcm.set_timer("hb", 1_000_000, 3);
        for _ in 0..5 {
            handle.advance(1_000_000);
            sqlcm.poll_timers();
        }
        assert_eq!(
            engine.query("SELECT COUNT(*) FROM beats").unwrap()[0][0],
            Value::Int(3),
            "timer fired exactly number_alarms times"
        );
    }

    #[test]
    fn send_mail_and_run_external() {
        let (engine, sqlcm) = setup();
        sqlcm
            .add_rule(
                Rule::new("alert")
                    .on(RuleEvent::QueryCommit)
                    .when("Query.Duration >= 0")
                    .then(Action::send_mail(
                        "dba@example.org",
                        "query {Query.ID} by {Query.User}",
                    ))
                    .then(Action::run_external("log.sh {Query.ID}")),
            )
            .unwrap();
        seed(&engine, 1);
        assert_eq!(sqlcm.outbox().len(), 1);
        let (to, body) = sqlcm.outbox().messages().pop().unwrap();
        assert_eq!(to, "dba@example.org");
        assert!(body.contains("by seed"), "{body}");
        assert_eq!(sqlcm.command_log().len(), 1);
    }

    #[test]
    fn rule_registration_validation() {
        let (_engine, sqlcm) = setup();
        // Unknown LAT in condition.
        assert!(sqlcm
            .add_rule(Rule::new("r").when("Nope_LAT.x > 1"))
            .is_err());
        // Unknown LAT in action.
        assert!(sqlcm
            .add_rule(Rule::new("r").then(Action::insert("nope")))
            .is_err());
        // Duplicate name.
        sqlcm.add_rule(Rule::new("dup")).unwrap();
        assert!(sqlcm.add_rule(Rule::new("dup")).is_err());
        assert!(sqlcm.remove_rule("dup"));
        assert!(!sqlcm.remove_rule("dup"));
    }

    #[test]
    fn disabled_rule_does_not_fire() {
        let (engine, sqlcm) = setup();
        let rule = sqlcm
            .add_rule(
                Rule::new("maybe")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::send_mail("x", "y")),
            )
            .unwrap();
        rule.set_enabled(false);
        seed(&engine, 2);
        assert_eq!(sqlcm.outbox().len(), 0);
        rule.set_enabled(true);
        seed_more(&engine);
        assert_eq!(sqlcm.outbox().len(), 1);
    }

    fn seed_more(engine: &Engine) {
        let mut s = engine.connect("seed", "seed");
        s.execute("INSERT INTO t VALUES (1000, 1)").unwrap();
    }

    #[test]
    fn lat_persist_restore_roundtrip() {
        let (engine, sqlcm) = setup();
        engine
            .execute_batch("CREATE TABLE saved (sig INT, avg_d FLOAT, n INT, at TIMESTAMP);")
            .unwrap();
        sqlcm
            .define_lat(
                LatSpec::new("D")
                    .group_by("Query.Logical_Signature", "Sig")
                    .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D")
                    .aggregate(LatAggFunc::Count, "", "N"),
            )
            .unwrap();
        for secs in [2.0, 4.0] {
            let mut q = sqlcm_common::QueryInfo::synthetic(1, "q");
            q.logical_signature = Some(7);
            q.duration_micros = (secs * 1e6) as u64;
            sqlcm
                .lat("D")
                .unwrap()
                .insert(&objects::query_object(&q))
                .unwrap();
        }
        sqlcm.persist_lat("D", "saved").unwrap();
        // "Restart": reset, then restore from the table.
        sqlcm.lat("D").unwrap().reset();
        assert_eq!(sqlcm.lat("D").unwrap().row_count(), 0);
        let n = sqlcm.restore_lat("D", "saved", Some("N")).unwrap();
        assert_eq!(n, 1);
        let rows = sqlcm.lat("D").unwrap().rows();
        assert_eq!(rows[0][1], Value::Float(3.0));
        assert_eq!(rows[0][2], Value::Int(2));
    }

    #[test]
    fn detach_stops_monitoring() {
        let (engine, sqlcm) = setup();
        sqlcm
            .add_rule(
                Rule::new("m")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::send_mail("x", "y")),
            )
            .unwrap();
        seed(&engine, 1);
        assert_eq!(sqlcm.outbox().len(), 1);
        assert!(sqlcm.detach(&engine));
        seed_more(&engine);
        assert_eq!(sqlcm.outbox().len(), 1, "no events after detach");
    }

    /// Dropping the handle detaches exactly its own monitor: the engine's
    /// monitor list no longer keeps the instance (and through it the engine)
    /// alive, and a second instance on the same engine keeps receiving events.
    #[test]
    fn dropping_the_handle_releases_the_engine() {
        let (engine, first) = setup();
        let second = Sqlcm::attach(&engine);
        second
            .add_rule(
                Rule::new("m")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::send_mail("x", "y")),
            )
            .unwrap();
        drop(first);
        seed(&engine, 1);
        assert_eq!(second.outbox().len(), 1, "the other monitor was detached");
        let storage = Arc::downgrade(&engine.handle());
        drop(second);
        drop(engine);
        assert!(storage.upgrade().is_none(), "engine leaked through a cycle");
    }

    #[test]
    fn action_errors_are_swallowed() {
        let (engine, sqlcm) = setup();
        // Persist into a table that doesn't exist: queries must keep working.
        sqlcm
            .add_rule(
                Rule::new("broken")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::persist_object("missing_table", "Query", &["ID"])),
            )
            .unwrap();
        seed(&engine, 2);
        assert!(sqlcm.stats().action_errors >= 2);
        assert!(sqlcm.last_error().unwrap().contains("missing_table"));
        // The workload itself was unaffected.
        assert_eq!(
            engine.query("SELECT COUNT(*) FROM t").unwrap()[0][0],
            Value::Int(2)
        );
    }

    #[test]
    fn login_audit_rule() {
        let (engine, sqlcm) = setup();
        engine
            .execute_batch("CREATE TABLE login_failures (who TEXT, app TEXT);")
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("audit_failures")
                    .on(RuleEvent::Login)
                    .when("Session.Success = FALSE")
                    .then(Action::persist_object(
                        "login_failures",
                        "Session",
                        &["User", "Application"],
                    )),
            )
            .unwrap();
        engine.connect("good", "app");
        engine.failed_login("mallory", "cracker");
        engine.failed_login("mallory", "cracker");
        let rows = engine.query("SELECT COUNT(*) FROM login_failures").unwrap();
        assert_eq!(rows[0][0], Value::Int(2));
    }

    // ------------------------------------------------------------ telemetry

    #[test]
    fn telemetry_snapshot_is_consistent_with_stats() {
        let (engine, sqlcm) = setup();
        sqlcm
            .define_lat(
                LatSpec::new("ByType")
                    .group_by("Query.Query_Type", "QType")
                    .aggregate(LatAggFunc::Count, "", "N"),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("track")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::insert("ByType")),
            )
            .unwrap();
        seed(&engine, 4);
        engine.query("SELECT * FROM t").unwrap();

        let snap = sqlcm.telemetry();
        let stats = sqlcm.stats();
        assert_eq!(snap.stats, stats);
        // Per-probe counts partition the global event count exactly.
        assert_eq!(
            snap.probes.iter().map(|p| p.events).sum::<u64>(),
            stats.events
        );
        // Per-rule counters partition the global ones (one rule here).
        assert_eq!(
            snap.rules.iter().map(|r| r.evaluations).sum::<u64>(),
            stats.evaluations
        );
        assert_eq!(snap.rules.iter().map(|r| r.fires).sum::<u64>(), stats.fires);
        assert_eq!(
            snap.rules.iter().map(|r| r.actions).sum::<u64>(),
            stats.actions
        );
        let track = &snap.rules[0];
        assert_eq!(track.name, "track");
        assert_eq!(track.event, "Query.Commit");
        // One dispatcher: a rule times one evaluation and one firing in 64,
        // its first ones included.
        assert_eq!(
            track.condition.count,
            (track.evaluations - track.pruned).div_ceil(64)
        );
        assert_eq!(track.action.count, track.fires.div_ceil(64));
        // LAT attribution made it into the snapshot.
        let by_type = snap.lats.iter().find(|l| l.name == "ByType").unwrap();
        assert_eq!(by_type.inserts, stats.fires);
        assert!(by_type.rows >= 2 && by_type.row_high_water >= by_type.rows);
        // Every firing is in the flight recorder (workload fits the ring).
        assert_eq!(snap.flight_total, stats.fires);
        assert!(snap
            .flight_records
            .iter()
            .all(|r| r.rule == "track" && r.fired && r.event == "Query.Commit"));
        // Renderers don't panic and carry the headline numbers.
        assert!(snap.to_text().contains("Query.Commit"));
        assert!(snap.to_json().contains("\"rules\":[{\"name\":\"track\""));
    }

    #[test]
    fn rule_errors_are_attributed_per_rule() {
        let (engine, sqlcm) = setup();
        sqlcm
            .add_rule(
                Rule::new("broken")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::persist_object("missing_table", "Query", &["ID"])),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("fine")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::send_mail("x", "y")),
            )
            .unwrap();
        seed(&engine, 3);
        let snap = sqlcm.telemetry();
        let broken = snap.rules.iter().find(|r| r.name == "broken").unwrap();
        let error = broken.last_error.as_ref().unwrap();
        assert_eq!((error.rule.as_str(), error.count), ("broken", 3));
        assert!(error.message.contains("missing_table"));
        assert!(snap
            .rules
            .iter()
            .find(|r| r.name == "fine")
            .unwrap()
            .last_error
            .is_none());
        // Firings with failed actions show their error count in the recorder.
        assert!(snap
            .flight_records
            .iter()
            .filter(|r| r.rule == "broken")
            .all(|r| r.errors == 1));
    }

    /// End-to-end self-monitoring bridge: an ECA rule subscribed to
    /// `Monitor.Tick` observes the monitor's own health as a synthetic
    /// `Monitor` object (and the static analyzer admits the class).
    #[test]
    fn self_monitoring_rule_fires_on_monitor_tick() {
        use sqlcm_common::ManualClock;
        let (clock, handle) = ManualClock::shared(0);
        let engine = Engine::new(EngineConfig {
            clock: Some(clock),
            ..Default::default()
        });
        engine
            .execute_batch(
                "CREATE TABLE t (id INT PRIMARY KEY, v INT);\
                 CREATE TABLE health_log (name TEXT, events INT, rules INT);",
            )
            .unwrap();
        let sqlcm = Sqlcm::attach(&engine);
        // A probe-subscribed rule so engine events actually reach the monitor
        // ("no monitoring unless required by a rule" — with only a
        // Monitor.Tick rule the probe-interest mask stays empty).
        sqlcm
            .add_rule(
                Rule::new("audit")
                    .on(RuleEvent::QueryCommit)
                    .then(Action::send_mail("dba", "commit {Query.ID}")),
            )
            .unwrap();
        sqlcm
            .add_rule(
                Rule::new("watch_self")
                    .on(RuleEvent::MonitorTick)
                    .when("Monitor.Events >= 0 AND Monitor.Action_Errors = 0")
                    .then(Action::persist_object(
                        "health_log",
                        "Monitor",
                        &["Name", "Events", "Rule_Count"],
                    )),
            )
            .unwrap();
        let mut s = engine.connect("dba", "demo");
        s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        let events_before = sqlcm.stats().events;
        assert!(events_before > 0);

        // Timer-driven path: the reserved timer raises Monitor.Tick.
        sqlcm.enable_self_monitoring(1_000_000);
        handle.advance(1_000_000);
        sqlcm.poll_timers();
        let rows = engine
            .query("SELECT name, events, rules FROM health_log")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::text("sqlcm"));
        assert_eq!(rows[0][1], Value::Int(events_before as i64));
        assert_eq!(rows[0][2], Value::Int(2));

        // Direct path, after disarming the timer.
        sqlcm.disable_self_monitoring();
        handle.advance(5_000_000);
        sqlcm.poll_timers();
        assert_eq!(
            engine.query("SELECT COUNT(*) FROM health_log").unwrap()[0][0],
            Value::Int(1),
            "disarmed timer raises no more ticks"
        );
        sqlcm.poll_self_monitor();
        assert_eq!(
            engine.query("SELECT COUNT(*) FROM health_log").unwrap()[0][0],
            Value::Int(2)
        );
        // The tick itself was counted as a monitor evaluation.
        assert!(sqlcm.rule("watch_self").unwrap().stats().fires >= 2);
    }

    /// No engine event assembles a payload the guard index cannot probe, so
    /// the unusable-probe path is driven with a synthetic one: a `Query.Commit`
    /// carrying no `Query` object, between two ordinary commits. Counts are
    /// what a linear scan gives — a rule whose condition names a class the
    /// payload lacks evaluates no combination — and in particular the
    /// unprobed event does not tick the clock the two probed ones do.
    #[test]
    fn an_unprobed_event_between_probed_ones_credits_no_pruned_evaluation() {
        let (_engine, sqlcm) = setup();
        for user in ["a", "b"] {
            sqlcm
                .add_rule(
                    Rule::new(user)
                        .on(RuleEvent::QueryCommit)
                        .when(&format!("Query.User = '{user}'")),
                )
                .unwrap();
        }
        sqlcm
            .add_rule(Rule::new("always").on(RuleEvent::QueryCommit))
            .unwrap();
        let mut q = sqlcm_common::QueryInfo::synthetic(1, "q");
        q.user = "a".into();
        let commit = vec![objects::query_object(&q)];
        sqlcm.inner.dispatch(RuleEvent::QueryCommit, commit.clone());
        let timer = objects::timer_object("t", 0, 0);
        sqlcm.inner.dispatch(RuleEvent::QueryCommit, vec![timer]);
        sqlcm.inner.dispatch(RuleEvent::QueryCommit, commit);

        let evaluations = |rule: &str| {
            let s = sqlcm.rule(rule).unwrap().stats();
            (s.evaluations, s.pruned)
        };
        assert_eq!(evaluations("a"), (2, 0), "a candidate on both commits");
        assert_eq!(evaluations("b"), (2, 2), "pruned on both commits");
        assert_eq!(evaluations("always"), (3, 0), "needs no class: ran thrice");
        assert_eq!(sqlcm.stats().evaluations, 7);
        let m = sqlcm.telemetry().matching;
        assert_eq!(
            (m.guard_probes, m.rules_pruned, m.candidate_rules),
            (2, 2, 4)
        );
    }

    /// A rule whose guard decides its condition runs no program on a probed
    /// event — the index's admission is its `TRUE` — but runs it whenever
    /// the probe is unusable: here a `Query` object too narrow for the
    /// `Query.User` another guarded rule reads, though wide enough for the
    /// decided rule's own `Query.Duration`.
    #[test]
    fn a_decided_rule_runs_its_program_on_an_unprobed_event() {
        let (_engine, sqlcm) = setup();
        let rule = Rule::new("slow")
            .on(RuleEvent::QueryCommit)
            .when("Query.Duration >= 5");
        assert!(crate::rule_guard(&rule.ir()).unwrap().decides);
        sqlcm.add_rule(rule).unwrap();
        sqlcm
            .add_rule(
                Rule::new("bob")
                    .on(RuleEvent::QueryCommit)
                    .when("Query.User = 'bob'"),
            )
            .unwrap();
        let query = |secs: u64| {
            let mut q = sqlcm_common::QueryInfo::synthetic(1, "q");
            q.duration_micros = secs * 1_000_000;
            objects::query_object(&q)
        };
        let narrow = |secs| {
            let q = query(secs);
            let names: Arc<[String]> = q.attribute_names()[..6].into();
            let mut values = q.into_values();
            values.truncate(6);
            objects::Object::new(ClassName::Query, names, values)
        };
        let instructions = || sqlcm.telemetry().dispatch.vm_instructions;
        for secs in [1, 9] {
            sqlcm
                .inner
                .dispatch(RuleEvent::QueryCommit, vec![query(secs)]);
        }
        assert_eq!(instructions(), 0, "probed: admitted or refused, no VM");
        for secs in [1, 9] {
            sqlcm
                .inner
                .dispatch(RuleEvent::QueryCommit, vec![narrow(secs)]);
        }
        assert!(instructions() > 0, "unprobed: the program ran");
        let s = sqlcm.rule("slow").unwrap().stats();
        assert_eq!((s.evaluations, s.pruned, s.fires), (4, 1, 2));
        assert_eq!(s.action_errors, 0);
    }

    /// A removed rule's handle stops counting at the removal, whatever the
    /// events after it would have done to the rule.
    #[test]
    fn a_removed_rule_keeps_its_counts_and_stops_counting() {
        let (_engine, sqlcm) = setup();
        for user in ["a", "b", "c"] {
            sqlcm
                .add_rule(
                    Rule::new(user)
                        .on(RuleEvent::QueryCommit)
                        .when(&format!("Query.User = '{user}'")),
                )
                .unwrap();
        }
        let commit_by = |user: &str| {
            let mut q = sqlcm_common::QueryInfo::synthetic(1, "q");
            q.user = user.into();
            EngineEvent::QueryCommit(q)
        };
        let b = sqlcm.rule("b").unwrap();
        for user in ["a", "b", "c", "a"] {
            sqlcm.inject_event(&commit_by(user));
        }
        assert!(sqlcm.remove_rule("b"));
        for user in ["a", "b", "c"] {
            sqlcm.inject_event(&commit_by(user));
        }
        let s = b.stats();
        assert_eq!((s.evaluations, s.pruned, s.fires), (4, 3, 1));
        // Conservation across the removal: the global counter is the sum of
        // every rule's count, the removed one's included.
        let live: u64 = sqlcm.telemetry().rules.iter().map(|r| r.evaluations).sum();
        assert_eq!(sqlcm.stats().evaluations, live + s.evaluations);
    }

    /// A condition over two LATs binds each reference to its own LAT's row.
    #[test]
    fn a_condition_over_two_lats_binds_each_row() {
        let (_engine, sqlcm) = setup();
        let by_type = |name: &str| LatSpec::new(name).group_by("Query.Query_Type", "QType");
        sqlcm
            .define_lat(by_type("Seen").aggregate(LatAggFunc::Count, "", "N"))
            .unwrap();
        sqlcm
            .define_lat(by_type("Spent").aggregate(LatAggFunc::Sum, "Query.Duration", "S"))
            .unwrap();
        for lat in ["Seen", "Spent"] {
            sqlcm
                .add_rule(
                    Rule::new(format!("feed_{lat}"))
                        .on(RuleEvent::QueryCommit)
                        .then(Action::insert(lat)),
                )
                .unwrap();
        }
        let watch = sqlcm
            .add_rule(
                Rule::new("watch")
                    .on(RuleEvent::QueryCommit)
                    .when("Seen.N = 3 AND Spent.S > 100"),
            )
            .unwrap();
        let mut q = sqlcm_common::QueryInfo::synthetic(1, "q");
        q.duration_micros = 50_000_000;
        for _ in 0..4 {
            sqlcm.inject_event(&EngineEvent::QueryCommit(q.clone()));
        }
        // Only the third event sees 3 commits worth 150 s.
        assert_eq!(watch.stats().fires, 1);
        assert_eq!(watch.stats().evaluations, 4);
    }

    #[test]
    fn self_monitor_tick_without_subscribers_is_free() {
        let (_engine, sqlcm) = setup();
        sqlcm.poll_self_monitor();
        assert_eq!(sqlcm.stats().evaluations, 0, "no rules: tick is a no-op");
    }
}
