//! **SQLCM** — the paper's contribution: a continuous-monitoring framework that
//! lives *inside* the database server.
//!
//! The two key components (paper Figure 1):
//!
//! * the **monitoring engine** ([`objects`], [`lat`]) — assembles probe values
//!   into monitored objects (`Query`, `Transaction`, `Blocker`, `Blocked`,
//!   `Timer`, plus `Session` as a schema extension) and maintains
//!   **light-weight aggregation tables** (LATs): in-memory group-by tables with
//!   COUNT/SUM/AVG/STDEV/MIN/MAX/FIRST/LAST aggregates, *aging* (moving-window)
//!   variants, an ordering-driven size bound with eviction, and persistence to
//!   ordinary tables;
//! * the **ECA rule engine** ([`rules`], [`monitor`], [`actions`]) — evaluates
//!   Event-Condition-Action rules synchronously in the thread that raised the
//!   event and dispatches actions (`Insert`, `Reset`, `Persist`, `SendMail`,
//!   `RunExternal`, `Cancel`, `Set`).
//!
//! Attach to a host engine and specify a task in a few lines:
//!
//! ```
//! use sqlcm_engine::Engine;
//! use sqlcm_core::{Sqlcm, LatSpec, LatAggFunc, Rule, RuleEvent, Action};
//!
//! let engine = Engine::in_memory();
//! engine.execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);").unwrap();
//! let sqlcm = Sqlcm::attach(&engine);
//!
//! // Example 1 of the paper: outlier invocations per query template.
//! sqlcm.define_lat(
//!     LatSpec::new("Duration_LAT")
//!         .group_by("Query.Logical_Signature", "Sig")
//!         .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")
//!         .order_by("Avg_Duration", true)
//!         .max_rows(100),
//! ).unwrap();
//! sqlcm.add_rule(
//!     Rule::new("track")
//!         .on(RuleEvent::QueryCommit)
//!         .then(Action::insert("Duration_LAT")),
//! ).unwrap();
//!
//! let mut s = engine.connect("dba", "demo");
//! s.execute("INSERT INTO t VALUES (1, 10)").unwrap();
//! s.execute("SELECT v FROM t WHERE id = 1").unwrap();
//! assert!(sqlcm.lat("Duration_LAT").unwrap().row_count() >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod actions;
pub mod containment;
pub mod deferred;
mod guard;
#[doc(hidden)]
pub mod ir;
pub mod lat;
pub mod monitor;
pub mod objects;
pub mod plan;
pub mod rules;
mod shared;
pub mod sinks;
pub mod telemetry;
pub mod timer;
pub mod trace;
#[doc(hidden)]
pub mod vm;

pub use actions::Action;
pub use containment::{BreakerConfig, BreakerState};
pub use deferred::{LossEntry, RetryPolicy, DEFAULT_QUEUE_CAPACITY};
pub use lat::{Lat, LatAggFunc, LatShardStats, LatSpec};
pub use monitor::{MonitorConfig, Sqlcm, SqlcmStats};
pub use objects::{ClassName, Object};
pub use plan::{HoistGroup, PlanSummary};
pub use rules::{Rule, RuleEvent};
pub use sinks::{CommandSink, MailSink, RecordingCommandSink, RecordingMailSink};
pub use sqlcm_analyze::{
    holds, rule_guard, Admitted, Analyzer, Code, Diagnostic, Residual, RuleIr, Severity,
    DEFAULT_CASCADE_THRESHOLD,
};
pub use telemetry::{
    DispatchTelemetry, LatTelemetry, MatchingTelemetry, ProbeTelemetry, RuleError, RuleTelemetry,
    TelemetrySnapshot,
};
pub use timer::TimerRegistry;
pub use trace::{
    chrome_trace_json, PrunedRules, SpanKind, TraceSampling, TraceSnapshot, TraceSpan,
    TracingTelemetry,
};
