//! Facade crate for the SQLCM reproduction.
//!
//! Re-exports the workspace's public surface so examples, integration tests,
//! and downstream users can depend on one crate:
//!
//! * [`engine`] — the host relational engine (`sqlcm-engine`);
//! * [`monitor`] — SQLCM itself: LATs + ECA rules (`sqlcm-core`);
//! * [`baselines`] — Query_logging / PULL / PULL_history (`sqlcm-baselines`);
//! * [`workloads`] — TPC-H-lite generator and workload drivers
//!   (`sqlcm-workloads`);
//! * [`telemetry`] — lock-free metric primitives behind the monitor's
//!   self-telemetry (`sqlcm-telemetry`);
//! * [`common`], [`sql`], [`storage`] — the substrates.
//!
//! See `README.md` for a tour and `DESIGN.md` for the paper-to-module map.

pub use sqlcm_baselines as baselines;
pub use sqlcm_common as common;
pub use sqlcm_core as monitor;
pub use sqlcm_engine as engine;
pub use sqlcm_sql as sql;
pub use sqlcm_storage as storage;
pub use sqlcm_telemetry as telemetry;
pub use sqlcm_workloads as workloads;

/// Convenience prelude with the names almost every user needs.
pub mod prelude {
    pub use sqlcm_baselines::{PullHistory, PullMonitor, QueryLogging, ServerHistory};
    pub use sqlcm_common::{Error, Result, Value};
    pub use sqlcm_core::{
        chrome_trace_json, Action, Lat, LatAggFunc, LatSpec, MonitorConfig, Rule, RuleEvent,
        SpanKind, Sqlcm, TelemetrySnapshot, TraceSampling, TraceSnapshot,
    };
    pub use sqlcm_engine::{Engine, EngineConfig, Session};
}
