//! The alternative monitoring designs SQLCM is compared against (paper §6.2.2).
//!
//! | paper name | type | what it models |
//! |---|---|---|
//! | `Query_logging` ([`logging::QueryLogging`]) | push, no filtering | event recording: every committed query is written out synchronously |
//! | `PULL` ([`pull::PullMonitor`]) | pull, client-side filtering | a [`Poller`](sqlcm_common::Poller) snapshots the *currently active* queries at start and every interval — loses what completes between polls |
//! | `PULL_history` ([`pull_history::PullHistory`]) | pull + server-kept history | a probe sink ([`history::ServerHistory`]) retains all completed queries until a [`Poller`](sqlcm_common::Poller) "picks them up" at start, every interval and on `stop`; exact but memory-hungry |
//!
//! Each pull client's thread runs the same step as its synchronous
//! `poll_once`, and `stop` returns as soon as that step is not running.
//!
//! [`topk`] holds the shared task definition (top-k most expensive queries) and
//! the accuracy metric (how many of the true top-k a monitor missed).

pub mod history;
pub mod logging;
pub mod pull;
pub mod pull_history;
pub mod topk;

pub use history::ServerHistory;
pub use logging::QueryLogging;
pub use pull::{PullMonitor, PullReport};
pub use pull_history::{PullHistory, PullHistoryReport};
pub use topk::{missed_count, top_k, QueryCost};
