//! Shared foundation types for the SQLCM reproduction.
//!
//! This crate holds the vocabulary every other crate speaks:
//!
//! * [`Value`] / [`DataType`] — the dynamically-typed SQL value model used by the
//!   storage layer, the query executor, and SQLCM's light-weight aggregation tables.
//! * [`Error`] / [`Result`] — the single error type threaded through the workspace.
//! * [`Clock`] — a time source abstraction so LAT aging windows and `Timer` rules can
//!   be tested deterministically ([`ManualClock`]) while benches run on the real
//!   clock ([`SystemClock`]).
//! * [`Poller`] — the one periodic background thread: SQLCM's timer and
//!   deferred-action executor and the PULL baselines each run on one.
//! * [`events`] — the plain-data descriptions of engine happenings (query committed,
//!   query blocked, …) that the engine hands to whatever monitor is attached. These
//!   correspond to the *probes* of the paper (Section 4.1): the engine gathers them
//!   synchronously on its execution path and the monitor consumes them in the same
//!   thread.

pub mod clock;
pub mod error;
pub mod events;
pub mod poller;
pub mod value;

pub use clock::{Clock, ManualClock, SharedClock, SystemClock, Timestamp};
pub use error::{Error, Result};
pub use events::{
    BlockPairInfo, EngineEvent, ProbeKind, ProbeMask, QueryInfo, QueryType, SessionInfo, TxnInfo,
};
pub use poller::Poller;
pub use value::{DataType, Value};
