//! The probe vocabulary: plain-data snapshots the engine hands to monitors.
//!
//! The paper (Section 4.1) describes *probes* as attribute values gathered inside
//! the query processor and storage engine, assembled into monitored objects on
//! demand. In this reproduction the engine assembles a [`QueryInfo`] (resp.
//! [`TxnInfo`], [`BlockPairInfo`]) at each probe point and hands it, wrapped in an
//! [`EngineEvent`], to the attached monitor *synchronously on the thread that
//! raised the event* — the defining property of the server-centric design.
//!
//! The attribute set mirrors Appendix A of the paper.

use std::sync::Arc;

use crate::clock::Timestamp;

/// The statement class of a query (Appendix A: `Query_Type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryType {
    Select,
    Insert,
    Update,
    Delete,
    Other,
}

impl std::fmt::Display for QueryType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QueryType::Select => "SELECT",
            QueryType::Insert => "INSERT",
            QueryType::Update => "UPDATE",
            QueryType::Delete => "DELETE",
            QueryType::Other => "OTHER",
        };
        f.write_str(s)
    }
}

/// Snapshot of a query's probe attributes (paper Appendix A, `Query` class).
///
/// All durations are microseconds. `Duration` is only meaningful on completion
/// events (`Commit`/`Rollback`/`Cancel`); on `Start`/`Compile`/`Blocked` events it
/// holds the time elapsed so far, which is exactly what a polling monitor would
/// observe from a snapshot of the currently-active queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryInfo {
    /// Server-wide unique id of this query execution.
    pub id: u64,
    /// The raw query text, shared with the engine's active-query registry.
    pub text: Arc<str>,
    /// Logical query signature (Section 4.2); set once the query compiles.
    pub logical_signature: Option<u64>,
    /// Physical plan signature (Section 4.2).
    pub physical_signature: Option<u64>,
    /// When the query started executing.
    pub start_time: Timestamp,
    /// Elapsed execution time so far / total on completion (µs).
    pub duration_micros: u64,
    /// Optimizer's estimated cost for the chosen plan.
    pub estimated_cost: f64,
    /// Total time this query has spent blocked on lock resources (µs).
    pub time_blocked_micros: u64,
    /// How many times this query blocked on a lock resource.
    pub times_blocked: u32,
    /// How many other queries this query has blocked.
    pub queries_blocked: u32,
    /// Statement class.
    pub query_type: QueryType,
    /// Session that issued the query.
    pub session_id: u64,
    /// Transaction the query runs in (0 = autocommit wrapper).
    pub txn_id: u64,
    /// User that issued the query (for auditing / resource-governing rules).
    pub user: Arc<str>,
    /// Application name the session reported at login.
    pub application: Arc<str>,
    /// Name of the stored procedure this statement belongs to, if any.
    pub procedure: Option<Arc<str>>,
}

impl QueryInfo {
    /// A minimal, fully-defaulted info — handy in tests of downstream crates.
    pub fn synthetic(id: u64, text: impl Into<Arc<str>>) -> QueryInfo {
        QueryInfo {
            id,
            text: text.into(),
            logical_signature: None,
            physical_signature: None,
            start_time: 0,
            duration_micros: 0,
            estimated_cost: 0.0,
            time_blocked_micros: 0,
            times_blocked: 0,
            queries_blocked: 0,
            query_type: QueryType::Select,
            session_id: 0,
            txn_id: 0,
            user: "".into(),
            application: "".into(),
            procedure: None,
        }
    }
}

/// Snapshot of a transaction's probe attributes (Appendix A, `Transaction` class).
///
/// Transaction signatures are *sequences* of statement signatures between the
/// outermost BEGIN and COMMIT (Section 4.2, signatures 3 & 4); the paper exposes
/// them "as a list of integers".
#[derive(Debug, Clone, PartialEq)]
pub struct TxnInfo {
    pub id: u64,
    pub start_time: Timestamp,
    pub duration_micros: u64,
    /// Sequence of logical query signatures of the statements executed so far.
    pub logical_signature: Vec<u64>,
    /// Sequence of physical plan signatures.
    pub physical_signature: Vec<u64>,
    pub statements: u32,
    pub session_id: u64,
    pub user: Arc<str>,
    pub application: Arc<str>,
}

/// A (blocker, blocked) pair on a lock resource (Appendix A, `Blocker`/`Blocked`).
///
/// Produced either synchronously when a conflict occurs / resolves, or by an
/// on-demand traversal of the lock wait-for graph (Section 6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPairInfo {
    /// The query holding the incompatible lock. When several queries share the
    /// resource, the engine designates one of them (Section 6.1).
    pub blocker: QueryInfo,
    /// The query waiting on the resource.
    pub blocked: QueryInfo,
    /// Human-readable lock resource name, e.g. `"orders/row/42"`.
    pub resource: Arc<str>,
    /// How long `blocked` has been (or was, on release) waiting on the resource (µs).
    pub wait_micros: u64,
}

/// Session lifecycle description, for login/logout auditing rules.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    pub session_id: u64,
    pub user: Arc<str>,
    pub application: Arc<str>,
    /// False for a failed login attempt (auditing Example 4(b) in the paper).
    pub success: bool,
}

/// Everything the engine can tell a monitor. One variant per probe point.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A query began executing.
    QueryStart(QueryInfo),
    /// A query finished optimization; signatures are now available.
    QueryCompile(QueryInfo),
    /// A query completed successfully.
    QueryCommit(QueryInfo),
    /// A query was rolled back (error or explicit rollback).
    QueryRollback(QueryInfo),
    /// A query was cancelled.
    QueryCancel(QueryInfo),
    /// A query just blocked on a lock resource held by another query.
    QueryBlocked(BlockPairInfo),
    /// A query was granted a lock it had been waiting on.
    BlockReleased(BlockPairInfo),
    /// A transaction began.
    TxnBegin(TxnInfo),
    /// A transaction committed.
    TxnCommit(TxnInfo),
    /// A transaction rolled back.
    TxnRollback(TxnInfo),
    /// A session logged in (or failed to).
    Login(SessionInfo),
    /// A session logged out.
    Logout(SessionInfo),
}

/// Fieldless tag of each probe point — cheap to pass around so monitors can
/// declare interest *before* the engine assembles an event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    QueryStart,
    QueryCompile,
    QueryCommit,
    QueryRollback,
    QueryCancel,
    QueryBlocked,
    BlockReleased,
    TxnBegin,
    TxnCommit,
    TxnRollback,
    Login,
    Logout,
}

impl ProbeKind {
    /// Number of probe points.
    pub const COUNT: usize = 12;

    /// Every probe kind, in `index()` order — for building per-kind tables
    /// and interest masks.
    pub const ALL: [ProbeKind; ProbeKind::COUNT] = [
        ProbeKind::QueryStart,
        ProbeKind::QueryCompile,
        ProbeKind::QueryCommit,
        ProbeKind::QueryRollback,
        ProbeKind::QueryCancel,
        ProbeKind::QueryBlocked,
        ProbeKind::BlockReleased,
        ProbeKind::TxnBegin,
        ProbeKind::TxnCommit,
        ProbeKind::TxnRollback,
        ProbeKind::Login,
        ProbeKind::Logout,
    ];

    /// Dense index in `0..COUNT`, usable as a table offset or bitmask bit.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short stable name, matching [`EngineEvent::name`] for the same probe.
    pub fn name(self) -> &'static str {
        match self {
            ProbeKind::QueryStart => "Query.Start",
            ProbeKind::QueryCompile => "Query.Compile",
            ProbeKind::QueryCommit => "Query.Commit",
            ProbeKind::QueryRollback => "Query.Rollback",
            ProbeKind::QueryCancel => "Query.Cancel",
            ProbeKind::QueryBlocked => "Query.Blocked",
            ProbeKind::BlockReleased => "Query.Block_Released",
            ProbeKind::TxnBegin => "Transaction.Begin",
            ProbeKind::TxnCommit => "Transaction.Commit",
            ProbeKind::TxnRollback => "Transaction.Rollback",
            ProbeKind::Login => "Session.Login",
            ProbeKind::Logout => "Session.Logout",
        }
    }
}

/// A packed set of probe kinds — one bit per [`ProbeKind::index()`].
///
/// This is the currency of the monitoring fast path: the engine's multicast
/// keeps the union of all attached monitors' masks in an atomic, and a monitor's
/// dispatch plan keeps its own mask, so "does anyone care about this probe?" is
/// a single load-and-test with no locks and no payload assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeMask(u32);

impl ProbeMask {
    /// The empty mask: no probe is interesting.
    pub const EMPTY: ProbeMask = ProbeMask(0);
    /// Every probe kind.
    pub const ALL: ProbeMask = ProbeMask((1u32 << ProbeKind::COUNT) - 1);

    /// Mask with exactly one kind set.
    pub fn only(kind: ProbeKind) -> ProbeMask {
        ProbeMask(1 << kind.index())
    }

    /// Add a kind to the mask.
    pub fn set(&mut self, kind: ProbeKind) {
        self.0 |= 1 << kind.index();
    }

    /// Whether the mask contains `kind`.
    pub fn contains(self, kind: ProbeKind) -> bool {
        self.0 & (1 << kind.index()) != 0
    }

    /// Set-union of two masks.
    pub fn union(self, other: ProbeMask) -> ProbeMask {
        ProbeMask(self.0 | other.0)
    }

    /// True when no kind is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw bits, for storage in an atomic.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Rebuild from raw bits (unknown high bits are discarded).
    pub fn from_bits(bits: u32) -> ProbeMask {
        ProbeMask(bits & Self::ALL.0)
    }
}

impl FromIterator<ProbeKind> for ProbeMask {
    fn from_iter<I: IntoIterator<Item = ProbeKind>>(iter: I) -> ProbeMask {
        let mut m = ProbeMask::EMPTY;
        for k in iter {
            m.set(k);
        }
        m
    }
}

impl EngineEvent {
    /// The probe point this event came from.
    pub fn kind(&self) -> ProbeKind {
        match self {
            EngineEvent::QueryStart(_) => ProbeKind::QueryStart,
            EngineEvent::QueryCompile(_) => ProbeKind::QueryCompile,
            EngineEvent::QueryCommit(_) => ProbeKind::QueryCommit,
            EngineEvent::QueryRollback(_) => ProbeKind::QueryRollback,
            EngineEvent::QueryCancel(_) => ProbeKind::QueryCancel,
            EngineEvent::QueryBlocked(_) => ProbeKind::QueryBlocked,
            EngineEvent::BlockReleased(_) => ProbeKind::BlockReleased,
            EngineEvent::TxnBegin(_) => ProbeKind::TxnBegin,
            EngineEvent::TxnCommit(_) => ProbeKind::TxnCommit,
            EngineEvent::TxnRollback(_) => ProbeKind::TxnRollback,
            EngineEvent::Login(_) => ProbeKind::Login,
            EngineEvent::Logout(_) => ProbeKind::Logout,
        }
    }

    /// Short stable name used in logs and tests: its probe's.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The query payload, when this event concerns a single query.
    pub fn query(&self) -> Option<&QueryInfo> {
        match self {
            EngineEvent::QueryStart(q)
            | EngineEvent::QueryCompile(q)
            | EngineEvent::QueryCommit(q)
            | EngineEvent::QueryRollback(q)
            | EngineEvent::QueryCancel(q) => Some(q),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_match_paper_schema() {
        let q = QueryInfo::synthetic(1, "SELECT 1");
        assert_eq!(EngineEvent::QueryCommit(q.clone()).name(), "Query.Commit");
        assert_eq!(
            EngineEvent::QueryBlocked(BlockPairInfo {
                blocker: q.clone(),
                blocked: q.clone(),
                resource: "t/1".into(),
                wait_micros: 0,
            })
            .name(),
            "Query.Blocked"
        );
    }

    #[test]
    fn query_accessor() {
        let q = QueryInfo::synthetic(7, "SELECT 1");
        assert_eq!(
            EngineEvent::QueryStart(q.clone()).query().map(|q| q.id),
            Some(7)
        );
        assert!(EngineEvent::Login(SessionInfo {
            session_id: 1,
            user: "u".into(),
            application: "a".into(),
            success: true,
        })
        .query()
        .is_none());
    }

    #[test]
    fn probe_mask_set_contains_union() {
        let mut m = ProbeMask::EMPTY;
        assert!(m.is_empty());
        m.set(ProbeKind::QueryCommit);
        assert!(m.contains(ProbeKind::QueryCommit));
        assert!(!m.contains(ProbeKind::Login));
        let n = ProbeMask::only(ProbeKind::Login);
        let u = m.union(n);
        assert!(u.contains(ProbeKind::QueryCommit) && u.contains(ProbeKind::Login));
        assert_eq!(ProbeMask::from_bits(u.bits()), u);
        // Unknown high bits are dropped on the floor.
        assert_eq!(ProbeMask::from_bits(u32::MAX), ProbeMask::ALL);
        let all: ProbeMask = ProbeKind::ALL.into_iter().collect();
        assert_eq!(all, ProbeMask::ALL);
    }

    #[test]
    fn probe_kind_index_is_dense_and_names_match_events() {
        assert_eq!(ProbeKind::ALL.len(), ProbeKind::COUNT);
        for (i, kind) in ProbeKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "ALL must be in index() order");
        }
        let q = QueryInfo::synthetic(1, "SELECT 1");
        let commit = EngineEvent::QueryCommit(q);
        assert_eq!(commit.kind().name(), commit.name());
    }
}
