//! The engine facade: configuration, construction, connections, and the
//! monitoring-facing surface (attach/detach, snapshots, history, cancel).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sqlcm_common::{EngineEvent, QueryType, Result, SessionInfo, SharedClock, SystemClock, Value};
use sqlcm_storage::{BufferPool, InMemoryDisk};

use crate::active::{ActiveQueryState, ActiveRegistry};
use crate::catalog::Catalog;
use crate::exec::ExecCtx;
use crate::expr::Params;
use crate::history::HistoryBuffer;
use crate::instrument::{Instrumentation, Multicast};
use crate::lock::LockManager;
use crate::plancache::{PlanCache, PlanCacheStats};
use crate::session::Session;
use crate::txn::TxnState;

/// Buffer-pool frames of the in-memory page store.
const BUFFER_POOL_FRAMES: usize = 4096;

/// Statement templates the plan cache keeps.
const PLAN_CACHE_CAPACITY: usize = 1024;

/// Completed-query history retention (the PULL_history substrate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryMode {
    Disabled,
    Unbounded,
    Bounded(usize),
}

/// Engine construction knobs.
pub struct EngineConfig {
    pub history: HistoryMode,
    pub lock_wait_timeout: Duration,
    /// Override the clock (tests pass a `ManualClock`).
    pub clock: Option<SharedClock>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            history: HistoryMode::Disabled,
            lock_wait_timeout: Duration::from_secs(10),
            clock: None,
        }
    }
}

/// Shared engine internals (one per engine, shared by all sessions).
pub struct EngineInner {
    pub catalog: Catalog,
    pub locks: LockManager,
    pub clock: SharedClock,
    pub monitors: Arc<Multicast>,
    pub active: ActiveRegistry,
    pub history: Option<HistoryBuffer>,
    pub plan_cache: PlanCache,
    pub(crate) next_query_id: AtomicU64,
    pub(crate) next_txn_id: AtomicU64,
    next_session_id: AtomicU64,
}

/// The database engine. Cheap to clone via [`Engine::handle`]'s inner `Arc`.
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Engine {
        let clock = config.clock.unwrap_or_else(SystemClock::shared);
        let pool = Arc::new(BufferPool::new(InMemoryDisk::shared(), BUFFER_POOL_FRAMES));
        let monitors = Arc::new(Multicast::new());
        let mut locks = LockManager::new(clock.clone(), monitors.clone());
        locks.wait_timeout = config.lock_wait_timeout;
        let history = match config.history {
            HistoryMode::Disabled => None,
            HistoryMode::Unbounded => Some(HistoryBuffer::new(None)),
            HistoryMode::Bounded(n) => Some(HistoryBuffer::new(Some(n))),
        };
        Engine {
            inner: Arc::new(EngineInner {
                catalog: Catalog::new(pool),
                locks,
                clock: clock.clone(),
                monitors,
                active: ActiveRegistry::new(clock),
                history,
                plan_cache: PlanCache::new(PLAN_CACHE_CAPACITY),
                next_query_id: AtomicU64::new(1),
                next_txn_id: AtomicU64::new(1),
                next_session_id: AtomicU64::new(1),
            }),
        }
    }

    /// Default in-memory engine.
    pub fn in_memory() -> Engine {
        Engine::new(EngineConfig::default())
    }

    /// Shared internals — the handle `sqlcm-core` and the baselines hold.
    pub fn handle(&self) -> Arc<EngineInner> {
        self.inner.clone()
    }

    /// Open a session for `user` / `application`; emits a `Login` probe event.
    pub fn connect(&self, user: &str, application: &str) -> Session {
        let id = self.inner.next_session_id.fetch_add(1, Ordering::Relaxed);
        self.inner
            .monitors
            .emit_with_kind(sqlcm_common::ProbeKind::Login, || {
                EngineEvent::Login(SessionInfo {
                    session_id: id,
                    user: user.into(),
                    application: application.into(),
                    success: true,
                })
            });
        Session::new(self.inner.clone(), id, user, application)
    }

    /// Record a failed login attempt (auditing Example 4(b)).
    pub fn failed_login(&self, user: &str, application: &str) {
        self.inner
            .monitors
            .emit_with_kind(sqlcm_common::ProbeKind::Login, || {
                EngineEvent::Login(SessionInfo {
                    session_id: 0,
                    user: user.into(),
                    application: application.into(),
                    success: false,
                })
            });
    }

    /// Attach a monitor (SQLCM, a baseline, a test spy).
    pub fn attach_monitor(&self, m: Arc<dyn Instrumentation>) {
        self.inner.monitors.attach(m);
    }

    /// Detach by monitor name; true when something was removed.
    pub fn detach_monitor(&self, name: &str) -> bool {
        self.inner.monitors.detach(name)
    }

    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    pub fn clock(&self) -> &SharedClock {
        &self.inner.clock
    }

    /// Snapshot of all currently executing queries (the PULL surface).
    pub fn snapshot_active(&self) -> Vec<sqlcm_common::QueryInfo> {
        self.inner.active.snapshot_all()
    }

    /// The completed-query history buffer, when enabled (PULL_history surface).
    pub fn history(&self) -> Option<&HistoryBuffer> {
        self.inner.history.as_ref()
    }

    /// Signal cancellation of a running query (the `Cancel()` action's engine
    /// half). True if the query was live.
    pub fn cancel_query(&self, query_id: u64) -> bool {
        self.inner.active.cancel(query_id)
    }

    /// Current blocker/blocked pairs from the lock graph (timer-driven rules).
    pub fn blocked_pairs(&self) -> Vec<sqlcm_common::BlockPairInfo> {
        self.inner.locks.blocked_pairs()
    }

    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.plan_cache.stats()
    }

    /// One-shot convenience for setup scripts: run statements under a fresh
    /// internal session.
    pub fn execute_batch(&self, sql: &str) -> Result<()> {
        let mut s = self.connect("system", "setup");
        for stmt in sqlcm_sql::parse_statements(sql)? {
            s.execute_statement(stmt, &[])?;
        }
        Ok(())
    }

    /// Convenience for tests: run one statement, return rows.
    pub fn query(&self, sql: &str) -> Result<Vec<Vec<Value>>> {
        let mut s = self.connect("system", "adhoc");
        Ok(s.execute(sql)?.rows)
    }
}

impl EngineInner {
    pub(crate) fn next_query_id(&self) -> u64 {
        self.next_query_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn next_txn_id(&self) -> u64 {
        self.next_txn_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a query id for an internal (monitor-issued) operation.
    pub fn allocate_query_id(&self) -> u64 {
        self.next_query_id()
    }

    /// Run `body` as an internal (monitor-issued) transaction: unannounced,
    /// so it raises no event, and short. When `body` returns `Ok` its locks
    /// are released; when it fails, its changes are undone, then its locks
    /// released, and its error is returned.
    pub fn internal_txn<T>(
        &self,
        text: String,
        query_type: QueryType,
        body: impl FnOnce(&mut ExecCtx) -> Result<T>,
    ) -> Result<T> {
        let now = self.clock.now_micros();
        let mut txn = TxnState::new(self.next_txn_id(), false, now);
        let query = ActiveQueryState::new(
            self.next_query_id(),
            text.into(),
            query_type,
            0,
            txn.id,
            "sqlcm".into(),
            "monitor".into(),
            None,
            now,
        );
        let result = body(&mut ExecCtx {
            locks: &self.locks,
            txn: &mut txn,
            query: &query,
            params: Params::default(),
        });
        // A commit cannot fail, and after a failure the body's error is the
        // one to report.
        let _ = txn.end(&self.locks, result.is_ok());
        result
    }
}
