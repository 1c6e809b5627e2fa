//! Hierarchical lock manager with blocking probes.
//!
//! This is the substrate behind the paper's `Blocker`/`Blocked` monitored classes
//! and the `Query.Blocked` / `Query.Block_Released` events:
//!
//! * when a request cannot be granted, the engine emits `Query.Blocked` with the
//!   (designated) blocker/blocked pair *synchronously* before parking the thread
//!   (paper §6.1: "the code triggering rule evaluation is simply piggybacked on
//!   the regular lock-conflict detection");
//! * when the waiter is finally granted, `Query.Block_Released` fires with the
//!   measured wait;
//! * an on-demand [`LockManager::blocked_pairs`] traversal serves timer-driven
//!   rules ("our code traverses the lock-resource graph itself");
//! * when several queries hold a resource another waits on, one holder is
//!   *designated* the blocker (§6.1: "we designate one of the queries holding the
//!   resource as the Blocker").
//!
//! Modes are the classic hierarchy IS/IX/S/X; tables take intention locks, rows
//! take S/X. Waiters queue FIFO; releases grant the longest compatible prefix of
//! the queue. Deadlocks are detected at block time by building the wait-for graph
//! from live queues (the requester is the victim). A waiter also gives up when
//! its query is cancelled: [`LockManager::wake_waiters`] makes every parked
//! waiter re-read its query's flag (§5.3's `Cancel()` reaches a blocked query).
//!
//! The table holds live locks only. An entry is made by the first request for
//! its resource and removed once no transaction holds or waits on it and no
//! request holds an `Arc` to it: by the last release, or by a waiter that gives
//! up without a grant. So both graph scans walk only what is held or awaited.
//! Locks are taken table first, then an entry's state. Every `Arc` to an entry
//! is cloned under the table lock, and a waiter that gives up drops its own
//! under it, so the count a remover reads under that lock can only fall.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use sqlcm_common::{BlockPairInfo, EngineEvent, Error, Result, SharedClock, Value};

use crate::active::ActiveQueryState;
use crate::instrument::Multicast;

/// A lockable resource: a whole table or one row (identified by its key).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ResourceId {
    Table(u32),
    Row(u32, Vec<Value>),
}

impl std::fmt::Display for ResourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceId::Table(t) => write!(f, "table:{t}"),
            ResourceId::Row(t, key) => {
                write!(f, "table:{t}/row:")?;
                for (i, v) in key.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
        }
    }
}

/// Lock modes, hierarchical-intention flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    IntentShared,
    IntentExclusive,
    Shared,
    Exclusive,
}

impl LockMode {
    /// Standard compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IntentShared, Exclusive) | (Exclusive, IntentShared) => false,
            (IntentShared, _) | (_, IntentShared) => true,
            (IntentExclusive, IntentExclusive) => true,
            (IntentExclusive, _) | (_, IntentExclusive) => false,
            (Shared, Shared) => true,
            _ => false,
        }
    }

    /// Whether holding `self` already satisfies a request for `other`.
    pub fn covers(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (a, b) if a == b => true,
            (Exclusive, _) => true,
            (Shared, IntentShared) => true,
            (IntentExclusive, IntentShared) => true,
            _ => false,
        }
    }
}

struct Holder {
    /// The modes held, bit `1 << mode as u8` each.
    modes: u8,
    query: Arc<ActiveQueryState>,
}

impl Holder {
    fn modes(&self) -> impl Iterator<Item = LockMode> + '_ {
        use LockMode::*;
        [IntentShared, IntentExclusive, Shared, Exclusive]
            .into_iter()
            .filter(|m| self.modes & 1 << *m as u8 != 0)
    }
}

struct Waiter {
    txn: u64,
    mode: LockMode,
    query: Arc<ActiveQueryState>,
    /// Set by the release that grants the request; written and read only
    /// under the entry's state lock.
    granted: Arc<AtomicBool>,
    since_micros: u64,
}

#[derive(Default)]
struct LockState {
    holders: HashMap<u64, Holder>,
    queue: VecDeque<Waiter>,
}

impl LockState {
    fn is_idle(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }

    fn other_holders_compatible(&self, txn: u64, mode: LockMode) -> bool {
        self.holders
            .iter()
            .filter(|(t, _)| **t != txn)
            .all(|(_, h)| h.modes().all(|m| m.compatible(mode)))
    }

    fn grant(&mut self, txn: u64, mode: LockMode, query: &Arc<ActiveQueryState>) {
        let h = self.holders.entry(txn).or_insert_with(|| Holder {
            modes: 0,
            query: query.clone(),
        });
        if !h.modes().any(|m| m.covers(mode)) {
            h.modes |= 1 << mode as u8;
        }
        // The most recent acquiring statement represents this txn as a blocker.
        h.query = query.clone();
    }

    /// Grant the longest compatible prefix of the queue; returns granted slots.
    fn grant_from_queue(&mut self) -> bool {
        let mut granted_any = false;
        while let Some(w) = self.queue.front() {
            let ok = self.other_holders_compatible(w.txn, w.mode);
            if !ok {
                break;
            }
            let w = self.queue.pop_front().expect("front checked");
            self.grant(w.txn, w.mode, &w.query);
            w.granted.store(true, Ordering::Relaxed);
            granted_any = true;
        }
        granted_any
    }

    /// Pick the blocker to *designate* for a waiter: the first incompatible
    /// holder (by arbitrary-but-stable map iteration we instead pick the one with
    /// the smallest txn id so tests are deterministic).
    fn designated_blocker(&self, txn: u64, mode: LockMode) -> Option<&Holder> {
        self.holders
            .iter()
            .filter(|(t, h)| **t != txn && h.modes().any(|m| !m.compatible(mode)))
            .min_by_key(|(t, _)| **t)
            .map(|(_, h)| h)
    }
}

#[derive(Default)]
struct LockEntry {
    state: Mutex<LockState>,
    cv: Condvar,
}

/// Counters for the lock subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    pub acquisitions: u64,
    pub waits: u64,
    pub deadlocks: u64,
    pub timeouts: u64,
}

/// The lock manager. One per engine.
pub struct LockManager {
    table: Mutex<HashMap<ResourceId, Arc<LockEntry>>>,
    clock: SharedClock,
    monitors: Arc<Multicast>,
    /// Maximum time a request may wait before failing with `LockTimeout`.
    pub wait_timeout: Duration,
    stats: Mutex<LockStats>,
}

impl LockManager {
    pub fn new(clock: SharedClock, monitors: Arc<Multicast>) -> Self {
        LockManager {
            table: Mutex::new(HashMap::new()),
            clock,
            monitors,
            wait_timeout: Duration::from_secs(10),
            stats: Mutex::new(LockStats::default()),
        }
    }

    pub fn stats(&self) -> LockStats {
        *self.stats.lock()
    }

    fn entry(&self, res: &ResourceId) -> Arc<LockEntry> {
        let mut table = self.table.lock();
        if let Some(entry) = table.get(res) {
            return entry.clone();
        }
        let entry = Arc::new(LockEntry::default());
        table.insert(res.clone(), entry.clone());
        entry
    }

    /// Acquire `mode` on `res` for transaction `txn`, on behalf of `query`.
    ///
    /// Blocks (with probes) until granted, deadlock, or timeout.
    pub fn acquire(
        &self,
        txn: u64,
        query: &Arc<ActiveQueryState>,
        res: &ResourceId,
        mode: LockMode,
    ) -> Result<()> {
        let entry = self.entry(res);
        let (granted, blocker_snapshot, blocked_snapshot) = {
            let mut state = entry.state.lock();
            // Re-entrant / already-covered?
            if let Some(h) = state.holders.get(&txn) {
                if h.modes().any(|m| m.covers(mode)) {
                    return Ok(());
                }
            }
            if state.queue.is_empty() && state.other_holders_compatible(txn, mode) {
                state.grant(txn, mode, query);
                self.stats.lock().acquisitions += 1;
                return Ok(());
            }
            // We must wait. Snapshot the designated blocker for the probe.
            let now = self.clock.now_micros();
            let blocker = state
                .designated_blocker(txn, mode)
                .map(|h| h.query.clone())
                .or_else(|| {
                    // Blocked purely by queue fairness: designate the head waiter.
                    state.queue.front().map(|w| w.query.clone())
                });
            let granted = Arc::new(AtomicBool::new(false));
            state.queue.push_back(Waiter {
                txn,
                mode,
                query: query.clone(),
                granted: granted.clone(),
                since_micros: now,
            });
            let blocker_snapshot = blocker.map(|b| {
                b.note_blocked_other();
                b.snapshot(now)
            });
            query.note_blocked_once();
            let blocked_snapshot = query.snapshot(now);
            (granted, blocker_snapshot, blocked_snapshot)
        };
        self.stats.lock().waits += 1;

        // Deadlock check now that our wait is visible in the graph.
        let parked = if self.deadlock_from(txn) {
            Err(Error::Deadlock {
                resource: res.to_string(),
            })
        } else {
            // Probe: Query.Blocked — outside the entry lock so monitors may
            // inspect the lock graph without self-deadlock.
            if let Some(blocker) = &blocker_snapshot {
                self.monitors
                    .emit_with_kind(sqlcm_common::ProbeKind::QueryBlocked, || {
                        EngineEvent::QueryBlocked(BlockPairInfo {
                            blocker: blocker.clone(),
                            blocked: blocked_snapshot.clone(),
                            resource: res.to_string().into(),
                            wait_micros: 0,
                        })
                    });
            }
            self.park(&entry, &granted, query, res)
        };
        let waited = match parked {
            Ok(waited) => waited,
            // A release may grant the request before it leaves the queue; the
            // grant stands then, so no lock outlives its transaction's list.
            Err(err) => {
                if !self.leave(res, entry, &granted) {
                    let mut stats = self.stats.lock();
                    stats.deadlocks += u64::from(matches!(err, Error::Deadlock { .. }));
                    stats.timeouts += u64::from(matches!(err, Error::LockTimeout { .. }));
                    return Err(err);
                }
                0
            }
        };
        query.add_blocked(waited);
        self.stats.lock().acquisitions += 1;

        // Probe: Query.Block_Released with the measured wait.
        if let Some(blocker) = blocker_snapshot {
            let now = self.clock.now_micros();
            self.monitors
                .emit_with_kind(sqlcm_common::ProbeKind::BlockReleased, || {
                    EngineEvent::BlockReleased(BlockPairInfo {
                        blocker,
                        blocked: query.snapshot(now),
                        resource: res.to_string().into(),
                        wait_micros: waited,
                    })
                });
        }
        Ok(())
    }

    /// Park until the request is `granted` (returns the wait in µs), `query` is
    /// cancelled, or the wait times out. The waiter stays queued either way.
    fn park(
        &self,
        entry: &LockEntry,
        granted: &AtomicBool,
        query: &ActiveQueryState,
        res: &ResourceId,
    ) -> Result<u64> {
        let started = std::time::Instant::now();
        let start_micros = self.clock.now_micros();
        let mut state = entry.state.lock();
        loop {
            if granted.load(Ordering::Relaxed) {
                return Ok(self.clock.now_micros() - start_micros);
            }
            if query.is_cancelled() {
                return Err(Error::Cancelled);
            }
            let remaining = self.wait_timeout.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                return Err(Error::LockTimeout {
                    resource: res.to_string(),
                    waited_micros: self.clock.now_micros() - start_micros,
                });
            }
            entry.cv.wait_for(&mut state, remaining);
        }
    }

    /// Take a waiter that gives up off `res`'s queue, and drop the entry if
    /// that leaves it idle. Returns true when a release granted the request
    /// first. `entry` is dropped under the table lock, so the next check sees
    /// the true count.
    fn leave(&self, res: &ResourceId, entry: Arc<LockEntry>, slot: &AtomicBool) -> bool {
        let mut table = self.table.lock();
        let mut state = entry.state.lock();
        let granted = slot.load(Ordering::Relaxed);
        if !granted {
            state.queue.retain(|w| !std::ptr::eq(&*w.granted, slot));
            // Our departure may unblock others (e.g. an upgrade behind us).
            if state.grant_from_queue() {
                entry.cv.notify_all();
            }
        }
        // Two `Arc`s: the table's and ours.
        let idle = state.is_idle() && Arc::strong_count(&entry) == 2;
        drop(state);
        drop(entry);
        if idle {
            table.remove(res);
        }
        granted
    }

    /// Release every lock `txn` holds on `resources` (strict 2PL: called once at
    /// commit/rollback with the transaction's tracked resource list), dropping
    /// each entry this leaves idle.
    pub fn release_all<'a>(&self, txn: u64, resources: impl IntoIterator<Item = &'a ResourceId>) {
        let mut table = self.table.lock();
        for res in resources {
            let Some(entry) = table.get(res) else {
                continue;
            };
            let mut state = entry.state.lock();
            state.holders.remove(&txn);
            if state.grant_from_queue() {
                entry.cv.notify_all();
            }
            // Only the table's `Arc`: no request is about to queue here.
            let idle = state.is_idle() && Arc::strong_count(entry) == 1;
            drop(state);
            if idle {
                table.remove(res);
            }
        }
    }

    /// Build the wait-for graph from live queues and test whether `start` can
    /// reach itself. Holder-set and queue snapshots are taken entry by entry.
    fn deadlock_from(&self, start: u64) -> bool {
        // edges: waiter txn -> holder txns that block it.
        let mut edges: HashMap<u64, HashSet<u64>> = HashMap::new();
        {
            let table = self.table.lock();
            for entry in table.values() {
                let state = entry.state.lock();
                for w in &state.queue {
                    let deps = edges.entry(w.txn).or_default();
                    for (t, h) in &state.holders {
                        if *t != w.txn && h.modes().any(|m| !m.compatible(w.mode)) {
                            deps.insert(*t);
                        }
                    }
                    // FIFO fairness: also wait on earlier incompatible waiters.
                    for earlier in &state.queue {
                        if std::ptr::eq(earlier, w) {
                            break;
                        }
                        if earlier.txn != w.txn && !earlier.mode.compatible(w.mode) {
                            deps.insert(earlier.txn);
                        }
                    }
                }
            }
        }
        // DFS from start.
        let mut stack: Vec<u64> = edges.get(&start).into_iter().flatten().copied().collect();
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = edges.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Current (blocker, blocked) pairs — the on-demand lock-graph traversal used
    /// by timer-triggered rules (§6.1). `wait_micros` is the time waited so far.
    pub fn blocked_pairs(&self) -> Vec<BlockPairInfo> {
        let now = self.clock.now_micros();
        let mut out = Vec::new();
        let table = self.table.lock();
        for (res, entry) in table.iter() {
            let state = entry.state.lock();
            for w in &state.queue {
                if let Some(h) = state.designated_blocker(w.txn, w.mode) {
                    out.push(BlockPairInfo {
                        blocker: h.query.snapshot(now),
                        blocked: w.query.snapshot(now),
                        resource: res.to_string().into(),
                        wait_micros: now.saturating_sub(w.since_micros),
                    });
                }
            }
        }
        out
    }

    /// Wake every parked waiter to re-read its query's cancel flag. Each
    /// entry's state is locked before the notify, so a waiter between its
    /// check and its wait cannot miss it.
    pub fn wake_waiters(&self) {
        let table = self.table.lock();
        for entry in table.values() {
            let state = entry.state.lock();
            if !state.queue.is_empty() {
                entry.cv.notify_all();
            }
        }
    }

    /// Number of resources some transaction holds or waits on (or is about
    /// to queue on): an entry leaves the table with its last holder or waiter.
    pub fn resource_count(&self) -> usize {
        self.table.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::test_support::Spy;
    use sqlcm_common::{QueryType, SystemClock};
    use std::thread;
    use std::time::Duration;

    fn mk_query(id: u64) -> Arc<ActiveQueryState> {
        ActiveQueryState::new(
            id,
            format!("q{id}").into(),
            QueryType::Select,
            1,
            id,
            "u".into(),
            "a".into(),
            None,
            0,
        )
    }

    fn mgr() -> (LockManager, Arc<Spy>) {
        let spy = Arc::new(Spy::default());
        let mc = Arc::new(Multicast::new());
        mc.attach(spy.clone());
        (LockManager::new(SystemClock::shared(), mc), spy)
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(Shared.compatible(Shared));
        assert!(!Shared.compatible(Exclusive));
        assert!(!Exclusive.compatible(Exclusive));
        assert!(IntentShared.compatible(IntentExclusive));
        assert!(IntentExclusive.compatible(IntentExclusive));
        assert!(!IntentExclusive.compatible(Shared));
        assert!(!IntentShared.compatible(Exclusive));
        assert!(Exclusive.covers(Shared));
        assert!(IntentExclusive.covers(IntentShared));
        assert!(!Shared.covers(Exclusive));
    }

    #[test]
    fn shared_locks_coexist() {
        let (m, _) = mgr();
        let r = ResourceId::Row(1, vec![Value::Int(5)]);
        m.acquire(1, &mk_query(1), &r, LockMode::Shared).unwrap();
        m.acquire(2, &mk_query(2), &r, LockMode::Shared).unwrap();
        m.release_all(1, std::slice::from_ref(&r));
        m.release_all(2, &[r]);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let (m, _) = mgr();
        let r = ResourceId::Table(3);
        let q = mk_query(1);
        m.acquire(1, &q, &r, LockMode::Shared).unwrap();
        m.acquire(1, &q, &r, LockMode::Shared).unwrap();
        // Sole holder upgrades without waiting.
        m.acquire(1, &q, &r, LockMode::Exclusive).unwrap();
        m.release_all(1, &[r]);
    }

    #[test]
    fn exclusive_blocks_until_release_and_probes_fire() {
        let (m, spy) = mgr();
        let m = Arc::new(m);
        let r = ResourceId::Row(1, vec![Value::Int(9)]);
        let holder = mk_query(1);
        m.acquire(1, &holder, &r, LockMode::Exclusive).unwrap();

        let m2 = m.clone();
        let r2 = r.clone();
        let waiter_q = mk_query(2);
        let wq = waiter_q.clone();
        let t = thread::spawn(move || m2.acquire(2, &wq, &r2, LockMode::Shared));
        thread::sleep(Duration::from_millis(30));
        assert_eq!(m.blocked_pairs().len(), 1, "pair visible while blocked");
        m.release_all(1, std::slice::from_ref(&r));
        t.join().unwrap().unwrap();

        let names = spy.names();
        assert!(names.contains(&"Query.Blocked"));
        assert!(names.contains(&"Query.Block_Released"));
        let snap = waiter_q.snapshot(0);
        assert_eq!(snap.times_blocked, 1);
        assert!(snap.time_blocked_micros > 0);
        assert_eq!(holder.snapshot(0).queries_blocked, 1);
        m.release_all(2, &[r]);
        assert_eq!(m.resource_count(), 0);
    }

    #[test]
    fn deadlock_detected_and_victim_is_requester() {
        let (m, _) = mgr();
        let m = Arc::new(m);
        let ra = ResourceId::Row(1, vec![Value::Int(1)]);
        let rb = ResourceId::Row(1, vec![Value::Int(2)]);
        let q1 = mk_query(1);
        let q2 = mk_query(2);
        m.acquire(1, &q1, &ra, LockMode::Exclusive).unwrap();
        m.acquire(2, &q2, &rb, LockMode::Exclusive).unwrap();

        // txn 2 waits for ra (held by 1) in a thread.
        let m2 = m.clone();
        let ra2 = ra.clone();
        let q2b = q2.clone();
        let t = thread::spawn(move || m2.acquire(2, &q2b, &ra2, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        // txn 1 now requests rb: cycle 1→2→1 must be detected immediately.
        let err = m.acquire(1, &q1, &rb, LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, Error::Deadlock { .. }), "{err}");
        assert_eq!(m.stats().deadlocks, 1);
        // Unwind: txn 1 releases, txn 2 proceeds.
        m.release_all(1, std::slice::from_ref(&ra));
        t.join().unwrap().unwrap();
        m.release_all(2, &[ra, rb]);
    }

    #[test]
    fn lock_timeout() {
        let (mut m, _) = mgr();
        m.wait_timeout = Duration::from_millis(50);
        let m = Arc::new(m);
        let r = ResourceId::Table(7);
        m.acquire(1, &mk_query(1), &r, LockMode::Exclusive).unwrap();
        let err = m
            .acquire(2, &mk_query(2), &r, LockMode::Shared)
            .unwrap_err();
        assert!(matches!(err, Error::LockTimeout { .. }), "{err}");
        assert_eq!(m.stats().timeouts, 1);
        m.release_all(1, &[r]);
    }

    #[test]
    fn fifo_grant_order() {
        let (m, _) = mgr();
        let m = Arc::new(m);
        let r = ResourceId::Table(1);
        m.acquire(1, &mk_query(1), &r, LockMode::Exclusive).unwrap();

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = vec![];
        for txn in 2..5u64 {
            let m = m.clone();
            let r = r.clone();
            let order = order.clone();
            handles.push(thread::spawn(move || {
                let q = mk_query(txn);
                m.acquire(txn, &q, &r, LockMode::Exclusive).unwrap();
                order.lock().push(txn);
                thread::sleep(Duration::from_millis(5));
                m.release_all(txn, &[r]);
            }));
            // Stagger arrivals so queue order is deterministic.
            thread::sleep(Duration::from_millis(25));
        }
        m.release_all(1, &[r]);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![2, 3, 4]);
    }

    #[test]
    fn intention_locks_do_not_conflict_with_each_other() {
        let (m, _) = mgr();
        let t = ResourceId::Table(1);
        m.acquire(1, &mk_query(1), &t, LockMode::IntentExclusive)
            .unwrap();
        m.acquire(2, &mk_query(2), &t, LockMode::IntentExclusive)
            .unwrap();
        m.acquire(3, &mk_query(3), &t, LockMode::IntentShared)
            .unwrap();
        m.release_all(1, std::slice::from_ref(&t));
        m.release_all(2, std::slice::from_ref(&t));
        m.release_all(3, &[t]);
    }

    #[test]
    fn waiters_counted_in_stats() {
        let (m, _) = mgr();
        let m = Arc::new(m);
        let r = ResourceId::Table(2);
        m.acquire(1, &mk_query(1), &r, LockMode::Exclusive).unwrap();
        let m2 = m.clone();
        let r2 = r.clone();
        let t = thread::spawn(move || m2.acquire(2, &mk_query(2), &r2, LockMode::Exclusive));
        thread::sleep(Duration::from_millis(20));
        m.release_all(1, std::slice::from_ref(&r));
        t.join().unwrap().unwrap();
        assert_eq!(m.stats().waits, 1);
        assert!(m.stats().acquisitions >= 2);
        m.release_all(2, &[r]);
    }

    /// Hold `X` on `r` as txn 1 and start txn 2 waiting for `S` on it.
    fn held_and_awaited(
        m: &Arc<LockManager>,
        spy: &Spy,
        r: &ResourceId,
    ) -> thread::JoinHandle<Result<()>> {
        m.acquire(1, &mk_query(1), r, LockMode::Exclusive).unwrap();
        let (m2, r2) = (m.clone(), r.clone());
        let t = thread::spawn(move || m2.acquire(2, &mk_query(2), &r2, LockMode::Shared));
        await_blocked(spy);
        t
    }

    /// Wait for `Query.Blocked`: the waiter has passed its deadlock check.
    fn await_blocked(spy: &Spy) {
        while !spy.names().contains(&"Query.Blocked") {
            thread::yield_now();
        }
    }

    #[test]
    fn table_empties_after_a_plain_release() {
        let (m, _) = mgr();
        let r = ResourceId::Row(1, vec![Value::Int(5)]);
        m.acquire(1, &mk_query(1), &r, LockMode::Shared).unwrap();
        m.acquire(2, &mk_query(2), &r, LockMode::Shared).unwrap();
        m.release_all(1, std::slice::from_ref(&r));
        assert_eq!(m.resource_count(), 1, "txn 2 still holds it");
        m.release_all(2, std::slice::from_ref(&r));
        assert_eq!(m.resource_count(), 0);
    }

    #[test]
    fn table_empties_after_a_granted_waiter_releases() {
        let (m, spy) = mgr();
        let m = Arc::new(m);
        let r = ResourceId::Row(1, vec![Value::Int(9)]);
        let t = held_and_awaited(&m, &spy, &r);
        m.release_all(1, std::slice::from_ref(&r));
        t.join().unwrap().unwrap();
        assert_eq!(m.resource_count(), 1, "the waiter now holds it");
        m.release_all(2, &[r]);
        assert_eq!(m.resource_count(), 0);
    }

    #[test]
    fn table_empties_after_a_reentrant_upgrade() {
        let (m, _) = mgr();
        let r = ResourceId::Table(3);
        let q = mk_query(1);
        for mode in [
            LockMode::IntentShared,
            LockMode::Shared,
            LockMode::Exclusive,
        ] {
            m.acquire(1, &q, &r, mode).unwrap();
        }
        m.release_all(1, &[r]);
        assert_eq!(m.resource_count(), 0);
    }

    #[test]
    fn table_empties_after_a_waiter_times_out() {
        let (mut m, _) = mgr();
        m.wait_timeout = Duration::from_millis(50);
        let r = ResourceId::Table(7);
        m.acquire(1, &mk_query(1), &r, LockMode::Exclusive).unwrap();
        let err = m
            .acquire(2, &mk_query(2), &r, LockMode::Shared)
            .unwrap_err();
        assert!(matches!(err, Error::LockTimeout { .. }), "{err}");
        assert_eq!(m.resource_count(), 1, "txn 1 still holds it");
        assert!(m.blocked_pairs().is_empty(), "the waiter left the queue");
        m.release_all(1, &[r]);
        assert_eq!(m.resource_count(), 0);
    }

    #[test]
    fn table_empties_after_a_deadlock_victim() {
        let (m, spy) = mgr();
        let m = Arc::new(m);
        let (ra, rb) = (ResourceId::Table(1), ResourceId::Table(2));
        let q1 = mk_query(1);
        m.acquire(1, &q1, &ra, LockMode::Exclusive).unwrap();
        m.acquire(2, &mk_query(2), &rb, LockMode::Exclusive)
            .unwrap();
        let (m2, ra2) = (m.clone(), ra.clone());
        let t = thread::spawn(move || m2.acquire(2, &mk_query(2), &ra2, LockMode::Exclusive));
        await_blocked(&spy);
        let err = m.acquire(1, &q1, &rb, LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, Error::Deadlock { .. }), "{err}");
        m.release_all(1, std::slice::from_ref(&ra));
        t.join().unwrap().unwrap();
        m.release_all(2, &[ra, rb]);
        assert_eq!(m.resource_count(), 0);
    }

    #[test]
    fn table_empties_after_an_aborted_waiter() {
        let (m, spy) = mgr();
        let m = Arc::new(m);
        let r = ResourceId::Row(1, vec![Value::Int(4)]);
        m.acquire(1, &mk_query(1), &r, LockMode::Exclusive).unwrap();
        let waiter = mk_query(2);
        let (m2, r2, w2) = (m.clone(), r.clone(), waiter.clone());
        let t = thread::spawn(move || m2.acquire(2, &w2, &r2, LockMode::Shared));
        await_blocked(&spy);
        waiter.request_cancel();
        m.wake_waiters();
        assert!(matches!(t.join().unwrap(), Err(Error::Cancelled)));
        assert!(m.blocked_pairs().is_empty(), "the waiter left the queue");
        m.release_all(1, std::slice::from_ref(&r));
        assert_eq!(
            m.resource_count(),
            0,
            "no grant went to the cancelled waiter"
        );
    }

    #[test]
    fn departures_racing_releases_leave_no_entry_and_no_holder() {
        let (mut m, _) = mgr();
        m.wait_timeout = Duration::from_millis(1);
        let m = Arc::new(m);
        let rows = [ResourceId::Table(1), ResourceId::Table(2)];
        let start = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let (m, rows, start) = (m.clone(), rows.clone(), start.clone());
                thread::spawn(move || {
                    start.wait();
                    for i in 0..300u64 {
                        let (txn, r) = (t * 1000 + i + 1, &rows[(t + i) as usize % 2]);
                        if m.acquire(txn, &mk_query(txn), r, LockMode::Exclusive)
                            .is_ok()
                        {
                            // Long enough that some of the queue behind times out.
                            thread::sleep(Duration::from_micros(200));
                            m.release_all(txn, [r]);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.resource_count(), 0);
        let stats = m.stats();
        assert_eq!(stats.acquisitions + stats.timeouts, 8 * 300, "{stats:?}");
        // No failed request left a grant behind: both rows are free.
        for r in &rows {
            m.acquire(9999, &mk_query(9999), r, LockMode::Exclusive)
                .unwrap();
        }
    }
}
