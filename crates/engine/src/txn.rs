//! Transactions: strict two-phase locking with an undo log.
//!
//! Transactions are the unit behind the paper's `Transaction` monitored class:
//! the session accumulates each statement's signatures into the open transaction,
//! and on commit those sequences become the logical/physical *transaction
//! signatures* (§4.2, kinds 3 & 4).

use sqlcm_common::{Result, Timestamp, Value};
use std::collections::HashSet;
use std::sync::Arc;

use crate::catalog::TableInfo;
use crate::lock::{LockManager, ResourceId};
use sqlcm_storage::RowId;

/// Inverse operations recorded as DML executes, applied in reverse on rollback.
pub enum UndoOp {
    /// We inserted `key` into a clustered table → undo deletes it.
    ClusteredInsert {
        table: Arc<TableInfo>,
        key: Vec<Value>,
        row: Vec<Value>,
    },
    /// We deleted `row` → undo reinserts it.
    ClusteredDelete {
        table: Arc<TableInfo>,
        key: Vec<Value>,
        row: Vec<Value>,
    },
    /// We replaced `old_row` (at `old_key`) with a row at `new_key`.
    ClusteredUpdate {
        table: Arc<TableInfo>,
        old_key: Vec<Value>,
        old_row: Vec<Value>,
        new_key: Vec<Value>,
        new_row: Vec<Value>,
    },
    HeapInsert {
        table: Arc<TableInfo>,
        rowid: RowId,
    },
    HeapDelete {
        table: Arc<TableInfo>,
        row: Vec<Value>,
    },
    HeapUpdate {
        table: Arc<TableInfo>,
        new_rowid: RowId,
        old_row: Vec<Value>,
    },
}

/// State of one open transaction.
pub struct TxnState {
    pub id: u64,
    /// True when `Transaction.Begin` was emitted (a user BEGIN, or an `EXEC`
    /// wrapping its statements); such a transaction emits exactly one end
    /// event. False for an autocommit wrapper, which emits neither.
    pub announced: bool,
    pub start_time: Timestamp,
    /// Resources locked by this transaction, released at end.
    locks: HashSet<ResourceId>,
    /// Undo log in execution order.
    pub undo: Vec<UndoOp>,
    /// Statement signature sequences (→ transaction signatures).
    pub logical_sigs: Vec<u64>,
    pub physical_sigs: Vec<u64>,
    pub statements: u32,
}

impl TxnState {
    pub fn new(id: u64, announced: bool, start_time: Timestamp) -> TxnState {
        TxnState {
            id,
            announced,
            start_time,
            locks: HashSet::new(),
            undo: Vec::new(),
            logical_sigs: Vec::new(),
            physical_sigs: Vec::new(),
            statements: 0,
        }
    }

    /// Record that this txn now holds `res` (idempotent).
    pub fn note_lock(&mut self, res: ResourceId) {
        self.locks.insert(res);
    }

    /// End the transaction: undo it unless it commits, then release its locks.
    /// Returns the undo's outcome.
    pub(crate) fn end(self, locks: &LockManager, commit: bool) -> Result<()> {
        let undone = if commit {
            Ok(())
        } else {
            crate::exec::apply_undo(self.undo)
        };
        locks.release_all(self.id, &self.locks);
        undone
    }

    /// Append one statement's signatures.
    pub fn push_signatures(&mut self, logical: u64, physical: u64) {
        self.logical_sigs.push(logical);
        self.physical_sigs.push(physical);
        self.statements += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_dedup() {
        let mut t = TxnState::new(1, true, 0);
        t.note_lock(ResourceId::Table(1));
        t.note_lock(ResourceId::Table(1));
        t.note_lock(ResourceId::Row(1, vec![Value::Int(5)]));
        assert_eq!(t.locks.len(), 2);
    }

    #[test]
    fn signature_accumulation() {
        let mut t = TxnState::new(1, false, 0);
        t.push_signatures(10, 11);
        t.push_signatures(20, 21);
        assert_eq!(t.logical_sigs, vec![10, 20]);
        assert_eq!(t.physical_sigs, vec![11, 21]);
        assert_eq!(t.statements, 2);
    }
}
