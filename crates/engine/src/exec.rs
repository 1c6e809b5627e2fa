//! The query executor: physical plans → rows, plus DML with index maintenance,
//! locking, undo logging, and cooperative cancellation.
//!
//! SELECT and the target search of UPDATE and DELETE reach their rows through
//! one row access (`reach`), which takes the locks of this table (strict 2PL,
//! hierarchical); INSERT takes its own:
//!
//! | operation | table lock | row lock |
//! |---|---|---|
//! | point select via clustered key | IS | S on the key |
//! | range / full scan select | S | — |
//! | point update/delete | IX | X on the key |
//! | range / scan-driven update/delete | X | — |
//! | insert | IX | X on the new key (clustered) |
//!
//! Cancellation is cooperative: the executor polls
//! [`ActiveQueryState::is_cancelled`] between batches
//! ([`CANCEL_CHECK_INTERVAL`] rows), in every operator and in the row access,
//! so an UPDATE's or DELETE's target scan stops too. This is how the paper's
//! `Cancel()` action takes effect ("the action only sends the cancel signal to
//! the thread(s) currently executing the query", §5).

use std::collections::HashMap;
use std::sync::Arc;

use sqlcm_common::{Error, Result, Value};
use sqlcm_sql::agg::AggState;
use sqlcm_sql::Expr;
use sqlcm_storage::btree::ScanBounds;
use sqlcm_storage::{decode_row, encode_row, RowId};

use crate::active::ActiveQueryState;
use crate::catalog::{TableInfo, TableLayout};
use crate::expr::{eval, is_truthy, Params, Schema};
use crate::lock::{LockManager, LockMode, ResourceId};
use crate::plan::{AggSpec, PhysicalPlan, SeekBounds};
use crate::txn::{TxnState, UndoOp};

/// Rows between cancellation checks.
pub const CANCEL_CHECK_INTERVAL: usize = 256;

/// Everything a statement needs to execute.
pub struct ExecCtx<'a> {
    pub locks: &'a LockManager,
    pub txn: &'a mut TxnState,
    pub query: &'a Arc<ActiveQueryState>,
    pub params: Params<'a>,
}

impl ExecCtx<'_> {
    fn lock(&mut self, res: ResourceId, mode: LockMode) -> Result<()> {
        self.locks.acquire(self.txn.id, self.query, &res, mode)?;
        self.txn.note_lock(res);
        Ok(())
    }

    fn check_cancel(&self) -> Result<()> {
        if self.query.is_cancelled() {
            Err(Error::Cancelled)
        } else {
            Ok(())
        }
    }
}

// =================================================================== SELECT

/// Execute a physical plan, materializing the result rows.
pub fn run_select(ctx: &mut ExecCtx, plan: &PhysicalPlan) -> Result<Vec<Vec<Value>>> {
    match plan {
        PhysicalPlan::DualScan => Ok(vec![vec![]]),
        PhysicalPlan::SeqScan { .. } | PhysicalPlan::IndexSeek { .. } => {
            let mut out = Vec::new();
            reach(ctx, plan, Access::Read, |_, row| out.push(row))?;
            Ok(out)
        }
        PhysicalPlan::Filter { predicate, input } => {
            let schema = input.schema();
            let rows = run_select(ctx, input)?;
            let mut out = Vec::new();
            for (i, row) in rows.into_iter().enumerate() {
                if i % CANCEL_CHECK_INTERVAL == 0 {
                    ctx.check_cancel()?;
                }
                if is_truthy(&eval(predicate, &schema, &row, &ctx.params)?) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PhysicalPlan::Project { exprs, input } => {
            let schema = input.schema();
            let rows = run_select(ctx, input)?;
            let mut out = Vec::with_capacity(rows.len());
            for (i, row) in rows.into_iter().enumerate() {
                if i % CANCEL_CHECK_INTERVAL == 0 {
                    ctx.check_cancel()?;
                }
                let mut projected = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    projected.push(eval(e, &schema, &row, &ctx.params)?);
                }
                out.push(projected);
            }
            Ok(out)
        }
        PhysicalPlan::NestedLoopJoin { left, right, on } => {
            let joined_schema = plan.schema();
            let left_rows = run_select(ctx, left)?;
            let right_rows = run_select(ctx, right)?;
            let mut out = Vec::new();
            let mut i = 0usize;
            for l in &left_rows {
                for r in &right_rows {
                    if i.is_multiple_of(CANCEL_CHECK_INTERVAL) {
                        ctx.check_cancel()?;
                    }
                    i += 1;
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    if is_truthy(&eval(on, &joined_schema, &row, &ctx.params)?) {
                        out.push(row);
                    }
                }
            }
            Ok(out)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            let lschema = left.schema();
            let rschema = right.schema();
            let joined_schema = plan.schema();
            let right_rows = run_select(ctx, right)?;
            // Build side: right.
            let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, r) in right_rows.iter().enumerate() {
                let key: Vec<Value> = right_keys
                    .iter()
                    .map(|k| eval(k, &rschema, r, &ctx.params))
                    .collect::<Result<_>>()?;
                if key.iter().any(Value::is_null) {
                    continue; // NULL never equi-joins.
                }
                table.entry(key).or_default().push(i);
            }
            let left_rows = run_select(ctx, left)?;
            let mut out = Vec::new();
            for (i, l) in left_rows.iter().enumerate() {
                if i % CANCEL_CHECK_INTERVAL == 0 {
                    ctx.check_cancel()?;
                }
                let key: Vec<Value> = left_keys
                    .iter()
                    .map(|k| eval(k, &lschema, l, &ctx.params))
                    .collect::<Result<_>>()?;
                if key.iter().any(Value::is_null) {
                    continue;
                }
                if let Some(matches) = table.get(&key) {
                    for &ri in matches {
                        let mut row = l.clone();
                        row.extend(right_rows[ri].iter().cloned());
                        if let Some(res) = residual {
                            if !is_truthy(&eval(res, &joined_schema, &row, &ctx.params)?) {
                                continue;
                            }
                        }
                        out.push(row);
                    }
                }
            }
            Ok(out)
        }
        PhysicalPlan::HashAggregate {
            group_by,
            aggs,
            input,
        } => hash_aggregate(ctx, group_by, aggs, input),
        PhysicalPlan::Sort { keys, input } => {
            let schema = input.schema();
            let rows = run_select(ctx, input)?;
            // Precompute key vectors; DESC encoded per-key during compare.
            let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
            for row in rows {
                let kv: Vec<Value> = keys
                    .iter()
                    .map(|(e, _)| eval(e, &schema, &row, &ctx.params))
                    .collect::<Result<_>>()?;
                keyed.push((kv, row));
            }
            ctx.check_cancel()?;
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = a[i].cmp(&b[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(keyed.into_iter().map(|(_, r)| r).collect())
        }
        PhysicalPlan::Limit { n, input } => {
            let mut rows = run_select(ctx, input)?;
            rows.truncate(*n as usize);
            Ok(rows)
        }
    }
}

/// How a row access locks: for a read or for a write (module-doc lock table).
enum Access {
    Read,
    Write,
}

/// Where a row lives: its clustered key, or its heap address.
enum RowAt<K> {
    Key(K),
    Heap(RowId),
}

/// A range edge on the key column after the equality prefix: the value and
/// whether it is inclusive.
type KeyBound = Option<(Value, bool)>;

/// Evaluate a seek's bounds. They compare with the key as the predicate they
/// came from would (no cast to the key column's type). `None` when one is
/// NULL: a comparison with NULL is never true, so no row qualifies.
fn eval_bounds(
    ctx: &ExecCtx,
    bounds: &SeekBounds,
) -> Result<Option<(Vec<Value>, KeyBound, KeyBound)>> {
    let empty = Schema::default();
    let value = |e: &Expr| eval(e, &empty, &[], &ctx.params);
    let edge = |edge: &Option<(Expr, bool)>| {
        edge.as_ref()
            .map(|(e, inc)| value(e).map(|v| (v, *inc)))
            .transpose()
    };
    let prefix = bounds
        .eq_prefix
        .iter()
        .map(value)
        .collect::<Result<Vec<_>>>()?;
    let (lower, upper) = (edge(&bounds.lower)?, edge(&bounds.upper)?);
    let edges = [&lower, &upper].into_iter().flatten().map(|(v, _)| v);
    let null = prefix.iter().chain(edges).any(Value::is_null);
    Ok((!null).then_some((prefix, lower, upper)))
}

/// The one row access: hand `f` every row of a `SeqScan` or `IndexSeek` node
/// that passes the node's predicate (a seek's residual), with where it lives.
/// Locks follow the module-doc table for a read or a write: a full-key point
/// seek takes an intent lock on the table and S or X on the key; a scan or a
/// range takes S or X on the table. A walk polls cancellation every
/// [`CANCEL_CHECK_INTERVAL`] rows.
fn reach(
    ctx: &mut ExecCtx,
    node: &PhysicalPlan,
    access: Access,
    mut f: impl FnMut(RowAt<&[Value]>, Vec<Value>),
) -> Result<()> {
    let (table, bounds, predicate) = match node {
        PhysicalPlan::SeqScan {
            table, predicate, ..
        } => (table, None, predicate.as_ref()),
        PhysicalPlan::IndexSeek {
            table,
            bounds,
            residual,
            ..
        } => (table, Some(bounds), residual.as_ref()),
        _ => unreachable!("rows are reached through a scan or a seek"),
    };
    let (intent, row_lock, whole) = match access {
        Access::Read => (LockMode::IntentShared, LockMode::Shared, LockMode::Shared),
        Access::Write => (
            LockMode::IntentExclusive,
            LockMode::Exclusive,
            LockMode::Exclusive,
        ),
    };
    let schema = node.schema();
    let (prefix, lower, upper) = match bounds {
        None => (Vec::new(), None, None),
        Some(bounds) => {
            let TableLayout::Clustered { btree, key_cols } = &table.layout else {
                return Err(Error::Execution(
                    "index seek on heap table (planner bug)".into(),
                ));
            };
            let Some((prefix, lower, upper)) = eval_bounds(ctx, bounds)? else {
                return Ok(());
            };
            if bounds.is_point(key_cols.len()) {
                ctx.lock(ResourceId::Table(table.id), intent)?;
                ctx.lock(ResourceId::Row(table.id, prefix.clone()), row_lock)?;
                if let Some(bytes) = btree.get(&prefix)? {
                    if let Some(row) = filter_decode(&bytes, predicate, &schema, &ctx.params)? {
                        f(RowAt::Key(&prefix), row);
                    }
                }
                return Ok(());
            }
            (prefix, lower, upper)
        }
    };
    ctx.lock(ResourceId::Table(table.id), whole)?;
    let ctx = &*ctx;
    let mut n = 0usize;
    let mut visit = |at: RowAt<&[Value]>, bytes: &[u8]| -> Result<()> {
        n += 1;
        if n.is_multiple_of(CANCEL_CHECK_INTERVAL) {
            ctx.check_cancel()?;
        }
        if let Some(row) = filter_decode(bytes, predicate, &schema, &ctx.params)? {
            f(at, row);
        }
        Ok(())
    };
    let mut failed = None;
    match &table.layout {
        TableLayout::Clustered { btree, .. } => {
            let mut start = prefix.clone();
            start.extend(lower.iter().map(|(v, _)| v.clone()));
            let range_pos = prefix.len();
            let scan_bounds = ScanBounds {
                lower: (!start.is_empty()).then_some((start, true)),
                upper: None,
            };
            btree.scan_with(&scan_bounds, |key, bytes| {
                // Stop once we leave the equality prefix.
                if key[..range_pos] != prefix[..] {
                    return false;
                }
                if let Some((lo, inc)) = &lower {
                    let ord = key[range_pos].cmp(lo);
                    if ord.is_lt() || (!inc && ord.is_eq()) {
                        return true; // below the range start (exclusive edge)
                    }
                }
                if let Some((hi, inc)) = &upper {
                    let ord = key[range_pos].cmp(hi);
                    if ord.is_gt() || (!inc && ord.is_eq()) {
                        return false; // past the range end
                    }
                }
                failed = visit(RowAt::Key(key), bytes).err();
                failed.is_none()
            })?;
        }
        TableLayout::Heap { heap } => heap.for_each(|rowid, bytes| {
            if failed.is_none() {
                failed = visit(RowAt::Heap(rowid), bytes).err();
            }
        })?,
    }
    failed.map_or(Ok(()), Err)
}

fn filter_decode(
    bytes: &[u8],
    predicate: Option<&Expr>,
    schema: &Schema,
    params: &Params,
) -> Result<Option<Vec<Value>>> {
    let row = decode_row(bytes)?;
    if let Some(p) = predicate {
        if !is_truthy(&eval(p, schema, &row, params)?) {
            return Ok(None);
        }
    }
    Ok(Some(row))
}

// ------------------------------------------------------------- aggregation

fn hash_aggregate(
    ctx: &mut ExecCtx,
    group_by: &[Expr],
    aggs: &[AggSpec],
    input: &PhysicalPlan,
) -> Result<Vec<Vec<Value>>> {
    let schema = input.schema();
    let rows = run_select(ctx, input)?;
    // Group key → (key values, agg states). Insertion order preserved for
    // deterministic output.
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if i % CANCEL_CHECK_INTERVAL == 0 {
            ctx.check_cancel()?;
        }
        let key: Vec<Value> = group_by
            .iter()
            .map(|g| eval(g, &schema, row, &ctx.params))
            .collect::<Result<_>>()?;
        let states = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(|a| AggState::new(a.func)).collect())
            }
        };
        for (state, spec) in states.iter_mut().zip(aggs) {
            // COUNT(*) has no argument: an absent value, which COUNT counts.
            let v = spec
                .arg
                .as_ref()
                .map(|arg| eval(arg, &schema, row, &ctx.params))
                .transpose()?;
            state.update(v.as_ref())?;
        }
    }
    // Global aggregate over an empty input still yields one row.
    if group_by.is_empty() && groups.is_empty() {
        return Ok(vec![aggs
            .iter()
            .map(|a| AggState::new(a.func).finish())
            .collect()]);
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let states = groups.remove(&key).expect("group exists");
        let mut row = key;
        row.extend(states.iter().map(AggState::finish));
        out.push(row);
    }
    Ok(out)
}

// =================================================================== DML

/// One row targeted by UPDATE/DELETE.
struct Target {
    at: RowAt<Vec<Value>>,
    row: Vec<Value>,
}

/// Insert fully-evaluated rows. Returns rows inserted.
pub fn run_insert(ctx: &mut ExecCtx, table: &Arc<TableInfo>, rows: Vec<Vec<Value>>) -> Result<u64> {
    let mut n = 0u64;
    for row in rows {
        ctx.check_cancel()?;
        let row = table.check_row(row)?;
        match &table.layout {
            TableLayout::Clustered { btree, .. } => {
                let key = table.key_of(&row).expect("clustered");
                ctx.lock(ResourceId::Table(table.id), LockMode::IntentExclusive)?;
                ctx.lock(ResourceId::Row(table.id, key.clone()), LockMode::Exclusive)?;
                if btree.get(&key)?.is_some() {
                    return Err(Error::Execution(format!(
                        "duplicate primary key in {}",
                        table.name
                    )));
                }
                btree.insert(&key, &encode_row(&row))?;
                index_insert(table, &row)?;
                ctx.txn.undo.push(UndoOp::ClusteredInsert {
                    table: table.clone(),
                    key,
                    row,
                });
            }
            TableLayout::Heap { heap } => {
                ctx.lock(ResourceId::Table(table.id), LockMode::IntentExclusive)?;
                let rowid = heap.insert(&encode_row(&row))?;
                ctx.txn.undo.push(UndoOp::HeapInsert {
                    table: table.clone(),
                    rowid,
                });
            }
        }
        table.add_rows(1);
        n += 1;
    }
    Ok(n)
}

/// Find the rows a predicate targets, under write locks.
fn collect_targets(
    ctx: &mut ExecCtx,
    table: &Arc<TableInfo>,
    predicate: Option<&Expr>,
) -> Result<Vec<Target>> {
    let scan = crate::plan::LogicalPlan::Scan {
        table: table.clone(),
        binding: table.name.clone(),
        predicate: predicate.cloned(),
    };
    let (node, _, _) = crate::optimizer::lower(&scan);
    let mut targets = Vec::new();
    reach(ctx, &node, Access::Write, |at, row| {
        let at = match at {
            RowAt::Key(key) => RowAt::Key(key.to_vec()),
            RowAt::Heap(rowid) => RowAt::Heap(rowid),
        };
        targets.push(Target { at, row });
    })?;
    Ok(targets)
}

/// UPDATE. `assignments` are (column name, expression) pairs.
pub fn run_update(
    ctx: &mut ExecCtx,
    table: &Arc<TableInfo>,
    assignments: &[(String, Expr)],
    predicate: Option<&Expr>,
) -> Result<u64> {
    let resolved: Vec<(usize, &Expr)> = assignments
        .iter()
        .map(|(name, e)| {
            table
                .column_index(name)
                .map(|i| (i, e))
                .ok_or_else(|| Error::Catalog(format!("no column {name} in {}", table.name)))
        })
        .collect::<Result<_>>()?;
    let schema = Schema::for_table(&table.name, table.columns.iter().map(|c| c.name.clone()));
    let targets = collect_targets(ctx, table, predicate)?;
    let mut n = 0u64;
    for t in targets {
        ctx.check_cancel()?;
        let mut new_row = t.row.clone();
        for (idx, e) in &resolved {
            new_row[*idx] = eval(e, &schema, &t.row, &ctx.params)?;
        }
        let new_row = table.check_row(new_row)?;
        match (&table.layout, t.at) {
            (TableLayout::Clustered { btree, .. }, RowAt::Key(old_key)) => {
                let new_key = table.key_of(&new_row).expect("clustered");
                if new_key != old_key {
                    ctx.lock(
                        ResourceId::Row(table.id, new_key.clone()),
                        LockMode::Exclusive,
                    )?;
                    if btree.get(&new_key)?.is_some() {
                        return Err(Error::Execution(format!(
                            "duplicate primary key in {}",
                            table.name
                        )));
                    }
                    btree.delete(&old_key)?;
                }
                btree.insert(&new_key, &encode_row(&new_row))?;
                index_delete(table, &t.row)?;
                index_insert(table, &new_row)?;
                ctx.txn.undo.push(UndoOp::ClusteredUpdate {
                    table: table.clone(),
                    old_key,
                    old_row: t.row,
                    new_key,
                    new_row,
                });
            }
            (TableLayout::Heap { heap }, RowAt::Heap(rowid)) => {
                let new_rowid = heap
                    .update(rowid, &encode_row(&new_row))?
                    .ok_or_else(|| Error::Storage("heap row vanished during update".into()))?;
                ctx.txn.undo.push(UndoOp::HeapUpdate {
                    table: table.clone(),
                    new_rowid,
                    old_row: t.row,
                });
            }
            _ => unreachable!("a row lives where its table keeps rows"),
        }
        n += 1;
    }
    Ok(n)
}

/// DELETE.
pub fn run_delete(
    ctx: &mut ExecCtx,
    table: &Arc<TableInfo>,
    predicate: Option<&Expr>,
) -> Result<u64> {
    let targets = collect_targets(ctx, table, predicate)?;
    let mut n = 0u64;
    for t in targets {
        ctx.check_cancel()?;
        match (&table.layout, t.at) {
            (TableLayout::Clustered { btree, .. }, RowAt::Key(key)) => {
                btree.delete(&key)?;
                index_delete(table, &t.row)?;
                ctx.txn.undo.push(UndoOp::ClusteredDelete {
                    table: table.clone(),
                    key,
                    row: t.row,
                });
            }
            (TableLayout::Heap { heap }, RowAt::Heap(rowid)) => {
                heap.delete(rowid)?;
                ctx.txn.undo.push(UndoOp::HeapDelete {
                    table: table.clone(),
                    row: t.row,
                });
            }
            _ => unreachable!("a row lives where its table keeps rows"),
        }
        table.add_rows(-1);
        n += 1;
    }
    Ok(n)
}

// ------------------------------------------------------------- index upkeep

fn secondary_key(
    table: &TableInfo,
    idx: &crate::catalog::SecondaryIndex,
    row: &[Value],
) -> Vec<Value> {
    let mut key: Vec<Value> = idx.key_cols.iter().map(|&i| row[i].clone()).collect();
    if let Some(pk) = table.clustered_key() {
        key.extend(pk.iter().map(|&i| row[i].clone()));
    }
    key
}

fn index_insert(table: &TableInfo, row: &[Value]) -> Result<()> {
    for idx in table.indexes.read().iter() {
        idx.btree.insert(&secondary_key(table, idx, row), &[])?;
    }
    Ok(())
}

fn index_delete(table: &TableInfo, row: &[Value]) -> Result<()> {
    for idx in table.indexes.read().iter() {
        idx.btree.delete(&secondary_key(table, idx, row))?;
    }
    Ok(())
}

// ------------------------------------------------------------- undo

/// Apply the undo log (in reverse) for a rolling-back transaction.
pub fn apply_undo(undo: Vec<UndoOp>) -> Result<()> {
    for op in undo.into_iter().rev() {
        match op {
            UndoOp::ClusteredInsert { table, key, row } => {
                if let TableLayout::Clustered { btree, .. } = &table.layout {
                    btree.delete(&key)?;
                    index_delete(&table, &row)?;
                }
                table.add_rows(-1);
            }
            UndoOp::ClusteredDelete { table, key, row } => {
                if let TableLayout::Clustered { btree, .. } = &table.layout {
                    btree.insert(&key, &encode_row(&row))?;
                    index_insert(&table, &row)?;
                }
                table.add_rows(1);
            }
            UndoOp::ClusteredUpdate {
                table,
                old_key,
                old_row,
                new_key,
                new_row,
            } => {
                if let TableLayout::Clustered { btree, .. } = &table.layout {
                    if new_key != old_key {
                        btree.delete(&new_key)?;
                    }
                    btree.insert(&old_key, &encode_row(&old_row))?;
                    index_delete(&table, &new_row)?;
                    index_insert(&table, &old_row)?;
                }
            }
            UndoOp::HeapInsert { table, rowid } => {
                if let TableLayout::Heap { heap } = &table.layout {
                    heap.delete(rowid)?;
                }
                table.add_rows(-1);
            }
            UndoOp::HeapDelete { table, row } => {
                if let TableLayout::Heap { heap } = &table.layout {
                    heap.insert(&encode_row(&row))?;
                }
                table.add_rows(1);
            }
            UndoOp::HeapUpdate {
                table,
                new_rowid,
                old_row,
            } => {
                if let TableLayout::Heap { heap } = &table.layout {
                    heap.delete(new_rowid)?;
                    heap.insert(&encode_row(&old_row))?;
                }
            }
        }
    }
    Ok(())
}
