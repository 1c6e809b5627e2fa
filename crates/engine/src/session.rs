//! Sessions: the statement execution pipeline with all probe points.
//!
//! Event order for one successful statement (paper Appendix A / §5.1):
//!
//! ```text
//! Query.Start → Query.Compile (signatures + cost now available) → … execution,
//! possibly Query.Blocked / Query.Block_Released … → Query.Commit
//! ```
//!
//! Failures emit `Query.Rollback`; cancellations emit `Query.Cancel`. A user
//! `BEGIN` adds `Transaction.Begin` and exactly one `Transaction.Commit` or
//! `Transaction.Rollback`, carrying the accumulated statement-signature
//! sequences (the transaction signatures of §4.2). `EXEC proc` wraps its
//! statements in such a transaction unless one is open, and additionally emits
//! a synthetic `Query` for the invocation itself, whose logical/physical
//! signature is the transaction signature of the taken code path — this is what
//! Example 1 (stored-procedure outlier detection) groups on. Statements and
//! `EXEC` share one query lifecycle (`start_query` → `compiled` →
//! `finish_query`), and every transaction ends in `end_txn`.

use std::sync::Arc;

use sqlcm_common::{
    EngineEvent, Error, ProbeKind, QueryInfo, QueryType, Result, Timestamp, TxnInfo, Value,
};
use sqlcm_sql::{parse_statement, Expr, Statement};

use crate::active::ActiveQueryState;
use crate::engine::EngineInner;
use crate::exec::{self, ExecCtx};
use crate::expr::{eval, Params, Schema};
use crate::plancache::{CachedPlan, CachedSelect};
use crate::signature;
use crate::txn::TxnState;

/// The result of one statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub rows_affected: u64,
}

/// A client connection.
pub struct Session {
    engine: Arc<EngineInner>,
    pub id: u64,
    pub user: Arc<str>,
    pub application: Arc<str>,
    txn: Option<TxnState>,
}

impl Session {
    pub(crate) fn new(engine: Arc<EngineInner>, id: u64, user: &str, application: &str) -> Session {
        Session {
            engine,
            id,
            user: user.into(),
            application: application.into(),
            txn: None,
        }
    }

    /// True while an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Execute one statement of SQL text.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.execute_params(sql, &[])
    }

    /// Execute with positional (`?`) parameters.
    pub fn execute_params(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        if let Some(cached) = self.engine.plan_cache.get(sql) {
            return self.run_statement(sql, &cached, Params::positional(params), None);
        }
        let stmt = parse_statement(sql)?;
        self.execute_statement_with_text(sql, stmt, params)
    }

    /// Execute a pre-parsed statement.
    pub fn execute_statement(&mut self, stmt: Statement, params: &[Value]) -> Result<QueryResult> {
        let text = stmt.to_string();
        self.execute_statement_with_text(&text, stmt, params)
    }

    fn execute_statement_with_text(
        &mut self,
        text: &str,
        stmt: Statement,
        params: &[Value],
    ) -> Result<QueryResult> {
        match stmt {
            Statement::Begin => self.begin(),
            Statement::Commit => self.commit(),
            Statement::Rollback => self.rollback(),
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                let cols = columns
                    .into_iter()
                    .map(|c| crate::catalog::ColumnInfo {
                        name: c.name,
                        data_type: c.data_type,
                        not_null: c.not_null,
                    })
                    .collect();
                self.engine
                    .catalog
                    .create_table(&name, cols, &primary_key)?;
                self.engine.plan_cache.clear();
                Ok(QueryResult::default())
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => {
                self.engine.catalog.create_index(&name, &table, &columns)?;
                self.engine.plan_cache.clear();
                Ok(QueryResult::default())
            }
            Statement::DropTable { name } => {
                self.engine.catalog.drop_table(&name)?;
                self.engine.plan_cache.clear();
                Ok(QueryResult::default())
            }
            Statement::Exec { procedure, args } => {
                self.run_procedure(&procedure, &args, Params::positional(params))
            }
            Statement::Explain(inner) => self.explain(*inner),
            cacheable => {
                let cached = self.plan_cached(text, cacheable)?;
                self.run_statement(text, &cached, Params::positional(params), None)
            }
        }
    }

    /// Plan (or fetch from cache) one cacheable statement. Signature computation
    /// happens here, once per template — cache hits reuse plan *and* signature.
    fn plan_cached(&self, text: &str, stmt: Statement) -> Result<Arc<CachedPlan>> {
        if let Some(c) = self.engine.plan_cache.get(text) {
            return Ok(c);
        }
        let param_count = stmt.param_count();
        let (select, signatures) = match &stmt {
            Statement::Select(s) => {
                let planned = crate::optimizer::plan_select(&self.engine.catalog, s)?;
                let sigs = signature::compute(&planned.logical, &planned.physical);
                let select = CachedSelect {
                    physical: planned.physical,
                    estimated_cost: planned.estimated_cost,
                    output_names: planned.output_names,
                };
                (Some(select), sigs)
            }
            dml => (None, signature::compute_for_statement(dml, None)),
        };
        let plan = Arc::new(CachedPlan {
            statement: stmt,
            select,
            signatures,
            param_count,
        });
        self.engine
            .plan_cache
            .insert(text.to_string(), plan.clone());
        Ok(plan)
    }

    // ------------------------------------------------------------ lifecycle

    fn query_type(stmt: &Statement) -> QueryType {
        match stmt {
            Statement::Select(_) => QueryType::Select,
            Statement::Insert { .. } => QueryType::Insert,
            Statement::Update { .. } => QueryType::Update,
            Statement::Delete { .. } => QueryType::Delete,
            _ => QueryType::Other,
        }
    }

    /// The full probe-instrumented execution of one cached statement.
    fn run_statement(
        &mut self,
        text: &str,
        cached: &CachedPlan,
        params: Params,
        procedure: Option<Arc<str>>,
    ) -> Result<QueryResult> {
        let now = self.engine.clock.now_micros();
        let autocommit = self.txn.is_none();
        if autocommit {
            self.begin_txn(false, now);
        }
        let qtype = Self::query_type(&cached.statement);
        let query = self.start_query(text, qtype, procedure, now);
        // "Compile": plan + signatures are available (instantly on cache hits).
        let sigs = &cached.signatures;
        let cost = cached.select.as_ref().map(|s| s.estimated_cost);
        self.compiled(&query, sigs.logical, sigs.physical, cost);

        let result = self.execute_body(cached, &params, &query);
        if result.is_ok() && !autocommit {
            let txn = self.txn.as_mut().expect("txn open");
            txn.push_signatures(sigs.logical, sigs.physical);
        } else {
            // Autocommit ends here; a failed statement aborts the whole
            // transaction (no statement-level savepoints in this engine).
            let txn = self.txn.take().expect("txn open");
            let _ = self.end_txn(txn, result.is_ok());
        }
        self.finish_query(&query, &result);
        result
    }

    /// Register a query with the active registry and emit `Query.Start`.
    fn start_query(
        &self,
        text: &str,
        qtype: QueryType,
        procedure: Option<Arc<str>>,
        now: Timestamp,
    ) -> Arc<ActiveQueryState> {
        let query = ActiveQueryState::new(
            self.engine.next_query_id(),
            text.into(),
            qtype,
            self.id,
            self.txn.as_ref().expect("txn open").id,
            self.user.clone(),
            self.application.clone(),
            procedure,
            now,
        );
        self.engine.active.register(query.clone());
        self.engine
            .monitors
            .emit_with_kind(ProbeKind::QueryStart, || {
                EngineEvent::QueryStart(query.snapshot(now))
            });
        query
    }

    /// Record the query's signatures (and cost) and emit `Query.Compile`.
    fn compiled(&self, query: &ActiveQueryState, logical: u64, physical: u64, cost: Option<f64>) {
        query.set_signatures(logical, physical);
        if let Some(cost) = cost {
            query.set_estimated_cost(cost);
        }
        let clock = &self.engine.clock;
        self.engine
            .monitors
            .emit_with_kind(ProbeKind::QueryCompile, || {
                EngineEvent::QueryCompile(query.snapshot(clock.now_micros()))
            });
    }

    /// Finish a query: emit `Query.Commit`, `Query.Cancel` or `Query.Rollback`
    /// for its outcome and unregister it.
    fn finish_query(&self, query: &ActiveQueryState, result: &Result<QueryResult>) {
        let end = self.engine.clock.now_micros();
        query.finish(end);
        let (kind, event): (_, fn(QueryInfo) -> EngineEvent) = match result {
            Ok(_) => (ProbeKind::QueryCommit, EngineEvent::QueryCommit),
            Err(Error::Cancelled) => (ProbeKind::QueryCancel, EngineEvent::QueryCancel),
            Err(_) => (ProbeKind::QueryRollback, EngineEvent::QueryRollback),
        };
        self.engine
            .monitors
            .emit_with_kind(kind, || event(query.snapshot(end)));
        self.engine.active.unregister(query.id);
    }

    fn execute_body(
        &mut self,
        cached: &CachedPlan,
        params: &Params,
        query: &Arc<ActiveQueryState>,
    ) -> Result<QueryResult> {
        let engine = &self.engine;
        let mut ctx = ExecCtx {
            locks: &engine.locks,
            txn: self.txn.as_mut().expect("txn open"),
            query,
            params: *params,
        };
        match &cached.statement {
            Statement::Select(_) => {
                let sel = cached
                    .select
                    .as_ref()
                    .ok_or_else(|| Error::Execution("missing cached plan".into()))?;
                let rows = exec::run_select(&mut ctx, &sel.physical)?;
                Ok(QueryResult {
                    columns: sel.output_names.clone(),
                    rows,
                    rows_affected: 0,
                })
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let t = engine.catalog.table(table)?;
                let empty = Schema::default();
                let mut value_rows = Vec::with_capacity(rows.len());
                for row_exprs in rows {
                    let vals: Vec<Value> = row_exprs
                        .iter()
                        .map(|e| eval(e, &empty, &[], params))
                        .collect::<Result<_>>()?;
                    let full = match columns {
                        None => vals,
                        Some(cols) => {
                            if cols.len() != vals.len() {
                                return Err(Error::Execution(format!(
                                    "INSERT lists {} columns but {} values",
                                    cols.len(),
                                    vals.len()
                                )));
                            }
                            let mut full = vec![Value::Null; t.columns.len()];
                            for (c, v) in cols.iter().zip(vals) {
                                let idx = t.column_index(c).ok_or_else(|| {
                                    Error::Catalog(format!("no column {c} in {table}"))
                                })?;
                                full[idx] = v;
                            }
                            full
                        }
                    };
                    value_rows.push(full);
                }
                let n = exec::run_insert(&mut ctx, &t, value_rows)?;
                Ok(QueryResult {
                    rows_affected: n,
                    ..Default::default()
                })
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                let t = engine.catalog.table(table)?;
                let n = exec::run_update(&mut ctx, &t, assignments, predicate.as_ref())?;
                Ok(QueryResult {
                    rows_affected: n,
                    ..Default::default()
                })
            }
            Statement::Delete { table, predicate } => {
                let t = engine.catalog.table(table)?;
                let n = exec::run_delete(&mut ctx, &t, predicate.as_ref())?;
                Ok(QueryResult {
                    rows_affected: n,
                    ..Default::default()
                })
            }
            other => Err(Error::Execution(format!(
                "statement {other} cannot be executed through the cached path"
            ))),
        }
    }

    /// `EXPLAIN <stmt>`: return the chosen plan as text rows without executing.
    fn explain(&mut self, stmt: Statement) -> Result<QueryResult> {
        let lines: Vec<String> = match &stmt {
            Statement::Select(sel) => {
                let planned = crate::optimizer::plan_select(&self.engine.catalog, sel)?;
                let sigs = signature::compute(&planned.logical, &planned.physical);
                let mut lines = planned.physical.explain_lines();
                lines.push(format!("estimated cost: {:.2}", planned.estimated_cost));
                lines.push(format!("logical signature:  {:016x}", sigs.logical));
                lines.push(format!("physical signature: {:016x}", sigs.physical));
                lines
            }
            other => {
                let sigs = signature::compute_for_statement(other, None);
                vec![
                    format!("{other}"),
                    format!("template: {}", sigs.logical_text),
                    format!("logical signature:  {:016x}", sigs.logical),
                ]
            }
        };
        Ok(QueryResult {
            columns: vec!["plan".to_string()],
            rows: lines.into_iter().map(|l| vec![Value::text(l)]).collect(),
            rows_affected: 0,
        })
    }

    // ------------------------------------------------------------ transactions

    fn txn_info(&self, txn: &TxnState) -> TxnInfo {
        let now = self.engine.clock.now_micros();
        TxnInfo {
            id: txn.id,
            start_time: txn.start_time,
            duration_micros: now.saturating_sub(txn.start_time),
            logical_signature: txn.logical_sigs.clone(),
            physical_signature: txn.physical_sigs.clone(),
            statements: txn.statements,
            session_id: self.id,
            user: self.user.clone(),
            application: self.application.clone(),
        }
    }

    /// Open a transaction. An announced one (a user `BEGIN`, or an `EXEC`
    /// that wraps its own statements) emits `Transaction.Begin` here and one
    /// end event in [`Session::end_txn`]; an autocommit wrapper emits neither.
    fn begin_txn(&mut self, announced: bool, now: Timestamp) {
        let txn = TxnState::new(self.engine.next_txn_id(), announced, now);
        if announced {
            self.engine
                .monitors
                .emit_with_kind(ProbeKind::TxnBegin, || {
                    EngineEvent::TxnBegin(self.txn_info(&txn))
                });
        }
        self.txn = Some(txn);
    }

    /// End a transaction: undo it unless it commits, release its locks, and
    /// emit `Transaction.Commit` or `Transaction.Rollback` if it was
    /// announced. Returns the undo's outcome.
    fn end_txn(&self, txn: TxnState, commit: bool) -> Result<()> {
        let info = txn.announced.then(|| self.txn_info(&txn));
        let undone = txn.end(&self.engine.locks, commit);
        if let Some(info) = info {
            let (kind, event): (_, fn(TxnInfo) -> EngineEvent) = if commit {
                (ProbeKind::TxnCommit, EngineEvent::TxnCommit)
            } else {
                (ProbeKind::TxnRollback, EngineEvent::TxnRollback)
            };
            self.engine.monitors.emit_with_kind(kind, || event(info));
        }
        undone
    }

    fn begin(&mut self) -> Result<QueryResult> {
        if self.txn.is_some() {
            return Err(Error::Execution(
                "nested transactions are not supported".into(),
            ));
        }
        self.begin_txn(true, self.engine.clock.now_micros());
        Ok(QueryResult::default())
    }

    fn commit(&mut self) -> Result<QueryResult> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| Error::Execution("COMMIT without BEGIN".into()))?;
        self.end_txn(txn, true)?;
        Ok(QueryResult::default())
    }

    fn rollback(&mut self) -> Result<QueryResult> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| Error::Execution("ROLLBACK without BEGIN".into()))?;
        self.end_txn(txn, false)?;
        Ok(QueryResult::default())
    }

    // ------------------------------------------------------------ procedures

    fn run_procedure(
        &mut self,
        name: &str,
        arg_exprs: &[Expr],
        params: Params,
    ) -> Result<QueryResult> {
        let proc = self.engine.catalog.procedure(name)?;
        let empty = Schema::default();
        let args: Vec<Value> = arg_exprs
            .iter()
            .map(|e| eval(e, &empty, &[], &params))
            .collect::<Result<_>>()?;
        let (path, named) = proc.resolve_path(&args)?;
        let args: Vec<String> = args.iter().map(Value::to_string).collect();
        let exec_text = format!("EXEC {}({})", proc.name, args.join(", "));
        let proc_name: Arc<str> = proc.name.as_str().into();

        // Wrap the whole invocation in one transaction unless already in one —
        // this makes the statement sequence a *transaction* whose signature is
        // the code-path signature (§4.2 (3)).
        let now = self.engine.clock.now_micros();
        let wrapped = self.txn.is_none();
        if wrapped {
            self.begin_txn(true, now);
        }
        let sig_start = self.txn.as_ref().expect("txn open").logical_sigs.len();
        // Synthetic Query object for the invocation itself (Example 1 groups
        // stored-procedure instances by Query.Logical_Signature).
        let query = self.start_query(&exec_text, QueryType::Other, Some(proc_name.clone()), now);

        let params = Params {
            positional: &[],
            named: Some(&named),
        };
        let result = self.run_path(path, params, &proc_name);
        if result.is_ok() {
            // Code-path signature = transaction signature over this proc's
            // statement signatures.
            let txn = self.txn.as_ref().expect("txn open");
            let logical = signature::transaction_signature(&txn.logical_sigs[sig_start..]);
            let physical = signature::transaction_signature(&txn.physical_sigs[sig_start..]);
            self.compiled(&query, logical, physical, None);
        }
        // A failed statement has already aborted the transaction; a statement
        // that failed to plan left it open.
        if let Some(txn) = self.txn.take_if(|_| wrapped) {
            let _ = self.end_txn(txn, result.is_ok());
        }
        self.finish_query(&query, &result);
        result
    }

    /// Run a procedure's resolved statements; the result is the last one that
    /// returned columns or touched rows.
    fn run_path(
        &mut self,
        path: Vec<Statement>,
        params: Params,
        procedure: &Arc<str>,
    ) -> Result<QueryResult> {
        let mut last = QueryResult::default();
        for stmt in path {
            let text = stmt.to_string();
            let cached = self.plan_cached(&text, stmt)?;
            let res = self.run_statement(&text, &cached, params, Some(procedure.clone()))?;
            if !res.columns.is_empty() || res.rows_affected > 0 {
                last = res;
            }
        }
        Ok(last)
    }

    /// Explicit logout: roll back an open transaction, then emit the `Logout`
    /// probe event.
    pub fn close(mut self) {
        self.roll_back_open_txn();
        self.engine.monitors.emit_with_kind(ProbeKind::Logout, || {
            EngineEvent::Logout(sqlcm_common::SessionInfo {
                session_id: self.id,
                user: self.user.clone(),
                application: self.application.clone(),
                success: true,
            })
        });
    }

    fn roll_back_open_txn(&mut self) {
        if let Some(txn) = self.txn.take() {
            let _ = self.end_txn(txn, false);
        }
    }
}

impl Drop for Session {
    /// A session dropped without [`Session::close`] still ends its open
    /// transaction: undone, locks released, `Transaction.Rollback` emitted.
    fn drop(&mut self) {
        self.roll_back_open_txn();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::instrument::test_support::Spy;
    use crate::procedure::StoredProcedure;

    fn engine() -> Engine {
        let e = Engine::in_memory();
        e.execute_batch(
            "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT, price FLOAT);",
        )
        .unwrap();
        e
    }

    #[test]
    fn insert_select_roundtrip() {
        let e = engine();
        let mut s = e.connect("alice", "app");
        let r = s
            .execute("INSERT INTO items VALUES (1, 'bolt', 10, 0.5), (2, 'nut', 20, 0.25)")
            .unwrap();
        assert_eq!(r.rows_affected, 2);
        let r = s
            .execute("SELECT name, qty FROM items WHERE id = 2")
            .unwrap();
        assert_eq!(r.columns, vec!["name", "qty"]);
        assert_eq!(r.rows, vec![vec![Value::text("nut"), Value::Int(20)]]);
        // Scan path.
        let r = s
            .execute("SELECT id FROM items WHERE qty > 5 ORDER BY id DESC")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
    }

    #[test]
    fn update_delete_and_counts() {
        let e = engine();
        let mut s = e.connect("a", "b");
        s.execute("INSERT INTO items VALUES (1, 'x', 1, 1.0)")
            .unwrap();
        s.execute("INSERT INTO items VALUES (2, 'y', 2, 2.0)")
            .unwrap();
        assert_eq!(e.catalog().table("items").unwrap().row_count(), 2);
        let r = s
            .execute("UPDATE items SET qty = qty + 10 WHERE id = 1")
            .unwrap();
        assert_eq!(r.rows_affected, 1);
        let r = s.execute("SELECT qty FROM items WHERE id = 1").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(11));
        let r = s.execute("DELETE FROM items WHERE qty > 5").unwrap();
        assert_eq!(r.rows_affected, 1);
        assert_eq!(e.catalog().table("items").unwrap().row_count(), 1);
    }

    #[test]
    fn parameterized_execution_and_plan_cache() {
        let e = engine();
        let mut s = e.connect("a", "b");
        for i in 0..20i64 {
            s.execute_params(
                "INSERT INTO items VALUES (?, 'p', ?, 1.0)",
                &[Value::Int(i), Value::Int(i * 2)],
            )
            .unwrap();
        }
        let r = s
            .execute_params("SELECT qty FROM items WHERE id = ?", &[Value::Int(7)])
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(14)]]);
        let stats = e.plan_cache_stats();
        assert!(
            stats.hits >= 19,
            "repeated template hits the cache: {stats:?}"
        );
    }

    #[test]
    fn explicit_txn_commit_and_rollback() {
        let e = engine();
        let mut s = e.connect("a", "b");
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO items VALUES (1, 'x', 1, 1.0)")
            .unwrap();
        assert!(s.in_transaction());
        s.execute("COMMIT").unwrap();
        assert!(!s.in_transaction());
        assert_eq!(
            e.query("SELECT COUNT(*) FROM items").unwrap()[0][0],
            Value::Int(1)
        );

        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO items VALUES (2, 'y', 2, 2.0)")
            .unwrap();
        s.execute("UPDATE items SET qty = 99 WHERE id = 1").unwrap();
        s.execute("ROLLBACK").unwrap();
        assert_eq!(
            e.query("SELECT COUNT(*) FROM items").unwrap()[0][0],
            Value::Int(1)
        );
        assert_eq!(
            e.query("SELECT qty FROM items WHERE id = 1").unwrap()[0][0],
            Value::Int(1),
            "update undone"
        );
    }

    #[test]
    fn failed_statement_rolls_back_txn() {
        let e = engine();
        let mut s = e.connect("a", "b");
        s.execute("INSERT INTO items VALUES (1, 'x', 1, 1.0)")
            .unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO items VALUES (2, 'y', 2, 2.0)")
            .unwrap();
        // Duplicate key fails and aborts the transaction.
        assert!(s
            .execute("INSERT INTO items VALUES (1, 'dup', 0, 0.0)")
            .is_err());
        assert!(!s.in_transaction());
        assert_eq!(
            e.query("SELECT COUNT(*) FROM items").unwrap()[0][0],
            Value::Int(1)
        );
    }

    #[test]
    fn event_sequence_for_one_statement() {
        let e = engine();
        let mut s = e.connect("a", "b");
        let spy = Arc::new(Spy::default());
        e.attach_monitor(spy.clone());
        s.execute("INSERT INTO items VALUES (1, 'x', 1, 1.0)")
            .unwrap();
        let names = spy.names();
        assert_eq!(names, vec!["Query.Start", "Query.Compile", "Query.Commit"]);
        let last = spy.events.lock().last().cloned().unwrap();
        let q = last.query().unwrap();
        assert!(q.logical_signature.is_some(), "signatures on by default");
        assert_eq!(q.query_type, QueryType::Insert);
        assert_eq!(&*q.user, "a");
    }

    #[test]
    fn completion_probes_carry_every_finished_query() {
        let e = engine();
        let spy = Arc::new(Spy::default());
        e.attach_monitor(spy.clone());
        let mut s = e.connect("a", "b");
        s.execute("INSERT INTO items VALUES (1, 'x', 1, 1.0)")
            .unwrap();
        s.execute("SELECT * FROM items").unwrap();
        let h = spy.completed();
        assert_eq!(h.len(), 2);
        assert!(h.iter().all(|q| q.duration_micros < u64::MAX));
    }

    #[test]
    fn procedure_execution_with_code_paths() {
        let e = engine();
        e.catalog()
            .create_procedure(
                StoredProcedure::parse(
                    "stock",
                    &["mode", "id"],
                    "IF @mode > 0 THEN SELECT qty FROM items WHERE id = @id; \
                     ELSE UPDATE items SET qty = 0 WHERE id = @id; END;",
                )
                .unwrap(),
            )
            .unwrap();
        let mut s = e.connect("a", "b");
        s.execute("INSERT INTO items VALUES (5, 'x', 42, 1.0)")
            .unwrap();

        let spy = Arc::new(Spy::default());
        e.attach_monitor(spy.clone());
        let r = s.execute("EXEC stock(1, 5)").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(42)]]);
        let sig_read = {
            let evs = spy.events.lock();
            evs.iter()
                .filter_map(|ev| ev.query())
                .filter(|q| q.procedure.as_deref() == Some("stock") && q.text.starts_with("EXEC"))
                .filter_map(|q| q.logical_signature)
                .next_back()
                .unwrap()
        };
        spy.events.lock().clear();
        let _ = s.execute("EXEC stock(0, 5)").unwrap();
        let sig_write = {
            let evs = spy.events.lock();
            evs.iter()
                .filter_map(|ev| ev.query())
                .filter(|q| q.procedure.as_deref() == Some("stock") && q.text.starts_with("EXEC"))
                .filter_map(|q| q.logical_signature)
                .next_back()
                .unwrap()
        };
        assert_ne!(
            sig_read, sig_write,
            "different code paths → different signatures"
        );
        assert_eq!(
            e.query("SELECT qty FROM items WHERE id = 5").unwrap()[0][0],
            Value::Int(0)
        );
        // Same path, different constants → same signature.
        spy.events.lock().clear();
        let _ = s.execute("EXEC stock(1, 5)").unwrap();
        let sig_read2 = {
            let evs = spy.events.lock();
            evs.iter()
                .filter_map(|ev| ev.query())
                .filter(|q| q.procedure.as_deref() == Some("stock") && q.text.starts_with("EXEC"))
                .filter_map(|q| q.logical_signature)
                .next_back()
                .unwrap()
        };
        assert_eq!(sig_read, sig_read2);
    }

    #[test]
    fn txn_events_carry_signature_sequences() {
        let e = engine();
        let spy = Arc::new(Spy::default());
        e.attach_monitor(spy.clone());
        let mut s = e.connect("a", "b");
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO items VALUES (1, 'x', 1, 1.0)")
            .unwrap();
        s.execute("SELECT * FROM items WHERE id = 1").unwrap();
        s.execute("COMMIT").unwrap();
        let evs = spy.events.lock();
        let commit = evs
            .iter()
            .find_map(|ev| match ev {
                EngineEvent::TxnCommit(t) => Some(t.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(commit.statements, 2);
        assert_eq!(commit.logical_signature.len(), 2);
        assert_eq!(commit.physical_signature.len(), 2);
    }

    #[test]
    fn aggregates_end_to_end() {
        let e = engine();
        let mut s = e.connect("a", "b");
        for (id, name, qty) in [(1, "a", 10), (2, "a", 20), (3, "b", 5)] {
            s.execute_params(
                "INSERT INTO items VALUES (?, ?, ?, 1.0)",
                &[Value::Int(id), Value::text(name), Value::Int(qty)],
            )
            .unwrap();
        }
        let r = s
            .execute("SELECT name, COUNT(*) AS n, SUM(qty) FROM items GROUP BY name ORDER BY name")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::text("a"), Value::Int(2), Value::Float(30.0)],
                vec![Value::text("b"), Value::Int(1), Value::Float(5.0)],
            ]
        );
        // Top-k pattern used by the Query_logging baseline post-processing.
        let r = s
            .execute("SELECT id FROM items ORDER BY qty DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
        // NULLs: COUNT(*) counts rows, every other aggregate skips them, and
        // a group of NULLs only yields NULL (COUNT: 0). STDEV is the
        // population deviation, 0.0 over one row.
        s.execute("INSERT INTO items VALUES (4, 'a', NULL, 1.0), (5, 'c', NULL, 1.0)")
            .unwrap();
        let r = s
            .execute(
                "SELECT name, COUNT(*), COUNT(qty), SUM(qty), AVG(qty), MIN(qty), MAX(qty), \
                 STDEV(qty) FROM items GROUP BY name ORDER BY name",
            )
            .unwrap();
        let (int, float) = (Value::Int, Value::Float);
        let mut only_nulls = vec![Value::text("c"), int(1), int(0)];
        only_nulls.resize(8, Value::Null);
        assert_eq!(
            r.rows,
            vec![
                vec![
                    Value::text("a"),
                    int(3),
                    int(2),
                    float(30.0),
                    float(15.0),
                    int(10),
                    int(20),
                    float(5.0)
                ],
                vec![
                    Value::text("b"),
                    int(1),
                    int(1),
                    float(5.0),
                    float(5.0),
                    int(5),
                    int(5),
                    float(0.0)
                ],
                only_nulls,
            ]
        );
        // A global aggregate over no rows still yields one row.
        e.execute_batch("CREATE TABLE nothing (id INT PRIMARY KEY, v INT);")
            .unwrap();
        let r = s
            .execute(
                "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), STDEV(v) FROM nothing",
            )
            .unwrap();
        let mut zero_then_nulls = vec![int(0), int(0)];
        zero_then_nulls.resize(7, Value::Null);
        assert_eq!(r.rows, vec![zero_then_nulls]);
        assert!(matches!(
            s.execute("SELECT SUM(name) FROM items"),
            Err(Error::TypeError(_))
        ));
    }

    #[test]
    fn joins_end_to_end() {
        let e = engine();
        e.execute_batch("CREATE TABLE tags (item_id INT PRIMARY KEY, tag TEXT);")
            .unwrap();
        let mut s = e.connect("a", "b");
        s.execute("INSERT INTO items VALUES (1, 'x', 1, 1.0), (2, 'y', 2, 2.0)")
            .unwrap();
        s.execute("INSERT INTO tags VALUES (2, 'heavy')").unwrap();
        let r = s
            .execute("SELECT i.name, t.tag FROM items i JOIN tags t ON i.id = t.item_id")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("y"), Value::text("heavy")]]);
    }

    #[test]
    fn cancellation_mid_query() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let e = engine();
        let mut s = e.connect("a", "b");
        // A big-ish table so the scan takes a while.
        s.execute("BEGIN").unwrap();
        for i in 0..5000i64 {
            s.execute_params(
                "INSERT INTO items VALUES (?, 'x', 1, 1.0)",
                &[Value::Int(i)],
            )
            .unwrap();
        }
        s.execute("COMMIT").unwrap();

        // Cancel from a monitor as soon as the query starts.
        struct Canceller {
            engine: Arc<EngineInner>,
            fired: AtomicBool,
        }
        impl crate::instrument::Instrumentation for Canceller {
            fn on_event(&self, ev: &EngineEvent) {
                if let EngineEvent::QueryStart(q) = ev {
                    if q.query_type == QueryType::Select && !self.fired.swap(true, Ordering::SeqCst)
                    {
                        self.engine.cancel_query(q.id);
                    }
                }
            }
            fn name(&self) -> &str {
                "canceller"
            }
        }
        let engine_inner = {
            // Session only exposes engine via connect; grab via a fresh Engine API.
            e.handle()
        };
        e.attach_monitor(Arc::new(Canceller {
            engine: engine_inner,
            fired: AtomicBool::new(false),
        }));
        let spy = Arc::new(Spy::default());
        e.attach_monitor(spy.clone());
        let err = s
            .execute("SELECT COUNT(*) FROM items WHERE qty >= 0")
            .unwrap_err();
        assert_eq!(err, Error::Cancelled);
        assert!(spy.names().contains(&"Query.Cancel"));
    }

    #[test]
    fn a_cancelled_delete_stops_its_target_scan() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let e = engine();
        let mut s = e.connect("a", "b");
        s.execute("BEGIN").unwrap();
        for i in 0..5000i64 {
            s.execute_params(
                "INSERT INTO items VALUES (?, 'x', 1, 1.0)",
                &[Value::Int(i)],
            )
            .unwrap();
        }
        s.execute("COMMIT").unwrap();

        struct CancelFirstDelete {
            engine: Arc<EngineInner>,
            fired: AtomicBool,
        }
        impl crate::instrument::Instrumentation for CancelFirstDelete {
            fn on_event(&self, ev: &EngineEvent) {
                if let EngineEvent::QueryStart(q) = ev {
                    if q.query_type == QueryType::Delete && !self.fired.swap(true, Ordering::SeqCst)
                    {
                        self.engine.cancel_query(q.id);
                    }
                }
            }
            fn name(&self) -> &str {
                "cancel-first-delete"
            }
        }
        e.attach_monitor(Arc::new(CancelFirstDelete {
            engine: e.handle(),
            fired: AtomicBool::new(false),
        }));
        // The predicate fails at id 4000: a target scan that polls
        // cancellation stops long before it gets there.
        let err = s
            .execute("DELETE FROM items WHERE 10 / (id - 4000) >= 0")
            .unwrap_err();
        assert_eq!(err, Error::Cancelled);
        let n = s.execute("SELECT COUNT(*) FROM items").unwrap().rows;
        assert_eq!(n, vec![vec![Value::Int(5000)]]);
    }

    #[test]
    fn commit_without_begin_errors() {
        let e = engine();
        let mut s = e.connect("a", "b");
        assert!(s.execute("COMMIT").is_err());
        assert!(s.execute("ROLLBACK").is_err());
        s.execute("BEGIN").unwrap();
        assert!(s.execute("BEGIN").is_err(), "no nesting");
    }

    #[test]
    fn close_emits_logout_and_releases() {
        let e = engine();
        let spy = Arc::new(Spy::default());
        e.attach_monitor(spy.clone());
        let mut s = e.connect("a", "b");
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO items VALUES (1, 'x', 1, 1.0)")
            .unwrap();
        s.close();
        // The open transaction ends with one Rollback, before the Logout.
        let names = spy.names();
        let ends: Vec<_> = names
            .iter()
            .filter(|n| n.starts_with("Transaction.") && **n != "Transaction.Begin")
            .collect();
        assert_eq!(ends, [&"Transaction.Rollback"], "{names:?}");
        let at = |name| names.iter().position(|n| *n == name).unwrap();
        assert!(
            at("Transaction.Rollback") < at("Session.Logout"),
            "{names:?}"
        );
        // The uncommitted insert was rolled back and locks released.
        assert_eq!(
            e.query("SELECT COUNT(*) FROM items").unwrap()[0][0],
            Value::Int(0)
        );
        let mut s2 = e.connect("c", "d");
        s2.execute("INSERT INTO items VALUES (1, 'x', 1, 1.0)")
            .unwrap();
    }

    #[test]
    fn dropping_a_session_ends_its_transaction() {
        let e = engine();
        let spy = Arc::new(Spy::default());
        e.attach_monitor(spy.clone());
        let mut s = e.connect("a", "b");
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO items VALUES (1, 'x', 1, 1.0)")
            .unwrap();
        drop(s);
        assert!(spy.names().contains(&"Transaction.Rollback"));
        assert!(!spy.names().contains(&"Session.Logout"));
        // Undone, and the row lock is free for the next session.
        e.connect("c", "d")
            .execute("INSERT INTO items VALUES (1, 'y', 2, 2.0)")
            .unwrap();
    }

    #[test]
    fn failing_exec_ends_its_own_transaction_once() {
        let e = Engine::new(EngineConfig {
            lock_wait_timeout: std::time::Duration::from_millis(200),
            ..Default::default()
        });
        e.execute_batch(
            "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT, price FLOAT);\
             INSERT INTO items VALUES (1, 'x', 1, 1.0);",
        )
        .unwrap();
        e.catalog()
            .create_procedure(
                StoredProcedure::parse(
                    "pair",
                    &["new", "dup"],
                    "INSERT INTO items VALUES (@new, 'n', 1, 1.0); \
                     INSERT INTO items VALUES (@dup, 'd', 1, 1.0);",
                )
                .unwrap(),
            )
            .unwrap();
        let spy = Arc::new(Spy::default());
        e.attach_monitor(spy.clone());
        let mut s = e.connect("a", "b");
        assert!(s.execute("EXEC pair(7, 1)").is_err(), "duplicate key");
        assert!(!s.in_transaction());

        // Begin, then exactly one Rollback, then the EXEC's own Query.Rollback.
        let evs = spy.events.lock().clone();
        let txn_events: Vec<_> = evs
            .iter()
            .map(|ev| ev.name())
            .filter(|n| n.starts_with("Transaction."))
            .collect();
        assert_eq!(txn_events, ["Transaction.Begin", "Transaction.Rollback"]);
        let at = |pred: &dyn Fn(&EngineEvent) -> bool| evs.iter().position(pred).unwrap();
        let begin = at(&|ev| matches!(ev, EngineEvent::TxnBegin(_)));
        let rollback = at(&|ev| matches!(ev, EngineEvent::TxnRollback(_)));
        let exec_rollback = at(
            &|ev| matches!(ev, EngineEvent::QueryRollback(q) if q.text.starts_with("EXEC pair")),
        );
        assert!(begin < rollback && rollback < exec_rollback);

        // The first insert is undone and its locks are released: another
        // session takes the same key without waiting out the lock timeout.
        assert_eq!(
            e.query("SELECT COUNT(*) FROM items").unwrap()[0][0],
            Value::Int(1)
        );
        e.connect("c", "d")
            .execute("INSERT INTO items VALUES (7, 'z', 1, 1.0)")
            .unwrap();
        // The EXEC completes alongside its two statements.
        let completed = spy.completed();
        let texts: Vec<&str> = completed.iter().map(|q| &*q.text).collect();
        assert!(texts.contains(&"EXEC pair(7, 1)"), "{texts:?}");
    }

    #[test]
    fn malformed_aggregate_calls_fail_to_plan() {
        let e = engine();
        e.execute_batch(
            "CREATE TABLE nothing (id INT PRIMARY KEY, v INT);\
             CREATE TABLE one (id INT PRIMARY KEY, v INT);\
             INSERT INTO one VALUES (1, 10);",
        )
        .unwrap();
        let mut s = e.connect("a", "b");
        for table in ["nothing", "one"] {
            for call in ["SUM(*)", "COUNT()", "SUM(v, id)"] {
                let sql = format!("SELECT {call} FROM {table}");
                let got = s.execute(&sql);
                assert!(matches!(got, Err(Error::Parse(_))), "{sql}: {got:?}");
            }
        }
        // Well-formed calls still plan.
        let r = s.execute("SELECT COUNT(*), SUM(v) FROM one").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1), Value::Float(10.0)]]);
    }

    #[test]
    fn aggregates_in_where_or_on_fail_to_plan() {
        let e = engine();
        e.execute_batch(
            "CREATE TABLE nothing (id INT PRIMARY KEY, v INT);\
             CREATE TABLE one (id INT PRIMARY KEY, v INT);\
             INSERT INTO one VALUES (1, 10);",
        )
        .unwrap();
        let mut s = e.connect("a", "b");
        for t in ["nothing", "one"] {
            for sql in [
                format!("SELECT id FROM {t} WHERE SUM(v) > 0"),
                format!("SELECT a.id FROM {t} a JOIN {t} b ON a.id = b.id AND COUNT(*) > 0"),
            ] {
                let got = s.execute(&sql);
                assert!(matches!(got, Err(Error::Parse(_))), "{sql}: {got:?}");
            }
        }
        // A scalar call in WHERE and an aggregate in HAVING still plan.
        let r = s.execute("SELECT id FROM one WHERE ABS(v) > 0").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        let r = s
            .execute("SELECT id FROM one GROUP BY id HAVING SUM(v) > 0")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    }
}
