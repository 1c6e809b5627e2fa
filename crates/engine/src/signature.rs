//! Query signatures (paper Section 4.2).
//!
//! A signature is a probe value identifying the *template* of a query:
//!
//! 1. **Logical query signature** — a linearized representation of the bound
//!    logical plan with every constant replaced by a wildcard. Where parameters
//!    are identifiable (positional `?` or named `@p` — e.g. statements inside a
//!    stored procedure), each occurrence is replaced by a symbol *matching only
//!    other occurrences of the same parameter*, exactly as the paper specifies.
//!    AND-ed conjuncts are sorted before linearization, making the signature
//!    insensitive to predicate ordering.
//! 2. **Physical plan signature** — the same linearization over the physical
//!    tree, which additionally captures access paths and join algorithms ("logical
//!    query plans may result in vastly different execution plans").
//! 3. **Logical transaction signature** — the sequence of logical statement
//!    signatures between the outermost BEGIN/COMMIT (maintained by the session,
//!    see `crate::txn`), exposed "as a list of integers".
//! 4. **Physical transaction signature** — same over physical signatures.
//!
//! Signatures are computed once during optimization and cached with the plan
//! (`crate::plancache`), so "if a query plan is cached, so is its signature".

use std::fmt::Write;

use sqlcm_sql::{Expr, SelectItem, Statement};

use crate::catalog::TableInfo;
use crate::plan::{AggSpec, LogicalPlan, PhysicalPlan};

/// Both signatures plus their linearized texts (texts are kept for debugging,
/// EXPLAIN output, and tests; only the hashes travel in probes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signatures {
    pub logical: u64,
    pub physical: u64,
    pub logical_text: String,
    pub physical_text: String,
}

/// FNV-1a, the classic cheap stable 64-bit hash.
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Compute both signatures for a planned SELECT.
pub fn compute(logical: &LogicalPlan, physical: &PhysicalPlan) -> Signatures {
    let logical_text = linearize_logical(logical);
    let physical_text = linearize_physical(physical);
    Signatures {
        logical: fnv1a(&logical_text),
        physical: fnv1a(&physical_text),
        logical_text,
        physical_text,
    }
}

/// Signatures for non-SELECT statements: the statement template is linearized
/// directly; the physical variant appends the chosen access-path tag (computed by
/// the executor's target-row planning) when one exists.
pub fn compute_for_statement(stmt: &Statement, access_tag: Option<&str>) -> Signatures {
    let logical_text = template_statement(stmt);
    let physical_text = match access_tag {
        Some(tag) => format!("{logical_text}#{tag}"),
        None => logical_text.clone(),
    };
    Signatures {
        logical: fnv1a(&logical_text),
        physical: fnv1a(&physical_text),
        logical_text,
        physical_text,
    }
}

/// Combine a sequence of statement signatures into a transaction signature
/// ("defined through the sequence of … signatures inside a transaction").
pub fn transaction_signature(stmt_sigs: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for s in stmt_sigs {
        for b in s.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

// ------------------------------------------------------------- templating

/// Expression template: constants → `?`, parameters → matching symbols.
pub fn template_expr(e: &Expr) -> String {
    let mut out = String::with_capacity(32);
    template_expr_into(e, &mut out);
    out
}

fn push_lower(out: &mut String, s: &str) {
    out.extend(s.chars().map(|c| c.to_ascii_lowercase()));
}

/// Streaming form of [`template_expr`] — signature computation is on the
/// compile path, so it avoids per-node allocations.
pub fn template_expr_into(e: &Expr, out: &mut String) {
    match e {
        Expr::Literal(_) => out.push('?'),
        Expr::Param(i) => {
            let _ = write!(out, ":p{i}");
        }
        Expr::NamedParam(n) => {
            out.push(':');
            push_lower(out, n);
        }
        Expr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                push_lower(out, q);
                out.push('.');
            }
            push_lower(out, name);
        }
        Expr::Unary { op, expr } => {
            let _ = write!(out, "{op:?}(");
            template_expr_into(expr, out);
            out.push(')');
        }
        Expr::Binary { left, op, right } => {
            out.push('(');
            template_expr_into(left, out);
            let _ = write!(out, " {op} ");
            template_expr_into(right, out);
            out.push(')');
        }
        Expr::FuncCall { name, args, star } => {
            out.push_str(name);
            out.push('(');
            if *star {
                out.push('*');
            } else {
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    template_expr_into(a, out);
                }
            }
            out.push(')');
        }
        Expr::IsNull { expr, negated } => {
            out.push_str(if *negated { "isnull!(" } else { "isnull(" });
            template_expr_into(expr, out);
            out.push(')');
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            out.push_str(if *negated { "like!(" } else { "like(" });
            template_expr_into(expr, out);
            out.push(',');
            template_expr_into(pattern, out);
            out.push(')');
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            out.push_str(if *negated { "in!(" } else { "in(" });
            template_expr_into(expr, out);
            out.push_str(";[");
            for (i, e) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                template_expr_into(e, out);
            }
            out.push_str("])");
        }
    }
}

/// Predicate template with order-insensitive conjuncts.
fn template_pred_into(e: &Expr, out: &mut String) {
    let conjuncts = crate::expr::split_conjuncts(e);
    if conjuncts.len() == 1 {
        template_expr_into(&conjuncts[0], out);
        return;
    }
    let mut parts: Vec<String> = conjuncts.iter().map(template_expr).collect();
    parts.sort();
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            out.push('&');
        }
        out.push_str(p);
    }
}

fn template_pred(e: &Expr) -> String {
    let mut out = String::with_capacity(48);
    template_pred_into(e, &mut out);
    out
}

fn template_opt_pred_into(e: &Option<Expr>, out: &mut String) {
    if let Some(p) = e {
        template_pred_into(p, out);
    }
}

fn template_opt_pred(e: &Option<Expr>) -> String {
    match e {
        Some(p) => template_pred(p),
        None => String::new(),
    }
}

/// Statement template for DML/DDL signatures.
pub fn template_statement(stmt: &Statement) -> String {
    match stmt {
        Statement::Select(s) => {
            // Rarely used (SELECT signatures come from plans), but kept total.
            let items: Vec<String> = s
                .items
                .iter()
                .map(|it| match it {
                    SelectItem::Wildcard => "*".into(),
                    SelectItem::Expr { expr, .. } => template_expr(expr),
                })
                .collect();
            format!(
                "select({};from={};pred={})",
                items.join(","),
                s.from
                    .as_ref()
                    .map(|f| f.name.to_ascii_lowercase())
                    .unwrap_or_default(),
                template_opt_pred(&s.predicate)
            )
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => format!(
            "insert({};cols={:?};arity={};rows={})",
            table.to_ascii_lowercase(),
            columns
                .as_ref()
                .map(|c| c.iter().map(|s| s.to_ascii_lowercase()).collect::<Vec<_>>()),
            rows.first().map_or(0, |r| r.len()),
            rows.len()
        ),
        Statement::Update {
            table,
            assignments,
            predicate,
        } => {
            let mut sets: Vec<String> = assignments
                .iter()
                .map(|(c, e)| format!("{}={}", c.to_ascii_lowercase(), template_expr(e)))
                .collect();
            sets.sort();
            format!(
                "update({};set={};pred={})",
                table.to_ascii_lowercase(),
                sets.join(","),
                template_opt_pred(predicate)
            )
        }
        Statement::Delete { table, predicate } => format!(
            "delete({};pred={})",
            table.to_ascii_lowercase(),
            template_opt_pred(predicate)
        ),
        Statement::Exec { procedure, args } => format!(
            "exec({};arity={})",
            procedure.to_ascii_lowercase(),
            args.len()
        ),
        other => format!("stmt({other})"),
    }
}

// ------------------------------------------------------------- plan linearization

/// A plan tree the signature printer walks. Logical and physical plans share
/// the printing of every operator they have in common; the physical tree adds
/// its access paths and join algorithms.
trait Linearize {
    fn linearize_into(&self, out: &mut String);
}

/// Linearize a logical plan (pre-order, parenthesized).
pub fn linearize_logical(plan: &LogicalPlan) -> String {
    linearize(plan)
}

/// Linearize a physical plan — includes operator/access-path identity.
pub fn linearize_physical(plan: &PhysicalPlan) -> String {
    linearize(plan)
}

fn linearize(plan: &impl Linearize) -> String {
    let mut out = String::with_capacity(128);
    plan.linearize_into(&mut out);
    out
}

/// `name(body;child;…)`: how every operator but `Dual` prints.
fn op(out: &mut String, name: &str, children: &[&dyn Linearize], body: impl FnOnce(&mut String)) {
    out.push_str(name);
    out.push('(');
    body(out);
    for child in children {
        out.push(';');
        child.linearize_into(out);
    }
    out.push(')');
}

/// Comma-separated items.
fn list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&T, &mut String)) {
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(it, out);
    }
}

fn exprs_into(exprs: &[Expr], out: &mut String) {
    list(out, exprs, template_expr_into);
}

/// A scan's `table;as=binding` prefix.
fn table_into(table: &TableInfo, binding: &str, out: &mut String) {
    push_lower(out, &table.name);
    out.push_str(";as=");
    push_lower(out, binding);
}

fn scan_into(table: &TableInfo, binding: &str, predicate: &Option<Expr>, out: &mut String) {
    table_into(table, binding, out);
    out.push_str(";pred=");
    template_opt_pred_into(predicate, out);
}

fn aggregate_into(group_by: &[Expr], aggs: &[AggSpec], out: &mut String) {
    out.push_str("g=[");
    exprs_into(group_by, out);
    out.push_str("];a=[");
    list(out, aggs, |a, out| {
        let _ = write!(out, "{:?}(", a.func);
        if let Some(arg) = &a.arg {
            template_expr_into(arg, out);
        }
        out.push(')');
    });
    out.push(']');
}

fn project_into(exprs: &[(Expr, String)], out: &mut String) {
    out.push('[');
    list(out, exprs, |(e, _), out| template_expr_into(e, out));
    out.push(']');
}

fn sort_into(keys: &[(Expr, bool)], out: &mut String) {
    out.push('[');
    list(out, keys, |(e, desc), out| {
        template_expr_into(e, out);
        out.push(if *desc { '-' } else { '+' });
    });
    out.push(']');
}

fn bound_into(bound: &Option<(Expr, bool)>, out: &mut String) {
    if let Some((e, inclusive)) = bound {
        template_expr_into(e, out);
        if *inclusive {
            out.push('=');
        }
    }
}

impl Linearize for LogicalPlan {
    fn linearize_into(&self, out: &mut String) {
        use LogicalPlan as L;
        match self {
            L::Dual => out.push_str("Dual"),
            L::Scan {
                table,
                binding,
                predicate,
            } => op(out, "Scan", &[], |o| {
                scan_into(table, binding, predicate, o)
            }),
            L::Filter { predicate, input } => op(out, "Filter", &[&**input], |o| {
                template_pred_into(predicate, o)
            }),
            L::Join { left, right, on } => op(out, "Join", &[&**left, &**right], |o| {
                template_pred_into(on, o)
            }),
            L::Aggregate {
                group_by,
                aggs,
                input,
            } => op(out, "Agg", &[&**input], |o| {
                aggregate_into(group_by, aggs, o)
            }),
            L::Project { exprs, input } => op(out, "Proj", &[&**input], |o| project_into(exprs, o)),
            L::Sort { keys, input } => op(out, "Sort", &[&**input], |o| sort_into(keys, o)),
            L::Limit { n, input } => op(out, "Limit", &[&**input], |o| {
                let _ = write!(o, "{n}");
            }),
        }
    }
}

impl Linearize for PhysicalPlan {
    fn linearize_into(&self, out: &mut String) {
        use PhysicalPlan as P;
        match self {
            P::DualScan => out.push_str("Dual"),
            P::SeqScan {
                table,
                binding,
                predicate,
            } => op(out, "SeqScan", &[], |o| {
                scan_into(table, binding, predicate, o)
            }),
            P::IndexSeek {
                table,
                binding,
                bounds,
                residual,
            } => op(out, "IndexSeek", &[], |o| {
                table_into(table, binding, o);
                o.push_str(";eq=");
                exprs_into(&bounds.eq_prefix, o);
                o.push_str(";lo=");
                bound_into(&bounds.lower, o);
                o.push_str(";hi=");
                bound_into(&bounds.upper, o);
                o.push_str(";res=");
                template_opt_pred_into(residual, o);
            }),
            P::Filter { predicate, input } => op(out, "Filter", &[&**input], |o| {
                template_pred_into(predicate, o)
            }),
            P::NestedLoopJoin { left, right, on } => op(out, "NLJoin", &[&**left, &**right], |o| {
                template_pred_into(on, o)
            }),
            P::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
            } => op(out, "HashJoin", &[&**left, &**right], |o| {
                o.push_str("l=[");
                exprs_into(left_keys, o);
                o.push_str("];r=[");
                exprs_into(right_keys, o);
                o.push_str("];res=");
                template_opt_pred_into(residual, o);
            }),
            P::HashAggregate {
                group_by,
                aggs,
                input,
            } => op(out, "HashAgg", &[&**input], |o| {
                aggregate_into(group_by, aggs, o)
            }),
            P::Project { exprs, input } => op(out, "Proj", &[&**input], |o| project_into(exprs, o)),
            P::Sort { keys, input } => op(out, "Sort", &[&**input], |o| sort_into(keys, o)),
            P::Limit { n, input } => op(out, "Limit", &[&**input], |o| {
                let _ = write!(o, "{n}");
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::optimizer::plan_select;
    use sqlcm_common::DataType;
    use sqlcm_storage::{BufferPool, InMemoryDisk};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let c = Catalog::new(Arc::new(BufferPool::new(InMemoryDisk::shared(), 64)));
        c.create_table(
            "t",
            vec![
                crate::catalog::ColumnInfo {
                    name: "a".into(),
                    data_type: DataType::Int,
                    not_null: false,
                },
                crate::catalog::ColumnInfo {
                    name: "b".into(),
                    data_type: DataType::Int,
                    not_null: false,
                },
            ],
            &["a".into()],
        )
        .unwrap();
        c
    }

    fn sig(c: &Catalog, sql: &str) -> Signatures {
        let stmt = sqlcm_sql::parse_statement(sql).unwrap();
        match stmt {
            sqlcm_sql::Statement::Select(s) => {
                let p = plan_select(c, &s).unwrap();
                compute(&p.logical, &p.physical)
            }
            other => compute_for_statement(&other, None),
        }
    }

    #[test]
    fn constants_are_wildcarded() {
        let c = catalog();
        let s1 = sig(&c, "SELECT b FROM t WHERE a = 1");
        let s2 = sig(&c, "SELECT b FROM t WHERE a = 99999");
        assert_eq!(
            s1.logical, s2.logical,
            "{}\n{}",
            s1.logical_text, s2.logical_text
        );
        assert_eq!(s1.physical, s2.physical);
    }

    #[test]
    fn predicate_order_is_irrelevant() {
        let c = catalog();
        let s1 = sig(&c, "SELECT * FROM t WHERE a = 1 AND b = 2");
        let s2 = sig(&c, "SELECT * FROM t WHERE b = 7 AND a = 3");
        assert_eq!(s1.logical, s2.logical);
    }

    #[test]
    fn different_structure_differs() {
        let c = catalog();
        let s1 = sig(&c, "SELECT b FROM t WHERE a = 1");
        let s2 = sig(&c, "SELECT b FROM t WHERE b = 1");
        assert_ne!(s1.logical, s2.logical);
        let s3 = sig(&c, "SELECT a FROM t WHERE a = 1");
        assert_ne!(s1.logical, s3.logical);
    }

    #[test]
    fn physical_differs_when_access_path_differs() {
        let c = catalog();
        // a is the clustered key → seek; b is not → scan.
        let seek = sig(&c, "SELECT * FROM t WHERE a = 1");
        let scan = sig(&c, "SELECT * FROM t WHERE b = 1");
        assert!(seek.physical_text.contains("IndexSeek"));
        assert!(scan.physical_text.contains("SeqScan"));
        assert_ne!(seek.physical, scan.physical);
    }

    #[test]
    fn parameters_keep_identity() {
        let c = catalog();
        // Same parameter twice vs two different parameters: distinct templates.
        let twice = sig(&c, "SELECT * FROM t WHERE a = ? AND b = ?");
        let named = sig(&c, "SELECT * FROM t WHERE a = @x AND b = @x");
        assert_ne!(twice.logical, named.logical);
        let named2 = sig(&c, "SELECT * FROM t WHERE a = @x AND b = @X");
        assert_eq!(
            named.logical, named2.logical,
            "parameter matching is case-insensitive"
        );
    }

    #[test]
    fn whitespace_and_case_insensitive() {
        let c = catalog();
        let s1 = sig(&c, "SELECT b FROM t WHERE a = 1");
        let s2 = sig(&c, "select   B from T   where A=42");
        assert_eq!(s1.logical, s2.logical);
    }

    #[test]
    fn dml_templates() {
        let c = catalog();
        let u1 = sig(&c, "UPDATE t SET b = 5 WHERE a = 1");
        let u2 = sig(&c, "UPDATE t SET b = 900 WHERE a = 77");
        assert_eq!(u1.logical, u2.logical);
        let u3 = sig(&c, "UPDATE t SET b = b + 1 WHERE a = 1");
        assert_ne!(u1.logical, u3.logical);
        let i1 = sig(&c, "INSERT INTO t VALUES (1, 2)");
        let i2 = sig(&c, "INSERT INTO t VALUES (3, 4)");
        assert_eq!(i1.logical, i2.logical);
        let i3 = sig(&c, "INSERT INTO t (a, b) VALUES (3, 4)");
        assert_ne!(i1.logical, i3.logical);
    }

    #[test]
    fn transaction_signature_is_sequence_sensitive() {
        let a = transaction_signature(&[1, 2, 3]);
        let b = transaction_signature(&[3, 2, 1]);
        let c = transaction_signature(&[1, 2, 3]);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(transaction_signature(&[]), a);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
        assert_ne!(fnv1a("abc"), fnv1a("abd"));
    }
}
