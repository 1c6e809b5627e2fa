//! Binder + optimizer: AST → logical plan → physical plan with a cost estimate.
//!
//! The optimizer is deliberately classical and compact:
//!
//! * WHERE conjuncts are split and pushed to the scans they reference;
//! * clustered tables get an **index seek** whenever conjuncts cover an equality
//!   prefix of the clustered key (optionally plus one range column) — this is the
//!   access path under the paper's "single-row selections … using a clustered
//!   index" workloads;
//! * equi-joins become hash joins with the smaller side as build input, other
//!   joins fall back to nested loops;
//! * aggregates lower to a hash aggregate; SELECT/HAVING/ORDER BY expressions are
//!   rewritten to reference the aggregate's output columns;
//! * join order is cost-chosen: all left-deep orders are enumerated for up to
//!   four base relations (`MAX_ENUMERATED_RELATIONS`).
//!
//! The optimizer's cost estimate feeds the `Query.Estimated_Cost` probe
//! (Appendix A), and the logical/physical trees are what
//! [`crate::signature`] linearizes.

use std::sync::Arc;

use sqlcm_common::{Error, Result};
use sqlcm_sql::{BinOp, Expr, SelectItem, SelectStmt};

use crate::catalog::Catalog;
use crate::expr::{is_row_independent, join_conjuncts, split_conjuncts, Schema};
use crate::plan::{agg_func, AggSpec, LogicalPlan, PhysicalPlan, SeekBounds};

/// A fully planned SELECT.
pub struct PlannedSelect {
    pub logical: LogicalPlan,
    pub physical: PhysicalPlan,
    pub estimated_cost: f64,
    /// Result column names.
    pub output_names: Vec<String>,
}

/// Plan a SELECT statement.
///
/// Join order is chosen by cost: for up to [`MAX_ENUMERATED_RELATIONS`] base
/// relations every left-deep order is built and lowered, and the cheapest plan
/// wins (beyond that, FROM order is kept — the workloads never exceed three
/// tables). The chosen logical tree also canonicalizes the *logical signature*
/// across FROM-order permutations of the same query.
pub fn plan_select(catalog: &Catalog, stmt: &SelectStmt) -> Result<PlannedSelect> {
    let n_rel = if stmt.from.is_some() {
        1 + stmt.joins.len()
    } else {
        0
    };
    let orders: Vec<Vec<usize>> = if (2..=MAX_ENUMERATED_RELATIONS).contains(&n_rel) {
        permutations(n_rel)
    } else {
        vec![(0..n_rel).collect()]
    };
    let mut best: Option<PlannedSelect> = None;
    for order in &orders {
        let logical = build_logical_ordered(catalog, stmt, order)?;
        let (physical, cost, _rows) = lower(&logical);
        if best.as_ref().is_none_or(|b| cost < b.estimated_cost) {
            let output_names = physical.schema().names();
            best = Some(PlannedSelect {
                logical,
                physical,
                estimated_cost: cost,
                output_names,
            });
        }
    }
    Ok(best.expect("at least one join order"))
}

/// Join orders are enumerated exhaustively up to this many base relations.
pub const MAX_ENUMERATED_RELATIONS: usize = 4;

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    fn rec(n: usize, cur: &mut Vec<usize>, used: &mut [bool], out: &mut Vec<Vec<usize>>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(n, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    rec(n, &mut cur, &mut used, &mut out);
    out
}

// ---------------------------------------------------------------- binding

/// Which bindings (table aliases) an expression references.
fn bindings_of(expr: &Expr, base: &[(String, Schema)]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    expr.walk(&mut |e| {
        if let Expr::Column { qualifier, name } = e {
            let owner = match qualifier {
                Some(q) => base
                    .iter()
                    .find(|(b, _)| b.eq_ignore_ascii_case(q))
                    .map(|(b, _)| b.clone()),
                None => base
                    .iter()
                    .find(|(_, s)| s.resolve(None, name).is_ok())
                    .map(|(b, _)| b.clone()),
            };
            if let Some(o) = owner {
                if !out.contains(&o) {
                    out.push(o);
                }
            }
        }
    });
    out
}

/// Build the logical plan with an explicit base-relation order (`order[i]` is
/// an index into the FROM-clause relation list).
fn build_logical_ordered(
    catalog: &Catalog,
    stmt: &SelectStmt,
    order: &[usize],
) -> Result<LogicalPlan> {
    // 1. FROM: base relations, in the given order.
    let mut relations: Vec<(String, Arc<crate::catalog::TableInfo>)> = Vec::new();
    if let Some(from) = &stmt.from {
        relations.push((from.binding_name().to_string(), catalog.table(&from.name)?));
        for j in &stmt.joins {
            relations.push((
                j.table.binding_name().to_string(),
                catalog.table(&j.table.name)?,
            ));
        }
    }
    // Wildcard expansion must follow declaration order even when the join
    // tree is permuted, so the user-visible column order is plan-independent.
    let declared_schema: Vec<(Option<String>, String)> = relations
        .iter()
        .flat_map(|(b, t)| {
            t.columns
                .iter()
                .map(|c| (Some(b.clone()), c.name.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    debug_assert_eq!(order.len(), relations.len());
    relations = order.iter().map(|&i| relations[i].clone()).collect();
    let base: Vec<(String, Schema)> = relations
        .iter()
        .map(|(b, t)| {
            (
                b.clone(),
                Schema::for_table(b, t.columns.iter().map(|c| c.name.clone())),
            )
        })
        .collect();

    // 2. Gather conjuncts from WHERE and JOIN ... ON (inner joins let ON and
    //    WHERE conjuncts be treated uniformly) and classify by binding count.
    let mut conjuncts: Vec<Expr> = Vec::new();
    if let Some(p) = &stmt.predicate {
        conjuncts.extend(split_conjuncts(p));
    }
    for j in &stmt.joins {
        conjuncts.extend(split_conjuncts(&j.on));
    }
    // An aggregate call has no group to fold over in WHERE or ON.
    let mut misplaced = None;
    for c in &conjuncts {
        c.walk(&mut |sub| match sub {
            Expr::FuncCall { name, args, star } if agg_func(name, args, *star) != Ok(None) => {
                misplaced.get_or_insert_with(|| {
                    Error::Parse(format!("aggregate {sub} in WHERE or JOIN ... ON"))
                });
            }
            _ => {}
        });
    }
    if let Some(e) = misplaced {
        return Err(e);
    }
    let mut single: Vec<Vec<Expr>> = vec![Vec::new(); relations.len()];
    let mut multi: Vec<Expr> = Vec::new();
    for c in conjuncts {
        let bs = bindings_of(&c, &base);
        if bs.len() == 1 {
            let idx = relations
                .iter()
                .position(|(b, _)| *b == bs[0])
                .expect("binding came from relations");
            single[idx].push(c);
        } else {
            multi.push(c);
        }
    }

    // 3. Left-deep join tree in FROM order; attach multi-binding conjuncts at the
    //    first join where all their bindings are available.
    let mut plan = if relations.is_empty() {
        LogicalPlan::Dual
    } else {
        let mut preds = single.into_iter();
        let (b0, t0) = &relations[0];
        let mut acc = LogicalPlan::Scan {
            table: t0.clone(),
            binding: b0.clone(),
            predicate: join_conjuncts(preds.next().unwrap_or_default()),
        };
        let mut avail: Vec<String> = vec![b0.clone()];
        for (bi, ti) in relations.iter().skip(1) {
            let right = LogicalPlan::Scan {
                table: ti.clone(),
                binding: bi.clone(),
                predicate: join_conjuncts(preds.next().unwrap_or_default()),
            };
            avail.push(bi.clone());
            // Conjuncts now fully covered become this join's ON.
            let mut on_parts = Vec::new();
            multi.retain(|c| {
                let bs = bindings_of(c, &base);
                let covered = bs.iter().all(|b| avail.contains(b));
                if covered {
                    on_parts.push(c.clone());
                    false
                } else {
                    true
                }
            });
            acc = LogicalPlan::Join {
                left: Box::new(acc),
                right: Box::new(right),
                on: join_conjuncts(on_parts).unwrap_or(Expr::lit(true)),
            };
        }
        acc
    };
    if !multi.is_empty() {
        // Conjuncts referencing no known binding (e.g. constants or unknown
        // columns — the latter will fail at execution with a clear message).
        plan = LogicalPlan::Filter {
            predicate: join_conjuncts(multi).expect("nonempty"),
            input: Box::new(plan),
        };
    }

    // 4. Aggregation. A malformed aggregate call fails the statement here,
    //    before any row is read.
    let mut agg_specs: Vec<AggSpec> = Vec::new();
    let mut malformed = None;
    let items = stmt.items.iter().filter_map(|it| match it {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Wildcard => None,
    });
    let order_keys = stmt.order_by.iter().map(|o| &o.expr);
    for e in items.chain(&stmt.having).chain(order_keys) {
        e.walk(&mut |sub| {
            let Expr::FuncCall { name, args, star } = sub else {
                return;
            };
            match agg_func(name, args, *star) {
                Ok(Some(func)) => {
                    let canonical = sub.to_string();
                    if !agg_specs.iter().any(|s| s.name == canonical) {
                        agg_specs.push(AggSpec {
                            func,
                            arg: args.first().cloned(),
                            name: canonical,
                        });
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    malformed.get_or_insert(e);
                }
            }
        });
    }
    if let Some(e) = malformed {
        return Err(e);
    }
    let has_aggregation = !agg_specs.is_empty() || !stmt.group_by.is_empty();

    let rewrite = |e: &Expr| -> Expr {
        if has_aggregation {
            rewrite_for_aggregate(e, &stmt.group_by)
        } else {
            e.clone()
        }
    };

    if has_aggregation {
        if agg_specs.is_empty() {
            // GROUP BY with no aggregates: still valid (DISTINCT-like).
        }
        plan = LogicalPlan::Aggregate {
            group_by: stmt.group_by.clone(),
            aggs: agg_specs,
            input: Box::new(plan),
        };
        if let Some(h) = &stmt.having {
            plan = LogicalPlan::Filter {
                predicate: rewrite(h),
                input: Box::new(plan),
            };
        }
    } else if stmt.having.is_some() {
        return Err(Error::Execution(
            "HAVING requires GROUP BY or aggregates".into(),
        ));
    }

    // 5. Projection.
    let input_schema = plan.schema();
    let mut exprs: Vec<(Expr, String)> = Vec::new();
    for it in &stmt.items {
        match it {
            SelectItem::Wildcard => {
                if stmt.from.is_none() {
                    return Err(Error::Execution("SELECT * requires FROM".into()));
                }
                // Aggregated wildcards are not meaningful; expand against the
                // aggregate output in that case, declaration order otherwise.
                if has_aggregation {
                    for (q, n) in input_schema.columns() {
                        exprs.push((
                            Expr::Column {
                                qualifier: q.clone(),
                                name: n.clone(),
                            },
                            n.clone(),
                        ));
                    }
                } else {
                    for (q, n) in &declared_schema {
                        exprs.push((
                            Expr::Column {
                                qualifier: q.clone(),
                                name: n.clone(),
                            },
                            n.clone(),
                        ));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let rewritten = rewrite(expr);
                let name = alias.clone().unwrap_or_else(|| match expr {
                    Expr::Column { name, .. } => name.clone(),
                    other => other.to_string(),
                });
                exprs.push((rewritten, name));
            }
        }
    }
    let projected = LogicalPlan::Project {
        exprs: exprs.clone(),
        input: Box::new(plan),
    };

    // 6. ORDER BY: prefer sorting over the projection output (aliases resolve);
    //    fall back to sorting below the projection when a key needs columns the
    //    projection drops.
    let mut plan = projected;
    if !stmt.order_by.is_empty() {
        let out_schema = plan.schema();
        let keys_over_output: Option<Vec<(Expr, bool)>> = stmt
            .order_by
            .iter()
            .map(|o| {
                let e = rewrite(&o.expr);
                // An order key matching a projected expression (or alias) is
                // replaced by a reference to that output column.
                let by_alias = match &e {
                    Expr::Column {
                        qualifier: None,
                        name,
                    } => out_schema.resolve(None, name).ok().map(|i| {
                        (
                            Expr::Column {
                                qualifier: None,
                                name: out_schema.columns()[i].1.clone(),
                            },
                            o.desc,
                        )
                    }),
                    _ => None,
                };
                if let Some(k) = by_alias {
                    return Some(k);
                }
                exprs.iter().position(|(pe, _)| *pe == e).map(|i| {
                    (
                        Expr::Column {
                            qualifier: None,
                            name: exprs[i].1.clone(),
                        },
                        o.desc,
                    )
                })
            })
            .collect();
        plan = match keys_over_output {
            Some(keys) => LogicalPlan::Sort {
                keys,
                input: Box::new(plan),
            },
            None => {
                // Sort beneath the projection, over the pre-projection schema.
                let (exprs, input) = match plan {
                    LogicalPlan::Project { exprs, input } => (exprs, input),
                    _ => unreachable!("plan is a projection here"),
                };
                let keys = stmt
                    .order_by
                    .iter()
                    .map(|o| (rewrite(&o.expr), o.desc))
                    .collect();
                LogicalPlan::Project {
                    exprs,
                    input: Box::new(LogicalPlan::Sort { keys, input }),
                }
            }
        };
    }

    // 7. LIMIT.
    if let Some(n) = stmt.limit {
        plan = LogicalPlan::Limit {
            n,
            input: Box::new(plan),
        };
    }
    Ok(plan)
}

/// Replace aggregate calls and GROUP BY expressions with references to the
/// aggregate operator's output columns.
fn rewrite_for_aggregate(e: &Expr, group_by: &[Expr]) -> Expr {
    // Exact group-by match first (covers plain columns and computed keys).
    if let Some(g) = group_by.iter().find(|g| *g == e) {
        return match g {
            Expr::Column { .. } => g.clone(),
            other => Expr::Column {
                qualifier: None,
                name: other.to_string(),
            },
        };
    }
    if let Expr::FuncCall { name, args, star } = e {
        if let Ok(Some(_)) = agg_func(name, args, *star) {
            return Expr::Column {
                qualifier: None,
                name: e.to_string(),
            };
        }
    }
    // Recurse structurally.
    match e {
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_for_aggregate(expr, group_by)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite_for_aggregate(left, group_by)),
            op: *op,
            right: Box::new(rewrite_for_aggregate(right, group_by)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_for_aggregate(expr, group_by)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rewrite_for_aggregate(expr, group_by)),
            pattern: Box::new(rewrite_for_aggregate(pattern, group_by)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

// ---------------------------------------------------------------- lowering

/// Lower a logical plan; returns (plan, cost, row estimate).
pub fn lower(plan: &LogicalPlan) -> (PhysicalPlan, f64, f64) {
    match plan {
        LogicalPlan::Dual => (PhysicalPlan::DualScan, 1.0, 1.0),
        LogicalPlan::Scan {
            table,
            binding,
            predicate,
        } => lower_scan(table, binding, predicate.as_ref()),
        LogicalPlan::Filter { predicate, input } => {
            let (p, c, r) = lower(input);
            (
                PhysicalPlan::Filter {
                    predicate: predicate.clone(),
                    input: Box::new(p),
                },
                c + r * 0.01,
                (r * 0.25).max(1.0),
            )
        }
        LogicalPlan::Join { left, right, on } => lower_join(left, right, on),
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            input,
        } => {
            let (p, c, r) = lower(input);
            let out_rows = if group_by.is_empty() {
                1.0
            } else {
                (r / 10.0).max(1.0)
            };
            (
                PhysicalPlan::HashAggregate {
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    input: Box::new(p),
                },
                c + r * 0.02,
                out_rows,
            )
        }
        LogicalPlan::Project { exprs, input } => {
            let (p, c, r) = lower(input);
            (
                PhysicalPlan::Project {
                    exprs: exprs.clone(),
                    input: Box::new(p),
                },
                c + r * 0.005,
                r,
            )
        }
        LogicalPlan::Sort { keys, input } => {
            let (p, c, r) = lower(input);
            let sort_cost = r * (r.max(2.0)).log2() * 0.01;
            (
                PhysicalPlan::Sort {
                    keys: keys.clone(),
                    input: Box::new(p),
                },
                c + sort_cost,
                r,
            )
        }
        LogicalPlan::Limit { n, input } => {
            let (p, c, r) = lower(input);
            (
                PhysicalPlan::Limit {
                    n: *n,
                    input: Box::new(p),
                },
                c,
                r.min(*n as f64),
            )
        }
    }
}

fn lower_scan(
    table: &Arc<crate::catalog::TableInfo>,
    binding: &str,
    predicate: Option<&Expr>,
) -> (PhysicalPlan, f64, f64) {
    let total = table.row_count().max(1) as f64;
    if let (Some(key_cols), Some(pred)) = (table.clustered_key(), predicate) {
        let schema = Schema::for_table(binding, table.columns.iter().map(|c| c.name.clone()));
        let mut conjuncts = split_conjuncts(pred);
        let mut bounds = SeekBounds::default();
        // Equality prefix over the clustered key.
        for &key_col in key_cols {
            let col_name = &table.columns[key_col].name;
            let pos = conjuncts
                .iter()
                .position(|c| extract_eq(c, &schema, col_name).is_some());
            match pos {
                Some(i) => {
                    let c = conjuncts.remove(i);
                    bounds
                        .eq_prefix
                        .push(extract_eq(&c, &schema, col_name).unwrap());
                }
                None => break,
            }
        }
        // Optional range on the next key column.
        if bounds.eq_prefix.len() < key_cols.len() {
            let next_col = &table.columns[key_cols[bounds.eq_prefix.len()]].name;
            conjuncts.retain(|c| {
                let Some((expr, op)) = extract_range(c, &schema, next_col) else {
                    return true;
                };
                let (edge, inclusive) = match op {
                    BinOp::Gt => (&mut bounds.lower, false),
                    BinOp::GtEq => (&mut bounds.lower, true),
                    BinOp::Lt => (&mut bounds.upper, false),
                    BinOp::LtEq => (&mut bounds.upper, true),
                    _ => unreachable!(),
                };
                // A second edge on the same side stays in the residual:
                // replacing the first would drop its conjunct.
                if edge.is_some() {
                    return true;
                }
                *edge = Some((expr, inclusive));
                false
            });
        }
        if !bounds.eq_prefix.is_empty() || bounds.lower.is_some() || bounds.upper.is_some() {
            let rows = if bounds.is_point(key_cols.len()) {
                1.0
            } else if !bounds.eq_prefix.is_empty() {
                (total.powf(1.0 - bounds.eq_prefix.len() as f64 / key_cols.len() as f64)).max(1.0)
            } else {
                (total / 10.0).max(1.0)
            };
            let cost = total.max(2.0).log2() + rows * 0.01;
            return (
                PhysicalPlan::IndexSeek {
                    table: table.clone(),
                    binding: binding.to_string(),
                    bounds,
                    residual: join_conjuncts(conjuncts),
                },
                cost,
                rows,
            );
        }
    }
    let selectivity = if predicate.is_some() { 0.1 } else { 1.0 };
    (
        PhysicalPlan::SeqScan {
            table: table.clone(),
            binding: binding.to_string(),
            predicate: predicate.cloned(),
        },
        total * 0.01 + 1.0,
        (total * selectivity).max(1.0),
    )
}

/// `col = <row-independent expr>` (either side) on `col_name` → the expr.
fn extract_eq(c: &Expr, schema: &Schema, col_name: &str) -> Option<Expr> {
    if let Expr::Binary {
        left,
        op: BinOp::Eq,
        right,
    } = c
    {
        for (col_side, val_side) in [(left, right), (right, left)] {
            if let Expr::Column { qualifier, name } = col_side.as_ref() {
                if name.eq_ignore_ascii_case(col_name)
                    && schema.resolve(qualifier.as_deref(), name).is_ok()
                    && is_row_independent(val_side)
                {
                    return Some((**val_side).clone());
                }
            }
        }
    }
    None
}

/// `col <op> <row-independent expr>` with a range operator → (expr, normalized op
/// as if the column were on the left).
fn extract_range(c: &Expr, schema: &Schema, col_name: &str) -> Option<(Expr, BinOp)> {
    if let Expr::Binary { left, op, right } = c {
        let flipped = |o: BinOp| match o {
            BinOp::Lt => BinOp::Gt,
            BinOp::Gt => BinOp::Lt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        };
        if !matches!(op, BinOp::Lt | BinOp::Gt | BinOp::LtEq | BinOp::GtEq) {
            return None;
        }
        // column on the left
        if let Expr::Column { qualifier, name } = left.as_ref() {
            if name.eq_ignore_ascii_case(col_name)
                && schema.resolve(qualifier.as_deref(), name).is_ok()
                && is_row_independent(right)
            {
                return Some(((**right).clone(), *op));
            }
        }
        // column on the right
        if let Expr::Column { qualifier, name } = right.as_ref() {
            if name.eq_ignore_ascii_case(col_name)
                && schema.resolve(qualifier.as_deref(), name).is_ok()
                && is_row_independent(left)
            {
                return Some(((**left).clone(), flipped(*op)));
            }
        }
    }
    None
}

fn lower_join(left: &LogicalPlan, right: &LogicalPlan, on: &Expr) -> (PhysicalPlan, f64, f64) {
    let (lp, lc, lr) = lower(left);
    let (rp, rc, rr) = lower(right);
    let lschema = lp.schema();
    let rschema = rp.schema();
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    for c in split_conjuncts(on) {
        if let Expr::Binary {
            left: a,
            op: BinOp::Eq,
            right: b,
        } = &c
        {
            let side = |e: &Expr| -> Option<u8> {
                if let Expr::Column { qualifier, name } = e {
                    if lschema.resolve(qualifier.as_deref(), name).is_ok() {
                        return Some(0);
                    }
                    if rschema.resolve(qualifier.as_deref(), name).is_ok() {
                        return Some(1);
                    }
                }
                None
            };
            match (side(a), side(b)) {
                (Some(0), Some(1)) => {
                    left_keys.push((**a).clone());
                    right_keys.push((**b).clone());
                    continue;
                }
                (Some(1), Some(0)) => {
                    left_keys.push((**b).clone());
                    right_keys.push((**a).clone());
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c);
    }
    if !left_keys.is_empty() {
        let out_rows = lr.max(rr);
        let cost = lc + rc + lr * 0.02 + rr * 0.02;
        (
            PhysicalPlan::HashJoin {
                left: Box::new(lp),
                right: Box::new(rp),
                left_keys,
                right_keys,
                residual: join_conjuncts(residual),
            },
            cost,
            out_rows.max(1.0),
        )
    } else {
        let on = join_conjuncts(residual).unwrap_or(Expr::lit(true));
        (
            PhysicalPlan::NestedLoopJoin {
                left: Box::new(lp),
                right: Box::new(rp),
                on,
            },
            lc + rc + lr * rr * 0.01,
            (lr * rr * 0.1).max(1.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_common::DataType;
    use sqlcm_storage::{BufferPool, InMemoryDisk};
    use std::sync::Arc as StdArc;

    fn catalog_with_tables() -> Catalog {
        let c = Catalog::new(StdArc::new(BufferPool::new(InMemoryDisk::shared(), 256)));
        let col = |n: &str, t: DataType| crate::catalog::ColumnInfo {
            name: n.into(),
            data_type: t,
            not_null: false,
        };
        c.create_table(
            "orders",
            vec![
                col("id", DataType::Int),
                col("cust", DataType::Int),
                col("status", DataType::Text),
            ],
            &["id".into()],
        )
        .unwrap();
        c.create_table(
            "lineitem",
            vec![
                col("okey", DataType::Int),
                col("line", DataType::Int),
                col("price", DataType::Float),
            ],
            &["okey".into(), "line".into()],
        )
        .unwrap();
        c.create_table("logs", vec![col("msg", DataType::Text)], &[])
            .unwrap();
        // Give the optimizer realistic cardinalities (tables are empty here).
        c.table("orders").unwrap().add_rows(10_000);
        c.table("lineitem").unwrap().add_rows(60_000);
        c.table("logs").unwrap().add_rows(1_000);
        c
    }

    fn plan(c: &Catalog, sql: &str) -> PlannedSelect {
        let stmt = sqlcm_sql::parse_statement(sql).unwrap();
        match stmt {
            sqlcm_sql::Statement::Select(s) => plan_select(c, &s).unwrap(),
            _ => panic!("not a select"),
        }
    }

    fn ops(p: &PhysicalPlan) -> Vec<&'static str> {
        let mut out = vec![p.op_name()];
        match p {
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::HashAggregate { input, .. } => out.extend(ops(input)),
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => {
                out.extend(ops(left));
                out.extend(ops(right));
            }
            _ => {}
        }
        out
    }

    #[test]
    fn point_select_uses_index_seek() {
        let c = catalog_with_tables();
        let p = plan(&c, "SELECT * FROM lineitem WHERE okey = 5 AND line = 2");
        let o = ops(&p.physical);
        assert!(o.contains(&"IndexSeek"), "{o:?}");
        assert!(!o.contains(&"SeqScan"));
        // Point seeks are far cheaper than scans.
        let scan = plan(&c, "SELECT * FROM lineitem WHERE price > 1.0");
        assert!(p.estimated_cost < scan.estimated_cost);
    }

    #[test]
    fn range_seek_on_key_prefix() {
        let c = catalog_with_tables();
        let p = plan(
            &c,
            "SELECT * FROM lineitem WHERE okey = 5 AND line > 1 AND price > 0",
        );
        match find_seek(&p.physical) {
            Some(PhysicalPlan::IndexSeek {
                bounds, residual, ..
            }) => {
                assert_eq!(bounds.eq_prefix.len(), 1);
                assert!(bounds.lower.is_some());
                assert!(residual.is_some(), "price predicate is residual");
            }
            _ => panic!("expected seek"),
        }
    }

    fn find_seek(p: &PhysicalPlan) -> Option<&PhysicalPlan> {
        match p {
            PhysicalPlan::IndexSeek { .. } => Some(p),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::HashAggregate { input, .. } => find_seek(input),
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => {
                find_seek(left).or_else(|| find_seek(right))
            }
            _ => None,
        }
    }

    #[test]
    fn equi_join_becomes_hash_join() {
        let c = catalog_with_tables();
        let p = plan(
            &c,
            "SELECT o.id FROM orders o JOIN lineitem l ON o.id = l.okey WHERE l.price > 5",
        );
        assert!(ops(&p.physical).contains(&"HashJoin"));
    }

    #[test]
    fn non_equi_join_is_nested_loop() {
        let c = catalog_with_tables();
        let p = plan(
            &c,
            "SELECT o.id FROM orders o JOIN lineitem l ON o.id < l.okey",
        );
        assert!(ops(&p.physical).contains(&"NestedLoopJoin"));
    }

    #[test]
    fn aggregate_rewrites_select_items() {
        let c = catalog_with_tables();
        let p = plan(
            &c,
            "SELECT status, COUNT(*) AS n, AVG(cust) FROM orders GROUP BY status HAVING COUNT(*) > 1 ORDER BY n DESC",
        );
        let o = ops(&p.physical);
        assert!(o.contains(&"HashAggregate"));
        assert!(o.contains(&"Sort"));
        assert_eq!(p.output_names, vec!["status", "n", "AVG(cust)"]);
    }

    #[test]
    fn order_by_unprojected_column_sorts_below_projection() {
        let c = catalog_with_tables();
        let p = plan(&c, "SELECT status FROM orders ORDER BY cust DESC");
        // Sort must sit below the projection (cust is dropped by the projection).
        let o = ops(&p.physical);
        let sort_pos = o.iter().position(|x| *x == "Sort").unwrap();
        let proj_pos = o.iter().position(|x| *x == "Project").unwrap();
        assert!(sort_pos > proj_pos, "{o:?}");
    }

    #[test]
    fn select_without_from() {
        let c = catalog_with_tables();
        let p = plan(&c, "SELECT 1 + 2 AS three");
        assert_eq!(p.output_names, vec!["three"]);
        assert!(ops(&p.physical).contains(&"Dual"));
    }

    #[test]
    fn heap_table_always_scans() {
        let c = catalog_with_tables();
        let p = plan(&c, "SELECT * FROM logs WHERE msg = 'x'");
        assert!(ops(&p.physical).contains(&"SeqScan"));
    }

    #[test]
    fn having_without_group_errors() {
        let c = catalog_with_tables();
        let stmt =
            sqlcm_sql::parse_statement("SELECT status FROM orders HAVING status > 'a'").unwrap();
        match stmt {
            sqlcm_sql::Statement::Select(s) => {
                assert!(plan_select(&c, &s).is_err())
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parameterized_point_select_still_seeks() {
        let c = catalog_with_tables();
        let p = plan(&c, "SELECT * FROM orders WHERE id = ?");
        assert!(ops(&p.physical).contains(&"IndexSeek"));
    }
}
