//! Logical and physical query plans.
//!
//! The optimizer builds a [`LogicalPlan`] from the bound AST, then lowers it to a
//! [`PhysicalPlan`]. Both trees linearize into the paper's *signatures*
//! (`crate::signature`): the logical tree gives the logical query signature, the
//! physical tree — with its access-path and join-algorithm choices — gives the
//! physical plan signature ("logical query plans may result in vastly different
//! execution plans, requiring an additional signature on the execution plan",
//! §4.2).

use std::sync::Arc;

use sqlcm_common::{Error, Result};
use sqlcm_sql::agg::AggFunc;
use sqlcm_sql::Expr;

use crate::catalog::TableInfo;
use crate::expr::Schema;

/// The aggregate a SQL call is, if any: `COUNT(*)` is [`AggFunc::Count`]
/// with no argument, which counts rows; any other aggregate call takes one
/// argument. An aggregate name called any other way (`SUM(*)`, `COUNT()`,
/// `SUM(a, b)`) is a parse error, so the planner refuses the statement.
pub(crate) fn agg_func(name: &str, args: &[Expr], star: bool) -> Result<Option<AggFunc>> {
    let func = AggFunc::parse(name);
    let well_formed = if star {
        func == Some(AggFunc::Count)
    } else {
        args.len() == 1
    };
    match func {
        Some(_) if !well_formed => Err(Error::Parse(format!("malformed aggregate call {name}"))),
        _ => Ok(func),
    }
}

/// One aggregate computation in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Argument expression over the input schema; `None` for `COUNT(*)`.
    pub arg: Option<Expr>,
    /// Output column name (the canonical printed form, e.g. `SUM(l.price)`).
    pub name: String,
}

/// Index-seek bounds: an equality prefix over the clustered key, optionally
/// followed by a range condition on the next key column. All expressions are
/// row-independent (literals/params) and evaluated once at execution start.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeekBounds {
    pub eq_prefix: Vec<Expr>,
    /// (lower, upper) on the key column after the prefix; bool = inclusive.
    pub lower: Option<(Expr, bool)>,
    pub upper: Option<(Expr, bool)>,
}

impl SeekBounds {
    /// A full-key point lookup?
    pub fn is_point(&self, key_len: usize) -> bool {
        self.eq_prefix.len() == key_len && self.lower.is_none() && self.upper.is_none()
    }
}

/// The logical plan.
#[derive(Clone)]
pub enum LogicalPlan {
    /// Base table access, no access path chosen yet.
    Scan {
        table: Arc<TableInfo>,
        binding: String,
        /// Pushed-down conjuncts.
        predicate: Option<Expr>,
    },
    /// A one-row, zero-column relation (`SELECT 1`).
    Dual,
    Filter {
        predicate: Expr,
        input: Box<LogicalPlan>,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        on: Expr,
    },
    Aggregate {
        group_by: Vec<Expr>,
        aggs: Vec<AggSpec>,
        input: Box<LogicalPlan>,
    },
    Project {
        exprs: Vec<(Expr, String)>,
        input: Box<LogicalPlan>,
    },
    Sort {
        keys: Vec<(Expr, bool)>,
        input: Box<LogicalPlan>,
    },
    Limit {
        n: u64,
        input: Box<LogicalPlan>,
    },
}

/// The physical plan.
#[derive(Clone)]
pub enum PhysicalPlan {
    DualScan,
    /// Full-table scan (B-tree leaf walk or heap walk) with inline predicate.
    SeqScan {
        table: Arc<TableInfo>,
        binding: String,
        predicate: Option<Expr>,
    },
    /// Clustered-index seek. `residual` holds conjuncts not covered by bounds.
    IndexSeek {
        table: Arc<TableInfo>,
        binding: String,
        bounds: SeekBounds,
        residual: Option<Expr>,
    },
    Filter {
        predicate: Expr,
        input: Box<PhysicalPlan>,
    },
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        on: Expr,
    },
    /// Build on right, probe with left. `left_keys[i]` pairs with `right_keys[i]`.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        residual: Option<Expr>,
    },
    HashAggregate {
        group_by: Vec<Expr>,
        aggs: Vec<AggSpec>,
        input: Box<PhysicalPlan>,
    },
    Project {
        exprs: Vec<(Expr, String)>,
        input: Box<PhysicalPlan>,
    },
    Sort {
        keys: Vec<(Expr, bool)>,
        input: Box<PhysicalPlan>,
    },
    Limit {
        n: u64,
        input: Box<PhysicalPlan>,
    },
}

fn table_schema(table: &TableInfo, binding: &str) -> Schema {
    Schema::for_table(binding, table.columns.iter().map(|c| c.name.clone()))
}

fn agg_schema(group_by: &[Expr], aggs: &[AggSpec]) -> Schema {
    let mut cols: Vec<(Option<String>, String)> = group_by
        .iter()
        .map(|g| match g {
            // Simple columns keep their name (and qualifier) so downstream
            // references resolve naturally.
            Expr::Column { qualifier, name } => (qualifier.clone(), name.clone()),
            other => (None, other.to_string()),
        })
        .collect();
    cols.extend(aggs.iter().map(|a| (None, a.name.clone())));
    Schema::new(cols)
}

impl LogicalPlan {
    /// Output schema of this operator.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::Scan { table, binding, .. } => table_schema(table, binding),
            LogicalPlan::Dual => Schema::default(),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Join { left, right, .. } => left.schema().join(&right.schema()),
            LogicalPlan::Aggregate { group_by, aggs, .. } => agg_schema(group_by, aggs),
            LogicalPlan::Project { exprs, .. } => {
                Schema::new(exprs.iter().map(|(_, n)| (None, n.clone())).collect())
            }
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }
}

impl PhysicalPlan {
    /// Output schema of this operator.
    pub fn schema(&self) -> Schema {
        match self {
            PhysicalPlan::DualScan => Schema::default(),
            PhysicalPlan::SeqScan { table, binding, .. }
            | PhysicalPlan::IndexSeek { table, binding, .. } => table_schema(table, binding),
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => left.schema().join(&right.schema()),
            PhysicalPlan::HashAggregate { group_by, aggs, .. } => agg_schema(group_by, aggs),
            PhysicalPlan::Project { exprs, .. } => {
                Schema::new(exprs.iter().map(|(_, n)| (None, n.clone())).collect())
            }
            PhysicalPlan::Sort { input, .. } => input.schema(),
            PhysicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Render the plan as indented EXPLAIN output lines.
    pub fn explain_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut Vec<String>) {
        let pad = "  ".repeat(depth);
        let line = match self {
            PhysicalPlan::DualScan => "Dual".to_string(),
            PhysicalPlan::SeqScan {
                table, predicate, ..
            } => match predicate {
                Some(p) => format!("SeqScan {} WHERE {p}", table.name),
                None => format!("SeqScan {}", table.name),
            },
            PhysicalPlan::IndexSeek {
                table,
                bounds,
                residual,
                ..
            } => {
                let mut s = format!(
                    "IndexSeek {} (eq prefix: {}{})",
                    table.name,
                    bounds.eq_prefix.len(),
                    if bounds.lower.is_some() || bounds.upper.is_some() {
                        ", range"
                    } else {
                        ""
                    }
                );
                if let Some(r) = residual {
                    s.push_str(&format!(" WHERE {r}"));
                }
                s
            }
            PhysicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            PhysicalPlan::NestedLoopJoin { on, .. } => format!("NestedLoopJoin ON {on}"),
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                ..
            } => format!(
                "HashJoin ({} = {})",
                left_keys
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                right_keys
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            PhysicalPlan::HashAggregate { group_by, aggs, .. } => format!(
                "HashAggregate group=[{}] aggs=[{}]",
                group_by
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                aggs.iter()
                    .map(|a| a.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            PhysicalPlan::Project { exprs, .. } => format!(
                "Project [{}]",
                exprs
                    .iter()
                    .map(|(_, n)| n.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            PhysicalPlan::Sort { keys, .. } => format!(
                "Sort [{}]",
                keys.iter()
                    .map(|(e, d)| format!("{e}{}", if *d { " DESC" } else { "" }))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            PhysicalPlan::Limit { n, .. } => format!("Limit {n}"),
        };
        out.push(format!("{pad}{line}"));
        match self {
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::HashAggregate { input, .. } => input.explain_into(depth + 1, out),
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => {
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            _ => {}
        }
    }

    /// Operator name, used by the physical signature and EXPLAIN-style tests.
    pub fn op_name(&self) -> &'static str {
        match self {
            PhysicalPlan::DualScan => "Dual",
            PhysicalPlan::SeqScan { .. } => "SeqScan",
            PhysicalPlan::IndexSeek { .. } => "IndexSeek",
            PhysicalPlan::Filter { .. } => "Filter",
            PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin",
            PhysicalPlan::HashJoin { .. } => "HashJoin",
            PhysicalPlan::HashAggregate { .. } => "HashAggregate",
            PhysicalPlan::Project { .. } => "Project",
            PhysicalPlan::Sort { .. } => "Sort",
            PhysicalPlan::Limit { .. } => "Limit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_func_parse() {
        let x = [Expr::col("x")];
        assert_eq!(agg_func("COUNT", &[], true), Ok(Some(AggFunc::Count)));
        assert_eq!(agg_func("COUNT", &x, false), Ok(Some(AggFunc::Count)));
        assert_eq!(agg_func("STDEV", &x, false), Ok(Some(AggFunc::StdDev)));
        assert_eq!(agg_func("STDDEV", &x, false), Ok(Some(AggFunc::StdDev)));
        assert_eq!(agg_func("ABS", &x, false), Ok(None));
        assert_eq!(agg_func("FIRST", &x, false), Ok(None));
        assert!(agg_func("SUM", &[], true).is_err());
        assert!(agg_func("COUNT", &[], false).is_err());
        assert!(agg_func("SUM", &[Expr::col("x"), Expr::col("y")], false).is_err());
    }

    #[test]
    fn seek_bounds_point() {
        let b = SeekBounds {
            eq_prefix: vec![Expr::lit(1), Expr::lit(2)],
            lower: None,
            upper: None,
        };
        assert!(b.is_point(2));
        assert!(!b.is_point(3));
        let b = SeekBounds {
            eq_prefix: vec![Expr::lit(1)],
            lower: Some((Expr::lit(0), true)),
            upper: None,
        };
        assert!(!b.is_point(1));
    }

    #[test]
    fn agg_schema_names() {
        let s = agg_schema(
            &[
                Expr::qcol("t", "a"),
                Expr::bin(Expr::col("b"), sqlcm_sql::BinOp::Add, Expr::lit(1)),
            ],
            &[AggSpec {
                func: AggFunc::Sum,
                arg: Some(Expr::col("c")),
                name: "SUM(c)".into(),
            }],
        );
        assert_eq!(s.resolve(Some("t"), "a").unwrap(), 0);
        assert_eq!(s.resolve(None, "b + 1").unwrap(), 1);
        assert_eq!(s.resolve(None, "SUM(c)").unwrap(), 2);
    }
}
