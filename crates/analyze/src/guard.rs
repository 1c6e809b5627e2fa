//! Dispatch-guard extraction: can one probe of the event payload prove a
//! rule's condition cannot hold?
//!
//! The runtime's guard index (`sqlcm-core::guard`) prunes a rule without
//! running its condition when a *guard* — one conjunct of the condition's
//! top-level `AND` chain, of the shape `attr <op> const` / `attr IN (…)`
//! over a payload attribute — is violated by the event. [`rule_guard`] is the
//! only place that decides which guard a rule gets, or why it gets none:
//! registration stores its verdict for the index to install, and W205 and the
//! `lint_rules` example print the same verdict, so lint and dispatch cannot
//! disagree.
//!
//! ## Soundness contract
//!
//! A rule may be pruned only when a violated guard implies the whole
//! condition cannot evaluate to `TRUE` *and* cannot evaluate to `Err` —
//! skipping an evaluation that would have recorded an error would make the
//! index observable in rule statistics. Both halves are structural:
//!
//! * **No-fire**: under SQL three-valued logic a violated conjunct evaluates
//!   to `FALSE` or `NULL`, and `AND` can then never yield `TRUE` — regardless
//!   of what the other conjuncts do.
//! * **No-error**: a rule gets a guard only when its condition is
//!   *infallible in context*: no LAT reads (mutable mid-event, and a missing
//!   row poisons the condition), no checked arithmetic (`+ - * /`, unary
//!   `-`), and every attribute read is of a class the event payload carries.
//!   Any other rule is [`Residual`]: always evaluated, never mis-pruned.
//!
//! Extraction runs over the *folded* condition — the IR the runtime compiles
//! — so `x > 1 + 2` guards exactly like `x > 3`.

use std::cmp::Ordering;
use std::fmt;

use sqlcm_common::Value;
use sqlcm_sql::{BinOp, ExprIr, IrOp, NodeId, UnaryOp};

use crate::{ClassName, RuleIr};

/// One endpoint of a range guard, kept as the exact [`Value`] so admission
/// checks use the VM's own comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub value: Value,
    /// Exclusive (`<` / `>`) rather than inclusive.
    pub strict: bool,
}

/// What a guard admits.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardKind {
    /// `attr = const` or `attr IN (…)`: the attribute must be one of these
    /// (non-null) values. Empty when only `NULL` was listed — no value
    /// compares `TRUE`, the rule can never fire.
    Eq(Vec<Value>),
    /// Every numeric range conjunct over the attribute, merged to the
    /// tightest interval (possibly empty: `x > 5 AND x < 3`).
    Range {
        lo: Option<Bound>,
        hi: Option<Bound>,
    },
}

/// The guard extracted from one rule: the class, the attribute's position
/// in the class's value layout (what the runtime's index probes), and the
/// admitted set.
#[derive(Debug, Clone, PartialEq)]
pub struct Guard {
    pub class: ClassName,
    pub attr: usize,
    pub kind: GuardKind,
}

impl Guard {
    /// Guard provably empty (`x IN (NULL)`, `x > 5 AND x < 3`): the rule can
    /// never fire and is always pruned.
    pub fn never(&self) -> bool {
        match &self.kind {
            GuardKind::Eq(values) => values.is_empty(),
            GuardKind::Range {
                lo: Some(l),
                hi: Some(h),
            } => match l.value.cmp(&h.value) {
                Ordering::Greater => true,
                Ordering::Equal => l.strict || h.strict,
                Ordering::Less => false,
            },
            GuardKind::Range { .. } => false,
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = match &self.kind {
            GuardKind::Eq(values) if values.len() > 1 => "membership",
            GuardKind::Eq(_) => "equality",
            GuardKind::Range { .. } => "range",
        };
        let schema = self.class.schema().expect("guards are on built-in classes");
        write!(f, "{shape} on {}.{}", self.class, schema.attrs[self.attr].0)
    }
}

/// Why a rule is residual (never pruned by the guard index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residual {
    /// No condition: the rule fires on every event of its class.
    Unconditional,
    /// The condition reads LAT state, which mutates mid-stream and can
    /// error; a violated payload guard cannot prove it false.
    ReadsLat,
    /// The condition reads a class outside the event payload (an iterated
    /// class), so one payload probe cannot stand in for all combinations.
    NonPayloadClass,
    /// The condition contains arithmetic or a function call that can raise
    /// an error; under the error contract the rule must run to surface it.
    FallibleExpr,
    /// Payload-only and infallible, but no top-level conjunct has an
    /// indexable shape (`attr = const`, `attr IN (…)`, `attr <op> const`).
    NoGuardAtom,
}

impl Residual {
    pub fn describe(self) -> &'static str {
        match self {
            Residual::Unconditional => "no condition — fires on every event of its class",
            Residual::ReadsLat => "condition reads LAT state, which a payload guard cannot vouch for",
            Residual::NonPayloadClass => "condition reads a class outside the event payload",
            Residual::FallibleExpr => {
                "condition contains arithmetic or a function call that can error"
            }
            Residual::NoGuardAtom => {
                "no top-level conjunct is an indexable atom (attr = const, attr IN (…), attr <op> const)"
            }
        }
    }
}

/// The dispatch guard of `rule`, or the reason it is always evaluated.
///
/// One guard per rule: the first equality/`IN` conjunct wins (a point probe
/// beats a range sweep); otherwise every range conjunct over the first
/// ranged attribute is merged into one interval.
pub fn rule_guard(rule: &RuleIr) -> Result<Guard, Residual> {
    let Some(cond) = &rule.condition else {
        return Err(Residual::Unconditional);
    };
    let ir = cond.folded();
    let (classes, lats) = rule.refs();
    if !lats.is_empty() {
        return Err(Residual::ReadsLat);
    }
    let payload = rule.event.payload_classes();
    if !classes.iter().all(|c| payload.contains(c)) {
        return Err(Residual::NonPayloadClass);
    }
    // Whole-arena fallibility scan: a fallible node anywhere — even under a
    // never-taken branch — keeps the rule residual, because the VM's error
    // contract evaluates both AND/OR operands unless provably infallible.
    // (Parameters and function calls never reach the runtime — typeck denies
    // them — but an offline verdict must not call them prunable.)
    let fallible = ir.ops.iter().any(|op| {
        matches!(
            op,
            IrOp::Unary {
                op: UnaryOp::Neg,
                ..
            } | IrOp::Binary {
                op: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div,
                ..
            } | IrOp::FuncCall { .. }
                | IrOp::Param(_)
                | IrOp::NamedParam(_)
        )
    });
    if fallible {
        return Err(Residual::FallibleExpr);
    }
    let mut conj = Vec::new();
    conjuncts(ir, ir.root, &mut conj);
    let mut range: Option<Guard> = None;
    for id in conj {
        let Some(atom) = atom_of(ir, id) else {
            continue;
        };
        let GuardKind::Range { lo, hi } = atom.kind else {
            return Ok(atom);
        };
        match &mut range {
            None => {
                range = Some(Guard {
                    kind: GuardKind::Range { lo, hi },
                    ..atom
                })
            }
            Some(Guard {
                class,
                attr,
                kind: GuardKind::Range { lo: rlo, hi: rhi },
            }) if *class == atom.class && *attr == atom.attr => {
                if let Some(b) = lo {
                    tighten(rlo, b, Ordering::Greater);
                }
                if let Some(b) = hi {
                    tighten(rhi, b, Ordering::Less);
                }
            }
            Some(_) => {}
        }
    }
    range.ok_or(Residual::NoGuardAtom)
}

/// Keep the tighter of two same-side bounds: the one comparing `tighter`
/// (larger for a lower bound, smaller for an upper); at a tie, strict
/// dominates.
fn tighten(cur: &mut Option<Bound>, new: Bound, tighter: Ordering) {
    match cur {
        None => *cur = Some(new),
        Some(b) => match new.value.cmp(&b.value) {
            Ordering::Equal => b.strict |= new.strict,
            o if o == tighter => *cur = Some(new),
            _ => {}
        },
    }
}

/// Split the top-level `AND` chain into conjunct roots.
fn conjuncts(ir: &ExprIr, id: NodeId, out: &mut Vec<NodeId>) {
    if let IrOp::Binary {
        left,
        op: BinOp::And,
        right,
    } = ir.op(id)
    {
        conjuncts(ir, *left, out);
        conjuncts(ir, *right, out);
    } else {
        out.push(id);
    }
}

/// The comparison with operands swapped (`5 < attr` ⇒ `attr > 5`).
fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::GtEq => BinOp::LtEq,
        _ => return None,
    })
}

/// Class and attribute position of a qualified class-attribute reference.
fn class_attr(ir: &ExprIr, id: NodeId) -> Option<(ClassName, usize)> {
    let IrOp::Ref(r) = ir.op(id) else { return None };
    let (qualifier, name) = &ir.refs[*r as usize];
    let class = ClassName::parse(qualifier.as_deref()?)?;
    let attr = class.schema()?.attr_index(name)?;
    Some((class, attr))
}

/// Lift one conjunct into a guard atom, if it has an indexable shape.
fn atom_of(ir: &ExprIr, id: NodeId) -> Option<Guard> {
    match ir.op(id) {
        IrOp::Binary { left, op, right } => {
            let (attr_node, cval, op) = match (ir.const_value(*left), ir.const_value(*right)) {
                (None, Some(c)) => (*left, c, *op),
                (Some(c), None) => (*right, c, flip(*op)?),
                _ => return None,
            };
            let (class, attr) = class_attr(ir, attr_node)?;
            let kind = match op {
                BinOp::Eq if cval.is_null() => GuardKind::Eq(Vec::new()),
                BinOp::Eq => GuardKind::Eq(vec![cval.clone()]),
                BinOp::Lt | BinOp::Gt | BinOp::LtEq | BinOp::GtEq => {
                    // Range guards take numeric bounds only: the index's f64
                    // sweep key is only order-consistent with `Value::cmp`
                    // within the numeric rank, and a NaN bound would poison
                    // its sort order.
                    match cval {
                        Value::Int(_) => {}
                        Value::Float(f) if !f.is_nan() => {}
                        _ => return None,
                    }
                    let bound = Some(Bound {
                        value: cval.clone(),
                        strict: matches!(op, BinOp::Lt | BinOp::Gt),
                    });
                    if matches!(op, BinOp::Gt | BinOp::GtEq) {
                        GuardKind::Range {
                            lo: bound,
                            hi: None,
                        }
                    } else {
                        GuardKind::Range {
                            lo: None,
                            hi: bound,
                        }
                    }
                }
                _ => return None,
            };
            Some(Guard { class, attr, kind })
        }
        IrOp::InList {
            expr,
            list,
            negated: false,
        } => {
            let (class, attr) = class_attr(ir, *expr)?;
            let mut values = Vec::new();
            for m in &ir.lists[*list as usize] {
                // A null member can never compare TRUE; it just drops out.
                let v = ir.const_value(*m)?;
                if !v.is_null() {
                    values.push(v.clone());
                }
            }
            Some(Guard {
                class,
                attr,
                kind: GuardKind::Eq(values),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, Condition, RuleEvent};

    fn verdict(event: RuleEvent, cond: Option<&str>) -> Result<Guard, Residual> {
        let rule = RuleIr {
            name: "r".into(),
            event,
            condition: cond.map(|c| Condition::lower(&sqlcm_sql::parse_expression(c).unwrap())),
            actions: vec![Action::send_mail("dba", "x")],
        };
        rule_guard(&rule)
    }

    fn query_attr(attr: &str) -> usize {
        ClassName::Query.schema().unwrap().attr_index(attr).unwrap()
    }

    fn eq(attr: &str, values: &[Value]) -> Result<Guard, Residual> {
        Ok(Guard {
            class: ClassName::Query,
            attr: query_attr(attr),
            kind: GuardKind::Eq(values.to_vec()),
        })
    }

    fn range(lo: Option<(i64, bool)>, hi: Option<(i64, bool)>) -> Result<Guard, Residual> {
        let bound = |(v, strict)| Bound {
            value: Value::Int(v),
            strict,
        };
        Ok(Guard {
            class: ClassName::Query,
            attr: query_attr("Duration"),
            kind: GuardKind::Range {
                lo: lo.map(bound),
                hi: hi.map(bound),
            },
        })
    }

    #[test]
    fn verdict_table() {
        let ints = |vs: &[i64]| vs.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>();
        let cases: Vec<(&str, Result<Guard, Residual>)> = vec![
            // Equality and membership; equality wins over a range wherever
            // it sits in the chain, and names come back canonical.
            ("query.user = 'bob'", eq("User", &[Value::text("bob")])),
            (
                "Query.Duration > 2 AND Query.User = 'bob'",
                eq("User", &[Value::text("bob")]),
            ),
            ("Query.ID IN (1, 2, 3)", eq("ID", &ints(&[1, 2, 3]))),
            // NULL can never compare TRUE: it drops out of the value set.
            ("Query.ID IN (1, NULL)", eq("ID", &ints(&[1]))),
            ("Query.ID IN (NULL)", eq("ID", &[])),
            ("Query.ID = NULL", eq("ID", &[])),
            // Constant-on-the-left comparisons flip; folded arithmetic
            // guards like its literal.
            ("100 <= Query.Duration", range(Some((100, false)), None)),
            ("Query.Duration > 1 + 2", range(Some((3, true)), None)),
            // Range conjuncts over the first ranged attribute merge to the
            // tightest interval (strict wins a tie); other attributes'
            // ranges are ignored; emptiness is the index's business.
            (
                "Query.Duration > 100 AND Query.Duration <= 500 AND Query.Duration > 50 \
                 AND Query.Estimated_Cost < 9",
                range(Some((100, true)), Some((500, false))),
            ),
            (
                "Query.Duration >= 5 AND Query.Duration > 5",
                range(Some((5, true)), None),
            ),
            (
                "Query.Duration > 5 AND Query.Duration < 3",
                range(Some((5, true)), Some((3, true))),
            ),
            // Non-numeric bounds are not range atoms.
            ("Query.User > 'm'", Err(Residual::NoGuardAtom)),
            // Residual reasons.
            ("Win.Avg_D > 1", Err(Residual::ReadsLat)),
            ("Session.Success = TRUE", Err(Residual::NonPayloadClass)),
            (
                "Query.Duration - Query.Estimated_Cost > 1",
                Err(Residual::FallibleExpr),
            ),
            (
                "Query.User = 'a' AND -Query.Duration < 0",
                Err(Residual::FallibleExpr),
            ),
            ("ABS(Query.Duration) > 1", Err(Residual::FallibleExpr)),
            ("Query.Query_Text LIKE '%DROP%'", Err(Residual::NoGuardAtom)),
            ("Query.ID NOT IN (1, 2)", Err(Residual::NoGuardAtom)),
            // A disjunction has no top-level conjunct to violate.
            (
                "Query.User = 'a' OR Query.Duration > 1",
                Err(Residual::NoGuardAtom),
            ),
        ];
        for (cond, want) in cases {
            assert_eq!(verdict(RuleEvent::QueryCommit, Some(cond)), want, "{cond}");
        }
        assert_eq!(
            verdict(RuleEvent::QueryCommit, None),
            Err(Residual::Unconditional)
        );
        // The same condition is residual on an event that lacks the class.
        assert_eq!(
            verdict(RuleEvent::Login, Some("Query.Duration > 1")),
            Err(Residual::NonPayloadClass)
        );
    }

    #[test]
    fn guards_describe_their_shape() {
        let show = |c| {
            verdict(RuleEvent::QueryCommit, Some(c))
                .unwrap()
                .to_string()
        };
        assert_eq!(show("Query.User = 'alice'"), "equality on Query.User");
        assert_eq!(
            show("Query.Logical_Signature IN (1, 2, 3)"),
            "membership on Query.Logical_Signature"
        );
        assert_eq!(show("3 < Query.Duration"), "range on Query.Duration");
    }
}
