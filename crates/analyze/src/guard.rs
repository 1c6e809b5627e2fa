//! Dispatch-guard extraction: can one look at what an event already holds
//! prove a rule's condition cannot hold?
//!
//! The runtime prunes a rule without running its condition when a *guard* is
//! violated. A guard is the merged conjuncts of the condition's top-level
//! `AND` chain of the shape `x <op> const` / `x IN (…)` over one operand `x`.
//! A rule gets up to two, one per kind of operand:
//!
//! * a **payload guard** over a payload attribute (`Query.User = 'bob'`),
//!   which `sqlcm-core::guard`'s index probes once per event for all rules;
//! * a **LAT guard** over a LAT column (`Sig_LAT.N >= 30`), which the same
//!   index probes against the row the event hoisted, once per writer-free
//!   segment of the walk.
//!
//! [`rule_guard`] is the only place that decides which guards a rule gets, or
//! why it gets none: registration stores its verdict for dispatch to install,
//! and W205 and the `lint_rules` example print the same verdict, so lint and
//! dispatch cannot disagree.
//!
//! A verdict **decides** its condition ([`Guards::decides`]) when its guards
//! absorbed every top-level conjunct: the condition is then exactly the
//! guards' admission, and on a probed event dispatch counts the index's
//! admission of the rule as its evaluation and runs no program.
//!
//! ## Soundness contract
//!
//! A rule may be pruned only when a violated guard implies the whole
//! condition cannot evaluate to `TRUE` *and* cannot evaluate to `Err` —
//! skipping an evaluation that would have recorded an error would make the
//! pruning observable in rule statistics. Both halves are structural:
//!
//! * **No-fire**: under SQL three-valued logic a violated conjunct evaluates
//!   to `FALSE` or `NULL`, and `AND` can then never yield `TRUE` — regardless
//!   of what the other conjuncts do. A missing LAT row (implicit ∃, paper
//!   §5.2) makes the whole condition false, so it violates every LAT guard
//!   on its LAT.
//! * **No-error**: a rule gets a guard only when its condition is
//!   *infallible in context*: no checked arithmetic (`+ - * /`, unary `-`),
//!   no function call, and every attribute read is of a class the event
//!   payload carries. Reading a LAT cannot fail — a missing row poisons the
//!   condition to false, not to an error. Any other rule is [`Residual`]:
//!   always evaluated, never mis-pruned.
//!
//! A verdict that decides its condition needs the converse half too:
//!
//! * **Admitted-is-true**: admission tests a non-null value with the VM's
//!   own [`Value`] equality (`=`, `IN`) and order (`<`, `<=`, `>`, `>=`), so
//!   an absorbed conjunct whose guard admits the value evaluates to `TRUE` —
//!   a NULL value or a NULL `IN` member is admitted by nothing, and a LAT
//!   guard admits only a row the LAT holds. When every top-level conjunct is
//!   absorbed, an admitted rule's `AND` chain is `TRUE`, and infallibility
//!   means it could not have errored instead.
//!
//! A LAT guard adds one runtime condition: the row it is checked against must
//! be the one the condition would read. A LAT's rows change mid-event (an
//! earlier rule's `Insert` or `Reset`), so one probe's verdict covers only
//! the rules up to and including the next rule that writes the LAT: the row
//! cannot change between two rules unless such a writer fires.
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
    /// `x = const` or `x IN (…)`: the operand must be one of these
    /// (non-null) values. Empty when only `NULL` was listed — no value
    /// compares `TRUE`, the rule can never fire.
    Eq(Vec<Value>),
    /// Every numeric range conjunct over the operand, merged to the
    /// tightest interval (possibly empty: `x > 5 AND x < 3`).
    Range {
        lo: Option<Bound>,
        hi: Option<Bound>,
    },
}

impl GuardKind {
    /// Provably empty (`x IN (NULL)`, `x > 5 AND x < 3`): no value is
    /// admitted, the rule can never fire.
    pub fn never(&self) -> bool {
        match self {
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

    fn shape(&self) -> &'static str {
        match self {
            GuardKind::Eq(values) if values.len() > 1 => "membership",
            GuardKind::Eq(_) => "equality",
            GuardKind::Range { .. } => "range",
        }
    }
}

/// A payload guard: the class, the attribute's position in the class's value
/// layout (what the runtime's index probes), and the admitted set.
#[derive(Debug, Clone, PartialEq)]
pub struct Guard {
    pub class: ClassName,
    pub attr: usize,
    pub kind: GuardKind,
}

impl Guard {
    /// Guard provably empty: the rule can never fire and is always pruned.
    pub fn never(&self) -> bool {
        self.kind.never()
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let schema = self.class.schema().expect("guards are on built-in classes");
        let attr = &schema.attrs[self.attr].0;
        write!(f, "{} on {}.{attr}", self.kind.shape(), self.class)
    }
}

/// A LAT guard: one column of one LAT the condition reads, by the names the
/// condition uses (both resolve case-insensitively), and the admitted set.
#[derive(Debug, Clone, PartialEq)]
pub struct LatGuard {
    pub lat: String,
    pub column: String,
    pub kind: GuardKind,
}

impl fmt::Display for LatGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}.{}", self.kind.shape(), self.lat, self.column)
    }
}

/// The guards of a rule whose condition is infallible in context: at least
/// one of the two is set.
#[derive(Debug, Clone, PartialEq)]
pub struct Guards {
    pub payload: Option<Guard>,
    pub lat: Option<LatGuard>,
    /// The guards absorbed every top-level conjunct of the folded condition:
    /// admitted by both is the condition `TRUE`, refused by either is it not
    /// (module docs, "Admitted-is-true").
    pub decides: bool,
}

impl fmt::Display for Guards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.payload, &self.lat) {
            (Some(p), Some(l)) => write!(f, "{p}; LAT guard: {l}")?,
            (Some(p), None) => write!(f, "{p}")?,
            (None, Some(l)) => write!(f, "LAT guard: {l}")?,
            (None, None) => write!(f, "no guard")?,
        }
        if self.decides {
            write!(f, "; decides the condition")?;
        }
        Ok(())
    }
}

/// Why a rule has no guard (is never pruned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residual {
    /// No condition: the rule fires on every event of its class.
    Unconditional,
    /// The condition reads a class outside the event payload (an iterated
    /// class), so one payload probe cannot stand in for all combinations.
    NonPayloadClass,
    /// The condition contains arithmetic or a function call that can raise
    /// an error; under the error contract the rule must run to surface it.
    FallibleExpr,
    /// Infallible, but no top-level conjunct has an indexable shape
    /// (`x = const`, `x IN (…)`, `x <op> const` over a payload attribute or
    /// a LAT column).
    NoGuardAtom,
}

impl Residual {
    pub fn describe(self) -> &'static str {
        match self {
            Residual::Unconditional => "no condition — fires on every event of its class",
            Residual::NonPayloadClass => "condition reads a class outside the event payload",
            Residual::FallibleExpr => {
                "condition contains arithmetic or a function call that can error"
            }
            Residual::NoGuardAtom => {
                "no top-level conjunct is an indexable atom (x = const, x IN (…), x <op> const)"
            }
        }
    }
}

/// The dispatch guards of `rule`, or the reason it is always evaluated.
///
/// At most one guard per kind of operand: the first equality/`IN` conjunct
/// wins (a point probe beats a range sweep); otherwise every range conjunct
/// over the first ranged operand is merged into one interval. The guards
/// decide the condition when no conjunct is left over: each is an atom, and
/// each went into the guard of its kind.
pub fn rule_guard(rule: &RuleIr) -> Result<Guards, Residual> {
    let Some(cond) = &rule.condition else {
        return Err(Residual::Unconditional);
    };
    let ir = cond.folded();
    let (classes, _) = rule.refs();
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
    let mut attrs = Pick::default();
    let mut lat_cols = Pick::default();
    for &id in &conj {
        match atom_of(ir, id) {
            Some((Operand::Attr(class, attr), kind)) => attrs.offer((class, attr), kind),
            Some((Operand::LatCol(lat, column), kind)) => lat_cols.offer(LatCol(lat, column), kind),
            None => {}
        }
    }
    let absorbed = attrs.absorbed() + lat_cols.absorbed();
    let guards = Guards {
        payload: attrs
            .chosen()
            .map(|((class, attr), kind)| Guard { class, attr, kind }),
        lat: lat_cols
            .chosen()
            .map(|(LatCol(lat, column), kind)| LatGuard { lat, column, kind }),
        decides: absorbed == conj.len(),
    };
    match guards {
        Guards {
            payload: None,
            lat: None,
            ..
        } => Err(Residual::NoGuardAtom),
        guards => Ok(guards),
    }
}

/// The guard of one kind of operand, built conjunct by conjunct: the first
/// equality, or the merged ranges over the first ranged operand.
struct Pick<K> {
    eq: Option<(K, GuardKind)>,
    range: Option<(K, GuardKind)>,
    /// Range conjuncts merged into `range`.
    merged: usize,
}

impl<K> Default for Pick<K> {
    fn default() -> Self {
        Pick {
            eq: None,
            range: None,
            merged: 0,
        }
    }
}

impl<K: PartialEq> Pick<K> {
    fn offer(&mut self, key: K, kind: GuardKind) {
        let GuardKind::Range { lo, hi } = kind else {
            self.eq.get_or_insert((key, kind));
            return;
        };
        match &mut self.range {
            None => self.range = Some((key, GuardKind::Range { lo, hi })),
            Some((k, GuardKind::Range { lo: rlo, hi: rhi })) if *k == key => {
                if let Some(b) = lo {
                    tighten(rlo, b, Ordering::Greater);
                }
                if let Some(b) = hi {
                    tighten(rhi, b, Ordering::Less);
                }
            }
            Some(_) => return,
        }
        self.merged += 1;
    }

    /// How many of the offered conjuncts the chosen guard stands for.
    fn absorbed(&self) -> usize {
        match self.eq {
            Some(_) => 1,
            None => self.merged,
        }
    }

    fn chosen(self) -> Option<(K, GuardKind)> {
        self.eq.or(self.range)
    }
}

/// A LAT column by the names the condition uses; equal when both names match
/// case-insensitively, as LAT and column resolution do.
struct LatCol(String, String);

impl PartialEq for LatCol {
    fn eq(&self, other: &LatCol) -> bool {
        self.0.eq_ignore_ascii_case(&other.0) && self.1.eq_ignore_ascii_case(&other.1)
    }
}

/// What a guard atom constrains.
enum Operand {
    /// A payload attribute: class and position in its value layout.
    Attr(ClassName, usize),
    /// A LAT column: LAT and column as written.
    LatCol(String, String),
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

/// The operand a qualified reference names: a class attribute when the
/// qualifier is a monitored class, a LAT column otherwise.
fn operand(ir: &ExprIr, id: NodeId) -> Option<Operand> {
    let IrOp::Ref(r) = ir.op(id) else { return None };
    let (qualifier, name) = &ir.refs[*r as usize];
    let qualifier = qualifier.as_deref()?;
    match ClassName::parse(qualifier) {
        Some(class) => {
            let attr = class.schema()?.attr_index(name)?;
            Some(Operand::Attr(class, attr))
        }
        None => Some(Operand::LatCol(qualifier.to_string(), name.clone())),
    }
}

/// Lift one conjunct into a guard atom, if it has an indexable shape.
fn atom_of(ir: &ExprIr, id: NodeId) -> Option<(Operand, GuardKind)> {
    match ir.op(id) {
        IrOp::Binary { left, op, right } => {
            let (operand_node, cval, op) = match (ir.const_value(*left), ir.const_value(*right)) {
                (None, Some(c)) => (*left, c, *op),
                (Some(c), None) => (*right, c, flip(*op)?),
                _ => return None,
            };
            let operand = operand(ir, operand_node)?;
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
            Some((operand, kind))
        }
        IrOp::InList {
            expr,
            list,
            negated: false,
        } => {
            let operand = operand(ir, *expr)?;
            let mut values = Vec::new();
            for m in &ir.lists[*list as usize] {
                // A null member can never compare TRUE; it just drops out.
                let v = ir.const_value(*m)?;
                if !v.is_null() {
                    values.push(v.clone());
                }
            }
            Some((operand, GuardKind::Eq(values)))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, Condition, RuleEvent};

    fn verdict(event: RuleEvent, cond: Option<&str>) -> Result<Guards, Residual> {
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

    /// A payload guard alone, which decides its condition.
    fn payload(guard: Guard) -> Result<Guards, Residual> {
        Ok(Guards {
            payload: Some(guard),
            lat: None,
            decides: true,
        })
    }

    /// `verdict` with conjuncts its guards left over.
    fn partial(verdict: Result<Guards, Residual>) -> Result<Guards, Residual> {
        verdict.map(|g| Guards {
            decides: false,
            ..g
        })
    }

    fn eq(attr: &str, values: &[Value]) -> Result<Guards, Residual> {
        payload(Guard {
            class: ClassName::Query,
            attr: query_attr(attr),
            kind: GuardKind::Eq(values.to_vec()),
        })
    }

    fn int_range(lo: Option<(i64, bool)>, hi: Option<(i64, bool)>) -> GuardKind {
        let bound = |(v, strict)| Bound {
            value: Value::Int(v),
            strict,
        };
        GuardKind::Range {
            lo: lo.map(bound),
            hi: hi.map(bound),
        }
    }

    fn range(lo: Option<(i64, bool)>, hi: Option<(i64, bool)>) -> Result<Guards, Residual> {
        payload(Guard {
            class: ClassName::Query,
            attr: query_attr("Duration"),
            kind: int_range(lo, hi),
        })
    }

    #[test]
    fn verdict_table() {
        let ints = |vs: &[i64]| vs.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>();
        let cases: Vec<(&str, Result<Guards, Residual>)> = vec![
            // Equality and membership; equality wins over a range wherever
            // it sits in the chain, and names come back canonical.
            ("query.user = 'bob'", eq("User", &[Value::text("bob")])),
            (
                "Query.Duration > 2 AND Query.User = 'bob'",
                partial(eq("User", &[Value::text("bob")])),
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
                partial(range(Some((100, true)), Some((500, false)))),
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

    fn lat(lat: &str, column: &str, kind: GuardKind) -> Option<LatGuard> {
        Some(LatGuard {
            lat: lat.into(),
            column: column.into(),
            kind,
        })
    }

    /// A LAT column takes the payload atoms' shapes and merging; a rule may
    /// get a guard of each kind. A LAT read itself is infallible — a missing
    /// row is false — so only arithmetic keeps a LAT reader residual.
    #[test]
    fn lat_guards() {
        let on = |c| verdict(RuleEvent::QueryCommit, Some(c));
        assert_eq!(
            on("Win.Avg_D > 1"),
            Ok(Guards {
                payload: None,
                lat: lat("Win", "Avg_D", int_range(Some((1, true)), None)),
                decides: true,
            })
        );
        assert_eq!(on("Win.Avg_D * 2 > 1"), Err(Residual::FallibleExpr));
        assert_eq!(
            on("Query.Duration > 5 * Duration_LAT.Avg_Duration"),
            Err(Residual::FallibleExpr)
        );
        // A column compared with a payload attribute is no atom.
        assert_eq!(on("Win.Avg_D > Query.Duration"), Err(Residual::NoGuardAtom));
        let both = on("Query.User = 'a' AND Win.N >= 5").unwrap();
        assert_eq!(
            both,
            Guards {
                payload: eq("User", &[Value::text("a")]).unwrap().payload,
                lat: lat("Win", "N", int_range(Some((5, false)), None)),
                decides: true,
            }
        );
        assert_eq!(
            both.to_string(),
            "equality on Query.User; LAT guard: range on Win.N; decides the condition"
        );
        // Ranges on one column merge across the names' case; the result is
        // never true.
        let never = on("Win.N >= 5 AND win.n < 3").unwrap().lat.unwrap();
        assert_eq!(never.kind, int_range(Some((5, false)), Some((3, true))));
        assert!(never.kind.never());
        // Equality and membership on a text column.
        assert_eq!(
            on("Win.Usr IN ('a', 'b')").unwrap().lat,
            lat(
                "Win",
                "Usr",
                GuardKind::Eq(vec![Value::text("a"), Value::text("b")])
            )
        );
        // The LAT guard does not lift the payload rules.
        assert_eq!(
            on("Session.User = 'a' AND Win.N >= 5"),
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
        assert_eq!(
            show("Query.User = 'alice'"),
            "equality on Query.User; decides the condition"
        );
        assert_eq!(
            show("Query.Logical_Signature IN (1, 2, 3)"),
            "membership on Query.Logical_Signature; decides the condition"
        );
        assert_eq!(
            show("3 < Query.Duration"),
            "range on Query.Duration; decides the condition"
        );
        assert_eq!(
            show("3 < Query.Duration AND Query.User LIKE 'a%'"),
            "range on Query.Duration"
        );
    }

    /// A guard decides its condition only when no top-level conjunct is left
    /// over: an equality beside a range on the same operand leaves the range
    /// out, and a range beside one on another operand leaves that one out.
    #[test]
    fn decides_only_when_every_conjunct_is_absorbed() {
        let decides = |c| match verdict(RuleEvent::QueryCommit, Some(c)) {
            Ok(g) => g.decides,
            Err(_) => false,
        };
        for cond in [
            "Query.Duration >= 0",
            "Query.ID = 3",
            "Query.ID IN (1, NULL, 2)",
            "Query.ID IN (NULL)",
            "Query.Duration > 1 AND Query.Duration <= 2.5 AND 0 < Query.Duration",
            "Query.Duration >= 5 AND Query.Duration > 5",
            "Query.User = 'a' AND Win.N >= 5",
            "Win.N >= 5 AND win.n < 9",
        ] {
            assert!(decides(cond), "{cond}");
        }
        for cond in [
            "Query.ID = 3 AND Query.ID > 1",
            "Query.ID > 1 AND Query.Estimated_Cost < 5",
            "Query.ID = 3 AND Query.ID = 4",
            "Query.User = 'a' AND Query.Query_Text LIKE 'x%'",
            "Win.N >= 5 AND Win.M >= 5",
            "Query.User = 'a' AND Win.N >= 5 AND Win.N = 7",
            "Query.ID = 3 AND Query.User IS NOT NULL",
        ] {
            assert!(!decides(cond), "{cond}");
        }
    }
}
