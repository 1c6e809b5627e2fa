//! Interval analysis of rule conditions (E006 / W103 / W104).
//!
//! Attribute values get a numeric abstract domain:
//!
//! * durations, wait times, latencies, costs — non-negative reals `[0, +∞)`;
//! * counters (`Times_Blocked`, `Monitor.Events`, COUNT columns, …) — ℕ,
//!   abstracted as `[0, +∞)`;
//! * signature ids, session/transaction ids — *opaque*: numeric but
//!   unconstrained and never ordered against anything meaningfully, so every
//!   comparison involving them stays unknown;
//! * LAT aggregate columns derive their interval from the source attribute's
//!   domain through the aggregate function (AVG/SUM/MIN/MAX of non-negatives
//!   is non-negative, STDEV is non-negative, COUNT is ℕ) and are
//!   *maybe-NULL*: a value aggregate that was never fed compares as false.
//!
//! Propagating these through the condition yields a three-valued verdict:
//!
//! * **must-false** — the condition cannot evaluate to true on any event:
//!   **E006**, registration denied (the alarm that cannot ring, made loud);
//! * **must-true** — the condition holds on every event that binds:
//!   **W103** (the condition is dead weight, or a comparison is inverted);
//! * otherwise unknown — no finding.
//!
//! Soundness over precision: comparisons only decide when both operand
//! intervals are disjoint/ordered *and* NULL cannot intervene (a NULL operand
//! makes the runtime comparison false, which is fine for must-false but
//! poisons must-true). Conjunctions don't propagate constraints between
//! comparisons — `X >= 30 AND X < 10` is not caught, only single comparisons
//! with provably-empty truth sets are.
//!
//! When the abstract domain decides nothing, the IR's constant-folding pass
//! gets a second opinion: a condition whose *folded* root is a literal
//! (`'a' = 'b'`, `1 % 2 = 1`, `'abc' LIKE 'a%'` — shapes the numeric domain
//! cannot see through) is reported as W103 (folds to TRUE) or E006 (folds to
//! FALSE or NULL).
//!
//! Separately, any division whose divisor is an aggregate read whose interval
//! contains zero (an AVG/SUM over a possibly-empty window) reports **W104**.
//!
//! The pass recurses over the rule's shared [`Condition`]: the lowered IR for
//! the abstract walk and spans, the folded IR for the second opinion.

use sqlcm_common::{DataType, Value};
use sqlcm_sql::{BinOp, ExprIr, IrOp, NodeId, UnaryOp};

use crate::diagnostics::{Code, Diagnostic};
use crate::schema::{LatColumn, SchemaUniverse};
use crate::{Condition, LatAggFunc};

/// A closed numeric interval over the extended reals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };
    pub const NON_NEG: Interval = Interval {
        lo: 0.0,
        hi: f64::INFINITY,
    };

    fn point(v: f64) -> Interval {
        Interval { lo: v, hi: v }
    }

    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Three-valued abstract boolean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsBool {
    True,
    False,
    Unknown,
}

/// Abstract value of a sub-expression.
#[derive(Debug, Clone, Copy)]
enum AbsVal {
    Num {
        iv: Interval,
        /// The value may be NULL at runtime (unfed aggregate). A NULL operand
        /// makes any comparison evaluate to false.
        maybe_null: bool,
        /// Opaque identifier: the interval is formal only; comparisons must
        /// not conclude anything from it.
        opaque: bool,
    },
    Bool(AbsBool),
    /// Text, blob, parameters, function calls, unresolved references.
    Other,
}

impl AbsVal {
    fn num(iv: Interval) -> AbsVal {
        AbsVal::Num {
            iv,
            maybe_null: false,
            opaque: false,
        }
    }

    fn opaque_num() -> AbsVal {
        AbsVal::Num {
            iv: Interval::TOP,
            maybe_null: false,
            opaque: true,
        }
    }
}

/// Check one rule condition, reporting E006/W103/W104 into `diags`.
pub fn check_condition(
    universe: &SchemaUniverse,
    rule: &str,
    cond: &Condition,
    diags: &mut Vec<Diagnostic>,
) {
    let ir = cond.lowered();
    let before = diags.len();
    let verdict = eval(universe, rule, ir, ir.root, diags);
    // W104 findings from the walk stand on their own; the root verdict is
    // only reported when the sub-walk found nothing else to say.
    if diags.len() != before {
        return;
    }
    match verdict {
        AbsVal::Bool(AbsBool::False) => diags.push(
            Diagnostic::new(
                Code::E006,
                rule,
                "condition is provably unsatisfiable under the attribute domains".to_string(),
            )
            .with_span(ir.render(ir.root))
            .with_help(
                "the rule could never fire (e.g. a COUNT or duration compared below \
                 zero); fix the comparison or drop the rule",
            ),
        ),
        AbsVal::Bool(AbsBool::True) => diags.push(
            Diagnostic::new(
                Code::W103,
                rule,
                "condition is provably true whenever it binds".to_string(),
            )
            .with_span(ir.render(ir.root))
            .with_help(
                "the comparison never constrains anything; drop it or check whether \
                 it is inverted",
            ),
        ),
        // The numeric domain decided nothing — let constant folding try.
        // Folding evaluates with the runtime's exact semantics, so it sees
        // through text comparisons, LIKE, IN and modulo that the interval
        // abstraction treats as opaque.
        _ => check_folded(rule, cond, diags),
    }
}

/// Fold-strengthened verdict: if the whole condition constant-folds to a
/// literal, the rule either always fires (W103) or never fires (E006),
/// regardless of what the interval domain could prove.
fn check_folded(rule: &str, cond: &Condition, diags: &mut Vec<Diagnostic>) {
    let (ir, folded) = (cond.lowered(), cond.folded());
    if never_true(folded, folded.root) {
        diags.push(
            Diagnostic::new(
                Code::E006,
                rule,
                "condition constant-folds to a value that can never be true".to_string(),
            )
            .with_span(ir.render(ir.root))
            .with_help("the rule could never fire; fix the condition or drop the rule"),
        );
    } else if always_true(folded, folded.root) {
        diags.push(
            Diagnostic::new(
                Code::W103,
                rule,
                "condition constant-folds to TRUE".to_string(),
            )
            .with_span(ir.render(ir.root))
            .with_help("the condition is a constant; drop it or check whether it is inverted"),
        );
    }
}

/// Can the folded subtree ever evaluate to TRUE? A FALSE/NULL constant
/// operand of an AND makes the conjunction at best NULL (the fallible other
/// operand is still evaluated at runtime — its error or missing-LAT-row
/// outcome just prevents firing too, so "never fires" stays sound).
fn never_true(ir: &ExprIr, id: NodeId) -> bool {
    match ir.op(id) {
        IrOp::Const(c) => matches!(ir.consts[*c as usize], Value::Bool(false) | Value::Null),
        IrOp::Binary {
            left,
            op: BinOp::And,
            right,
        } => never_true(ir, *left) || never_true(ir, *right),
        IrOp::Binary {
            left,
            op: BinOp::Or,
            right,
        } => never_true(ir, *left) && never_true(ir, *right),
        _ => false,
    }
}

/// Does the folded subtree evaluate to TRUE whenever it binds (i.e. barring
/// errors and missing LAT rows)? Mirrors the W103 "whenever it binds" caveat.
fn always_true(ir: &ExprIr, id: NodeId) -> bool {
    match ir.op(id) {
        IrOp::Const(c) => matches!(ir.consts[*c as usize], Value::Bool(true)),
        IrOp::Binary {
            left,
            op: BinOp::And,
            right,
        } => always_true(ir, *left) && always_true(ir, *right),
        IrOp::Binary {
            left,
            op: BinOp::Or,
            right,
        } => always_true(ir, *left) || always_true(ir, *right),
        _ => false,
    }
}

/// Domain of a class attribute, by name convention over the attribute names
/// of the [`crate::schema`] tables.
fn attr_domain(attr: &str, ty: DataType) -> AbsVal {
    let lower = attr.to_ascii_lowercase();
    // Identifiers first: numeric representation, but ordering is meaningless.
    if lower == "id" || lower.ends_with("_id") || lower.ends_with("_signature") {
        return AbsVal::opaque_num();
    }
    match ty {
        DataType::Float | DataType::Timestamp => {
            // Every Float attribute of the monitored classes is a duration,
            // wait time, latency or cost — all non-negative; timestamps are
            // microseconds since an epoch.
            AbsVal::num(Interval::NON_NEG)
        }
        DataType::Int => {
            // The remaining Int attributes are all counters.
            AbsVal::num(Interval::NON_NEG)
        }
        DataType::Bool => AbsVal::Bool(AbsBool::Unknown),
        DataType::Text | DataType::Blob => AbsVal::Other,
    }
}

/// Domain of a LAT column, derived from its aggregate function and source
/// attribute domain.
fn lat_column_domain(col: &LatColumn) -> AbsVal {
    let source_domain = || -> AbsVal {
        match &col.source {
            Some(src) => match src.class.schema().and_then(|c| {
                c.attr_type(&src.attr)
                    .map(|t| (c.canonical_attr(&src.attr), t))
            }) {
                Some((name, ty)) => attr_domain(name.unwrap_or(&src.attr), ty),
                None => AbsVal::Other,
            },
            None => AbsVal::Other,
        }
    };
    if col.group {
        // Key columns hold source-attribute values and are never NULL in a
        // materialized row.
        return source_domain();
    }
    match col.func {
        Some(LatAggFunc::Count) => AbsVal::num(Interval::NON_NEG),
        Some(LatAggFunc::StdDev) => AbsVal::Num {
            iv: Interval::NON_NEG,
            maybe_null: true,
            opaque: false,
        },
        Some(
            LatAggFunc::Sum
            | LatAggFunc::Avg
            | LatAggFunc::Min
            | LatAggFunc::Max
            | LatAggFunc::First
            | LatAggFunc::Last,
        ) => match source_domain() {
            AbsVal::Num { iv, opaque, .. } => AbsVal::Num {
                // SUM/AVG/MIN/MAX/FIRST/LAST of values in [lo, hi≥0] stay
                // within the source sign; only the non-negative lower bound
                // survives abstraction (SUM of many values grows above hi).
                iv: Interval {
                    lo: if iv.lo >= 0.0 { 0.0 } else { f64::NEG_INFINITY },
                    hi: f64::INFINITY,
                },
                maybe_null: true,
                opaque,
            },
            other => other,
        },
        None => AbsVal::Other,
    }
}

fn column_domain(universe: &SchemaUniverse, qualifier: &Option<String>, name: &str) -> AbsVal {
    let Some(q) = qualifier else {
        return AbsVal::Other;
    };
    if let Some(class) = universe.class(q) {
        return match class.attr_type(name) {
            Some(ty) => attr_domain(class.canonical_attr(name).unwrap_or(name), ty),
            None => AbsVal::Other,
        };
    }
    match universe.lat(q).and_then(|l| l.column(name)) {
        Some(col) => lat_column_domain(col),
        None => AbsVal::Other,
    }
}

fn not(b: AbsBool) -> AbsBool {
    match b {
        AbsBool::True => AbsBool::False,
        AbsBool::False => AbsBool::True,
        AbsBool::Unknown => AbsBool::Unknown,
    }
}

fn and(a: AbsBool, b: AbsBool) -> AbsBool {
    match (a, b) {
        (AbsBool::False, _) | (_, AbsBool::False) => AbsBool::False,
        (AbsBool::True, AbsBool::True) => AbsBool::True,
        _ => AbsBool::Unknown,
    }
}

fn or(a: AbsBool, b: AbsBool) -> AbsBool {
    match (a, b) {
        (AbsBool::True, _) | (_, AbsBool::True) => AbsBool::True,
        (AbsBool::False, AbsBool::False) => AbsBool::False,
        _ => AbsBool::Unknown,
    }
}

/// Compare two abstract numbers under `op`. Decides only when the intervals
/// prove the outcome; a maybe-NULL operand blocks must-true (NULL compares
/// false at runtime) but not must-false; opaque operands decide nothing.
fn compare(op: BinOp, l: AbsVal, r: AbsVal) -> AbsBool {
    let (
        AbsVal::Num {
            iv: a,
            maybe_null: an,
            opaque: ao,
        },
        AbsVal::Num {
            iv: b,
            maybe_null: bn,
            opaque: bo,
        },
    ) = (l, r)
    else {
        return AbsBool::Unknown;
    };
    if ao || bo {
        return AbsBool::Unknown;
    }
    let raw = match op {
        BinOp::Lt => {
            if a.hi < b.lo {
                AbsBool::True
            } else if a.lo >= b.hi {
                AbsBool::False
            } else {
                AbsBool::Unknown
            }
        }
        BinOp::LtEq => {
            if a.hi <= b.lo {
                AbsBool::True
            } else if a.lo > b.hi {
                AbsBool::False
            } else {
                AbsBool::Unknown
            }
        }
        BinOp::Gt => compare_swapped(BinOp::Lt, b, a),
        BinOp::GtEq => compare_swapped(BinOp::LtEq, b, a),
        BinOp::Eq => {
            if a.lo > b.hi || b.lo > a.hi {
                AbsBool::False
            } else if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
                AbsBool::True
            } else {
                AbsBool::Unknown
            }
        }
        BinOp::NotEq => not(compare(BinOp::Eq, AbsVal::num(a), AbsVal::num(b))),
        _ => AbsBool::Unknown,
    };
    if raw == AbsBool::True && (an || bn) {
        // A NULL operand would make the runtime comparison false.
        AbsBool::Unknown
    } else {
        raw
    }
}

fn compare_swapped(op: BinOp, a: Interval, b: Interval) -> AbsBool {
    compare(op, AbsVal::num(a), AbsVal::num(b))
}

fn arith(op: BinOp, a: Interval, b: Interval) -> Interval {
    let clean = |v: f64, inf_sign: f64| if v.is_nan() { inf_sign } else { v };
    match op {
        BinOp::Add => Interval {
            lo: clean(a.lo + b.lo, f64::NEG_INFINITY),
            hi: clean(a.hi + b.hi, f64::INFINITY),
        },
        BinOp::Sub => Interval {
            lo: clean(a.lo - b.hi, f64::NEG_INFINITY),
            hi: clean(a.hi - b.lo, f64::INFINITY),
        },
        BinOp::Mul => {
            let cands = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for c in cands {
                if c.is_nan() {
                    return Interval::TOP; // 0 · ∞ — give up
                }
                lo = lo.min(c);
                hi = hi.max(c);
            }
            Interval { lo, hi }
        }
        // Division and modulo: a divisor interval containing zero makes the
        // result unbounded; otherwise stay conservative.
        _ => Interval::TOP,
    }
}

fn eval(
    universe: &SchemaUniverse,
    rule: &str,
    ir: &ExprIr,
    id: NodeId,
    diags: &mut Vec<Diagnostic>,
) -> AbsVal {
    match ir.op(id) {
        IrOp::Const(c) => match &ir.consts[*c as usize] {
            Value::Int(i) => AbsVal::num(Interval::point(*i as f64)),
            Value::Float(f) => AbsVal::num(Interval::point(*f)),
            Value::Timestamp(t) => AbsVal::num(Interval::point(*t as f64)),
            Value::Bool(b) => AbsVal::Bool(if *b { AbsBool::True } else { AbsBool::False }),
            _ => AbsVal::Other,
        },
        IrOp::Ref(r) => {
            let (qualifier, name) = &ir.refs[*r as usize];
            column_domain(universe, qualifier, name)
        }
        IrOp::Param(_) | IrOp::NamedParam(_) | IrOp::FuncCall { .. } => AbsVal::Other,
        IrOp::Unary { op, expr } => {
            let v = eval(universe, rule, ir, *expr, diags);
            match op {
                UnaryOp::Not => match v {
                    AbsVal::Bool(b) => AbsVal::Bool(not(b)),
                    _ => AbsVal::Bool(AbsBool::Unknown),
                },
                UnaryOp::Neg => match v {
                    AbsVal::Num {
                        iv,
                        maybe_null,
                        opaque,
                    } => AbsVal::Num {
                        iv: Interval {
                            lo: -iv.hi,
                            hi: -iv.lo,
                        },
                        maybe_null,
                        opaque,
                    },
                    _ => AbsVal::Other,
                },
            }
        }
        IrOp::Binary { left, op, right } => {
            let l = eval(universe, rule, ir, *left, diags);
            let r = eval(universe, rule, ir, *right, diags);
            match op {
                BinOp::And | BinOp::Or => {
                    let lb = as_bool(l);
                    let rb = as_bool(r);
                    AbsVal::Bool(if *op == BinOp::And {
                        and(lb, rb)
                    } else {
                        or(lb, rb)
                    })
                }
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::Gt | BinOp::LtEq | BinOp::GtEq => {
                    AbsVal::Bool(compare(*op, l, r))
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    if matches!(op, BinOp::Div | BinOp::Mod) {
                        check_divisor(rule, ir, *right, r, diags);
                    }
                    match (l, r) {
                        (
                            AbsVal::Num {
                                iv: a,
                                maybe_null: an,
                                opaque: ao,
                            },
                            AbsVal::Num {
                                iv: b,
                                maybe_null: bn,
                                opaque: bo,
                            },
                        ) => AbsVal::Num {
                            iv: arith(*op, a, b),
                            maybe_null: an || bn,
                            opaque: ao || bo,
                        },
                        _ => AbsVal::Other,
                    }
                }
            }
        }
        // IS NULL / LIKE / IN could be refined; unknown is always sound.
        IrOp::IsNull { .. } | IrOp::Like { .. } | IrOp::InList { .. } => {
            AbsVal::Bool(AbsBool::Unknown)
        }
    }
}

fn as_bool(v: AbsVal) -> AbsBool {
    match v {
        AbsVal::Bool(b) => b,
        _ => AbsBool::Unknown,
    }
}

/// W104 — the divisor of a `/` (or `%`) reads a LAT aggregate whose interval
/// contains zero: an AVG/SUM over a window that may be empty (or a COUNT of
/// zero rows) divides the expression by zero or NULL at runtime.
fn check_divisor(rule: &str, ir: &ExprIr, divisor: NodeId, v: AbsVal, diags: &mut Vec<Diagnostic>) {
    let AbsVal::Num {
        iv,
        maybe_null,
        opaque,
    } = v
    else {
        return;
    };
    if opaque || !iv.contains(0.0) {
        return;
    }
    // Only flag divisors that actually read an aggregate — a literal 0 would
    // be a plain bug and `Query.Duration` in a divisor is too speculative.
    let mut reads_aggregate = false;
    ir.for_each(divisor, &mut |n| {
        if let IrOp::Ref(r) = ir.op(n) {
            if ir.refs[*r as usize].0.is_some() {
                reads_aggregate = true;
            }
        }
    });
    if !reads_aggregate {
        return;
    }
    let nullness = if maybe_null {
        " (or NULL when never fed)"
    } else {
        ""
    };
    diags.push(
        Diagnostic::new(
            Code::W104,
            rule,
            format!("divisor `{}` may be zero{nullness}", ir.disp(divisor)),
        )
        .with_span(ir.render(divisor))
        .with_help(
            "guard the division, e.g. `... AND Lat.N > 0`, or compare with a \
             product instead: `a > k * b` rather than `a / b > k`",
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatSpec;

    fn universe() -> SchemaUniverse {
        let mut u = SchemaUniverse::builtin();
        let diags = u.register_lat(
            &LatSpec::new("D_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "AD"),
        );
        assert!(diags.is_empty(), "{diags:?}");
        u
    }

    fn check(cond: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let cond = Condition::lower(&sqlcm_sql::parse_expression(cond).unwrap());
        check_condition(&universe(), "t", &cond, &mut diags);
        diags
    }

    fn codes(cond: &str) -> Vec<&'static str> {
        check(cond).iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn negative_count_is_unsatisfiable() {
        assert_eq!(codes("D_LAT.N < 0"), ["E006"]);
        assert_eq!(codes("Query.Duration < -1"), ["E006"]);
        assert_eq!(codes("D_LAT.N >= 0 AND D_LAT.N < 0"), ["E006"]);
    }

    #[test]
    fn non_negative_duration_is_tautological() {
        assert_eq!(codes("Query.Duration >= 0"), ["W103"]);
        assert_eq!(codes("D_LAT.N >= 0"), ["W103"]);
    }

    #[test]
    fn maybe_null_aggregate_blocks_tautology_but_not_unsat() {
        // AD may be NULL (never fed) — the comparison can be false, so no W103.
        assert!(codes("D_LAT.AD >= 0").is_empty());
        // But it can never be *true* below zero, NULL or not.
        assert_eq!(codes("D_LAT.AD < 0"), ["E006"]);
    }

    #[test]
    fn opaque_signatures_decide_nothing() {
        assert!(codes("Query.Logical_Signature >= 0").is_empty());
        assert!(codes("D_LAT.Sig < 0").is_empty());
        assert!(codes("Query.Session_ID < 0").is_empty());
    }

    #[test]
    fn satisfiable_conditions_are_clean() {
        assert!(codes("Query.Duration > 5").is_empty());
        assert!(codes("D_LAT.N >= 30 AND D_LAT.AD > 0.5").is_empty());
        assert!(codes("Query.Duration > 5 * D_LAT.AD").is_empty());
        // Cross-comparison constraints are out of scope, deliberately.
        assert!(codes("D_LAT.N >= 30 AND D_LAT.N < 10").is_empty());
    }

    #[test]
    fn division_by_possibly_empty_avg_is_w104() {
        assert_eq!(codes("Query.Duration / D_LAT.AD > 5"), ["W104"]);
        assert_eq!(codes("Query.Duration / D_LAT.N > 5"), ["W104"]);
        // Guarded or literal divisors stay silent.
        assert!(codes("Query.Duration / 2 > 5").is_empty());
    }

    #[test]
    fn not_flips_a_decided_comparison() {
        assert_eq!(codes("NOT (D_LAT.N >= 0)"), ["E006"]);
        assert_eq!(codes("NOT (Query.Duration < 0)"), ["W103"]);
    }

    #[test]
    fn constant_folding_strengthens_the_verdict() {
        // Text equality and LIKE are invisible to the numeric domain but
        // fold to literals.
        assert_eq!(codes("'a' = 'b'"), ["E006"]);
        assert_eq!(codes("'abc' LIKE 'a%'"), ["W103"]);
        assert_eq!(codes("7 % 4 = 3"), ["W103"]);
        assert_eq!(codes("Query.Duration > 5 AND 'a' IN ('b')"), ["E006"]);
        // A NULL-folding condition never fires either.
        assert_eq!(codes("NULL IS NOT NULL"), ["E006"]);
        // An erroring constant subtree stays unfolded — no false verdict.
        assert!(codes("Query.Duration > 1 / 0").is_empty());
    }
}
