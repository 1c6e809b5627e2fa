//! Reference resolution and type checking of rule conditions (E001 / E002).
//!
//! Resolution order is the runtime's: a qualifier that names a monitored
//! class resolves to the in-scope object of that class; anything else is
//! assumed to be a LAT name. The type algebra is permissive
//! where the runtime coerces (INT/FLOAT/TIMESTAMP compare numerically) and
//! strict where the runtime would yield NULL forever (comparing a number with
//! text, LIKE on a non-text value, AND over non-booleans) — those conditions
//! can never fire, so they are rejected at registration. Expressions the
//! runtime's condition compiler does not support at all (function calls,
//! parameters) are reported here too, so the lint and the registration gate
//! agree and the denial carries a stable code.
//!
//! The pass recurses over the shared flat [`ExprIr`] (lowered once per rule,
//! see [`crate::Condition`]) rather than the AST; spans and messages are
//! rendered through the IR's `disp` adapter, which reprints the exact source
//! expression.

use sqlcm_common::DataType;
use sqlcm_sql::{BinOp, ExprIr, IrOp, NodeId, UnaryOp};

use crate::diagnostics::{Code, Diagnostic};
use crate::schema::{attrs_help, known_classes_help, SchemaUniverse};

/// An inferred static type. `Any` means "unknown / unconstrained" — it arises
/// from NULL literals and from references or expressions already reported
/// (E001, unsupported E002), and suppresses follow-on E002 noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    Any,
    T(DataType),
}

impl Ty {
    fn name(self) -> &'static str {
        match self {
            Ty::Any => "UNKNOWN",
            Ty::T(DataType::Int) => "INT",
            Ty::T(DataType::Float) => "FLOAT",
            Ty::T(DataType::Text) => "TEXT",
            Ty::T(DataType::Bool) => "BOOL",
            Ty::T(DataType::Timestamp) => "TIMESTAMP",
            Ty::T(DataType::Blob) => "BLOB",
        }
    }

    fn is_numeric(self) -> bool {
        matches!(
            self,
            Ty::Any | Ty::T(DataType::Int) | Ty::T(DataType::Float) | Ty::T(DataType::Timestamp)
        )
    }

    fn is_boolish(self) -> bool {
        matches!(self, Ty::Any | Ty::T(DataType::Bool))
    }

    fn is_textish(self) -> bool {
        matches!(self, Ty::Any | Ty::T(DataType::Text))
    }
}

/// Can the runtime's `sql_cmp` meaningfully order these two types?
fn comparable(a: Ty, b: Ty) -> bool {
    match (a, b) {
        (Ty::Any, _) | (_, Ty::Any) => true,
        (Ty::T(x), Ty::T(y)) => x == y || (a.is_numeric() && b.is_numeric()),
    }
}

/// Type-check a rule condition, reporting E001/E002 into `diags`. Also
/// rejects conditions whose root type is known not to be boolean (the runtime
/// would evaluate them to NULL and never fire).
pub fn check_condition(
    universe: &SchemaUniverse,
    rule: &str,
    ir: &ExprIr,
    diags: &mut Vec<Diagnostic>,
) {
    let before = diags.len();
    let root = infer(universe, rule, ir, ir.root, diags);
    // Only complain about the root if the subtree itself was clean — a bad
    // reference already explains why the type is off.
    if diags.len() == before {
        if let Ty::T(dt) = root {
            if dt != DataType::Bool {
                diags.push(
                    Diagnostic::new(
                        Code::E002,
                        rule,
                        format!("condition evaluates to {}, not BOOL", root.name()),
                    )
                    .with_span(ir.render(ir.root))
                    .with_help("compare the value against something, e.g. `... > 0`"),
                );
            }
        }
    }
}

/// Infer the static type of node `id`, reporting diagnostics along the way.
pub fn infer(
    universe: &SchemaUniverse,
    rule: &str,
    ir: &ExprIr,
    id: NodeId,
    diags: &mut Vec<Diagnostic>,
) -> Ty {
    match ir.op(id) {
        IrOp::Const(c) => ir.consts[*c as usize].data_type().map_or(Ty::Any, Ty::T),
        IrOp::Ref(r) => {
            let (qualifier, name) = &ir.refs[*r as usize];
            resolve_column(universe, rule, qualifier, name, diags)
        }
        // The runtime's condition compiler has no parameters and no function
        // calls. Arguments are not descended into: the whole call is the
        // finding.
        IrOp::Param(_) | IrOp::NamedParam(_) => {
            diags.push(
                mismatch(
                    rule,
                    ir,
                    id,
                    "parameters are not allowed in rule conditions".to_string(),
                )
                .with_help("rule conditions are closed expressions; inline the value"),
            );
            Ty::Any
        }
        IrOp::FuncCall { .. } => {
            diags.push(
                mismatch(
                    rule,
                    ir,
                    id,
                    format!(
                        "expression `{}` is not supported in rule conditions",
                        ir.disp(id)
                    ),
                )
                .with_help(
                    "conditions support comparisons, arithmetic, AND/OR/NOT, IS NULL, LIKE \
                     and IN over Class.Attribute and Lat.Column references — no function calls",
                ),
            );
            Ty::Any
        }
        IrOp::Unary { op, expr } => {
            let t = infer(universe, rule, ir, *expr, diags);
            match op {
                UnaryOp::Neg => {
                    if !t.is_numeric() {
                        diags.push(mismatch(
                            rule,
                            ir,
                            id,
                            format!("cannot negate `{}` ({})", ir.disp(*expr), t.name()),
                        ));
                    }
                    t
                }
                UnaryOp::Not => {
                    if !t.is_boolish() {
                        diags.push(mismatch(
                            rule,
                            ir,
                            id,
                            format!(
                                "NOT operand `{}` is {}, expected BOOL",
                                ir.disp(*expr),
                                t.name()
                            ),
                        ));
                    }
                    Ty::T(DataType::Bool)
                }
            }
        }
        IrOp::Binary { left, op, right } => {
            let lt = infer(universe, rule, ir, *left, diags);
            let rt = infer(universe, rule, ir, *right, diags);
            match op {
                BinOp::And | BinOp::Or => {
                    for (side, t) in [(left, lt), (right, rt)] {
                        if !t.is_boolish() {
                            diags.push(mismatch(
                                rule,
                                ir,
                                id,
                                format!(
                                    "{op} operand `{}` is {}, expected BOOL",
                                    ir.disp(*side),
                                    t.name()
                                ),
                            ));
                        }
                    }
                    Ty::T(DataType::Bool)
                }
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::Gt | BinOp::LtEq | BinOp::GtEq => {
                    if !comparable(lt, rt) {
                        diags.push(
                            mismatch(
                                rule,
                                ir,
                                id,
                                format!(
                                    "cannot compare `{}` ({}) with `{}` ({})",
                                    ir.disp(*left),
                                    lt.name(),
                                    ir.disp(*right),
                                    rt.name()
                                ),
                            )
                            .with_help(
                                "the comparison would evaluate to NULL on every event, so the \
                                 rule could never fire",
                            ),
                        );
                    }
                    Ty::T(DataType::Bool)
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    for (side, t) in [(left, lt), (right, rt)] {
                        if !t.is_numeric() {
                            diags.push(mismatch(
                                rule,
                                ir,
                                id,
                                format!(
                                    "arithmetic `{op}` on non-numeric operand `{}` ({})",
                                    ir.disp(*side),
                                    t.name()
                                ),
                            ));
                        }
                    }
                    match (lt, rt) {
                        (Ty::T(DataType::Int), Ty::T(DataType::Int)) => Ty::T(DataType::Int),
                        (Ty::T(DataType::Float), Ty::T(x)) | (Ty::T(x), Ty::T(DataType::Float))
                            if x == DataType::Int || x == DataType::Float =>
                        {
                            Ty::T(DataType::Float)
                        }
                        _ => Ty::Any,
                    }
                }
            }
        }
        // IS NULL accepts every operand type; inference of the operand still
        // reports unknown references.
        IrOp::IsNull { expr, .. } => {
            infer(universe, rule, ir, *expr, diags);
            Ty::T(DataType::Bool)
        }
        IrOp::Like { expr, pattern, .. } => {
            for side in [expr, pattern] {
                let t = infer(universe, rule, ir, *side, diags);
                if !t.is_textish() {
                    diags.push(mismatch(
                        rule,
                        ir,
                        id,
                        format!(
                            "LIKE requires text operands; `{}` is {}",
                            ir.disp(*side),
                            t.name()
                        ),
                    ));
                }
            }
            Ty::T(DataType::Bool)
        }
        IrOp::InList { expr, list, .. } => {
            let t = infer(universe, rule, ir, *expr, diags);
            for member in &ir.lists[*list as usize] {
                let mt = infer(universe, rule, ir, *member, diags);
                if !comparable(t, mt) {
                    diags.push(mismatch(
                        rule,
                        ir,
                        id,
                        format!(
                            "IN list member `{}` ({}) is not comparable with `{}` ({})",
                            ir.disp(*member),
                            mt.name(),
                            ir.disp(*expr),
                            t.name()
                        ),
                    ));
                }
            }
            Ty::T(DataType::Bool)
        }
    }
}

fn mismatch(rule: &str, ir: &ExprIr, id: NodeId, message: String) -> Diagnostic {
    Diagnostic::new(Code::E002, rule, message).with_span(ir.render(id))
}

fn resolve_column(
    universe: &SchemaUniverse,
    rule: &str,
    qualifier: &Option<String>,
    name: &str,
    diags: &mut Vec<Diagnostic>,
) -> Ty {
    let Some(q) = qualifier else {
        diags.push(
            Diagnostic::new(Code::E001, rule, format!("unqualified column `{name}`"))
                .with_span(name.to_string())
                .with_help("qualify the reference as `Class.Attribute` or `Lat.Column`"),
        );
        return Ty::Any;
    };
    if let Some(class) = universe.class(q) {
        return match class.attr_type(name) {
            Some(t) => Ty::T(t),
            None => {
                diags.push(
                    Diagnostic::new(
                        Code::E001,
                        rule,
                        format!("class {} has no attribute `{name}`", class.class),
                    )
                    .with_span(format!("{q}.{name}"))
                    .with_help(attrs_help(class)),
                );
                Ty::Any
            }
        };
    }
    // Not a class ⇒ assumed LAT reference, exactly like the runtime.
    let Some(lat) = universe.lat(q) else {
        diags.push(
            Diagnostic::new(Code::E001, rule, format!("unknown class or LAT `{q}`"))
                .with_span(format!("{q}.{name}"))
                .with_help(format!(
                    "{}; LATs must be defined before rules that reference them",
                    known_classes_help(universe)
                )),
        );
        return Ty::Any;
    };
    match lat.column(name) {
        Some(col) => col.ty.map_or(Ty::Any, Ty::T),
        None => {
            let cols: Vec<&str> = lat.columns.iter().map(|c| c.name.as_str()).collect();
            diags.push(
                Diagnostic::new(
                    Code::E001,
                    rule,
                    format!("LAT {} has no column `{name}`", lat.name),
                )
                .with_span(format!("{q}.{name}"))
                .with_help(format!("{} columns: {}", lat.name, cols.join(", "))),
            );
            Ty::Any
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_sql::parse_expression;

    fn check(cond: &str) -> Vec<Diagnostic> {
        let universe = SchemaUniverse::builtin();
        let mut diags = Vec::new();
        let ir = ExprIr::lower(&parse_expression(cond).unwrap());
        check_condition(&universe, "t", &ir, &mut diags);
        diags
    }

    #[test]
    fn numeric_comparisons_are_clean() {
        assert!(check("Query.Duration > 5").is_empty());
        assert!(check("Query.Duration > Query.Estimated_Cost * 2").is_empty());
        assert!(check("Query.Start_Time > 100").is_empty());
        assert!(check("Query.User = 'admin' AND Query.Duration >= 0.5").is_empty());
    }

    #[test]
    fn unknown_attribute_is_e001() {
        let diags = check("Query.Durations > 5");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::E001);
        assert!(diags[0].message.contains("no attribute"));
    }

    #[test]
    fn numeric_vs_text_comparison_is_e002() {
        let diags = check("Query.Duration = 'slow'");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::E002);
    }

    #[test]
    fn non_boolean_root_is_e002() {
        let diags = check("Query.Duration + 1");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::E002);
        assert!(diags[0].message.contains("not BOOL"));
    }

    #[test]
    fn like_on_number_is_e002() {
        let diags = check("Query.Duration LIKE '%slow%'");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::E002);
    }
}
