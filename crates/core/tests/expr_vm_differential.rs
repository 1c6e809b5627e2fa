//! Differential tests: the register-bytecode condition VM against the
//! tree-walk oracle (`oracle::eval_expr`, in this directory's shared
//! `oracle` module), and the tree walk's own spot checks.
//!
//! Random condition expressions — attribute reads of every type, LAT column
//! reads with the row present and missing, `NULL` literals, integer
//! division/modulo by zero, constant and computed `LIKE` patterns, `IN`
//! lists, and arbitrary `NOT`/`IS NULL`/`AND`/`OR` nesting — are generated
//! from a proptest byte stream, compiled down both paths
//! (`parse_expression` → oracle walk vs. `ExprIr::lower().fold()` →
//! `CondIr::from_ir` → `Program::emit` → VM loop), and checked for *exact*
//! agreement: equal values on success, equal errors on failure, and the
//! same ∃-wrapper verdict (`NoLatRow` → `false`). A second pass re-runs
//! each program with a CSE slot pinned to the root to prove shared-slot
//! loads serve byte-identical values and never cache errors.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::collection;
use proptest::prelude::*;
use sqlcm_common::{ManualClock, QueryInfo, Value};
use sqlcm_core::ir::CondIr;
use sqlcm_core::lat::{Lat, LatAggFunc, LatSpec};
use sqlcm_core::objects::{query_object, Object};
use sqlcm_core::rules::{EvalContext, LatBinding};
use sqlcm_core::vm::{self, Program, VmStats};
use sqlcm_sql::{parse_expression, ExprIr};

mod oracle;

/// The LAT every generated condition may reference: columns `Sig`, `A`, `N`.
fn test_lat() -> Arc<Lat> {
    let (clock, _) = ManualClock::shared(0);
    Arc::new(
        Lat::new(
            LatSpec::new("L")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "A")
                .aggregate(LatAggFunc::Count, "", "N"),
            clock,
        )
        .unwrap(),
    )
}

fn qobj(duration_secs: f64, text: &str) -> Object {
    let mut q = QueryInfo::synthetic(3, text);
    q.duration_micros = (duration_secs * 1e6) as u64;
    q.logical_signature = Some(7);
    query_object(&q)
}

// ------------------------------------------------------------ generator

/// Deterministic expression builder driven by a proptest-supplied byte
/// stream; an exhausted stream yields zeros, so every prefix is total.
struct Gen<'a> {
    bytes: &'a [u8],
    i: usize,
}

impl Gen<'_> {
    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.i).copied().unwrap_or(0);
        self.i += 1;
        b
    }
}

/// Leaves: attributes of every runtime type (Float `Duration`, Int `ID`,
/// Text `Query_Text`/`User`, often-Null `Procedure`), LAT columns, and
/// literals including `NULL` and zero (the divisor that matters).
fn leaf(g: &mut Gen) -> String {
    match g.next() % 14 {
        0 => "Query.Duration".into(),
        1 => "Query.ID".into(),
        2 => "Query.Query_Text".into(),
        3 => "Query.User".into(),
        4 => "Query.Procedure".into(),
        5 => "L.Sig".into(),
        6 => "L.A".into(),
        7 => "L.N".into(),
        8 => format!("{}", i64::from(g.next() % 7) - 2),
        9 => "0".into(),
        10 => format!("{}.5", g.next() % 4),
        11 => "'SELECT 1'".into(),
        12 => "NULL".into(),
        _ => {
            if g.next().is_multiple_of(2) {
                "TRUE".into()
            } else {
                "FALSE".into()
            }
        }
    }
}

const PATTERNS: [&str; 8] = [
    "'%'",
    "''",
    "'SELECT%'",
    "'%1'",
    "'_ELECT 1'",
    "'%E%'",
    "'S_L%T%'",
    "'SELECT 1'",
];

fn gen_expr(g: &mut Gen, depth: u32) -> String {
    let b = g.next();
    if depth == 0 || b.is_multiple_of(5) {
        return leaf(g);
    }
    match b % 14 {
        0 => format!(
            "({} AND {})",
            gen_expr(g, depth - 1),
            gen_expr(g, depth - 1)
        ),
        1 => format!("({} OR {})", gen_expr(g, depth - 1), gen_expr(g, depth - 1)),
        2 => format!("(NOT {})", gen_expr(g, depth - 1)),
        // Parenthesize the operand: a bare `--1` would lex as a comment.
        3 => format!("(-({}))", gen_expr(g, depth - 1)),
        4..=6 => {
            let op = ["<", "<=", ">", ">=", "=", "<>"][(g.next() % 6) as usize];
            format!(
                "({} {} {})",
                gen_expr(g, depth - 1),
                op,
                gen_expr(g, depth - 1)
            )
        }
        7..=9 => {
            let op = ["+", "-", "*", "/", "%"][(g.next() % 5) as usize];
            format!(
                "({} {} {})",
                gen_expr(g, depth - 1),
                op,
                gen_expr(g, depth - 1)
            )
        }
        10 => {
            let not = if g.next().is_multiple_of(2) {
                ""
            } else {
                "NOT "
            };
            format!("({} IS {}NULL)", gen_expr(g, depth - 1), not)
        }
        11 | 12 => {
            let not = if g.next().is_multiple_of(2) {
                ""
            } else {
                "NOT "
            };
            // Mostly constant patterns (precompiled matcher path), sometimes
            // a computed pattern (runtime compilation path).
            let pat = if g.next().is_multiple_of(4) {
                "Query.Query_Text".to_string()
            } else {
                PATTERNS[(g.next() % PATTERNS.len() as u8) as usize].to_string()
            };
            format!("({} {}LIKE {})", gen_expr(g, depth - 1), not, pat)
        }
        _ => {
            let not = if g.next().is_multiple_of(2) {
                ""
            } else {
                "NOT "
            };
            let n = 1 + (g.next() % 3);
            let members: Vec<String> = (0..n).map(|_| gen_expr(g, depth - 1)).collect();
            format!(
                "({} {}IN ({}))",
                gen_expr(g, depth - 1),
                not,
                members.join(", ")
            )
        }
    }
}

// ------------------------------------------------------------ comparison

/// Value equality that treats two NaNs as equal (both sides run the same
/// IEEE arithmetic; NaN is a legitimate shared outcome of e.g. `0.0 / 0`).
fn val_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

/// Compile `src` for the VM and check both the raw-value evaluation and the
/// ∃-wrapped condition verdict against the oracle, then re-run with a CSE
/// slot pinned on the root (cold store, then warm load) and require the
/// identical outcome each time.
fn check_case(src: &str, ctx: &EvalContext, lats: &HashMap<String, Arc<Lat>>) {
    let expr = parse_expression(src).expect(src);
    let ir = ExprIr::lower(&expr).fold();
    let cond = CondIr::from_ir(&ir, lats, &["L".to_string()]).expect(src);
    let prog = Program::emit(&cond, &HashMap::new());
    let mut stats = VmStats::default();

    let oracle_val = oracle::eval_expr(&expr, ctx);
    let vm_val = prog.eval(ctx, &mut [], &mut stats);
    match (&oracle_val, &vm_val) {
        (Ok(a), Ok(b)) => assert!(val_eq(a, b), "{src}: oracle={a:?} vm={b:?}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{src}"),
        _ => panic!("{src}: oracle={oracle_val:?} vm={vm_val:?}"),
    }

    let oracle_fire = oracle::eval_condition(&expr, ctx);
    let vm_fire = vm::eval_condition(&prog, ctx, &mut [], &mut stats);
    match (&oracle_fire, &vm_fire) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{src}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{src}"),
        _ => panic!("{src}: oracle={oracle_fire:?} vm={vm_fire:?}"),
    }

    // CSE determinism: slot on the root — first run stores (unless it
    // errors; errors are never cached), second run loads. Both must agree
    // with the plain run, and a populated slot must hold the stored value.
    let mut cse_map = HashMap::new();
    cse_map.insert(cond.root, 0u16);
    let shared = Program::emit(&cond, &cse_map);
    let mut slots: Vec<Option<Value>> = vec![None];
    for pass in 0..2 {
        let mut s = VmStats::default();
        let got = shared.eval(ctx, &mut slots, &mut s);
        match (&vm_val, &got) {
            (Ok(a), Ok(b)) => assert!(val_eq(a, b), "{src} pass {pass}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "{src} pass {pass}"),
            _ => panic!("{src} pass {pass}: plain={vm_val:?} cse={got:?}"),
        }
        if let (1, Ok(v)) = (pass, &got) {
            assert_eq!(s.cse_hits, 1, "{src}: warm pass must load the slot");
            assert!(
                slots[0].as_ref().is_some_and(|s| val_eq(s, v)),
                "{src}: slot holds the published value"
            );
        }
        if vm_val.is_err() {
            assert!(slots[0].is_none(), "{src}: errors must never be cached");
        }
    }
}

// ------------------------------------------------------------ proptest

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1200))]

    /// VM ≡ oracle over random expressions × random contexts: LAT row
    /// present with generated cells (including NULLs), or missing entirely.
    #[test]
    fn vm_matches_oracle(
        bytes in collection::vec(any::<u8>(), 1..96),
        row_present in any::<bool>(),
        a_cell in 0u8..4,
        n_cell in 0u8..3,
        duration in 0u64..30,
        text_pick in 0u8..3,
    ) {
        let mut g = Gen { bytes: &bytes, i: 0 };
        let src = gen_expr(&mut g, 4);

        let lat = test_lat();
        let mut lats = HashMap::new();
        lats.insert("l".to_string(), Arc::clone(&lat));

        let text = ["SELECT 1", "UPDATE t SET x = 1", ""][text_pick as usize];
        // Integer-valued duration so float arithmetic is exact on both paths.
        let objs = vec![qobj(duration as f64, text)];

        let row = vec![
            Value::Int(7),
            match a_cell {
                0 => Value::Float(12.0),
                1 => Value::Float(0.0),
                2 => Value::Null,
                _ => Value::Int(-3),
            },
            match n_cell {
                0 => Value::Int(5),
                1 => Value::Int(0),
                _ => Value::Null,
            },
        ];
        let bindings = [LatBinding {
            name: "l",
            lat: &lat,
            row: if row_present { Some(&row) } else { None },
        }];
        let ctx = EvalContext {
            objects: &objs,
            lat_rows: &bindings,
        };
        check_case(&src, &ctx, &lats);
    }
}

/// A hand-picked regression set covering the seams the fuzzer relies on:
/// each must agree *and* hit the intended path.
#[test]
fn targeted_seams_agree() {
    let lat = test_lat();
    let mut lats = HashMap::new();
    lats.insert("l".to_string(), Arc::clone(&lat));
    let objs = vec![qobj(10.0, "SELECT 1")];
    let row = [Value::Int(7), Value::Float(4.0), Value::Int(2)];
    for present in [true, false] {
        let bindings = [LatBinding {
            name: "l",
            lat: &lat,
            row: present.then_some(&row[..]),
        }];
        let ctx = EvalContext {
            objects: &objs,
            lat_rows: &bindings,
        };
        for src in [
            // ∃ contract: no short-circuit rescue of a missing row.
            "Query.Duration > 0 OR L.A > 0",
            "L.A * 2 >= L.N",
            // Int÷0 errors; Float÷0 is IEEE infinity — both must match.
            "Query.ID / 0 > 1",
            "Query.Duration / 0 > 1",
            "Query.ID % 0 = 0",
            // NULL propagation through every operator family.
            "NOT (NULL)",
            "(NULL + 1) IS NULL",
            "Query.Procedure LIKE '%'",
            "NULL IN (1, NULL)",
            "1 IN (2, NULL)",
            "1 NOT IN (2, NULL)",
            // Computed LIKE pattern (no precompiled matcher).
            "Query.Query_Text LIKE Query.Query_Text",
            "'' LIKE '%'",
            "'abc' LIKE '_b%'",
        ] {
            check_case(src, &ctx, &lats);
        }
    }
}

// ------------------------------------------------------- spot checks

/// The LAT of the paper's Example 1: columns `Sig`, `Avg_Duration`.
fn duration_lat() -> Arc<Lat> {
    let (clock, _) = ManualClock::shared(0);
    Arc::new(
        Lat::new(
            LatSpec::new("Duration_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration"),
            clock,
        )
        .unwrap(),
    )
}

/// A `Query` of signature 42 that ran `duration_secs`.
fn sig42(duration_secs: f64) -> Object {
    let mut q = QueryInfo::synthetic(1, "SELECT 1");
    q.duration_micros = (duration_secs * 1e6) as u64;
    q.logical_signature = Some(42);
    query_object(&q)
}

/// `src` compiled for the VM, its LAT references bound to `Duration_LAT`.
fn program(src: &str) -> Program {
    let mut lats = HashMap::new();
    lats.insert("duration_lat".to_string(), duration_lat());
    let ir = ExprIr::lower(&parse_expression(src).unwrap()).fold();
    let cond = CondIr::from_ir(&ir, &lats, &["Duration_LAT".to_string()]).unwrap();
    Program::emit(&cond, &HashMap::new())
}

/// VM and tree-walk oracle agree (value and error-ness) on `src`.
fn assert_agrees(src: &str, ctx: &EvalContext) {
    let prog = program(src);
    let mut stats = VmStats::default();
    let vm = vm::eval_condition(&prog, ctx, &mut [], &mut stats);
    let oracle = oracle::eval_condition(&parse_expression(src).unwrap(), ctx);
    match (&vm, &oracle) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{src}"),
        (Err(_), Err(_)) => {}
        _ => panic!("{src}: vm={vm:?} oracle={oracle:?}"),
    }
    assert!(stats.instructions > 0);
}

const NO_LATS: &[LatBinding<'static>] = &[];

#[test]
fn simple_threshold_condition() {
    let objs = vec![sig42(150.0)];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: NO_LATS,
    };
    let c = parse_expression("Query.Duration > 100").unwrap();
    assert!(oracle::eval_condition(&c, &ctx).unwrap());
    let c = parse_expression("Query.Duration > 200").unwrap();
    assert!(!oracle::eval_condition(&c, &ctx).unwrap());
}

#[test]
fn lat_reference_with_missing_row_is_false() {
    let lat = duration_lat();
    let objs = vec![sig42(150.0)];
    let bindings = [LatBinding {
        name: "duration_lat",
        lat: &lat,
        row: None,
    }];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: &bindings,
    };
    let c = parse_expression("Query.Duration > 5 * Duration_LAT.Avg_Duration").unwrap();
    assert!(
        !oracle::eval_condition(&c, &ctx).unwrap(),
        "∃ fails → false"
    );
    // Even when OR-ed with something true — the reference poisons it.
    let c = parse_expression("Query.Duration > 0 AND Duration_LAT.Avg_Duration > 0").unwrap();
    assert!(!oracle::eval_condition(&c, &ctx).unwrap());

    // Bound row: the paper's Example 1 condition.
    let row = vec![Value::Int(42), Value::Float(20.0)];
    let bindings = [LatBinding {
        name: "duration_lat",
        lat: &lat,
        row: Some(&row),
    }];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: &bindings,
    };
    let c = parse_expression("Query.Duration > 5 * Duration_LAT.Avg_Duration").unwrap();
    assert!(oracle::eval_condition(&c, &ctx).unwrap(), "150 > 5 * 20");
}

#[test]
fn unknown_attribute_is_error() {
    let objs = vec![sig42(1.0)];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: NO_LATS,
    };
    let c = parse_expression("Query.Nope > 1").unwrap();
    assert!(oracle::eval_condition(&c, &ctx).is_err());
    let c = parse_expression("Transaction.ID > 1").unwrap();
    assert!(
        oracle::eval_condition(&c, &ctx).is_err(),
        "class not in scope"
    );
}

#[test]
fn arithmetic_and_string_ops() {
    let objs = vec![sig42(10.0)];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: NO_LATS,
    };
    for (cond, expect) in [
        ("Query.Duration * 2 = 20", true),
        ("(Query.Duration + 5) / 3 = 5", true),
        ("Query.Query_Text LIKE 'SELECT%'", true),
        ("Query.Query_Text NOT LIKE '%UPDATE%'", true),
        ("Query.Procedure IS NULL", true),
        ("NOT (Query.Duration > 5)", false),
        ("Query.Query_Type = 'SELECT'", true),
    ] {
        let c = parse_expression(cond).unwrap();
        assert_eq!(oracle::eval_condition(&c, &ctx).unwrap(), expect, "{cond}");
    }
}

#[test]
fn vm_matches_oracle_on_representative_conditions() {
    let objs = vec![sig42(10.0)];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: &[],
    };
    for src in [
        "Query.Duration * 2 = 20",
        "(Query.Duration + 5) / 3 = 5",
        "Query.Query_Text LIKE 'SELECT%'",
        "Query.Query_Text NOT LIKE '%UPDATE%'",
        "Query.Procedure IS NULL",
        "NOT (Query.Duration > 5)",
        "Query.Query_Type = 'SELECT'",
        "Query.User IN ('admin', 'dba', NULL)",
        "Query.User NOT IN ('admin', NULL)",
        "Query.Duration > 5 AND Query.Duration < 100",
        "Query.Duration > 100 OR Query.Duration < 5",
        "Query.Duration % 3 = 1",
        "Query.Procedure IN ('p')",
    ] {
        assert_agrees(src, &ctx);
    }
}

#[test]
fn missing_lat_row_poisons_to_false_even_under_or() {
    let lat = duration_lat();
    let objs = vec![sig42(150.0)];
    let bindings = [LatBinding {
        name: "duration_lat",
        lat: &lat,
        row: None,
    }];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: &bindings,
    };
    for src in [
        "Query.Duration > 5 * Duration_LAT.Avg_Duration",
        "Query.Duration > 0 AND Duration_LAT.Avg_Duration > 0",
        // The paper's ∃ contract: no short-circuit rescue.
        "Query.Duration > 0 OR Duration_LAT.Avg_Duration > 0",
    ] {
        assert_agrees(src, &ctx);
        let prog = program(src);
        let mut stats = VmStats::default();
        assert!(
            !vm::eval_condition(&prog, &ctx, &mut [], &mut stats).unwrap(),
            "{src}"
        );
    }

    let row = vec![Value::Int(42), Value::Float(20.0)];
    let bindings = [LatBinding {
        name: "duration_lat",
        lat: &lat,
        row: Some(&row),
    }];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: &bindings,
    };
    let prog = program("Query.Duration > 5 * Duration_LAT.Avg_Duration");
    let mut stats = VmStats::default();
    assert!(vm::eval_condition(&prog, &ctx, &mut [], &mut stats).unwrap());
}

#[test]
fn short_circuit_never_skips_fallible_operands() {
    // Right side reads a column (fallible): no Fuse may be emitted, so
    // the divide-by-zero on the right still errors even when the left
    // side already decides the AND.
    let objs = vec![sig42(10.0)];
    let ctx = EvalContext {
        objects: &objs,
        lat_rows: &[],
    };
    let prog = program("Query.Duration < 0 AND Query.ID / 0 > 1");
    let mut stats = VmStats::default();
    assert!(vm::eval_condition(&prog, &ctx, &mut [], &mut stats).is_err());
    assert_agrees("Query.Duration < 0 AND Query.ID / 0 > 1", &ctx);
}
