//! Register-bytecode condition VM.
//!
//! [`Program::emit`] flattens a resolved [`CondIr`] (the folded arena's
//! `IrOp`s, each `Ref` read through its resolution) into straight-line
//! register code executed by a non-recursive loop — no per-node call
//! overhead, no tree pointer chasing, and (after the thread-local register
//! file warms up) no allocation on the hot path. Semantics are exactly the
//! tree-walk contract:
//!
//! * **no short-circuit rescue across errors** — the runtime evaluates both
//!   operands of `AND`/`OR`, so a missing LAT row (`Error::NoLatRow`)
//!   anywhere in the condition poisons it to false (implicit ∃, paper §5.2)
//!   and a genuine error anywhere propagates. Short-circuit jumps
//!   ([`Inst::Fuse`]) are therefore emitted only when the operand they skip
//!   is provably infallible;
//! * `IN` lists evaluate members lazily left-to-right and stop on the first
//!   match, with SQL's three-valued `NULL` handling;
//! * constant `LIKE` patterns run through a matcher compiled once, at
//!   emission ([`Inst::LikePre`]).

use std::cell::RefCell;
use std::collections::HashMap;

use sqlcm_common::{Error, Result, Value};
use sqlcm_sql::{apply_binary, apply_unary, BinOp, IrOp, LikeMatcher, NodeId, UnaryOp};

use crate::ir::{CondIr, Resolved};
use crate::rules::{EvalContext, LatBinding};

/// One VM instruction. Registers index the thread-local register file;
/// jump targets are instruction indices.
#[derive(Debug, Clone)]
pub enum Inst {
    /// `dst = consts[idx]`.
    Const {
        dst: u16,
        idx: u32,
    },
    /// `dst =` attribute `index` of the in-scope object of `class`.
    Attr {
        dst: u16,
        class: crate::objects::ClassName,
        index: usize,
    },
    /// `dst = ` column `index` of the bound row of LAT binding `lat_idx`;
    /// a missing row raises the ∃ sentinel.
    LatCol {
        dst: u16,
        lat_idx: usize,
        index: usize,
    },
    /// `dst = 0 - src` (checked).
    Neg {
        dst: u16,
        src: u16,
    },
    /// `dst = NOT src` (three-valued).
    Not {
        dst: u16,
        src: u16,
    },
    /// `dst = left <op> right`, full tree-walk semantics per operator.
    Binary {
        dst: u16,
        op: BinOp,
        left: u16,
        right: u16,
    },
    IsNull {
        dst: u16,
        src: u16,
        negated: bool,
    },
    /// `LIKE` against a constant pattern compiled at emission.
    LikePre {
        dst: u16,
        src: u16,
        matcher: u32,
        negated: bool,
    },
    /// `LIKE` with a dynamic pattern.
    Like {
        dst: u16,
        src: u16,
        pattern: u16,
        negated: bool,
    },
    /// Open an `IN` evaluation: `NULL` scrutinee short-circuits the whole
    /// list to `NULL`; otherwise `dst` starts as the no-match verdict.
    InInit {
        dst: u16,
        src: u16,
        negated: bool,
        end: u32,
    },
    /// Check one (just-evaluated) member against the scrutinee.
    InStep {
        dst: u16,
        src: u16,
        member: u16,
        negated: bool,
        end: u32,
    },
    /// Short-circuit `AND`/`OR`: when `dst` is already decisive (`as_bool()
    /// == Some(on)`), normalize it to `Bool(on)` and skip the other operand.
    /// Emitted only over infallible operands.
    Fuse {
        dst: u16,
        on: bool,
        target: u32,
    },
}

/// Per-evaluation VM counters, accumulated by the dispatcher into telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmStats {
    /// Instructions retired.
    pub instructions: u64,
}

/// A compiled condition: straight-line register bytecode plus the constant
/// and matcher pools it references. Emitted when its rule is planned;
/// evaluation is lock-free and read-only.
#[derive(Debug, Clone)]
pub struct Program {
    code: Vec<Inst>,
    consts: Vec<Value>,
    matchers: Vec<LikeMatcher>,
    /// Register-file size this program needs.
    pub nregs: usize,
    /// Register holding the condition value after the last instruction.
    result: u16,
}

thread_local! {
    /// Register file reused across evaluations; grows to the largest
    /// program seen on this thread and then stays allocation-free.
    static REGS: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

impl Program {
    /// Emit bytecode for `cond`. The second parameter is retired and
    /// ignored: it assigned cross-rule CSE slots, which are gone. It stays
    /// for `benchmark/src/layers.rs`, which passes an empty map, until that
    /// file goes.
    pub fn emit(cond: &CondIr, _retired: &HashMap<NodeId, u16>) -> Program {
        let mut e = Emitter {
            cond,
            code: Vec::new(),
            matchers: Vec::new(),
            nregs: 0,
            free: Vec::new(),
        };
        let result = e.emit(cond.root);
        Program {
            code: e.code,
            consts: cond.consts.clone(),
            matchers: e.matchers,
            nregs: e.nregs as usize,
            result,
        }
    }

    /// Instruction count (for plan summaries and tests).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Run the program to a raw value.
    pub fn eval(&self, ctx: &EvalContext, stats: &mut VmStats) -> Result<Value> {
        REGS.with(|r| {
            let mut regs = r.borrow_mut();
            if regs.len() < self.nregs {
                regs.resize(self.nregs, Value::Null);
            }
            self.run(&mut regs, ctx, stats)
        })
    }

    fn run(&self, regs: &mut [Value], ctx: &EvalContext, stats: &mut VmStats) -> Result<Value> {
        let code = &self.code;
        let mut pc = 0usize;
        while pc < code.len() {
            stats.instructions += 1;
            match &code[pc] {
                Inst::Const { dst, idx } => {
                    regs[*dst as usize] = self.consts[*idx as usize].clone();
                }
                Inst::Attr { dst, class, index } => {
                    let obj = ctx
                        .objects
                        .iter()
                        .find(|o| o.class == *class)
                        .ok_or_else(|| {
                            Error::Monitor(format!("class {class} is not in scope for this event"))
                        })?;
                    regs[*dst as usize] =
                        obj.values().get(*index).cloned().ok_or_else(|| {
                            Error::Monitor(format!("attribute {index} out of range"))
                        })?;
                }
                Inst::LatCol {
                    dst,
                    lat_idx,
                    index,
                } => {
                    regs[*dst as usize] = match ctx.lat_rows.get(*lat_idx) {
                        Some(LatBinding { row: Some(row), .. }) => row[*index].clone(),
                        Some(LatBinding { row: None, .. }) => return Err(Error::NoLatRow),
                        None => {
                            return Err(Error::Monitor(format!(
                                "LAT binding {lat_idx} missing from evaluation context"
                            )))
                        }
                    };
                }
                Inst::Neg { dst, src } => {
                    regs[*dst as usize] = apply_unary(UnaryOp::Neg, &regs[*src as usize])?;
                }
                Inst::Not { dst, src } => {
                    regs[*dst as usize] = apply_unary(UnaryOp::Not, &regs[*src as usize])?;
                }
                Inst::Binary {
                    dst,
                    op,
                    left,
                    right,
                } => {
                    regs[*dst as usize] =
                        apply_binary(*op, &regs[*left as usize], &regs[*right as usize])?;
                }
                Inst::IsNull { dst, src, negated } => {
                    regs[*dst as usize] = Value::Bool(regs[*src as usize].is_null() != *negated);
                }
                Inst::LikePre {
                    dst,
                    src,
                    matcher,
                    negated,
                } => {
                    regs[*dst as usize] = match regs[*src as usize].as_str() {
                        Some(s) => {
                            Value::Bool(self.matchers[*matcher as usize].is_match(s) != *negated)
                        }
                        None => Value::Null,
                    };
                }
                Inst::Like {
                    dst,
                    src,
                    pattern,
                    negated,
                } => {
                    let v = match (
                        regs[*src as usize].as_str(),
                        regs[*pattern as usize].as_str(),
                    ) {
                        (Some(s), Some(pat)) => {
                            Value::Bool(LikeMatcher::new(pat).is_match(s) != *negated)
                        }
                        _ => Value::Null,
                    };
                    regs[*dst as usize] = v;
                }
                Inst::InInit {
                    dst,
                    src,
                    negated,
                    end,
                } => {
                    if regs[*src as usize].is_null() {
                        regs[*dst as usize] = Value::Null;
                        pc = *end as usize;
                        continue;
                    }
                    regs[*dst as usize] = Value::Bool(*negated);
                }
                Inst::InStep {
                    dst,
                    src,
                    member,
                    negated,
                    end,
                } => {
                    let m = &regs[*member as usize];
                    if m.is_null() {
                        // First NULL member flips the pending verdict to
                        // NULL; a later literal match still wins.
                        if regs[*dst as usize] == Value::Bool(*negated) {
                            regs[*dst as usize] = Value::Null;
                        }
                    } else if *m == regs[*src as usize] {
                        regs[*dst as usize] = Value::Bool(!*negated);
                        pc = *end as usize;
                        continue;
                    }
                }
                Inst::Fuse { dst, on, target } => {
                    if regs[*dst as usize].as_bool() == Some(*on) {
                        regs[*dst as usize] = Value::Bool(*on);
                        pc = *target as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        Ok(regs[self.result as usize].clone())
    }
}

/// Evaluate a compiled condition with the implicit-∃ semantics: a missing
/// LAT row makes the condition false, genuine errors propagate. The third
/// parameter is retired and ignored: it was the per-event CSE slot scratch.
/// It stays for `benchmark/src/layers.rs`, which passes `&mut []`, until
/// that file goes.
pub fn eval_condition(
    prog: &Program,
    ctx: &EvalContext,
    _retired: &mut [Option<Value>],
    stats: &mut VmStats,
) -> Result<bool> {
    match prog.eval(ctx, stats) {
        Ok(v) => Ok(v.as_bool() == Some(true)),
        Err(Error::NoLatRow) => Ok(false),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------- emission

struct Emitter<'a> {
    cond: &'a CondIr,
    code: Vec<Inst>,
    matchers: Vec<LikeMatcher>,
    nregs: u16,
    free: Vec<u16>,
}

impl Emitter<'_> {
    fn alloc(&mut self) -> u16 {
        self.free.pop().unwrap_or_else(|| {
            self.nregs += 1;
            self.nregs - 1
        })
    }

    fn release(&mut self, r: u16) {
        self.free.push(r);
    }

    /// Emit the subtree rooted at `id`; returns its result register.
    fn emit(&mut self, id: NodeId) -> u16 {
        let cond = self.cond;
        match *cond.op(id) {
            IrOp::Const(idx) => {
                let dst = self.alloc();
                self.code.push(Inst::Const { dst, idx });
                dst
            }
            IrOp::Ref(r) => {
                let dst = self.alloc();
                self.code.push(match cond.resolved[r as usize].clone() {
                    Resolved::Attr { class, index } => Inst::Attr { dst, class, index },
                    Resolved::LatCol { lat_idx, index } => Inst::LatCol {
                        dst,
                        lat_idx,
                        index,
                    },
                });
                dst
            }
            IrOp::Param(_) | IrOp::NamedParam(_) | IrOp::FuncCall { .. } => {
                unreachable!("CondIr::from_ir rejects parameters and function calls")
            }
            IrOp::Unary { op, expr } => {
                let s = self.emit(expr);
                self.code.push(match op {
                    UnaryOp::Neg => Inst::Neg { dst: s, src: s },
                    UnaryOp::Not => Inst::Not { dst: s, src: s },
                });
                s
            }
            IrOp::Binary { left, op, right } => {
                let l = self.emit(left);
                // Short-circuit layout: legal only when skipping the right
                // operand cannot swallow an error it would have raised.
                let fuse_at = match op {
                    BinOp::And | BinOp::Or if cond.is_infallible(right) => {
                        self.code.push(Inst::Fuse {
                            dst: l,
                            on: op == BinOp::Or,
                            target: 0,
                        });
                        Some(self.code.len() - 1)
                    }
                    _ => None,
                };
                let r = self.emit(right);
                self.code.push(Inst::Binary {
                    dst: l,
                    op,
                    left: l,
                    right: r,
                });
                self.release(r);
                if let Some(at) = fuse_at {
                    let target = self.code.len() as u32;
                    if let Inst::Fuse { dst, on, .. } = self.code[at] {
                        self.code[at] = Inst::Fuse { dst, on, target };
                    }
                }
                l
            }
            IrOp::IsNull { expr, negated } => {
                let s = self.emit(expr);
                self.code.push(Inst::IsNull {
                    dst: s,
                    src: s,
                    negated,
                });
                s
            }
            IrOp::Like {
                expr,
                pattern,
                negated,
            } => {
                let s = self.emit(expr);
                match cond.const_value(pattern) {
                    Some(Value::Text(p)) => {
                        self.matchers.push(LikeMatcher::new(p));
                        self.code.push(Inst::LikePre {
                            dst: s,
                            src: s,
                            matcher: (self.matchers.len() - 1) as u32,
                            negated,
                        });
                    }
                    _ => {
                        let p = self.emit(pattern);
                        self.code.push(Inst::Like {
                            dst: s,
                            src: s,
                            pattern: p,
                            negated,
                        });
                        self.release(p);
                    }
                }
                s
            }
            IrOp::InList {
                expr,
                list,
                negated,
            } => {
                let s = self.emit(expr);
                let dst = self.alloc();
                let mut patch = vec![self.code.len()];
                self.code.push(Inst::InInit {
                    dst,
                    src: s,
                    negated,
                    end: 0,
                });
                for &m in &cond.lists[list as usize] {
                    let mr = self.emit(m);
                    patch.push(self.code.len());
                    self.code.push(Inst::InStep {
                        dst,
                        src: s,
                        member: mr,
                        negated,
                        end: 0,
                    });
                    self.release(mr);
                }
                let end = self.code.len() as u32;
                for at in patch {
                    match &mut self.code[at] {
                        Inst::InInit { end: e, .. } | Inst::InStep { end: e, .. } => *e = end,
                        _ => unreachable!(),
                    }
                }
                self.release(s);
                dst
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lat::{Lat, LatAggFunc, LatSpec};
    use sqlcm_common::ManualClock;
    use sqlcm_sql::{parse_expression, ExprIr};
    use std::sync::Arc;

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

    fn program(src: &str) -> Program {
        let mut lats = HashMap::new();
        lats.insert("duration_lat".to_string(), duration_lat());
        let ir = ExprIr::lower(&parse_expression(src).unwrap()).fold();
        let cond = CondIr::from_ir(&ir, &lats, &["Duration_LAT".to_string()]).unwrap();
        Program::emit(&cond, &HashMap::new())
    }

    #[test]
    fn constant_like_patterns_precompile() {
        let prog = program("Query.Query_Text LIKE 'SELECT%'");
        assert_eq!(prog.matchers.len(), 1);
        assert!(prog.matchers[0].is_match("SELECT 1"));
        assert!(matches!(
            prog.code.last(),
            Some(Inst::LikePre { matcher: 0, .. })
        ));
        // A dynamic pattern stays generic.
        let prog = program("Query.Query_Text LIKE Query.User");
        assert!(prog.matchers.is_empty());
        assert!(matches!(prog.code.last(), Some(Inst::Like { .. })));
    }
}
