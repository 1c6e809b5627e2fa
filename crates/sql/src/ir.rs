//! Flat expression IR: the single shared representation of rule-condition
//! expressions.
//!
//! The AST ([`crate::Expr`]) is a boxed recursive tree — good for parsing,
//! bad for everything after it: the runtime compiled it into *another* boxed
//! tree, and every analyzer pass re-walked the AST independently. This module
//! lowers an expression **once** into a `Vec`-arena of [`IrOp`]s with operand
//! indices (post-order, root last) plus side pools for constants, column
//! references, names, and `IN`-list member vectors. Per node it precomputes:
//!
//! * a **canonical structural hash** (deterministic FNV-1a over opcode,
//!   child hashes, and immediates; qualifiers and names are hashed
//!   case-folded so `d_lat.n` and `D_LAT.N` share a hash). Equal hashes are
//!   the analyzer's cross-rule predicate key (W102 duplicate conditions,
//!   W105 shared predicates) — deliberately *without* commutative
//!   normalization, because `a AND b` and `b AND a` evaluate their operands
//!   (and surface their errors) in different orders;
//! * the **subtree size** in ops (lint thresholds);
//! * **boolish**: the node's value is always `Bool` or `Null` (safe to
//!   substitute through boolean identities);
//! * **infallible**: evaluation can never return `Err` — no column reads
//!   (missing-LAT-row ∃ sentinel), no checked arithmetic, no division.
//!
//! [`ExprIr::fold`] runs the build-time passes: constant folding with the
//! runtime's exact semantics (a subtree that would *error* at runtime — for
//! example `1 / 0` — is left unfolded so the runtime error survives) and
//! guarded boolean simplification (`x AND TRUE → x` only when `x` is
//! boolish; `x AND FALSE → FALSE` additionally requires `x` infallible,
//! because dropping `x` must not mask the error it would have raised).
//!
//! The refs pool doubles as the trace explainer's side-channel: it records
//! every qualified column reference in first-appearance order, exactly the
//! order the old AST walk produced.

use std::hash::{Hash, Hasher};

use sqlcm_common::{Result, Value};

use crate::ast::{BinOp, Expr, UnaryOp};

/// Index of a node in [`ExprIr::ops`].
pub type NodeId = u32;

/// One flat-IR operation. Children are [`NodeId`]s pointing at earlier arena
/// slots (the arena is in post-order, so `ops[root]` is always last).
#[derive(Debug, Clone, PartialEq)]
pub enum IrOp {
    /// Literal; index into [`ExprIr::consts`].
    Const(u32),
    /// Column reference; index into [`ExprIr::refs`].
    Ref(u32),
    /// Positional parameter (rejected by the runtime compiler; kept so the
    /// analyzer sees the same shape the parser produced).
    Param(usize),
    /// Named parameter; index into [`ExprIr::names`].
    NamedParam(u32),
    Unary {
        op: UnaryOp,
        expr: NodeId,
    },
    Binary {
        left: NodeId,
        op: BinOp,
        right: NodeId,
    },
    IsNull {
        expr: NodeId,
        negated: bool,
    },
    Like {
        expr: NodeId,
        pattern: NodeId,
        negated: bool,
    },
    /// Members live in [`ExprIr::lists`] at the given index.
    InList {
        expr: NodeId,
        list: u32,
        negated: bool,
    },
    /// Function call (rejected by the runtime compiler). `name` indexes
    /// [`ExprIr::names`], `args` indexes [`ExprIr::lists`].
    FuncCall {
        name: u32,
        args: u32,
        star: bool,
    },
}

/// A lowered expression: flat op arena plus constant/reference pools and
/// per-node analysis facts. See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprIr {
    pub ops: Vec<IrOp>,
    pub root: NodeId,
    pub consts: Vec<Value>,
    /// Qualified and unqualified column references `(qualifier, name)` as
    /// written, deduplicated exactly, in first-appearance (left-to-right)
    /// order — the explainer side-channel.
    pub refs: Vec<(Option<String>, String)>,
    /// Named-parameter and function names.
    pub names: Vec<String>,
    /// `IN`-list member vectors and function argument vectors.
    pub lists: Vec<Vec<NodeId>>,
    /// Canonical structural hash per node.
    pub hashes: Vec<u64>,
    /// Subtree size in ops per node.
    pub sizes: Vec<u32>,
    /// Node always evaluates to `Bool` or `Null`.
    pub boolish: Vec<bool>,
    /// Node can never evaluate to `Err`.
    pub infallible: Vec<bool>,
    /// Ops eliminated relative to the expression this one was folded from
    /// (0 for a freshly lowered IR).
    pub folded_ops: u32,
}

/// Deterministic FNV-1a, so canonical hashes are stable across processes
/// (the default `std` hasher makes no such promise).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_parts(tag: u8, children: &[u64], imm: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv::new();
    h.write_u8(tag);
    for c in children {
        h.write_u64(*c);
    }
    imm(&mut h);
    h.finish()
}

impl ExprIr {
    /// Lower an AST expression into a fresh flat IR.
    pub fn lower(e: &Expr) -> ExprIr {
        let mut ir = ExprIr {
            ops: Vec::new(),
            root: 0,
            consts: Vec::new(),
            refs: Vec::new(),
            names: Vec::new(),
            lists: Vec::new(),
            hashes: Vec::new(),
            sizes: Vec::new(),
            boolish: Vec::new(),
            infallible: Vec::new(),
            folded_ops: 0,
        };
        ir.root = ir.lower_node(e);
        ir
    }

    fn lower_node(&mut self, e: &Expr) -> NodeId {
        match e {
            Expr::Literal(v) => self.push_const(v.clone()),
            Expr::Column { qualifier, name } => {
                let key = (qualifier.clone(), name.clone());
                let idx = match self.refs.iter().position(|r| *r == key) {
                    Some(i) => i as u32,
                    None => {
                        self.refs.push(key);
                        (self.refs.len() - 1) as u32
                    }
                };
                self.push(IrOp::Ref(idx))
            }
            Expr::Param(i) => self.push(IrOp::Param(*i)),
            Expr::NamedParam(n) => {
                let idx = self.push_name(n);
                self.push(IrOp::NamedParam(idx))
            }
            Expr::Unary { op, expr } => {
                let c = self.lower_node(expr);
                self.push(IrOp::Unary { op: *op, expr: c })
            }
            Expr::Binary { left, op, right } => {
                let l = self.lower_node(left);
                let r = self.lower_node(right);
                self.push(IrOp::Binary {
                    left: l,
                    op: *op,
                    right: r,
                })
            }
            Expr::IsNull { expr, negated } => {
                let c = self.lower_node(expr);
                self.push(IrOp::IsNull {
                    expr: c,
                    negated: *negated,
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.lower_node(expr);
                let p = self.lower_node(pattern);
                self.push(IrOp::Like {
                    expr: v,
                    pattern: p,
                    negated: *negated,
                })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.lower_node(expr);
                let members: Vec<NodeId> = list.iter().map(|m| self.lower_node(m)).collect();
                self.lists.push(members);
                self.push(IrOp::InList {
                    expr: v,
                    list: (self.lists.len() - 1) as u32,
                    negated: *negated,
                })
            }
            Expr::FuncCall { name, args, star } => {
                let argv: Vec<NodeId> = args.iter().map(|a| self.lower_node(a)).collect();
                self.lists.push(argv);
                let n = self.push_name(name);
                self.push(IrOp::FuncCall {
                    name: n,
                    args: (self.lists.len() - 1) as u32,
                    star: *star,
                })
            }
        }
    }

    fn push_name(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u32
            }
        }
    }

    fn push_const(&mut self, v: Value) -> NodeId {
        // No pool dedup: `Value`'s SQL equality conflates `1` and `1.0`,
        // which render (and overflow) differently.
        self.consts.push(v);
        self.push(IrOp::Const((self.consts.len() - 1) as u32))
    }

    /// Append `op`, computing the per-node facts. Children must already be
    /// in the arena.
    fn push(&mut self, op: IrOp) -> NodeId {
        let (hash, size, boolish, infallible) = self.facts(&op);
        self.ops.push(op);
        self.hashes.push(hash);
        self.sizes.push(size);
        self.boolish.push(boolish);
        self.infallible.push(infallible);
        (self.ops.len() - 1) as NodeId
    }

    fn facts(&self, op: &IrOp) -> (u64, u32, bool, bool) {
        let h = |id: NodeId| self.hashes[id as usize];
        let sz = |id: NodeId| self.sizes[id as usize];
        let inf = |id: NodeId| self.infallible[id as usize];
        match op {
            IrOp::Const(c) => {
                let v = &self.consts[*c as usize];
                let hash = hash_parts(0, &[], |f| {
                    // Distinguish Int/Float/etc.: SQL-equal values of
                    // different types have different runtime semantics
                    // (checked vs IEEE arithmetic).
                    f.write_u8(match v {
                        Value::Null => 0,
                        Value::Int(_) => 1,
                        Value::Float(_) => 2,
                        Value::Text(_) => 3,
                        Value::Bool(_) => 4,
                        Value::Timestamp(_) => 5,
                        Value::Blob(_) => 6,
                    });
                    v.hash(f);
                });
                let boolish = matches!(v, Value::Bool(_) | Value::Null);
                (hash, 1, boolish, true)
            }
            IrOp::Ref(r) => {
                let (q, n) = &self.refs[*r as usize];
                let hash = hash_parts(1, &[], |f| {
                    if let Some(q) = q {
                        for b in q.as_bytes() {
                            f.write_u8(b.to_ascii_lowercase());
                        }
                    }
                    f.write_u8(0xfe);
                    for b in n.as_bytes() {
                        f.write_u8(b.to_ascii_lowercase());
                    }
                });
                (hash, 1, false, false)
            }
            IrOp::Param(i) => (hash_parts(2, &[], |f| f.write_usize(*i)), 1, false, false),
            IrOp::NamedParam(n) => (
                hash_parts(3, &[], |f| self.names[*n as usize].hash(f)),
                1,
                false,
                false,
            ),
            IrOp::Unary { op, expr } => {
                let tag = match op {
                    UnaryOp::Neg => 4,
                    UnaryOp::Not => 5,
                };
                let hash = hash_parts(tag, &[h(*expr)], |_| {});
                match op {
                    // Neg is `0 - x`: checked integer subtraction can error.
                    UnaryOp::Neg => (hash, 1 + sz(*expr), false, false),
                    UnaryOp::Not => (hash, 1 + sz(*expr), true, inf(*expr)),
                }
            }
            IrOp::Binary { left, op, right } => {
                let hash = hash_parts(6, &[h(*left), h(*right)], |f| f.write_u8(binop_tag(*op)));
                let size = 1 + sz(*left) + sz(*right);
                let kids_inf = inf(*left) && inf(*right);
                match op {
                    BinOp::And | BinOp::Or => (hash, size, true, kids_inf),
                    BinOp::Eq
                    | BinOp::NotEq
                    | BinOp::Lt
                    | BinOp::Gt
                    | BinOp::LtEq
                    | BinOp::GtEq => (hash, size, true, kids_inf),
                    // Checked integer arithmetic and division can error.
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => (hash, size, false, false),
                    // Mod degrades to NULL instead of erroring.
                    BinOp::Mod => (hash, size, false, kids_inf),
                }
            }
            IrOp::IsNull { expr, negated } => {
                let hash = hash_parts(7, &[h(*expr)], |f| f.write_u8(u8::from(*negated)));
                (hash, 1 + sz(*expr), true, inf(*expr))
            }
            IrOp::Like {
                expr,
                pattern,
                negated,
            } => {
                let hash = hash_parts(8, &[h(*expr), h(*pattern)], |f| {
                    f.write_u8(u8::from(*negated));
                });
                (
                    hash,
                    1 + sz(*expr) + sz(*pattern),
                    true,
                    inf(*expr) && inf(*pattern),
                )
            }
            IrOp::InList {
                expr,
                list,
                negated,
            } => {
                let members = &self.lists[*list as usize];
                let mut children = vec![h(*expr)];
                children.extend(members.iter().map(|m| h(*m)));
                let hash = hash_parts(9, &children, |f| f.write_u8(u8::from(*negated)));
                let size = 1 + sz(*expr) + members.iter().map(|m| sz(*m)).sum::<u32>();
                let infallible = inf(*expr) && members.iter().all(|m| inf(*m));
                (hash, size, true, infallible)
            }
            IrOp::FuncCall { name, args, star } => {
                let argv = &self.lists[*args as usize];
                let children: Vec<u64> = argv.iter().map(|a| h(*a)).collect();
                let hash = hash_parts(10, &children, |f| {
                    self.names[*name as usize].hash(f);
                    f.write_u8(u8::from(*star));
                });
                let size = 1 + argv.iter().map(|a| sz(*a)).sum::<u32>();
                (hash, size, false, false)
            }
        }
    }

    pub fn op(&self, id: NodeId) -> &IrOp {
        &self.ops[id as usize]
    }

    pub fn hash_of(&self, id: NodeId) -> u64 {
        self.hashes[id as usize]
    }

    pub fn size_of(&self, id: NodeId) -> u32 {
        self.sizes[id as usize]
    }

    pub fn is_boolish(&self, id: NodeId) -> bool {
        self.boolish[id as usize]
    }

    pub fn is_infallible(&self, id: NodeId) -> bool {
        self.infallible[id as usize]
    }

    /// The literal value of `id`, when it is a constant node.
    pub fn const_value(&self, id: NodeId) -> Option<&Value> {
        match self.op(id) {
            IrOp::Const(c) => Some(&self.consts[*c as usize]),
            _ => None,
        }
    }

    /// The operands of `id`, left to right: a `LIKE`'s pattern after its
    /// subject, an `IN` list's members after its scrutinee.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let (head, tail): ([Option<NodeId>; 2], &[NodeId]) = match self.op(id) {
            IrOp::Const(_) | IrOp::Ref(_) | IrOp::Param(_) | IrOp::NamedParam(_) => {
                ([None, None], &[])
            }
            IrOp::Unary { expr, .. } | IrOp::IsNull { expr, .. } => ([Some(*expr), None], &[]),
            IrOp::Binary { left, right, .. } => ([Some(*left), Some(*right)], &[]),
            IrOp::Like { expr, pattern, .. } => ([Some(*expr), Some(*pattern)], &[]),
            IrOp::InList { expr, list, .. } => ([Some(*expr), None], &self.lists[*list as usize]),
            IrOp::FuncCall { args, .. } => ([None, None], &self.lists[*args as usize]),
        };
        head.into_iter().flatten().chain(tail.iter().copied())
    }

    /// Pre-order walk of the subtree rooted at `id`.
    pub fn for_each(&self, id: NodeId, f: &mut impl FnMut(NodeId)) {
        f(id);
        for child in self.children(id) {
            self.for_each(child, f);
        }
    }

    /// Structural equality of two subtrees (possibly in different arenas) —
    /// the hash-collision guard of the analyzer's predicate keys.
    pub fn subtree_eq(&self, id: NodeId, other: &ExprIr, oid: NodeId) -> bool {
        match (self.op(id), other.op(oid)) {
            (IrOp::Const(a), IrOp::Const(b)) => {
                let (va, vb) = (&self.consts[*a as usize], &other.consts[*b as usize]);
                std::mem::discriminant(va) == std::mem::discriminant(vb) && va == vb
            }
            (IrOp::Ref(a), IrOp::Ref(b)) => {
                let (qa, na) = &self.refs[*a as usize];
                let (qb, nb) = &other.refs[*b as usize];
                na.eq_ignore_ascii_case(nb)
                    && match (qa, qb) {
                        (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
                        (None, None) => true,
                        _ => false,
                    }
            }
            (IrOp::Param(a), IrOp::Param(b)) => a == b,
            (IrOp::NamedParam(a), IrOp::NamedParam(b)) => {
                self.names[*a as usize] == other.names[*b as usize]
            }
            (IrOp::Unary { op: oa, expr: ea }, IrOp::Unary { op: ob, expr: eb }) => {
                oa == ob && self.subtree_eq(*ea, other, *eb)
            }
            (
                IrOp::Binary {
                    left: la,
                    op: oa,
                    right: ra,
                },
                IrOp::Binary {
                    left: lb,
                    op: ob,
                    right: rb,
                },
            ) => oa == ob && self.subtree_eq(*la, other, *lb) && self.subtree_eq(*ra, other, *rb),
            (
                IrOp::IsNull {
                    expr: ea,
                    negated: na,
                },
                IrOp::IsNull {
                    expr: eb,
                    negated: nb,
                },
            ) => na == nb && self.subtree_eq(*ea, other, *eb),
            (
                IrOp::Like {
                    expr: ea,
                    pattern: pa,
                    negated: na,
                },
                IrOp::Like {
                    expr: eb,
                    pattern: pb,
                    negated: nb,
                },
            ) => na == nb && self.subtree_eq(*ea, other, *eb) && self.subtree_eq(*pa, other, *pb),
            (
                IrOp::InList {
                    expr: ea,
                    list: la,
                    negated: na,
                },
                IrOp::InList {
                    expr: eb,
                    list: lb,
                    negated: nb,
                },
            ) => {
                let (ma, mb) = (&self.lists[*la as usize], &other.lists[*lb as usize]);
                na == nb
                    && ma.len() == mb.len()
                    && self.subtree_eq(*ea, other, *eb)
                    && ma
                        .iter()
                        .zip(mb.iter())
                        .all(|(x, y)| self.subtree_eq(*x, other, *y))
            }
            (
                IrOp::FuncCall {
                    name: na,
                    args: aa,
                    star: sa,
                },
                IrOp::FuncCall {
                    name: nb,
                    args: ab,
                    star: sb,
                },
            ) => {
                let (xa, xb) = (&self.lists[*aa as usize], &other.lists[*ab as usize]);
                sa == sb
                    && self.names[*na as usize] == other.names[*nb as usize]
                    && xa.len() == xb.len()
                    && xa
                        .iter()
                        .zip(xb.iter())
                        .all(|(x, y)| self.subtree_eq(*x, other, *y))
            }
            _ => false,
        }
    }

    /// Rebuild the AST subtree rooted at `id`. Rendering through the AST's
    /// own printer keeps every diagnostic span and explain string
    /// byte-identical to the pre-IR output.
    pub fn to_expr(&self, id: NodeId) -> Expr {
        match self.op(id) {
            IrOp::Const(c) => Expr::Literal(self.consts[*c as usize].clone()),
            IrOp::Ref(r) => {
                let (q, n) = &self.refs[*r as usize];
                Expr::Column {
                    qualifier: q.clone(),
                    name: n.clone(),
                }
            }
            IrOp::Param(i) => Expr::Param(*i),
            IrOp::NamedParam(n) => Expr::NamedParam(self.names[*n as usize].clone()),
            IrOp::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(self.to_expr(*expr)),
            },
            IrOp::Binary { left, op, right } => Expr::Binary {
                left: Box::new(self.to_expr(*left)),
                op: *op,
                right: Box::new(self.to_expr(*right)),
            },
            IrOp::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.to_expr(*expr)),
                negated: *negated,
            },
            IrOp::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(self.to_expr(*expr)),
                pattern: Box::new(self.to_expr(*pattern)),
                negated: *negated,
            },
            IrOp::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(self.to_expr(*expr)),
                list: self.lists[*list as usize]
                    .iter()
                    .map(|m| self.to_expr(*m))
                    .collect(),
                negated: *negated,
            },
            IrOp::FuncCall { name, args, star } => Expr::FuncCall {
                name: self.names[*name as usize].clone(),
                args: self.lists[*args as usize]
                    .iter()
                    .map(|a| self.to_expr(*a))
                    .collect(),
                star: *star,
            },
        }
    }

    /// Render the subtree rooted at `id` exactly as the AST printer would.
    pub fn render(&self, id: NodeId) -> String {
        self.to_expr(id).to_string()
    }

    /// Lazy [`std::fmt::Display`] adapter for diagnostics.
    pub fn disp(&self, id: NodeId) -> DisplayNode<'_> {
        DisplayNode { ir: self, id }
    }

    // -------------------------------------------------------------- passes

    /// Constant folding + guarded boolean simplification. Returns a new IR
    /// with `folded_ops` counting the eliminated ops. The refs pool is
    /// carried over verbatim (folding never removes a column read from the
    /// explainer side-channel — only constant subtrees fold, and the only
    /// simplification that drops a non-constant operand requires it to be
    /// infallible, hence reference-free).
    pub fn fold(&self) -> ExprIr {
        let mut out = ExprIr {
            ops: Vec::new(),
            root: 0,
            consts: Vec::new(),
            refs: self.refs.clone(),
            names: Vec::new(),
            lists: Vec::new(),
            hashes: Vec::new(),
            sizes: Vec::new(),
            boolish: Vec::new(),
            infallible: Vec::new(),
            folded_ops: 0,
        };
        out.root = self.fold_node(self.root, &mut out);
        out.folded_ops = (self.ops.len() as u32).saturating_sub(out.ops.len() as u32);
        out
    }

    fn fold_node(&self, id: NodeId, out: &mut ExprIr) -> NodeId {
        match self.op(id) {
            IrOp::Const(c) => out.push_const(self.consts[*c as usize].clone()),
            IrOp::Ref(r) => {
                // Refs were carried over verbatim; reuse the same index.
                out.push(IrOp::Ref(*r))
            }
            IrOp::Param(i) => out.push(IrOp::Param(*i)),
            IrOp::NamedParam(n) => {
                let idx = out.push_name(&self.names[*n as usize]);
                out.push(IrOp::NamedParam(idx))
            }
            IrOp::Unary { op, expr } => {
                let c = self.fold_node(*expr, out);
                if let Some(v) = out.const_value(c) {
                    if let Ok(folded) = apply_unary(*op, v) {
                        out.truncate_to(c);
                        return out.push_const(folded);
                    }
                }
                // NOT (NOT x) → x when x is boolish (NOT of Bool-or-Null is
                // Bool-or-Null either way).
                if *op == UnaryOp::Not {
                    if let IrOp::Unary {
                        op: UnaryOp::Not,
                        expr: inner,
                    } = *out.op(c)
                    {
                        if out.is_boolish(inner) && inner == c - 1 {
                            out.pop_last();
                            return inner;
                        }
                    }
                }
                out.push(IrOp::Unary { op: *op, expr: c })
            }
            IrOp::Binary { left, op, right } => {
                let l = self.fold_node(*left, out);
                let r = self.fold_node(*right, out);
                if let (Some(lv), Some(rv)) = (out.const_value(l), out.const_value(r)) {
                    if let Ok(folded) = apply_binary(*op, lv, rv) {
                        out.truncate_to(l);
                        return out.push_const(folded);
                    }
                }
                if let Some(simplified) = out.simplify_bool(*op, l, r) {
                    return simplified;
                }
                out.push(IrOp::Binary {
                    left: l,
                    op: *op,
                    right: r,
                })
            }
            IrOp::IsNull { expr, negated } => {
                let c = self.fold_node(*expr, out);
                if let Some(v) = out.const_value(c) {
                    let folded = Value::Bool(v.is_null() != *negated);
                    out.truncate_to(c);
                    return out.push_const(folded);
                }
                out.push(IrOp::IsNull {
                    expr: c,
                    negated: *negated,
                })
            }
            IrOp::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.fold_node(*expr, out);
                let p = self.fold_node(*pattern, out);
                if let (Some(vv), Some(pv)) = (out.const_value(v), out.const_value(p)) {
                    let folded = match (vv.as_str(), pv.as_str()) {
                        (Some(s), Some(pat)) => {
                            Value::Bool(LikeMatcher::new(pat).is_match(s) != *negated)
                        }
                        _ => Value::Null,
                    };
                    out.truncate_to(v);
                    return out.push_const(folded);
                }
                out.push(IrOp::Like {
                    expr: v,
                    pattern: p,
                    negated: *negated,
                })
            }
            IrOp::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.fold_node(*expr, out);
                let members: Vec<NodeId> = self.lists[*list as usize]
                    .iter()
                    .map(|m| self.fold_node(*m, out))
                    .collect();
                let all_const = out.const_value(v).is_some()
                    && members.iter().all(|m| out.const_value(*m).is_some());
                if all_const {
                    let scrutinee = out.const_value(v).unwrap().clone();
                    let folded = if scrutinee.is_null() {
                        Value::Null
                    } else {
                        let mut saw_null = false;
                        let mut found = false;
                        for m in &members {
                            let mv = out.const_value(*m).unwrap();
                            if mv.is_null() {
                                saw_null = true;
                            } else if *mv == scrutinee {
                                found = true;
                                break;
                            }
                        }
                        if found {
                            Value::Bool(!*negated)
                        } else if saw_null {
                            Value::Null
                        } else {
                            Value::Bool(*negated)
                        }
                    };
                    out.truncate_to(v);
                    return out.push_const(folded);
                }
                out.lists.push(members);
                out.push(IrOp::InList {
                    expr: v,
                    list: (out.lists.len() - 1) as u32,
                    negated: *negated,
                })
            }
            IrOp::FuncCall { name, args, star } => {
                let argv: Vec<NodeId> = self.lists[*args as usize]
                    .iter()
                    .map(|a| self.fold_node(*a, out))
                    .collect();
                out.lists.push(argv);
                let n = out.push_name(&self.names[*name as usize]);
                out.push(IrOp::FuncCall {
                    name: n,
                    args: (out.lists.len() - 1) as u32,
                    star: *star,
                })
            }
        }
    }

    /// Boolean identities, applied only when provably semantics-preserving.
    /// `l`/`r` are already-folded children sitting at the top of `self`
    /// (called on the output arena during folding).
    fn simplify_bool(&mut self, op: BinOp, l: NodeId, r: NodeId) -> Option<NodeId> {
        let as_const_bool = |ir: &ExprIr, id: NodeId| match ir.const_value(id) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        };
        match op {
            BinOp::And | BinOp::Or => {
                let (lc, rc) = (as_const_bool(self, l), as_const_bool(self, r));
                let neutral = op == BinOp::And; // AND's neutral is TRUE, OR's FALSE
                                                // x AND TRUE → x / x OR FALSE → x, when x is boolish.
                if rc == Some(neutral) && self.is_boolish(l) && r == self.last() {
                    self.pop_last();
                    return Some(l);
                }
                if lc == Some(neutral) && self.is_boolish(r) {
                    // TRUE AND x → x: x's subtree survives; the constant on
                    // the left stays in the arena as a dead op (harmless —
                    // counted as folded only if later truncated). Rebuild
                    // instead so the arena stays dense.
                    return Some(self.rebuild_over(l, r));
                }
                // x AND FALSE → FALSE / x OR TRUE → TRUE, only when x is
                // infallible: the runtime evaluates both operands, so
                // dropping a fallible x would mask its error (and a missing
                // LAT row in x must still poison the condition to false).
                if rc == Some(!neutral) && self.is_infallible(l) && r == self.last() {
                    self.truncate_to(l);
                    return Some(self.push_const(Value::Bool(!neutral)));
                }
                if lc == Some(!neutral) && self.is_infallible(r) && l < r && r == self.last() {
                    self.truncate_to(l);
                    return Some(self.push_const(Value::Bool(!neutral)));
                }
                None
            }
            _ => None,
        }
    }

    /// Drop the subtree headed by the dead constant at `dead` (which sits
    /// immediately before the live subtree rooted at `live`, the arena top),
    /// re-appending the live subtree so the arena stays dense. Used for
    /// `TRUE AND x → x`.
    fn rebuild_over(&mut self, dead: NodeId, live: NodeId) -> NodeId {
        debug_assert!(dead < live && live == self.last());
        let sub = self.extract(live);
        self.truncate_to(dead);
        self.append_sub(&sub)
    }

    fn last(&self) -> NodeId {
        (self.ops.len() - 1) as NodeId
    }

    fn pop_last(&mut self) {
        self.ops.pop();
        self.hashes.pop();
        self.sizes.pop();
        self.boolish.pop();
        self.infallible.pop();
    }

    /// Truncate the arena so that `first_dead` and everything after it is
    /// removed. Only valid when the removed suffix is entirely dead (its
    /// nodes are not referenced by surviving ops).
    fn truncate_to(&mut self, first_dead: NodeId) {
        let n = first_dead as usize;
        self.ops.truncate(n);
        self.hashes.truncate(n);
        self.sizes.truncate(n);
        self.boolish.truncate(n);
        self.infallible.truncate(n);
    }

    /// Clone the subtree rooted at `id` into a detached mini-IR.
    fn extract(&self, id: NodeId) -> Expr {
        self.to_expr(id)
    }

    fn append_sub(&mut self, e: &Expr) -> NodeId {
        self.lower_node(e)
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Eq => 0,
        BinOp::NotEq => 1,
        BinOp::Lt => 2,
        BinOp::Gt => 3,
        BinOp::LtEq => 4,
        BinOp::GtEq => 5,
        BinOp::Add => 6,
        BinOp::Sub => 7,
        BinOp::Mul => 8,
        BinOp::Div => 9,
        BinOp::Mod => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
    }
}

/// Display adapter produced by [`ExprIr::disp`].
pub struct DisplayNode<'a> {
    ir: &'a ExprIr,
    id: NodeId,
}

impl std::fmt::Display for DisplayNode<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.ir.to_expr(self.id).fmt(f)
    }
}

// ------------------------------------------------- scalar-operator kernel

/// Apply a unary operator to a value — the one definition of the operator
/// semantics, shared by the engine's row evaluator, the condition VM and
/// constant folding (where `Err` means "would error at runtime" and the node
/// is left unfolded so the error survives).
#[inline]
pub fn apply_unary(op: UnaryOp, v: &Value) -> Result<Value> {
    Ok(match op {
        UnaryOp::Neg => Value::Int(0).sub(v)?,
        UnaryOp::Not => match v.as_bool() {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        },
    })
}

/// Apply a binary operator to two already-evaluated operands (see
/// [`apply_unary`]). `+ - * /` are checked and can error; `%` degrades to
/// `NULL` on a zero or non-integer operand; `AND`/`OR` follow SQL
/// three-valued logic; comparisons yield `NULL` when either side is `NULL`.
#[inline]
pub fn apply_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    Ok(match op {
        BinOp::Add => l.add(r)?,
        BinOp::Sub => l.sub(r)?,
        BinOp::Mul => l.mul(r)?,
        BinOp::Div => l.div(r)?,
        BinOp::Mod => match (l.as_i64(), r.as_i64()) {
            (Some(a), Some(b)) if b != 0 => Value::Int(a % b),
            _ => Value::Null,
        },
        BinOp::And => match (l.as_bool(), r.as_bool()) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        BinOp::Or => match (l.as_bool(), r.as_bool()) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        cmp => match l.sql_cmp(r) {
            None => Value::Null,
            Some(ord) => Value::Bool(match cmp {
                BinOp::Eq => ord.is_eq(),
                BinOp::NotEq => !ord.is_eq(),
                BinOp::Lt => ord.is_lt(),
                BinOp::Gt => ord.is_gt(),
                BinOp::LtEq => ord.is_le(),
                BinOp::GtEq => ord.is_ge(),
                _ => unreachable!("arithmetic and logic ops are matched above"),
            }),
        },
    })
}

// ----------------------------------------------------- precompiled matcher

/// A SQL `LIKE` pattern token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok {
    /// `%` — any run of characters (including empty).
    Any,
    /// `_` — exactly one character.
    One,
    Lit(char),
}

/// SQL `LIKE`, the one matcher of the workspace: `%` (any run) and `_` (any
/// single char), case-sensitive, char-wise. A rule's constant pattern is
/// compiled once at registration; the engine and a non-constant pattern
/// compile per evaluation. `is_match` is allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikeMatcher {
    toks: Vec<Tok>,
}

impl LikeMatcher {
    pub fn new(pattern: &str) -> LikeMatcher {
        LikeMatcher {
            toks: pattern
                .chars()
                .map(|c| match c {
                    '%' => Tok::Any,
                    '_' => Tok::One,
                    c => Tok::Lit(c),
                })
                .collect(),
        }
    }

    /// Two-pointer match with backtracking on the last `%`. `si` walks byte
    /// offsets but always lands on char boundaries, so the semantics match
    /// the char-vector interpreter exactly.
    pub fn is_match(&self, s: &str) -> bool {
        let t = &self.toks;
        let (mut si, mut pi) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None;
        while si < s.len() {
            let c = s[si..].chars().next().expect("si on char boundary");
            let step = c.len_utf8();
            // The literal-equality test runs before the wildcard test, as in
            // the char-vector reference: a `%` pattern char consumes a
            // literal `%` subject char first.
            let lit_match = pi < t.len()
                && match t[pi] {
                    Tok::One => true,
                    Tok::Lit(l) => l == c,
                    Tok::Any => c == '%',
                };
            if lit_match {
                si += step;
                pi += 1;
            } else if pi < t.len() && t[pi] == Tok::Any {
                star = Some((pi, si));
                pi += 1;
            } else if let Some((sp, ss)) = star {
                let skip = s[ss..].chars().next().expect("ss on char boundary");
                pi = sp + 1;
                si = ss + skip.len_utf8();
                star = Some((sp, si));
            } else {
                return false;
            }
        }
        while pi < t.len() && t[pi] == Tok::Any {
            pi += 1;
        }
        pi == t.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_expression;

    fn ir_of(s: &str) -> ExprIr {
        ExprIr::lower(&parse_expression(s).unwrap())
    }

    #[test]
    fn lowering_round_trips_through_the_ast_printer() {
        for s in [
            "Query.Duration > 5 * Duration_LAT.Avg_Duration AND Duration_LAT.N >= 30",
            "NOT (A.X = 1) OR B.Y IS NOT NULL",
            "Query.Query_Text LIKE 'SELECT%'",
            "Query.User NOT IN ('admin', 'system', NULL)",
            "-(A.X + 1) / 2 % 3",
            "'it''s' = A.S",
        ] {
            let e = parse_expression(s).unwrap();
            let ir = ExprIr::lower(&e);
            assert_eq!(ir.render(ir.root), e.to_string(), "{s}");
            assert_eq!(ir.size_of(ir.root) as usize, ir.ops.len(), "{s}");
        }
    }

    #[test]
    fn canonical_hashes_are_case_insensitive_and_structural() {
        let a = ir_of("d_lat.n >= 30");
        let b = ir_of("D_LAT.N >= 30");
        assert_eq!(a.hash_of(a.root), b.hash_of(b.root));
        assert!(a.subtree_eq(a.root, &b, b.root));
        let c = ir_of("D_LAT.N >= 31");
        assert_ne!(a.hash_of(a.root), c.hash_of(c.root));
        // No commutative normalization: operand order is error order.
        let x = ir_of("A.X > 0 AND B.Y > 0");
        let y = ir_of("B.Y > 0 AND A.X > 0");
        assert_ne!(x.hash_of(x.root), y.hash_of(y.root));
        // Int and Float literals are semantically different constants.
        let i = ir_of("A.X > 1");
        let f = ir_of("A.X > 1.0");
        assert_ne!(i.hash_of(i.root), f.hash_of(f.root));
    }

    #[test]
    fn constant_folding_matches_runtime_semantics() {
        for (src, want) in [
            ("1 + 2 * 3", "7"),
            ("10 / 4", "2"),
            ("10.0 / 4", "2.5"),
            ("7 % 4", "3"),
            ("1 < 2", "TRUE"),
            ("'abc' LIKE 'a%'", "TRUE"),
            ("'abc' NOT LIKE 'a%'", "FALSE"),
            ("3 IN (1, 2, 3)", "TRUE"),
            ("4 IN (1, 2, NULL)", "NULL"),
            ("NULL IS NULL", "TRUE"),
            ("NOT TRUE", "FALSE"),
            ("-(2 + 3)", "-5"),
        ] {
            let ir = ir_of(src).fold();
            assert_eq!(ir.render(ir.root), want, "{src}");
            assert_eq!(ir.ops.len(), 1, "{src} should fold to one op");
        }
    }

    #[test]
    fn erroring_subtrees_are_left_unfolded() {
        // Division by zero errors at runtime; folding must preserve that.
        let ir = ir_of("1 / 0").fold();
        assert_eq!(ir.render(ir.root), "1 / 0");
        assert_eq!(ir.folded_ops, 0);
        // Type errors too.
        let ir = ir_of("1 + 'x'").fold();
        assert_eq!(ir.render(ir.root), "1 + 'x'");
    }

    #[test]
    fn boolean_identities_are_guarded() {
        // x AND TRUE → x (x boolish).
        let ir = ir_of("A.X > 1 AND TRUE").fold();
        assert_eq!(ir.render(ir.root), "A.X > 1");
        assert!(ir.folded_ops > 0);
        let ir = ir_of("TRUE AND A.X > 1").fold();
        assert_eq!(ir.render(ir.root), "A.X > 1");
        // x OR FALSE → x.
        let ir = ir_of("A.X > 1 OR FALSE").fold();
        assert_eq!(ir.render(ir.root), "A.X > 1");
        // x AND FALSE stays: x reads a column and can error (or poison via
        // a missing LAT row), so the operand must still be evaluated.
        let ir = ir_of("A.X > 1 AND FALSE").fold();
        assert_eq!(ir.render(ir.root), "A.X > 1 AND FALSE");
        // But an infallible x folds away.
        let ir = ir_of("1 < 2 AND FALSE").fold();
        assert_eq!(ir.render(ir.root), "FALSE");
        // NOT NOT x → x when x is boolish.
        let ir = ir_of("NOT (NOT (A.X > 1))").fold();
        assert_eq!(ir.render(ir.root), "A.X > 1");
        // A non-boolish operand blocks the AND-identity: `A.X AND TRUE` is
        // NULL for non-boolean A.X, not A.X itself.
        let ir = ir_of("A.X AND TRUE").fold();
        assert_eq!(ir.render(ir.root), "A.X AND TRUE");
    }

    #[test]
    fn folding_preserves_the_refs_side_channel() {
        let ir = ir_of("A.X > 1 AND TRUE AND B.Y < 2");
        let folded = ir.fold();
        assert_eq!(ir.refs, folded.refs);
        assert_eq!(
            folded.refs,
            vec![
                (Some("A".into()), "X".into()),
                (Some("B".into()), "Y".into())
            ]
        );
    }

    #[test]
    fn like_matcher_agrees_with_reference_semantics() {
        // Reference implementation: a char-vector two-pointer matcher.
        fn reference(s: &str, pattern: &str) -> bool {
            let s: Vec<char> = s.chars().collect();
            let p: Vec<char> = pattern.chars().collect();
            let (mut si, mut pi) = (0usize, 0usize);
            let mut star: Option<(usize, usize)> = None;
            while si < s.len() {
                if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
                    si += 1;
                    pi += 1;
                } else if pi < p.len() && p[pi] == '%' {
                    star = Some((pi, si));
                    pi += 1;
                } else if let Some((sp, ss)) = star {
                    pi = sp + 1;
                    si = ss + 1;
                    star = Some((sp, ss + 1));
                } else {
                    return false;
                }
            }
            while pi < p.len() && p[pi] == '%' {
                pi += 1;
            }
            pi == p.len()
        }
        let subjects = [
            "",
            "a",
            "abc",
            "SELECT * FROM t",
            "aaab",
            "ábç",
            "%literal%",
            "a_b",
        ];
        let patterns = [
            "", "%", "_", "a%", "%c", "%b%", "a_c", "%%", "a%b%c", "ábç", "á%", "_b_", "%ab%ab%",
            "SELECT%",
        ];
        for s in subjects {
            for p in patterns {
                assert_eq!(
                    LikeMatcher::new(p).is_match(s),
                    reference(s, p),
                    "s={s:?} p={p:?}"
                );
            }
        }
        // Pinned answers, which both implementations must give.
        for (s, p, want) in [
            ("hello", "h%", true),
            ("hello", "%llo", true),
            ("hello", "h_llo", true),
            ("hello", "%", true),
            ("", "%", true),
            ("hello", "h_", false),
            ("hello", "H%", false),
            ("a%b", "a%b", true),
            ("xayb", "x%y%", true),
            ("abc", "a_", false),
        ] {
            assert_eq!(LikeMatcher::new(p).is_match(s), want, "s={s:?} p={p:?}");
            assert_eq!(reference(s, p), want, "s={s:?} p={p:?}");
        }
    }
}
