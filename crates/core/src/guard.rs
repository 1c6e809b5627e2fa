//! Guard index: sublinear rule-count dispatch.
//!
//! The paper's scalability claim (§2.1, §6.2.1) is that per-event overhead is
//! "mainly a function of the number of rules" — which is exactly the problem
//! once thousands of rules subscribe to one hot event. This module builds a
//! discrimination network (a pub-sub / Rete-alpha-style matching index) over
//! the *cheap prefix* of each rule's condition so that one index probe per
//! event yields the candidate set and only candidates run the condition VM.
//!
//! Which guards a rule gets — and the soundness contract that makes pruning
//! on them invisible — is decided once, at registration, by
//! [`sqlcm_analyze::guard::rule_guard`]; the verdict is stored on the
//! registered rule and this module only *installs* it: index construction,
//! probing, the LAT-guard check, and pruning explanations. The one
//! runtime-side addition to the contract is [`GuardIndex::required`]: every
//! attribute a guarded condition reads must resolve against a payload object
//! the probe has verified present with sufficient width, which keeps guarded
//! conditions genuinely infallible whenever pruning happens.
//!
//! A payload guard is decided by the probe, for every rule at once. A LAT
//! guard ([`LatCheck`]) is decided at its rule's own turn in the walk, on a
//! probed event, against the hoisted row the condition would read then — so
//! a candidate of the probe may still be pruned, with one slot read and one
//! comparison ([`LatCheck::admits`]). The index starts every LAT-guarded rule
//! without a payload guard as a candidate.
//!
//! Range-guard soundness additionally leans on the interval machinery of
//! `sqlcm-analyze` ([`Interval`]): each guard carries its widened numeric
//! interval, the per-attribute sweep is sorted by `Interval::lo`, and a
//! numeric probe value uses `Interval::contains` as a superset pre-filter
//! (closed, f64-widened, so it can only over-admit) before the exact
//! [`Value::cmp`] check that is the VM's comparison semantics bit for bit.
//! Non-numeric probe values (SQL's cross-type ordering is total) skip the
//! sweep shortcut and take the exact path.
//!
//! The index lives inside the immutable [`crate::plan::EventPlan`] of its
//! event class: rule churn on the class rebuilds it, a rule appended to the
//! class is installed into a clone of its predecessor's that shares the
//! equality maps' partitions it does not write ([`crate::shared`]), and
//! probing allocates nothing. It covers every registered rule of the class; a
//! candidate that is disabled or quarantined is dropped when the event pins
//! the rules it runs.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Arc;

use sqlcm_analyze::intervals::Interval;
use sqlcm_analyze::{Bound, Guard, GuardKind};
use sqlcm_common::Value;

use crate::ir::{CondIr, Resolved};
use crate::lat::Lat;
use crate::objects::{ClassName, Object};
use crate::plan::PlanRule;
use crate::shared::Partitioned;

/// Human-readable reason `guard` pruned its rule for this payload, for
/// sampled traces. Only called off the fast path.
pub(crate) fn explain(guard: &Guard, objects: &[Object]) -> String {
    if guard.never() {
        return "pruned by guard index: guard is unsatisfiable (condition can never hold)".into();
    }
    let class = &guard.class;
    let obj = objects.iter().find(|o| o.class == *class);
    let name = obj
        .and_then(|o| o.attribute_names().get(guard.attr).cloned())
        .unwrap_or_else(|| format!("#{}", guard.attr));
    let val = obj
        .and_then(|o| o.values().get(guard.attr))
        .map_or_else(|| "?".into(), |v| v.to_string());
    format!(
        "pruned by guard index: {}",
        violated(&guard.kind, &format!("{class}.{name}"), &val)
    )
}

/// `subject=value` and the set or interval of `kind` it falls outside.
fn violated(kind: &GuardKind, subject: &str, val: &str) -> String {
    match kind {
        GuardKind::Eq(values) => {
            let set = values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            format!("{subject}={val} not in {{{set}}}")
        }
        GuardKind::Range { lo, hi } => {
            let lo_s = match lo {
                Some(b) => format!("{}{}", if b.strict { '(' } else { '[' }, b.value),
                None => "(-∞".into(),
            };
            let hi_s = match hi {
                Some(b) => format!("{}{}", b.value, if b.strict { ')' } else { ']' }),
                None => "∞)".into(),
            };
            format!("{subject}={val} outside {lo_s},{hi_s}")
        }
    }
}

/// Exact admission of a non-null `v` by the bounds, via [`Value::cmp`] — the
/// same total order the VM's comparison operators use, so cross-type values
/// (e.g. a text value against a numeric bound) agree with evaluation.
fn within(lo: &Option<Bound>, hi: &Option<Bound>, v: &Value) -> bool {
    if let Some(b) = lo {
        match v.cmp(&b.value) {
            Ordering::Less => return false,
            Ordering::Equal if b.strict => return false,
            _ => {}
        }
    }
    if let Some(b) = hi {
        match v.cmp(&b.value) {
            Ordering::Greater => return false,
            Ordering::Equal if b.strict => return false,
            _ => {}
        }
    }
    true
}

/// A rule's LAT guard as its plan installs it: the analyzer's
/// [`sqlcm_analyze::LatGuard`] resolved to the rule's hoisted reference of
/// the LAT and the column's position in its rows. Attached only when that
/// reference is hoisted, so the row the check reads is the one the
/// condition would.
#[derive(Clone, Debug)]
pub(crate) struct LatCheck {
    /// Index into the rule's `cond_lats` / `PlanRule::lats`.
    pub lat: usize,
    /// The reference's hoist slot (`PlanRule::lat_slots[lat]`).
    pub slot: u32,
    /// The column's position in the LAT's rows.
    pub column: usize,
    pub kind: GuardKind,
}

impl LatCheck {
    /// Whether the condition can be true on `row` — the LAT's row for the
    /// event, `None` when it has none. A missing row makes the condition
    /// false (implicit ∃), and a NULL column or a value outside the guard
    /// violates a conjunct of its `AND` chain.
    pub fn admits(&self, row: Option<&[Value]>) -> bool {
        let Some(v) = row.and_then(|r| r.get(self.column)) else {
            return false;
        };
        if v.is_null() {
            return false;
        }
        match &self.kind {
            GuardKind::Eq(values) => values.contains(v),
            GuardKind::Range { lo, hi } => within(lo, hi, v),
        }
    }

    /// Why [`LatCheck::admits`] refused `row` of `lat`, for sampled traces.
    pub fn explain(&self, lat: &Lat, row: Option<&[Value]>) -> String {
        let name = &lat.spec.name;
        let column = lat.columns().get(self.column).cloned().unwrap_or_default();
        let why = match row.and_then(|r| r.get(self.column)) {
            None => format!("no {name} row"),
            Some(v) if v.is_null() => format!("{name}.{column} is NULL"),
            Some(v) => violated(&self.kind, &format!("{name}.{column}"), &v.to_string()),
        };
        format!("pruned by LAT guard: {why}")
    }
}

/// All equality guards over one `(class, attribute)`, probed with one hash
/// of the value and one lookup. [`Value`]'s `Hash`/`Eq` are consistent with
/// the VM's `=` (`Int(2)` and `Float(2.0)` hash alike and compare equal).
#[derive(Clone)]
struct EqGroup {
    class: ClassName,
    attr: usize,
    /// Rules per admitted value, in registration order, under the value's
    /// hash by [`GuardIndex::hasher`] — or, when another value holds that
    /// hash, under the next hash free or holding it. Partitioned, so an
    /// append copies one partition.
    map: Partitioned<Option<(Value, Arc<[u32]>)>>,
}

impl EqGroup {
    /// The rules whose guard admits `v`, whose hash is `hash`.
    fn admitting(&self, mut hash: u64, v: &Value) -> Option<&[u32]> {
        loop {
            let (x, rules) = self.map.get(hash)?.as_ref()?;
            if x == v {
                return Some(rules);
            }
            hash = hash.wrapping_add(1);
        }
    }

    /// Enter `rule` among the rules admitting `v`, whose hash is `hash`.
    fn admit(&mut self, mut hash: u64, v: &Value, rule: u32) {
        loop {
            match self.map.entry(hash) {
                Some((x, rules)) if x == v => {
                    *rules = rules.iter().copied().chain([rule]).collect();
                    return;
                }
                Some(_) => hash = hash.wrapping_add(1),
                free => {
                    *free = Some((v.clone(), Arc::new([rule])));
                    return;
                }
            }
        }
    }
}

/// All range guards over one `(class, attribute)`, swept flat in ascending
/// `iv.lo` order so the scan stops at the first lower bound above the value.
#[derive(Clone)]
struct RangeGroup {
    class: ClassName,
    attr: usize,
    guards: Vec<RangeGuard>,
}

#[derive(Clone)]
struct RangeGuard {
    rule: u32,
    lo: Option<Bound>,
    hi: Option<Bound>,
    /// Widened numeric summary (strictness dropped, endpoints rounded
    /// outward by the f64 cast's monotonicity): a superset of the exact
    /// admission set, so `!iv.contains(v)` soundly rejects.
    iv: Interval,
}

/// What [`GuardIndex::add`] needs of one guarded rule: its payload guard, if
/// any, its compiled condition and the classes the condition names.
type Indexable<'a> = (Option<&'a Guard>, &'a CondIr, &'a [ClassName]);

/// The stored verdict speaks for the registered condition; a rule the
/// current registry cannot run (`broken`, no program) must still be
/// evaluated so its error is recorded, whatever the verdict says.
fn indexable(pr: &PlanRule) -> Option<Indexable<'_>> {
    match (&pr.reg.compiled, &pr.program, &pr.broken) {
        (Some(c), Some(_), None) if pr.reg.guard.is_some() || pr.lat_guard.is_some() => {
            Some((pr.reg.guard.as_ref(), &**c, &pr.reg.cond_classes[..]))
        }
        _ => None,
    }
}

/// The per-event guard index, built once per [`crate::plan::EventPlan`] —
/// or extended from its predecessor's by one rule — and probed once per
/// dispatched event.
#[derive(Clone)]
pub(crate) struct GuardIndex {
    /// Hashes equality-guard values, here and in every index appended to
    /// this one.
    hasher: RandomState,
    /// Per payload class any guarded rule reads: minimum attribute-vector
    /// width its condition assumes. A probe over objects missing a class (or
    /// narrower than assumed — possible for synthetic payloads) is unusable
    /// and every rule becomes a candidate, keeping guarded conditions
    /// genuinely infallible whenever pruning happens.
    required: Vec<(ClassName, usize)>,
    eq_groups: Vec<EqGroup>,
    range_groups: Vec<RangeGroup>,
    /// Bitset of the rules no payload guard decides — residual rules and
    /// rules with a LAT guard alone: the probe's starting candidate set.
    undecided: Vec<u64>,
    /// Rules with a payload guard, a LAT guard or both.
    pub indexed_rules: u32,
    pub residual_rules: u32,
}

impl GuardIndex {
    /// Build the index for one event's rules from the guard verdicts stored
    /// at registration. Returns `None` when no rule is indexable — dispatch
    /// then skips probing entirely. A plan with a single rule is indexed
    /// only for its LAT guard, which dispatch checks on probed events only:
    /// a payload probe cannot beat a one-rule scan, and skipping it keeps
    /// small monitors at exactly their pre-index cost.
    pub fn build(rules: &[PlanRule]) -> Option<GuardIndex> {
        if rules.len() < 2 && rules.iter().all(|pr| pr.lat_guard.is_none()) {
            return None;
        }
        Self::assemble(rules.iter().map(indexable))
    }

    /// Would [`GuardIndex::build`] index `pr`?
    pub fn indexes(pr: &PlanRule) -> bool {
        indexable(pr).is_some()
    }

    /// The index of these rules followed by `pr` — what `build` over the
    /// longer slice returns: `pr` is the last rule, so it joins each group
    /// it belongs to after every guard already there. No installed guard is
    /// looked at again; the clone copies one partition per equality group
    /// the rule joins, the range groups and the undecided bitset.
    pub fn appended(&self, pr: &PlanRule) -> GuardIndex {
        let mut idx = self.clone();
        let ri = idx.indexed_rules + idx.residual_rules;
        idx.undecided.resize((ri as usize + 1).div_ceil(64), 0);
        idx.add(ri, indexable(pr));
        idx.seal();
        idx
    }

    /// One entry per rule in registration order; `None` entries are residual.
    fn assemble<'a>(
        rules: impl ExactSizeIterator<Item = Option<Indexable<'a>>>,
    ) -> Option<GuardIndex> {
        let mut idx = GuardIndex {
            hasher: RandomState::new(),
            required: Vec::new(),
            eq_groups: Vec::new(),
            range_groups: Vec::new(),
            undecided: vec![0u64; rules.len().div_ceil(64).max(1)],
            indexed_rules: 0,
            residual_rules: 0,
        };
        for (ri, entry) in rules.enumerate() {
            idx.add(ri as u32, entry);
        }
        if idx.indexed_rules == 0 {
            return None;
        }
        idx.seal();
        Some(idx)
    }

    /// Enter rule `ri`, the last so far. [`GuardIndex::seal`] must follow
    /// before the index is probed.
    fn add(&mut self, ri: u32, entry: Option<Indexable<'_>>) {
        let Some((guard, cond, cond_classes)) = entry else {
            self.undecided[(ri >> 6) as usize] |= 1 << (ri & 63);
            self.residual_rules += 1;
            return;
        };
        self.indexed_rules += 1;
        // Every attribute the guarded condition reads contributes to the
        // probe's required-width check, making each read provably in-range
        // before any pruning is trusted; `cond_classes` rides along (width
        // 0 = presence only) so a pruned rule is always one the fast path
        // would have evaluated exactly once.
        for resolved in &cond.resolved {
            if let Resolved::Attr { class, index } = resolved {
                self.require(class, index + 1);
            }
        }
        for class in cond_classes {
            self.require(class, 0);
        }
        match guard {
            Some(guard) => self.install(ri, guard),
            None => self.undecided[(ri >> 6) as usize] |= 1 << (ri & 63),
        }
    }

    fn require(&mut self, class: &ClassName, width: usize) {
        match self.required.iter_mut().find(|(c, _)| c == class) {
            Some((_, w)) => *w = (*w).max(width),
            None => self.required.push((class.clone(), width)),
        }
    }

    /// Restore the orders `probe` relies on. The sorts are stable and each
    /// list is sorted but for what `add` pushed, so equal lower bounds stay
    /// in registration order and sealing after one `add` is a linear pass.
    fn seal(&mut self) {
        self.required.sort_by_key(|a| a.0.to_string());
        for g in &mut self.range_groups {
            g.guards.sort_by(|a, b| a.iv.lo.total_cmp(&b.iv.lo));
        }
    }

    fn install(&mut self, rule: u32, guard: &Guard) {
        // A guard no value satisfies goes in no group: never a candidate.
        if guard.never() {
            return;
        }
        let (class, attr) = (&guard.class, guard.attr);
        match &guard.kind {
            GuardKind::Eq(values) => {
                let gi = match self
                    .eq_groups
                    .iter()
                    .position(|g| g.class == *class && g.attr == attr)
                {
                    Some(i) => i,
                    None => {
                        self.eq_groups.push(EqGroup {
                            class: class.clone(),
                            attr,
                            map: Partitioned::default(),
                        });
                        self.eq_groups.len() - 1
                    }
                };
                for v in values {
                    self.eq_groups[gi].admit(self.hasher.hash_one(v), v, rule);
                }
            }
            GuardKind::Range { lo, hi } => {
                let iv = Interval {
                    lo: lo
                        .as_ref()
                        .and_then(|b| b.value.as_f64())
                        .unwrap_or(f64::NEG_INFINITY),
                    hi: hi
                        .as_ref()
                        .and_then(|b| b.value.as_f64())
                        .unwrap_or(f64::INFINITY),
                };
                let gi = match self
                    .range_groups
                    .iter()
                    .position(|g| g.class == *class && g.attr == attr)
                {
                    Some(i) => i,
                    None => {
                        self.range_groups.push(RangeGroup {
                            class: class.clone(),
                            attr,
                            guards: Vec::new(),
                        });
                        self.range_groups.len() - 1
                    }
                };
                self.range_groups[gi].guards.push(RangeGuard {
                    rule,
                    lo: lo.clone(),
                    hi: hi.clone(),
                    iv,
                });
            }
        }
    }

    /// Probe the index for one event into `bits`, one bit per rule of the
    /// event class. On success `bits` holds the candidate set (the undecided
    /// rules plus every rule whose payload guard admits the payload) and
    /// pruned rules are provably non-firing. Returns `false` when the
    /// payload doesn't satisfy [`GuardIndex::required`] — the caller must
    /// then treat every rule as a candidate (`bits` is left unspecified).
    /// Allocation-free.
    pub fn probe(&self, objects: &[Object], bits: &mut [u64]) -> bool {
        debug_assert_eq!(bits.len(), self.undecided.len());
        for (class, want) in &self.required {
            match objects.iter().find(|o| o.class == *class) {
                Some(o) if o.values().len() >= *want => {}
                _ => return false,
            }
        }
        bits.copy_from_slice(&self.undecided);
        for g in &self.eq_groups {
            let Some(obj) = objects.iter().find(|o| o.class == g.class) else {
                return false;
            };
            let v = &obj.values()[g.attr];
            if v.is_null() {
                // NULL never compares equal: every guard in the group is
                // violated, all its rules stay pruned.
                continue;
            }
            if let Some(rules) = g.admitting(self.hasher.hash_one(v), v) {
                for &r in rules {
                    bits[(r >> 6) as usize] |= 1 << (r & 63);
                }
            }
        }
        for g in &self.range_groups {
            let Some(obj) = objects.iter().find(|o| o.class == g.class) else {
                return false;
            };
            let v = &obj.values()[g.attr];
            if v.is_null() {
                continue;
            }
            // Numeric fast path: the sweep is sorted by widened `iv.lo`, and
            // the f64 cast is monotone, so once a lower bound exceeds the
            // value no later guard can admit it. A NaN value never satisfies
            // `lo > v` and falls through to the exact check (NaN sorts above
            // every number in `Value::cmp`, like the VM). Non-numeric values
            // (totally ordered across types) take the exact check only.
            let vf = match v {
                Value::Int(i) => Some(*i as f64),
                Value::Float(f) => Some(*f),
                _ => None,
            };
            for rg in &g.guards {
                if let Some(vf) = vf {
                    if rg.iv.lo > vf {
                        break;
                    }
                    if !rg.iv.contains(vf) {
                        continue;
                    }
                }
                if within(&rg.lo, &rg.hi, v) {
                    bits[(rg.rule >> 6) as usize] |= 1 << (rg.rule & 63);
                }
            }
        }
        true
    }
}

#[cfg(test)]
impl GuardIndex {
    /// Everything `probe` reads, in an order two equal indexes share.
    pub fn canonical(&self) -> String {
        let eq_groups = self.eq_groups.iter().map(|g| {
            let mut map: Vec<_> = g.map.iter().filter_map(|(_, e)| e.as_ref()).collect();
            map.sort();
            format!("{}#{} {map:?}", g.class, g.attr)
        });
        let range_groups = self.range_groups.iter().map(|g| {
            let guards = g.guards.iter().map(|r| (r.rule, &r.lo, &r.hi, r.iv));
            format!("{}#{} {:?}", g.class, g.attr, guards.collect::<Vec<_>>())
        });
        format!(
            "indexed {} residual {} {:?} required {:?} eq {:?} range {:?}",
            self.indexed_rules,
            self.residual_rules,
            self.undecided,
            self.required,
            eq_groups.collect::<Vec<_>>(),
            range_groups.collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::query_object;
    use crate::rules::{Rule, RuleEvent};
    use sqlcm_analyze::rule_guard;
    use sqlcm_common::QueryInfo;
    use std::collections::HashMap;

    /// The registration pipeline for one QueryCommit condition: the stored
    /// guard verdict (if any) and the compiled condition.
    fn registered(src: &str) -> (Option<Guard>, CondIr) {
        let ir = Rule::new("r").on(RuleEvent::QueryCommit).when(src).ir();
        let guard = rule_guard(&ir).ok().and_then(|g| g.payload);
        let folded = ir.condition.as_ref().unwrap().folded();
        (
            guard,
            CondIr::from_ir(folded, &HashMap::new(), &[]).unwrap(),
        )
    }

    /// Build an index straight from conditions (no plan machinery).
    fn index_of(conds: &[&str]) -> GuardIndex {
        let regs: Vec<_> = conds.iter().map(|c| registered(c)).collect();
        GuardIndex::assemble(
            regs.iter()
                .map(|(g, c)| g.as_ref().map(|g| (Some(g), c, &[ClassName::Query][..]))),
        )
        .expect("at least one indexable condition")
    }

    fn probe_one(idx: &GuardIndex, objects: &[Object]) -> Vec<usize> {
        let mut bits = vec![0u64; idx.undecided.len()];
        assert!(idx.probe(objects, &mut bits));
        (0..(idx.indexed_rules + idx.residual_rules) as usize)
            .filter(|&i| bits[i >> 6] & (1 << (i & 63)) != 0)
            .collect()
    }

    fn query(user: &str, duration_micros: u64) -> Object {
        let mut q = QueryInfo::synthetic(1, "SELECT 1");
        q.user = user.into();
        q.duration_micros = duration_micros;
        query_object(&q)
    }

    #[test]
    fn probe_selects_matching_rules_only() {
        let idx = index_of(&[
            "Query.User = 'alice'",
            "Query.User = 'bob'",
            "Query.Duration > 1",   // seconds: matches long queries
            "Query.User LIKE 'a%'", // residual
            "Query.Duration > 3 AND Query.Duration < 2", // empty: never
            "Query.ID IN (NULL)",   // empty: never
        ]);
        assert_eq!(idx.indexed_rules, 5);
        assert_eq!(idx.residual_rules, 1);
        let fast = query("alice", 100);
        assert_eq!(probe_one(&idx, &[fast]), vec![0, 3]);
        let slow = query("carol", 2_500_000);
        assert_eq!(probe_one(&idx, &[slow]), vec![2, 3]);
    }

    /// Two values under one hash: the second takes the next hash, and each
    /// finds its own rules.
    #[test]
    fn values_whose_hashes_collide_keep_their_own_rules() {
        let mut g = EqGroup {
            class: ClassName::Query,
            attr: 0,
            map: Partitioned::default(),
        };
        let (a, b) = (Value::Int(1), Value::Text("b".into()));
        g.admit(7, &a, 0);
        g.admit(7, &b, 1);
        g.admit(7, &a, 2);
        g.admit(8, &Value::Int(3), 3);
        assert_eq!(g.admitting(7, &a), Some(&[0, 2][..]));
        assert_eq!(g.admitting(7, &b), Some(&[1][..]));
        assert_eq!(g.admitting(8, &Value::Int(3)), Some(&[3][..]));
        assert_eq!(g.admitting(7, &Value::Int(9)), None);
    }

    #[test]
    fn probe_without_required_class_is_unusable() {
        let idx = index_of(&["Query.User = 'alice'"]);
        let mut bits = vec![0u64; idx.undecided.len()];
        assert!(!idx.probe(&[], &mut bits), "missing payload class");
    }

    #[test]
    fn explain_names_the_violated_guard() {
        let (guard, _) = registered("Query.Duration >= 100");
        let why = explain(&guard.unwrap(), &[query("alice", 5)]);
        assert!(
            why.contains("pruned by guard index") && why.contains("outside [100,∞)"),
            "{why}"
        );
        let (guard, _) = registered("Query.Duration > 3 AND Query.Duration < 2");
        let why = explain(&guard.unwrap(), &[query("alice", 5)]);
        assert!(why.contains("unsatisfiable"), "{why}");
    }

    /// The check admits exactly what the conjuncts can make true: a missing
    /// row, a NULL column, a value outside the bounds and an endpoint a
    /// strict bound excludes are all pruned, each with its reason.
    #[test]
    fn lat_check_prunes_missing_null_and_outside_rows() {
        let check = |kind| LatCheck {
            lat: 0,
            slot: 0,
            column: 1,
            kind,
        };
        let at_least = |v: i64, strict| GuardKind::Range {
            lo: Some(Bound {
                value: Value::Int(v),
                strict,
            }),
            hi: None,
        };
        let row = |n: Value| vec![Value::Int(7), n];
        let inclusive = check(at_least(5, false));
        let strict = check(at_least(5, true));
        assert!(!inclusive.admits(None));
        assert!(!inclusive.admits(Some(&row(Value::Null))));
        assert!(!inclusive.admits(Some(&row(Value::Int(4)))));
        assert!(inclusive.admits(Some(&row(Value::Int(5)))));
        assert!(inclusive.admits(Some(&row(Value::Float(5.5)))));
        assert!(!strict.admits(Some(&row(Value::Int(5)))));
        assert!(strict.admits(Some(&row(Value::Int(6)))));
        let text = check(GuardKind::Eq(vec![Value::text("a"), Value::text("b")]));
        assert!(text.admits(Some(&row(Value::text("b")))));
        assert!(!text.admits(Some(&row(Value::text("c")))));

        let (clock, _) = sqlcm_common::ManualClock::shared(0);
        let lat = Lat::new(
            crate::lat::LatSpec::new("Sig_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(crate::lat::LatAggFunc::Count, "", "N"),
            clock,
        )
        .unwrap();
        assert_eq!(
            inclusive.explain(&lat, Some(&row(Value::Int(4)))),
            "pruned by LAT guard: Sig_LAT.N=4 outside [5,∞)"
        );
        assert_eq!(
            inclusive.explain(&lat, Some(&row(Value::Null))),
            "pruned by LAT guard: Sig_LAT.N is NULL"
        );
        assert_eq!(
            inclusive.explain(&lat, None),
            "pruned by LAT guard: no Sig_LAT row"
        );
    }
}
