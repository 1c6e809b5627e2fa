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
//! probing and pruning explanations. It is the one place a guard is tested.
//! The one runtime-side addition to the contract is [`GuardIndex::required`]:
//! every attribute a guarded condition reads must resolve against a payload
//! object the probe has verified present with sufficient width, which keeps
//! guarded conditions genuinely infallible whenever pruning happens. When a
//! verdict decides its condition (`PlanRule::decided`), the index's admission
//! is the condition's `TRUE`, and dispatch runs no program for the rule.
//!
//! **Two value sources, one group code.** A group reads its value from a
//! payload attribute (payload guards) or from a column of a hoisted LAT row
//! (LAT guards, [`LatCheck`]), and tests it with the same [`EqGroup`] and
//! [`RangeGroup`]. Identical tests share one entry — Rete's shared alpha
//! memories (Forgy 1982): an equality value or a range's exact bounds keys
//! one list of rules, so 31 rules on `Query.Duration > 0.001` cost one
//! comparison, not 31. `Int(2)` and `Float(2.0)` are one key; a strict and
//! an inclusive bound are two.
//!
//! A payload group is probed once per event, for every rule at once
//! ([`GuardIndex::probe`]). A LAT group is probed by dispatch once per
//! *writer-free segment* of the walk ([`GuardIndex::refute`]): from the first
//! LAT-guarded candidate whose verdict is stale up to and including the next
//! rule that writes the LAT (`EventPlan::writers`), against the row the event
//! hoisted then. No rule before the segment's end can change that row, so
//! one probe decides every LAT-guarded rule of the segment, and the refused
//! ones are never visited. The index starts every LAT-guarded rule without a
//! payload guard as a candidate.
//!
//! Range-guard soundness additionally leans on the interval machinery of
//! `sqlcm-analyze` ([`Interval`]): each entry carries its widened numeric
//! interval, the per-group sweep is sorted by `Interval::lo`, and a numeric
//! probe value uses `Interval::contains` as a superset pre-filter (closed,
//! f64-widened, so it can only over-admit) before the exact [`Value::cmp`]
//! check that is the VM's comparison semantics bit for bit. Non-numeric
//! probe values (SQL's cross-type ordering is total) skip the sweep shortcut
//! and take the exact path.
//!
//! The index lives inside the immutable [`crate::plan::EventPlan`] of its
//! event class: rule churn on the class rebuilds it, and a rule appended to
//! the class is installed into a clone of its predecessor's that shares
//! every partition, entry and sweep it does not write ([`crate::shared`]). A
//! rule joining an existing entry copies one partition; a rule with bounds
//! its group has not seen also copies the group's sorted sweep, O(distinct
//! bounds). Probing allocates nothing. The index covers every registered
//! rule of the class; a candidate that is disabled or quarantined is dropped
//! when the event pins the rules it runs.

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
use crate::shared::{Blocks, Partitioned};

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
fn within(bounds: &Bounds, v: &Value) -> bool {
    if let Some(b) = &bounds.lo {
        match v.cmp(&b.value) {
            Ordering::Less => return false,
            Ordering::Equal if b.strict => return false,
            _ => {}
        }
    }
    if let Some(b) = &bounds.hi {
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
/// reference is hoisted, so the row the index tests is the one the
/// condition would read.
#[derive(Clone, Debug)]
pub(crate) struct LatCheck {
    /// The reference's hoist slot (an index into `EventPlan::hoisted`).
    pub slot: u32,
    /// The column's position in the LAT's rows.
    pub column: usize,
    pub kind: GuardKind,
}

impl LatCheck {
    /// Why the index refused this rule on `row` of `lat` — the LAT's row for
    /// the event, `None` when it has none — for sampled traces.
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

/// The rules of one test, in registration order. A lone rule is held
/// inline, as most equality values have one; a longer list is a [`Blocks`],
/// whose append fills the shared last block, so a rule joining an entry
/// copies none of them.
#[derive(Clone)]
enum RuleList {
    One(u32),
    Many(Blocks<u32>),
}

impl RuleList {
    /// These rules followed by `rule`.
    fn with(&self, rule: u32) -> RuleList {
        match self {
            RuleList::One(first) => RuleList::Many(Blocks::default().with(*first).with(rule)),
            RuleList::Many(rules) => RuleList::Many(rules.with(rule)),
        }
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (one, many) = match self {
            RuleList::One(rule) => (Some(*rule), None),
            RuleList::Many(rules) => (None, Some(rules.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// Rule lists keyed by a test's constant — an equality value or a range's
/// bounds — under the key's hash by [`GuardIndex::hasher`] or, when another
/// key holds that hash, under the next hash free or holding it. Entries are
/// never removed (rule churn rebuilds the index), so an entry stays at the
/// hash it was made at. Partitioned, so joining an entry copies one
/// partition.
#[derive(Clone)]
struct Entries<K>(Partitioned<Option<(K, RuleList)>>);

impl<K> Default for Entries<K> {
    fn default() -> Self {
        Entries(Partitioned::default())
    }
}

impl<K: Clone + PartialEq> Entries<K> {
    /// The entry of `key`, whose hash is `hash`.
    fn get(&self, mut hash: u64, key: &K) -> Option<&RuleList> {
        loop {
            let (k, rules) = self.0.get(hash)?.as_ref()?;
            if k == key {
                return Some(rules);
            }
            hash = hash.wrapping_add(1);
        }
    }

    /// The entry made at `hash`.
    fn at(&self, hash: u64) -> &(K, RuleList) {
        let entry = self.0.get(hash).and_then(Option::as_ref);
        entry.expect("a sweep names an entry of its group")
    }

    /// Enter `rule`, the last so far, under `key`, whose hash is `hash`.
    /// Returns the hash the entry is at, and whether `rule` made it.
    fn join(&mut self, mut hash: u64, key: &K, rule: u32) -> (u64, bool) {
        loop {
            match self.0.entry(hash) {
                Some((k, rules)) if k == key => {
                    *rules = rules.with(rule);
                    return (hash, false);
                }
                Some(_) => hash = hash.wrapping_add(1),
                free => {
                    *free = Some((key.clone(), RuleList::One(rule)));
                    return (hash, true);
                }
            }
        }
    }
}

/// All equality tests over one value, probed with one hash of the value and
/// one lookup. [`Value`]'s `Hash`/`Eq` are consistent with the VM's `=`
/// (`Int(2)` and `Float(2.0)` hash alike and compare equal).
type EqGroup = Entries<Value>;

/// A range test's exact bounds: the key its rules share an entry under.
#[derive(Clone, Debug, PartialEq)]
struct Bounds {
    lo: Option<Bound>,
    hi: Option<Bound>,
}

/// All range tests over one value, one entry per distinct bounds, swept in
/// ascending `iv.lo` order so the scan stops at the first lower bound above
/// the value.
#[derive(Clone, Default)]
struct RangeGroup {
    entries: Entries<Bounds>,
    /// Each entry's widened numeric summary (strictness dropped, endpoints
    /// rounded outward by the f64 cast's monotonicity — a superset of the
    /// exact admission set, so `!iv.contains(v)` soundly rejects) and the
    /// hash its entry is at; equal lower bounds in the order their entries
    /// were made. Shared until a rule brings bounds the group has not seen.
    sweep: Arc<[(Interval, u64)]>,
}

impl RangeGroup {
    /// Enter `rule`, the last so far, among the rules of `bounds`.
    fn join(&mut self, hasher: &RandomState, bounds: Bounds, rule: u32) {
        fn key(b: &Option<Bound>) -> Option<(&Value, bool)> {
            b.as_ref().map(|b| (&b.value, b.strict))
        }
        let hash = hasher.hash_one((key(&bounds.lo), key(&bounds.hi)));
        let (at, made) = self.entries.join(hash, &bounds, rule);
        if !made {
            return;
        }
        let end = |b: &Option<Bound>| b.as_ref().and_then(|b| b.value.as_f64());
        let iv = Interval {
            lo: end(&bounds.lo).unwrap_or(f64::NEG_INFINITY),
            hi: end(&bounds.hi).unwrap_or(f64::INFINITY),
        };
        let i = self
            .sweep
            .partition_point(|(x, _)| x.lo.total_cmp(&iv.lo).is_le());
        let (before, after) = self.sweep.split_at(i);
        let sweep = before.iter().copied().chain([(iv, at)]);
        self.sweep = sweep.chain(after.iter().copied()).collect();
    }

    /// Pass `f` the rules of every entry whose bounds admit the non-null `v`.
    fn admitting<'a>(&'a self, v: &Value, f: &mut impl FnMut(&'a RuleList)) {
        // Numeric fast path: the sweep is sorted by widened `iv.lo`, and the
        // f64 cast is monotone, so once a lower bound exceeds the value no
        // later entry can admit it. A NaN value never satisfies `lo > v` and
        // falls through to the exact check (NaN sorts above every number in
        // `Value::cmp`, like the VM). Non-numeric values (totally ordered
        // across types) take the exact check only.
        let vf = match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        };
        for &(iv, at) in self.sweep.iter() {
            if let Some(vf) = vf {
                if iv.lo > vf {
                    break;
                }
                if !iv.contains(vf) {
                    continue;
                }
            }
            let (bounds, rules) = self.entries.at(at);
            if within(bounds, v) {
                f(rules);
            }
        }
    }
}

/// The equality and range groups of one value source, each under what it
/// reads: a payload attribute `(class, attribute)`, or a column of a hoisted
/// LAT row.
#[derive(Clone)]
struct Groups<At> {
    eq: Vec<(At, EqGroup)>,
    range: Vec<(At, RangeGroup)>,
}

impl<At> Default for Groups<At> {
    fn default() -> Self {
        Groups {
            eq: Vec::new(),
            range: Vec::new(),
        }
    }
}

/// The group of `at`, made empty when it has none.
fn group_of<At: PartialEq, G: Default>(groups: &mut Vec<(At, G)>, at: At) -> &mut G {
    let i = match groups.iter().position(|(a, _)| *a == at) {
        Some(i) => i,
        None => {
            groups.push((at, G::default()));
            groups.len() - 1
        }
    };
    &mut groups[i].1
}

impl<At: PartialEq> Groups<At> {
    /// Enter `rule`, the last so far, under the test `kind` on the value
    /// `at` reads. A test no value satisfies goes in no group: it admits
    /// nothing.
    fn install(&mut self, hasher: &RandomState, at: At, kind: &GuardKind, rule: u32) {
        if kind.never() {
            return;
        }
        match kind {
            GuardKind::Eq(values) => {
                let group = group_of(&mut self.eq, at);
                for v in values {
                    group.join(hasher.hash_one(v), v, rule);
                }
            }
            GuardKind::Range { lo, hi } => {
                let bounds = Bounds {
                    lo: lo.clone(),
                    hi: hi.clone(),
                };
                group_of(&mut self.range, at).join(hasher, bounds, rule);
            }
        }
    }

    /// Pass `f` the rules of every entry that admits the value its group
    /// reads, `value(at)`. A NULL value is admitted by no test — NULL never
    /// compares `TRUE`. Returns `false`, having passed only some, when
    /// `value` cannot read a group's value.
    fn admitting<'v>(
        &self,
        hasher: &RandomState,
        value: impl Fn(&At) -> Option<&'v Value>,
        mut f: impl FnMut(&RuleList),
    ) -> bool {
        for (at, group) in &self.eq {
            let Some(v) = value(at) else {
                return false;
            };
            if v.is_null() {
                continue;
            }
            if let Some(rules) = group.get(hasher.hash_one(v), v) {
                f(rules);
            }
        }
        for (at, group) in &self.range {
            let Some(v) = value(at) else {
                return false;
            };
            if !v.is_null() {
                group.admitting(v, &mut f);
            }
        }
        true
    }
}

/// The LAT guards on one hoist slot.
#[derive(Clone, Default)]
struct LatGroups {
    /// One bit per rule with a LAT guard on the slot, up to the last one.
    /// Shared until a rule with a guard on the slot is appended.
    guarded: Arc<Vec<u64>>,
    /// By column.
    groups: Groups<usize>,
}

/// What [`GuardIndex::add`] needs of one guarded rule: its payload guard and
/// its LAT guard, at least one of them, its compiled condition and the
/// classes the condition names.
type Indexable<'a> = (
    Option<&'a Guard>,
    Option<&'a LatCheck>,
    &'a CondIr,
    &'a [ClassName],
);

/// The stored verdict speaks for the registered condition; a rule the
/// current registry cannot run (`broken`, no program) must still be
/// evaluated so its error is recorded, whatever the verdict says.
fn indexable(pr: &PlanRule) -> Option<Indexable<'_>> {
    match (&pr.reg.compiled, &pr.program, &pr.broken) {
        (Some(c), Some(_), None) if pr.reg.guard.is_some() || pr.lat_guard.is_some() => Some((
            pr.reg.guard.as_ref(),
            pr.lat_guard.as_ref(),
            &**c,
            &pr.reg.cond_classes[..],
        )),
        _ => None,
    }
}

/// The per-event guard index, built once per [`crate::plan::EventPlan`] —
/// or extended from its predecessor's by one rule — and probed once per
/// dispatched event, and once per writer-free segment for each hoist slot
/// its LAT guards read.
#[derive(Clone)]
pub(crate) struct GuardIndex {
    /// Hashes equality values and range bounds, here and in every index
    /// appended to this one.
    hasher: RandomState,
    /// Per payload class any guarded rule reads: minimum attribute-vector
    /// width its condition assumes. A probe over objects missing a class (or
    /// narrower than assumed — possible for synthetic payloads) is unusable
    /// and every rule becomes a candidate, keeping guarded conditions
    /// genuinely infallible whenever pruning happens.
    required: Vec<(ClassName, usize)>,
    /// Payload guards, by `(class, attribute)`.
    payload: Groups<(ClassName, usize)>,
    /// LAT guards, by hoist slot (empty for a slot no LAT guard reads).
    lats: Vec<LatGroups>,
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
    /// only for its LAT guard, which dispatch probes on probed events only:
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
    /// longer slice returns: `pr` is the last rule, so it joins each entry
    /// it belongs to after every rule already there. No installed guard is
    /// looked at again; the clone copies the undecided bitset, one partition
    /// per entry the rule joins or makes, the sweep of a range group it
    /// brings new bounds to, and the guarded bitset of its LAT guard's slot.
    pub fn appended(&self, pr: &PlanRule) -> GuardIndex {
        let mut idx = self.clone();
        let ri = idx.indexed_rules + idx.residual_rules;
        idx.undecided.resize((ri as usize + 1).div_ceil(64), 0);
        idx.add(ri, indexable(pr));
        idx
    }

    /// One entry per rule in registration order; `None` entries are residual.
    fn assemble<'a>(
        rules: impl ExactSizeIterator<Item = Option<Indexable<'a>>>,
    ) -> Option<GuardIndex> {
        let mut idx = GuardIndex {
            hasher: RandomState::new(),
            required: Vec::new(),
            payload: Groups::default(),
            lats: Vec::new(),
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
        Some(idx)
    }

    /// Enter rule `ri`, the last so far.
    fn add(&mut self, ri: u32, entry: Option<Indexable<'_>>) {
        let bit = |bits: &mut Vec<u64>| {
            let w = (ri >> 6) as usize;
            if bits.len() <= w {
                bits.resize(w + 1, 0);
            }
            bits[w] |= 1 << (ri & 63);
        };
        let Some((guard, lat, cond, cond_classes)) = entry else {
            bit(&mut self.undecided);
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
            Some(g) => self
                .payload
                .install(&self.hasher, (g.class.clone(), g.attr), &g.kind, ri),
            None => bit(&mut self.undecided),
        }
        if let Some(check) = lat {
            let slot = check.slot as usize;
            if self.lats.len() <= slot {
                self.lats.resize_with(slot + 1, LatGroups::default);
            }
            let on_slot = &mut self.lats[slot];
            bit(Arc::make_mut(&mut on_slot.guarded));
            on_slot
                .groups
                .install(&self.hasher, check.column, &check.kind, ri);
        }
    }

    fn require(&mut self, class: &ClassName, width: usize) {
        match self.required.iter_mut().find(|(c, _)| c == class) {
            Some((_, w)) => *w = (*w).max(width),
            None => self.required.push((class.clone(), width)),
        }
    }

    /// Probe the payload guards for one event into `bits`, one bit per rule
    /// of the event class. On success `bits` holds the candidate set (the
    /// undecided rules plus every rule whose payload guard admits the
    /// payload) and pruned rules are provably non-firing. Returns `false`
    /// when the payload doesn't satisfy [`GuardIndex::required`] — the
    /// caller must then treat every rule as a candidate (`bits` is left
    /// unspecified). Allocation-free.
    pub fn probe(&self, objects: &[Object], bits: &mut [u64]) -> bool {
        debug_assert_eq!(bits.len(), self.undecided.len());
        for (class, want) in &self.required {
            match objects.iter().find(|o| o.class == *class) {
                Some(o) if o.values().len() >= *want => {}
                _ => return false,
            }
        }
        bits.copy_from_slice(&self.undecided);
        let value = |(class, attr): &(ClassName, usize)| {
            let obj = objects.iter().find(|o| o.class == *class)?;
            Some(&obj.values()[*attr])
        };
        self.payload.admitting(&self.hasher, value, |rules| {
            for r in rules.iter() {
                bits[(r >> 6) as usize] |= 1 << (r & 63);
            }
        })
    }

    /// Probe the LAT guards on `slot` for the rules at positions
    /// `from..=to`, against `row` — the slot's row for the event, `None`
    /// when the LAT has none. Every rule of that range still in `run` whose
    /// LAT guard `row` refutes — all of them when the row is missing —
    /// leaves `run`, and `refused` is called with its position, in order.
    /// `keep` is scratch. Allocation-free once `keep` has grown to the
    /// class.
    pub fn refute(
        &self,
        slot: u32,
        row: Option<&[Value]>,
        (from, to): (usize, usize),
        run: &mut [u64],
        keep: &mut Vec<u64>,
        mut refused: impl FnMut(usize),
    ) {
        let Some(on_slot) = self.lats.get(slot as usize) else {
            return;
        };
        let guarded = &on_slot.guarded;
        let Some(last) = guarded.len().checked_sub(1).map(|w| w.min(to / 64)) else {
            return;
        };
        let first = from / 64;
        if first > last {
            return;
        }
        keep.clear();
        keep.resize(last - first + 1, 0);
        if let Some(row) = row {
            // The rules of an entry are in registration order.
            let value = |column: &usize| row.get(*column);
            on_slot.groups.admitting(&self.hasher, value, |rules| {
                for r in rules.iter().map(|r| r as usize) {
                    if r > to {
                        break;
                    }
                    if r >= from {
                        keep[r / 64 - first] |= 1 << (r & 63);
                    }
                }
            });
        }
        for w in first..=last {
            let mut out = guarded[w] & run[w] & !keep[w - first];
            if w == first {
                out &= u64::MAX << (from & 63);
            }
            if w == to / 64 {
                out &= u64::MAX >> (63 - (to & 63));
            }
            run[w] &= !out;
            while out != 0 {
                refused(w * 64 + out.trailing_zeros() as usize);
                out &= out - 1;
            }
        }
    }
}

#[cfg(test)]
impl<At: std::fmt::Debug> Groups<At> {
    /// Every entry with its rules, in an order two equal groups share.
    fn canonical(&self) -> String {
        let list = |rules: &RuleList| rules.iter().collect::<Vec<_>>();
        let eq = self.eq.iter().map(|(at, group)| {
            let entries = group.0.iter().filter_map(|(_, e)| e.as_ref());
            let mut entries: Vec<_> = entries.map(|(v, rules)| (v.clone(), list(rules))).collect();
            entries.sort();
            format!("{at:?} {entries:?}")
        });
        let range = self.range.iter().map(|(at, group)| {
            let sweep = group.sweep.iter().map(|&(iv, hash)| {
                let (bounds, rules) = group.entries.at(hash);
                (bounds, iv, list(rules))
            });
            format!("{at:?} {:?}", sweep.collect::<Vec<_>>())
        });
        format!(
            "eq {:?} range {:?}",
            eq.collect::<Vec<_>>(),
            range.collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
impl GuardIndex {
    /// Everything `probe` and `refute` read, in an order two equal indexes
    /// share: each entry lists its rules.
    pub fn canonical(&self) -> String {
        let lats = self
            .lats
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.guarded.is_empty());
        let lats =
            lats.map(|(slot, l)| format!("slot {slot} {:?} {}", l.guarded, l.groups.canonical()));
        format!(
            "indexed {} residual {} {:?} required {:?} payload {} lats {:?}",
            self.indexed_rules,
            self.residual_rules,
            self.undecided,
            self.required,
            self.payload.canonical(),
            lats.collect::<Vec<_>>()
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
        GuardIndex::assemble(regs.iter().map(|(g, c)| {
            g.as_ref()
                .map(|g| (Some(g), None, c, &[ClassName::Query][..]))
        }))
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

    fn at_least(v: Value, strict: bool) -> GuardKind {
        GuardKind::Range {
            lo: Some(Bound { value: v, strict }),
            hi: None,
        }
    }

    /// An index of LAT guards alone, one rule per kind, all on slot 0's
    /// column 1.
    fn lat_index(kinds: &[GuardKind]) -> GuardIndex {
        let (_, cond) = registered("Query.Duration >= 0");
        let checks: Vec<LatCheck> = kinds
            .iter()
            .map(|kind| LatCheck {
                slot: 0,
                column: 1,
                kind: kind.clone(),
            })
            .collect();
        let entries = checks
            .iter()
            .map(|c| Some((None, Some(c), &cond, &[ClassName::Query][..])));
        GuardIndex::assemble(entries).expect("every rule is indexable")
    }

    /// The rules at `from..=to` that `refute` refuses on `row`, every rule
    /// in `run`; checks that exactly those left `run`.
    fn refused_in(
        idx: &GuardIndex,
        row: Option<&[Value]>,
        (from, to): (usize, usize),
    ) -> Vec<usize> {
        let n = (idx.indexed_rules + idx.residual_rules) as usize;
        let mut run = vec![u64::MAX; n.div_ceil(64)];
        let mut out = Vec::new();
        idx.refute(0, row, (from, to), &mut run, &mut Vec::new(), |r| {
            out.push(r)
        });
        let left: Vec<usize> = (0..n)
            .filter(|&i| run[i >> 6] & (1 << (i & 63)) == 0)
            .collect();
        assert_eq!(left, out, "refused rules leave `run`, no other does");
        out
    }

    fn refused(idx: &GuardIndex, row: Option<&[Value]>) -> Vec<usize> {
        let n = (idx.indexed_rules + idx.residual_rules) as usize;
        refused_in(idx, row, (0, n - 1))
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
        let mut g = EqGroup::default();
        let (a, b) = (Value::Int(1), Value::Text("b".into()));
        let list = |rules: Option<&RuleList>| rules.map(|r| r.iter().collect::<Vec<_>>());
        assert_eq!(g.join(7, &a, 0), (7, true));
        assert_eq!(g.join(7, &b, 1), (8, true));
        assert_eq!(g.join(7, &a, 2), (7, false));
        assert_eq!(g.join(8, &Value::Int(3), 3), (9, true));
        assert_eq!(list(g.get(7, &a)), Some(vec![0, 2]));
        assert_eq!(list(g.get(7, &b)), Some(vec![1]));
        assert_eq!(list(g.get(8, &Value::Int(3))), Some(vec![3]));
        assert_eq!(list(g.get(7, &Value::Int(9))), None);
    }

    /// Rules with one test share its entry — one comparison for all of
    /// them — and `canonical` lists the entry's rules. `Int(2)` and
    /// `Float(2.0)` are one key; a strict and an inclusive bound on one
    /// value are two, and so are two equal lower bounds with different upper
    /// ones.
    #[test]
    fn identical_payload_bounds_share_one_entry() {
        let idx = index_of(&[
            "Query.Duration > 0.001",
            "Query.Duration > 0.001 AND Query.User LIKE 'a%'",
            "Query.Duration > 2",
            "Query.Duration >= 2",
            "Query.Duration > 2.0",
            "Query.Duration > 0.001",
            "Query.Duration > 2 AND Query.Duration < 5",
            "Query.User = 'alice'",
            "Query.User IN ('bob', 'alice')",
        ]);
        let [(_, range)] = &idx.payload.range[..] else {
            panic!("one range group");
        };
        assert_eq!(range.sweep.len(), 4, "{}", idx.canonical());
        let rules_of = |i: usize| {
            let (bounds, rules) = range.entries.at(range.sweep[i].1);
            (bounds.clone(), rules.iter().collect::<Vec<_>>())
        };
        assert_eq!(rules_of(0).1, [0, 1, 5]);
        assert_eq!(rules_of(1).1, [2, 4], "Int(2) and Float(2.0)");
        assert_eq!(rules_of(2).1, [3], "inclusive 2");
        assert_eq!(rules_of(3).1, [6], "(2, 5)");
        assert!(!rules_of(2).0.lo.unwrap().strict);
        let canonical = idx.canonical();
        assert!(canonical.contains("[0, 1, 5]"), "{canonical}");
        assert!(canonical.contains("[7, 8]"), "{canonical}");
        // Sharing changes no candidate set.
        assert_eq!(
            probe_one(&idx, &[query("alice", 2_000_000)]),
            [0, 1, 3, 5, 7, 8]
        );
        assert_eq!(
            probe_one(&idx, &[query("bob", 3_000_000)]),
            [0, 1, 2, 3, 4, 5, 6, 8]
        );
        assert_eq!(
            probe_one(&idx, &[query("carol", 1_000)]),
            Vec::<usize>::new()
        );
    }

    /// LAT guards share entries the same way: a ladder of 31 rules on two
    /// bounds is two entries.
    #[test]
    fn identical_lat_bounds_share_one_entry() {
        let kinds: Vec<GuardKind> = (0..31)
            .map(|i| match i % 2 {
                0 => at_least(Value::Int(1_000_000_000), false),
                _ => at_least(Value::Float(1e9), true),
            })
            .collect();
        let idx = lat_index(&kinds);
        let [(column, range)] = &idx.lats[0].groups.range[..] else {
            panic!("one range group");
        };
        assert_eq!((*column, range.sweep.len()), (1, 2));
        let evens: Vec<u32> = (0..31).step_by(2).collect();
        let (_, rules) = range.entries.at(range.sweep[0].1);
        assert_eq!(rules.iter().collect::<Vec<_>>(), evens);
        assert!(idx.canonical().contains(&format!("{evens:?}")));
        let row = |n: Value| vec![Value::Int(7), n];
        assert_eq!(
            refused(&idx, Some(&row(Value::Int(3)))),
            (0..31).collect::<Vec<_>>()
        );
        let odd: Vec<usize> = (1..31).step_by(2).collect();
        assert_eq!(refused(&idx, Some(&row(Value::Int(1_000_000_000)))), odd);
        assert!(refused(&idx, Some(&row(Value::Int(1_000_000_001)))).is_empty());
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

    /// The index refuses exactly what the conjuncts cannot make true: a
    /// missing row, a NULL column, a value outside the bounds and an
    /// endpoint a strict bound excludes are all refused, each with its
    /// reason.
    #[test]
    fn lat_check_prunes_missing_null_and_outside_rows() {
        let inclusive = at_least(Value::Int(5), false);
        let idx = lat_index(&[inclusive.clone(), at_least(Value::Int(5), true)]);
        let row = |n: Value| vec![Value::Int(7), n];
        assert_eq!(refused(&idx, None), [0, 1]);
        assert_eq!(refused(&idx, Some(&row(Value::Null))), [0, 1]);
        assert_eq!(refused(&idx, Some(&row(Value::Int(4)))), [0, 1]);
        assert_eq!(refused(&idx, Some(&row(Value::Int(5)))), [1]);
        assert!(refused(&idx, Some(&row(Value::Float(5.5)))).is_empty());
        assert!(refused(&idx, Some(&row(Value::Int(6)))).is_empty());
        let text = lat_index(&[GuardKind::Eq(vec![Value::text("a"), Value::text("b")])]);
        assert!(refused(&text, Some(&row(Value::text("b")))).is_empty());
        assert_eq!(refused(&text, Some(&row(Value::text("c")))), [0]);

        let (clock, _) = sqlcm_common::ManualClock::shared(0);
        let lat = Lat::new(
            crate::lat::LatSpec::new("Sig_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(crate::lat::LatAggFunc::Count, "", "N"),
            clock,
        )
        .unwrap();
        let check = LatCheck {
            slot: 0,
            column: 1,
            kind: inclusive,
        };
        assert_eq!(
            check.explain(&lat, Some(&row(Value::Int(4)))),
            "pruned by LAT guard: Sig_LAT.N=4 outside [5,∞)"
        );
        assert_eq!(
            check.explain(&lat, Some(&row(Value::Null))),
            "pruned by LAT guard: Sig_LAT.N is NULL"
        );
        assert_eq!(
            check.explain(&lat, None),
            "pruned by LAT guard: no Sig_LAT row"
        );
    }

    /// A probe decides its segment only: the rules before `from` and after
    /// `to` keep their bits, across bitset words.
    #[test]
    fn refute_stays_inside_its_segment() {
        let idx = lat_index(&vec![at_least(Value::Int(5), false); 130]);
        for (from, to) in [(0, 0), (3, 9), (60, 70), (63, 64), (64, 127), (100, 129)] {
            let want: Vec<usize> = (from..=to).collect();
            assert_eq!(refused_in(&idx, None, (from, to)), want, "{from}..={to}");
        }
        let row = vec![Value::Int(1), Value::Int(5)];
        assert!(refused_in(&idx, Some(&row), (60, 70)).is_empty());
    }
}
