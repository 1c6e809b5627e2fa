//! The admitted rules as the cross-rule lints read them.
//!
//! Every cross-rule lint asks the rules admitted so far one narrow question
//! ([`Admitted`]); none of them needs the whole set. `RuleIndex` — what
//! [`crate::Analyzer`] keeps — answers each from an index it maintains as
//! rules are admitted and removed, so checking a rule costs the same however
//! many rules came before it:
//!
//! | lint | question | index |
//! |------|----------|-------|
//! | W102 | the first equal rule | duplicate fingerprint: event, folded-condition hash, actions |
//! | W105 | the first rule sharing a predicate | per event: predicate hash → the rules holding it |
//! | E004, W302 | the rules on an event | per event |
//! | W301 | the last rule on an event | per event |
//! | W203 | is a LAT fed | per LAT written: how many `Insert`s feed it |
//!
//! Every index keeps admission order, and a hash hit is confirmed by full
//! equality, so each answer is the one a scan over the admitted rules in
//! admission order gives — the oracle `tests/lint_index_differential.rs`
//! checks the indexes against.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sqlcm_sql::{ExprIr, NodeId};

use crate::{Action, RuleEvent, RuleIr};

/// The rules admitted so far, as the cross-rule lints query them.
pub trait Admitted {
    /// How many rules are admitted.
    fn rule_count(&self) -> usize;

    /// The admitted rules on `event`, in admission order.
    fn on_event(&self, event: &RuleEvent) -> impl DoubleEndedIterator<Item = &RuleIr>;

    /// The first admitted rule with `rule`'s event, condition and actions.
    fn duplicate_of(&self, rule: &RuleIr) -> Option<&RuleIr>;

    /// The first admitted rule on `rule`'s event whose folded condition has
    /// another root hash than `rule`'s and holds one of `predicates` —
    /// subtrees of `rule`'s folded condition, largest first — with the first
    /// of them it holds ([`holds`]).
    fn sharing_predicate(&self, rule: &RuleIr, predicates: &[NodeId]) -> Option<(&RuleIr, NodeId)>;

    /// Does an admitted rule `Insert` into the LAT with this lowercased name?
    fn feeds(&self, lat: &str) -> bool;
}

/// Does `rule`'s folded condition hold a subtree structurally equal to
/// `node` of `ir`?
pub fn holds(rule: &RuleIr, ir: &ExprIr, node: NodeId) -> bool {
    let Some(rir) = rule.condition.as_ref().map(|c| c.folded()) else {
        return false;
    };
    let h = ir.hash_of(node);
    let mut found = false;
    rir.for_each(rir.root, &mut |id| {
        found = found || (rir.hash_of(id) == h && rir.subtree_eq(id, ir, node));
    });
    found
}

/// Minimum size (in IR ops) of a predicate W105 reports: a comparison with
/// both operands, or anything larger.
const PREDICATE_MIN_SIZE: u32 = 3;

/// The boolean subtrees of `ir` big enough for W105, in pre-order.
pub(crate) fn predicates(ir: &ExprIr) -> Vec<NodeId> {
    let mut out = Vec::new();
    ir.for_each(ir.root, &mut |id| {
        if ir.is_boolish(id) && ir.size_of(id) >= PREDICATE_MIN_SIZE {
            out.push(id);
        }
    });
    out
}

fn root_hash(rule: &RuleIr) -> Option<u64> {
    let folded = rule.condition.as_ref()?.folded();
    Some(folded.hash_of(folded.root))
}

/// Equal for rules equal in event, condition and actions.
fn fingerprint(rule: &RuleIr) -> u64 {
    let mut h = DefaultHasher::new();
    (&rule.event, root_hash(rule), &rule.actions).hash(&mut h);
    h.finish()
}

/// The lowercased LATs `rule` Inserts into, once per action.
fn inserted(rule: &RuleIr) -> impl Iterator<Item = String> + '_ {
    rule.actions.iter().filter_map(|a| match a {
        Action::Insert { lat } => Some(lat.to_ascii_lowercase()),
        _ => None,
    })
}

/// One admitted rule in an index list; `seq` is its admission number.
#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    rule: Arc<RuleIr>,
}

/// Take the entry numbered `seq` out of a list in admission order.
fn take(list: &mut Vec<Entry>, seq: u64) {
    if let Ok(at) = list.binary_search_by_key(&seq, |e| e.seq) {
        list.remove(at);
    }
}

/// The admitted rules, indexed for the cross-rule lints.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleIndex {
    rules: Vec<Arc<RuleIr>>,
    admissions: u64,
    by_event: HashMap<RuleEvent, EventRules>,
    by_fingerprint: HashMap<u64, Vec<Entry>>,
    /// Lowercased LAT name → admitted `Insert` actions into it.
    feeders: HashMap<String, usize>,
}

#[derive(Debug, Clone, Default)]
struct EventRules {
    rules: Vec<Entry>,
    /// Canonical hash of a W105 predicate → the rules on the event holding
    /// one of that hash.
    predicates: HashMap<u64, Holders>,
}

/// The rules holding one predicate, in admission order. `other` is the
/// position of the first whose condition has another root hash than the
/// first's, so the first holder with a condition other than a given one is
/// found in one step.
#[derive(Debug, Clone, Default)]
struct Holders {
    rules: Vec<Entry>,
    other: Option<usize>,
}

impl Holders {
    fn push(&mut self, entry: Entry) {
        if self.other.is_none()
            && self
                .rules
                .first()
                .is_some_and(|first| root_hash(&first.rule) != root_hash(&entry.rule))
        {
            self.other = Some(self.rules.len());
        }
        self.rules.push(entry);
    }

    fn remove(&mut self, seq: u64) {
        take(&mut self.rules, seq);
        let first = self.rules.first().map(|e| root_hash(&e.rule));
        self.other = self
            .rules
            .iter()
            .position(|e| Some(root_hash(&e.rule)) != first);
    }

    /// The holders from the first whose condition's root hash may differ
    /// from `root`.
    fn past(&self, root: Option<u64>) -> &[Entry] {
        match self.rules.first() {
            Some(first) if root_hash(&first.rule) == root => {
                &self.rules[self.other.unwrap_or(self.rules.len())..]
            }
            _ => &self.rules,
        }
    }
}

impl RuleIndex {
    /// The admitted rules in admission order.
    pub fn rules(&self) -> &[Arc<RuleIr>] {
        &self.rules
    }

    /// Admit `rule` after every rule admitted so far.
    pub fn insert(&mut self, rule: Arc<RuleIr>) {
        let entry = Entry {
            seq: self.admissions,
            rule: rule.clone(),
        };
        self.admissions += 1;
        let class = self.by_event.entry(rule.event.clone()).or_default();
        class.rules.push(entry.clone());
        for h in predicate_hashes(&rule) {
            class.predicates.entry(h).or_default().push(entry.clone());
        }
        let twins = self.by_fingerprint.entry(fingerprint(&rule)).or_default();
        twins.push(entry);
        for lat in inserted(&rule) {
            *self.feeders.entry(lat).or_default() += 1;
        }
        self.rules.push(rule);
    }

    /// Take `rule` — the admitted `Arc` itself — out of every index; false
    /// when it is not admitted.
    pub fn remove(&mut self, rule: &Arc<RuleIr>) -> bool {
        let Some(at) = self.rules.iter().position(|r| Arc::ptr_eq(r, rule)) else {
            return false;
        };
        self.rules.remove(at);
        let fingerprint = fingerprint(rule);
        let twins = self.by_fingerprint.get_mut(&fingerprint).expect("indexed");
        let at = twins.iter().position(|e| Arc::ptr_eq(&e.rule, rule));
        let seq = twins.remove(at.expect("indexed")).seq;
        if twins.is_empty() {
            self.by_fingerprint.remove(&fingerprint);
        }
        let class = self.by_event.get_mut(&rule.event).expect("indexed");
        take(&mut class.rules, seq);
        for h in predicate_hashes(rule) {
            let holders = class.predicates.get_mut(&h).expect("indexed");
            holders.remove(seq);
            if holders.rules.is_empty() {
                class.predicates.remove(&h);
            }
        }
        if class.rules.is_empty() {
            self.by_event.remove(&rule.event);
        }
        for lat in inserted(rule) {
            let feeders = self.feeders.get_mut(&lat).expect("indexed");
            *feeders -= 1;
            if *feeders == 0 {
                self.feeders.remove(&lat);
            }
        }
        true
    }
}

/// The distinct hashes of `rule`'s W105 predicates.
fn predicate_hashes(rule: &RuleIr) -> Vec<u64> {
    let Some(folded) = rule.condition.as_ref().map(|c| c.folded()) else {
        return Vec::new();
    };
    let mut hashes: Vec<u64> = predicates(folded)
        .into_iter()
        .map(|id| folded.hash_of(id))
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    hashes
}

impl Admitted for RuleIndex {
    fn rule_count(&self) -> usize {
        self.rules.len()
    }

    fn on_event(&self, event: &RuleEvent) -> impl DoubleEndedIterator<Item = &RuleIr> {
        let class = self.by_event.get(event).map_or(&[][..], |c| &c.rules[..]);
        class.iter().map(|e| &*e.rule)
    }

    fn duplicate_of(&self, rule: &RuleIr) -> Option<&RuleIr> {
        let twins = self.by_fingerprint.get(&fingerprint(rule))?;
        twins.iter().map(|e| &*e.rule).find(|r| {
            r.event == rule.event && r.condition == rule.condition && r.actions == rule.actions
        })
    }

    fn sharing_predicate(&self, rule: &RuleIr, predicates: &[NodeId]) -> Option<(&RuleIr, NodeId)> {
        let class = self.by_event.get(&rule.event)?;
        let folded = rule.condition.as_ref()?.folded();
        let root = root_hash(rule);
        // The earliest holder of any predicate; a holder normally holds the
        // predicate its hash names, so each list is looked at once.
        let mut first: Option<&Entry> = None;
        for &node in predicates {
            let Some(holders) = class.predicates.get(&folded.hash_of(node)) else {
                continue;
            };
            for e in holders.past(root) {
                if first.is_some_and(|f| f.seq <= e.seq) {
                    break;
                }
                if root_hash(&e.rule) != root && holds(&e.rule, folded, node) {
                    first = Some(e);
                    break;
                }
            }
        }
        let rule = &*first?.rule;
        let node = predicates
            .iter()
            .copied()
            .find(|&n| holds(rule, folded, n))?;
        Some((rule, node))
    }

    fn feeds(&self, lat: &str) -> bool {
        self.feeders.contains_key(lat)
    }
}
