//! Effect analysis: per-rule column-level read/write sets (W203).
//!
//! Every admitted rule is summarized as a [`RuleEffects`]: which class
//! attributes and LAT columns its condition *reads*, and which LAT columns
//! its actions *write*. The abstract domain per (LAT, column) is the flat
//! lattice `⊥ (untouched) ⊏ written ⊏ ⊤ (whole LAT)`:
//!
//! * `Insert(L)` writes **every aggregate column** of `L` — the runtime folds
//!   the in-context object into all aggregate states of the row — and may
//!   *create* the row (which is the only way the grouping key is ever
//!   "written": the key of an existing row is immutable).
//! * `Reset(L)` writes ⊤: every column of every row is destroyed.
//! * All other actions write nothing (persists *read*, mail/external produce
//!   no LAT state).
//!
//! The pairwise [`RuleEffects::interferes_with`] relation feeds the
//! order-sensitivity check in [`crate::confluence`].

use std::collections::{BTreeMap, BTreeSet};

use sqlcm_sql::ExprIr;

use crate::admitted::Admitted;
use crate::diagnostics::{Code, Diagnostic};
use crate::schema::SchemaUniverse;
use crate::{Action, RuleIr};

/// What one rule writes into one LAT.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatWriteEffect {
    /// Aggregate columns written (canonical schema spelling). Group-key
    /// columns are never in this set — see [`LatWriteEffect::creates_rows`].
    pub columns: BTreeSet<String>,
    /// `Reset`: every column of every row is clobbered; `columns` is moot.
    pub whole_lat: bool,
    /// `Insert` may create a row that did not exist before, flipping the
    /// implicit-∃ of any probe (and materializing the grouping key).
    pub creates_rows: bool,
}

/// Column-level read/write summary of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleEffects {
    pub rule: String,
    /// Class attributes the condition reads, keyed by canonical class name.
    pub attr_reads: BTreeMap<String, BTreeSet<String>>,
    /// LAT columns the condition reads, keyed by lowercased LAT name with
    /// canonical column spellings. Columns that could not be resolved are
    /// recorded as written in the condition (analysis stays sound: unknown
    /// names never *narrow* anything, they only appear here for reporting).
    pub lat_reads: BTreeMap<String, BTreeSet<String>>,
    /// LAT write effects, keyed by lowercased LAT name.
    pub lat_writes: BTreeMap<String, LatWriteEffect>,
}

impl RuleEffects {
    /// Does `self` (the earlier rule) read anything that `later` writes on
    /// the same LAT? Returns a human-readable description of the first
    /// conflict found. This is the asymmetric half of the interference
    /// relation the confluence pass cares about: a reader ordered *before* a
    /// writer observes the previous event's state, so swapping the two rules
    /// changes observable behaviour.
    pub fn reads_what_it_writes(&self, later: &RuleEffects) -> Option<String> {
        for (lat, reads) in &self.lat_reads {
            let Some(w) = later.lat_writes.get(lat) else {
                continue;
            };
            if w.whole_lat {
                return Some(format!(
                    "`{}` resets a LAT that `{}` reads",
                    later.rule, self.rule
                ));
            }
            if let Some(col) = reads.iter().find(|c| w.columns.contains(*c)) {
                return Some(format!(
                    "column `{col}` is read by `{}` and written by `{}`",
                    self.rule, later.rule
                ));
            }
            if w.creates_rows {
                return Some(format!(
                    "`{}` can create the row `{}` probes (implicit-∃ flips)",
                    later.rule, self.rule
                ));
            }
        }
        None
    }

    /// Symmetric interference: swapping adjacent rules `a; b` → `b; a` is
    /// observable iff either reads what the other writes.
    pub fn interferes_with(&self, other: &RuleEffects) -> Option<String> {
        self.reads_what_it_writes(other)
            .or_else(|| other.reads_what_it_writes(self))
    }
}

/// Compute the effect summary of one rule against the current universe.
///
/// Unresolvable references degrade gracefully (E001 is someone else's job):
/// an unknown LAT in an action is summarized as a whole-LAT write, so a
/// consumer that trusts the summary still over-approximates.
pub fn rule_effects(universe: &SchemaUniverse, rule: &RuleIr) -> RuleEffects {
    let mut eff = RuleEffects {
        rule: rule.name.clone(),
        attr_reads: BTreeMap::new(),
        lat_reads: BTreeMap::new(),
        lat_writes: BTreeMap::new(),
    };
    if let Some(cond) = &rule.condition {
        collect_reads(universe, cond.lowered(), &mut eff);
    }
    for action in &rule.actions {
        match action {
            Action::Insert { lat } => {
                let w = eff.lat_writes.entry(lat.to_ascii_lowercase()).or_default();
                w.creates_rows = true;
                match universe.lat(lat) {
                    Some(schema) => {
                        w.columns
                            .extend(schema.aggregate_columns().map(|c| c.name.clone()));
                    }
                    // Unknown LAT: be maximally pessimistic.
                    None => w.whole_lat = true,
                }
            }
            Action::Reset { lat } => {
                eff.lat_writes
                    .entry(lat.to_ascii_lowercase())
                    .or_default()
                    .whole_lat = true;
            }
            Action::PersistLat { .. }
            | Action::PersistObject { .. }
            | Action::SetTimer { .. }
            | Action::Cancel { .. }
            | Action::SendMail { .. }
            | Action::RunExternal { .. } => {}
        }
    }
    eff
}

/// Collect condition reads from the lowered IR's reference pool — the pool
/// is exactly the deduplicated set of qualified columns the old AST walk
/// visited.
fn collect_reads(universe: &SchemaUniverse, ir: &ExprIr, eff: &mut RuleEffects) {
    for (qualifier, name) in &ir.refs {
        let Some(q) = qualifier else { continue };
        if let Some(class) = universe.class(q) {
            let attr = class.canonical_attr(name).unwrap_or(name).to_string();
            eff.attr_reads
                .entry(class.class.to_string())
                .or_default()
                .insert(attr);
        } else {
            let col = universe
                .lat(q)
                .and_then(|l| l.column(name))
                .map(|c| c.name.clone())
                .unwrap_or_else(|| name.clone());
            eff.lat_reads
                .entry(q.to_ascii_lowercase())
                .or_default()
                .insert(col);
        }
    }
}

/// W203 — "read-only LAT column": the new rule's condition reads an
/// aggregate column of a LAT that **no** rule admitted so far (including the
/// new rule itself) feeds with an `Insert`. Once a row exists the column
/// stays at its initial aggregate (NULL for value aggregates), so the
/// comparison can never become true; more commonly no row ever exists and
/// the implicit-∃ keeps the condition false outright.
///
/// Group-key columns are exempt: probing the key of a LAT that a later rule
/// (or an operator) feeds is the legitimate existence-test idiom. `eff` is
/// `rule`'s [`rule_effects`].
pub fn check_unfed_reads(
    universe: &SchemaUniverse,
    admitted: &impl Admitted,
    rule: &RuleIr,
    eff: &RuleEffects,
    diags: &mut Vec<Diagnostic>,
) {
    let fed = |lat: &str| {
        admitted.feeds(lat)
            || rule
                .actions
                .iter()
                .any(|a| matches!(a, Action::Insert { lat: l } if l.eq_ignore_ascii_case(lat)))
    };
    for (lat_key, reads) in &eff.lat_reads {
        if fed(lat_key) {
            continue;
        }
        let Some(schema) = universe.lat(lat_key) else {
            continue; // unknown LAT is E001, reported elsewhere
        };
        for col in reads {
            let Some(column) = schema.column(col) else {
                continue;
            };
            if column.group {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    Code::W203,
                    &rule.name,
                    format!(
                        "condition reads `{}.{}`, but no registered rule ever \
                         Inserts into LAT {}",
                        schema.name, column.name, schema.name
                    ),
                )
                .with_span(format!("{}.{}", schema.name, column.name))
                .with_help(
                    "without a feeding rule the column keeps its initial aggregate \
                     (and the row may never exist); register the Insert rule first",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Condition, LatAggFunc, LatSpec, RuleEvent};

    fn universe_with_lat() -> SchemaUniverse {
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

    fn rule(name: &str, cond: Option<&str>, actions: Vec<Action>) -> RuleIr {
        RuleIr {
            name: name.into(),
            event: RuleEvent::QueryCommit,
            condition: cond.map(|c| Condition::lower(&sqlcm_sql::parse_expression(c).unwrap())),
            actions,
        }
    }

    #[test]
    fn insert_writes_aggregates_and_creates_rows() {
        let u = universe_with_lat();
        let eff = rule_effects(&u, &rule("feed", None, vec![Action::insert("d_lat")]));
        let w = eff.lat_writes.get("d_lat").unwrap();
        assert!(w.creates_rows);
        assert!(!w.whole_lat);
        let cols: Vec<&str> = w.columns.iter().map(String::as_str).collect();
        assert_eq!(cols, ["AD", "N"], "aggregates only, never the key");
    }

    #[test]
    fn reset_is_whole_lat() {
        let u = universe_with_lat();
        let eff = rule_effects(&u, &rule("wipe", None, vec![Action::reset("D_LAT")]));
        assert!(eff.lat_writes.get("d_lat").unwrap().whole_lat);
    }

    #[test]
    fn condition_reads_resolve_canonical_spellings() {
        let u = universe_with_lat();
        let eff = rule_effects(
            &u,
            &rule(
                "r",
                Some("query.duration > d_lat.ad AND D_LAT.N > 2"),
                vec![],
            ),
        );
        assert!(eff.attr_reads.get("Query").unwrap().contains("Duration"));
        let reads = eff.lat_reads.get("d_lat").unwrap();
        assert!(reads.contains("AD") && reads.contains("N"), "{reads:?}");
    }

    #[test]
    fn reader_before_writer_interferes() {
        let u = universe_with_lat();
        let reader = rule_effects(&u, &rule("reader", Some("D_LAT.N > 5"), vec![]));
        let writer = rule_effects(&u, &rule("writer", None, vec![Action::insert("D_LAT")]));
        assert!(reader.reads_what_it_writes(&writer).is_some());
        assert!(writer.reads_what_it_writes(&reader).is_none());
        assert!(reader.interferes_with(&writer).is_some());
    }

    #[test]
    fn unfed_aggregate_read_is_w203_but_key_read_is_not() {
        let u = universe_with_lat();
        let check = |admitted: &[RuleIr], rule: &RuleIr| {
            let mut index = crate::admitted::RuleIndex::default();
            for r in admitted {
                index.insert(std::sync::Arc::new(r.clone()));
            }
            let mut diags = Vec::new();
            check_unfed_reads(&u, &index, rule, &rule_effects(&u, rule), &mut diags);
            diags
        };
        let diags = check(&[], &rule("r", Some("D_LAT.AD > 1"), vec![]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::W203);

        let diags = check(&[], &rule("k", Some("D_LAT.Sig = 7"), vec![]));
        assert!(diags.is_empty(), "{diags:?}");

        // A feeder anywhere in the admitted set silences the warning.
        let feeder = rule("feed", None, vec![Action::insert("D_LAT")]);
        let diags = check(&[feeder], &rule("r", Some("D_LAT.AD > 1"), vec![]));
        assert!(diags.is_empty(), "{diags:?}");
    }
}
