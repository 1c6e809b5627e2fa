//! The analyzer's indexed cross-rule lints against the linear scans they
//! replaced. Over the shipped workload catalogs, the benchmark workloads'
//! catalogs, the broken example ruleset and seeded random rulesets with
//! removals, every rule is diagnosed twice by one analyzer: once asking its
//! own indexes ([`Analyzer::diagnose`]) and once asking [`Linear`], a scan
//! over the same admitted rules in admission order. Both must give the same
//! diagnostics in the same order, naming the same counterpart rule.
//!
//! Run: `cargo test --release --test lint_index_differential`.

#[path = "../examples/lint_rules.rs"]
#[allow(dead_code)]
mod lint_rules;

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlcm_repro::monitor::{
    holds, Action, Admitted, Analyzer, Code, Diagnostic, LatAggFunc, LatSpec, Rule, RuleEvent,
    RuleIr,
};
use sqlcm_repro::sql::NodeId;
use sqlcm_repro::workloads::rules::catalogs;

/// Each lint's question answered by walking the admitted rules in admission
/// order: the reference the analyzer's indexes are checked against.
#[derive(Default)]
struct Linear(Vec<Arc<RuleIr>>);

impl Admitted for Linear {
    fn rule_count(&self) -> usize {
        self.0.len()
    }

    fn on_event(&self, event: &RuleEvent) -> impl DoubleEndedIterator<Item = &RuleIr> {
        self.0
            .iter()
            .map(|r| &**r)
            .filter(move |r| r.event == *event)
    }

    fn duplicate_of(&self, rule: &RuleIr) -> Option<&RuleIr> {
        self.0.iter().map(|r| &**r).find(|r| {
            r.event == rule.event && r.condition == rule.condition && r.actions == rule.actions
        })
    }

    fn sharing_predicate(&self, rule: &RuleIr, predicates: &[NodeId]) -> Option<(&RuleIr, NodeId)> {
        let folded = rule.condition.as_ref()?.folded();
        let root = folded.hash_of(folded.root);
        self.0.iter().find_map(|r| {
            let rir = r.condition.as_ref()?.folded();
            if r.event != rule.event || rir.hash_of(rir.root) == root {
                return None;
            }
            let node = predicates.iter().copied().find(|&n| holds(r, folded, n))?;
            Some((&**r, node))
        })
    }

    fn feeds(&self, lat: &str) -> bool {
        let feeds =
            |a: &Action| matches!(a, Action::Insert { lat: l } if l.eq_ignore_ascii_case(lat));
        self.0.iter().any(|r| r.actions.iter().any(feeds))
    }
}

/// One analyzer and the same admitted rules in a [`Linear`].
struct Pair {
    analyzer: Analyzer,
    linear: Linear,
    /// Diagnostics compared so far.
    compared: usize,
}

impl Pair {
    fn new(lats: &[LatSpec], cascade_threshold: usize) -> Pair {
        let mut analyzer = Analyzer::new();
        analyzer.cascade_threshold = cascade_threshold;
        for lat in lats {
            analyzer.check_lat(lat);
        }
        Pair {
            analyzer,
            linear: Linear::default(),
            compared: 0,
        }
    }

    /// Diagnose `rule` both ways, compare, and admit it into both when it
    /// has no error.
    fn check(&mut self, rule: &RuleIr, context: &str) -> Vec<Diagnostic> {
        let indexed = self.analyzer.diagnose(rule);
        let linear = self.analyzer.diagnose_with(&self.linear, rule);
        assert_eq!(indexed, linear, "{context}: rule `{}`", rule.name);
        self.compared += indexed.len();
        if !indexed.iter().any(Diagnostic::is_error) {
            let rule = Arc::new(rule.clone());
            self.analyzer.seed_rule(rule.clone());
            self.linear.0.push(rule);
        }
        indexed
    }

    /// Take the `at`-th admitted rule out of both.
    fn remove(&mut self, at: usize) {
        let rule = self.linear.0.remove(at);
        assert!(self.analyzer.remove_rule(&rule));
        let names =
            |rules: &[Arc<RuleIr>]| rules.iter().map(|r| r.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(self.analyzer.rules()), names(&self.linear.0));
    }
}

fn default_threshold() -> usize {
    Analyzer::new().cascade_threshold
}

fn lint_both(lats: &[LatSpec], rules: &[Rule], cascade_threshold: usize, context: &str) -> Pair {
    let mut pair = Pair::new(lats, cascade_threshold);
    for rule in rules {
        pair.check(&rule.ir(), context);
    }
    pair
}

#[test]
fn shipped_catalogs_lint_the_same_through_the_indexes() {
    for catalog in catalogs() {
        lint_both(
            &catalog.lats,
            &catalog.rules,
            default_threshold(),
            catalog.name,
        );
    }
}

/// The catalogs of the four benchmark workloads, built the way the
/// benchmark builds them.
fn benchmark_catalogs() -> Vec<(&'static str, Vec<LatSpec>, Vec<Rule>)> {
    let on_commit = |name: String| Rule::new(name).on(RuleEvent::QueryCommit);
    let topk = LatSpec::new("TopK")
        .group_by("Query.ID", "ID")
        .aggregate(LatAggFunc::Max, "Query.Duration", "Duration")
        .aggregate(LatAggFunc::Last, "Query.Query_Text", "Query_Text")
        .order_by("Duration", true)
        .max_rows(10);
    let mixed = sqlcm_repro::workloads::rules::mixed();
    let mut topk_lats = vec![topk];
    topk_lats.extend(mixed.lats);
    let mut topk_rules = vec![on_commit("track_topk".into()).then(Action::insert("TopK"))];
    topk_rules.extend(mixed.rules);

    let per_rule = |name: &str| {
        LatSpec::new(name)
            .group_by("Query.ID", "ID")
            .aggregate(LatAggFunc::Last, "Query.Duration", "Duration")
            .aggregate(LatAggFunc::Last, "Query.User", "Usr")
            .order_by("ID", true)
            .max_rows(10)
    };
    let names: Vec<String> = (0..100).map(|r| format!("lat_{r}")).collect();
    let point_rules = names.iter().enumerate().map(|(r, lat)| {
        on_commit(format!("rule_{r}"))
            .when("Query.Duration >= 0")
            .then(Action::insert(lat))
    });

    let tenant_lat = LatSpec::new("Tenant_LAT")
        .group_by("Query.User", "Usr")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration");
    let tenant_rules = (0..1_000).map(|t| {
        on_commit(format!("tenant_rule_{t}"))
            .when(&format!(
                "Query.User = 'tenant_{t}' AND Query.Duration >= 0"
            ))
            .then(Action::insert("Tenant_LAT"))
    });

    let sig_lat = LatSpec::new("Sig_LAT")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration");
    let mut shared_rules = vec![on_commit("feed".into()).then(Action::insert("Sig_LAT"))];
    shared_rules.extend((0..31u64).map(|i| {
        on_commit(format!("watch_{i}"))
            .when(&format!(
                "Query.Duration > 0.001 AND Sig_LAT.N >= {}",
                1_000_000_000 + i
            ))
            .then(Action::send_mail("dba", "Sig_LAT threshold crossed"))
    }));

    vec![
        ("host_mixed_topk", topk_lats, topk_rules),
        (
            "host_point_rules100",
            names.iter().map(|n| per_rule(n)).collect(),
            point_rules.collect(),
        ),
        (
            "storm_selective_1k",
            vec![tenant_lat],
            tenant_rules.collect(),
        ),
        ("storm_shared_lat", vec![sig_lat], shared_rules),
    ]
}

#[test]
fn benchmark_catalogs_lint_the_same_through_the_indexes() {
    for (name, lats, rules) in benchmark_catalogs() {
        let pair = lint_both(&lats, &rules, default_threshold(), name);
        assert_eq!(pair.analyzer.rules().len(), rules.len(), "{name}");
        // The selective catalog shares `Query.Duration >= 0` (W105) and puts
        // 1 000 rules on one event (W302): the indexed answers are exercised.
        if name == "storm_selective_1k" {
            assert!(pair.compared >= 1_900, "{}", pair.compared);
        }
    }
}

#[test]
fn broken_example_ruleset_lints_the_same_through_the_indexes() {
    let (lats, rules) = lint_rules::bad_ruleset();
    let pair = lint_both(&lats, &rules, lint_rules::DEMO_CASCADE_THRESHOLD, "--bad");
    assert!(pair.compared >= 16, "{}", pair.compared);
    let (lats, rules) = lint_rules::good_ruleset();
    lint_both(&lats, &rules, default_threshold(), "good");
}

// ------------------------------------------------------------ generated

const LATS: [(&str, bool); 3] = [("A", true), ("B", true), ("C", false)];

fn generated_lats() -> Vec<LatSpec> {
    LATS.iter()
        .map(|&(name, bounded)| {
            let spec = LatSpec::new(name)
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "D");
            if bounded {
                spec.max_rows(4)
            } else {
                spec
            }
        })
        .collect()
}

/// Predicates the generated conditions share whole or as subtrees.
const ATOMS: [&str; 8] = [
    "Query.Duration > 5",
    "Query.User = 'u1'",
    "Query.Estimated_Cost > 100",
    "A.N >= 2",
    "B.D > 1",
    "C.N < 10",
    "Query.Duration >= 0",
    "Query.User IN ('u2', 'u3')",
];

fn event(rng: &mut SmallRng) -> RuleEvent {
    match rng.gen_range(0..8) {
        0..=2 => RuleEvent::QueryCommit,
        3 => RuleEvent::QueryStart,
        // Spelled in another case: eviction events compare caselessly.
        4 => RuleEvent::LatEviction(["A", "b"][rng.gen_range(0..2usize)].into()),
        5 => RuleEvent::LatEviction("a".into()),
        _ => RuleEvent::TimerAlarm(["t1", "t2"][rng.gen_range(0..2usize)].into()),
    }
}

fn condition(rng: &mut SmallRng) -> Option<String> {
    let atoms = rng.gen_range(0..4);
    if atoms == 0 {
        return None;
    }
    let mut cond = ATOMS[rng.gen_range(0..ATOMS.len())].to_string();
    for _ in 1..atoms {
        let op = ["AND", "OR"][rng.gen_range(0..2usize)];
        cond = format!("({cond}) {op} {}", ATOMS[rng.gen_range(0..ATOMS.len())]);
    }
    Some(cond)
}

fn action(rng: &mut SmallRng) -> Action {
    let lat = LATS[rng.gen_range(0..LATS.len())].0;
    match rng.gen_range(0..7) {
        0 | 1 => Action::insert(lat),
        2 => Action::insert(&lat.to_ascii_lowercase()),
        3 => Action::reset(lat),
        4 => Action::set_timer(["t1", "t2"][rng.gen_range(0..2usize)], 1_000, 1),
        _ => Action::send_mail("dba", "x"),
    }
}

fn generated_rule(rng: &mut SmallRng, name: String) -> Rule {
    let mut rule = Rule::new(name).on(event(rng));
    if let Some(cond) = condition(rng) {
        rule = rule.when(&cond);
    }
    for _ in 0..rng.gen_range(0..3) {
        rule = rule.then(action(rng));
    }
    rule
}

/// Seeded rulesets with shared events, overlapping LAT reads and writes,
/// exact duplicates (an earlier rule again under a new name), shared
/// subtrees and eviction/timer cascades; a quarter of the steps remove an
/// admitted rule, so the indexes are checked after removals too.
#[test]
fn generated_rulesets_lint_the_same_through_the_indexes() {
    let (mut compared, mut removed) = (0, 0);
    let mut seen = std::collections::HashSet::new();
    for seed in 0..60 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pair = Pair::new(&generated_lats(), 8);
        let mut made: Vec<RuleIr> = Vec::new();
        for step in 0..120 {
            let context = format!("seed {seed} step {step}");
            if rng.gen_range(0..4) == 0 && !pair.linear.0.is_empty() {
                pair.remove(rng.gen_range(0..pair.linear.0.len()));
                removed += 1;
                continue;
            }
            let mut rule = match rng.gen_range(0..6) {
                0 if !made.is_empty() => made[rng.gen_range(0..made.len())].clone(),
                _ => generated_rule(&mut rng, String::new()).ir(),
            };
            rule.name = format!("r{step}");
            seen.extend(pair.check(&rule, &context).iter().map(|d| d.code));
            made.push(rule);
        }
        compared += pair.compared;
    }
    assert!(compared > 5_000 && removed > 1_000, "{compared} {removed}");
    // Every cross-rule lint is reached, so no indexed answer is compared
    // vacuously.
    for code in [
        Code::W102,
        Code::W105,
        Code::E004,
        Code::W203,
        Code::W301,
        Code::W302,
    ] {
        assert!(seen.contains(&code), "{code:?} never reported");
    }
}
