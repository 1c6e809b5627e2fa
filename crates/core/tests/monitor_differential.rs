//! Whole-system differential suite: the optimized [`Sqlcm`] — compiled
//! dispatch plan, bytecode VM, hoisted LAT lookups with analysis-driven
//! invalidation, guard index — against the naive
//! [`ReferenceMonitor`] (one lock, linear rule scan, tree-walk oracle, fresh
//! LAT lookups, its own payloads, names and counts; `oracle/monitor.rs`).
//!
//! Every scenario registers the same LATs and rules in both, drives both
//! with the same `inject_event` log under one `ManualClock`, and requires
//! identical per-rule `(evaluations, fires, actions, action_errors)`, global
//! stats, LAT contents and action ledger (`ReferenceMonitor::divergence_from`).
//! The real monitor runs with its circuit breakers live, as always; the
//! reference has none, so every scenario must leave them untripped — the
//! ones with deliberately erroring rules raise the thresholds above
//! `BREAKER_WINDOW` ([`Pair::tolerate_errors`]). Scenarios that exist to exercise
//! one optimization additionally pin its *counters* (exactly-repeating
//! counts, not timings), so an optimization that silently stops applying
//! fails here too.

use std::sync::Arc;

use sqlcm_common::{EngineEvent, ManualClock, QueryInfo};
use sqlcm_core::actions::read_table;
use sqlcm_core::containment::BREAKER_WINDOW;
use sqlcm_core::sinks::{CommandSink, RecordingCommandSink};
use sqlcm_core::{
    Action, BreakerConfig, ClassName, LatAggFunc, LatSpec, MonitorConfig, Rule, RuleEvent, Sqlcm,
    TraceSampling,
};
use sqlcm_engine::engine::EngineConfig;
use sqlcm_engine::Engine;

mod faulty_sink;
use faulty_sink::{FaultRate, FaultySink, Kind};
mod oracle;
use oracle::monitor::ReferenceMonitor;

/// The two monitors under test plus what was registered in them.
struct Pair {
    engine: Engine,
    clock: Arc<ManualClock>,
    real: Sqlcm,
    reference: ReferenceMonitor,
    rules: Vec<String>,
}

impl Pair {
    fn new() -> Pair {
        let (clock, handle) = ManualClock::shared(0);
        let engine = Engine::new(EngineConfig {
            clock: Some(clock.clone()),
            ..Default::default()
        });
        // Where eviction rules persist the evicted row; created before the
        // monitor attaches, so its DDL raises no event only one side sees.
        engine
            .execute_batch("CREATE TABLE evicted (sig INT, d FLOAT, n INT);")
            .unwrap();
        let real = Sqlcm::attach(&engine);
        Pair {
            engine,
            clock: handle,
            real,
            reference: ReferenceMonitor::new(clock),
            rules: Vec::new(),
        }
    }

    /// Breakers quarantine erroring rules — a feature the reference does not
    /// model — so a scenario that errors on purpose sets thresholds no
    /// window of [`BREAKER_WINDOW`] outcomes can reach.
    fn tolerate_errors(&self) {
        let never = BREAKER_WINDOW + 1;
        self.real.configure(MonitorConfig {
            breaker: BreakerConfig {
                error_threshold: never,
                slow_threshold: never,
                ..BreakerConfig::default()
            },
            ..self.real.config()
        });
    }

    fn lat(&mut self, spec: LatSpec) {
        self.real.define_lat(spec.clone()).unwrap();
        self.reference.define_lat(spec).unwrap();
    }

    /// Register `ON event [WHEN cond] THEN actions…` in both monitors (`Rule`
    /// owns its counters and is not `Clone`: one is built per monitor).
    fn on(&mut self, event: RuleEvent, name: &str, cond: Option<&str>, actions: &[Action]) {
        let build = || {
            let rule = Rule::new(name).on(event.clone());
            let rule = cond.iter().fold(rule, |r, c| r.when(c));
            actions.iter().cloned().fold(rule, Rule::then)
        };
        self.rules.push(name.to_string());
        self.real.add_rule(build()).unwrap();
        self.reference.add_rule(build()).unwrap();
    }

    /// [`Pair::on`] for the event nearly every scenario uses.
    fn on_commit(&mut self, name: &str, cond: Option<&str>, actions: &[Action]) {
        self.on(RuleEvent::QueryCommit, name, cond, actions);
    }

    fn inject(&self, ev: &EngineEvent) {
        self.clock.advance(1_000);
        self.real.inject_event(ev);
        self.reference.inject_event(ev);
    }

    fn fires(&self, rule: &str) -> u64 {
        self.real.rule(rule).unwrap().stats().fires
    }

    fn assert_parity(&self, what: &str) {
        if let Some(diff) = self.reference.divergence_from(&self.real) {
            panic!("{what}: {diff}");
        }
        // Read as the monitor reads: a query would raise an event. Persisting
        // to any other table fails in the real monitor: none exists.
        let got = read_table(&self.engine.handle(), "evicted").unwrap();
        assert_eq!(got, self.reference.persisted("evicted"), "{what}: evicted");
        let c = self.real.telemetry().containment;
        assert_eq!((c.breaker_trips, c.breaker_skipped), (0, 0), "{what}");
    }
}

fn commit(user: &str, sig: u64, secs: f64) -> EngineEvent {
    let mut q = QueryInfo::synthetic(sig, "SELECT 1");
    q.logical_signature = Some(sig);
    q.duration_micros = (secs * 1e6) as u64;
    q.user = user.into();
    EngineEvent::QueryCommit(q)
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// One LCG-drawn event: 8 users (2 match no equality rule), 6 signatures,
/// millisecond-grid durations in [0, 1) spanning every range guard.
fn lcg_commit(state: &mut u64) -> EngineEvent {
    let user = format!("user_{}", lcg(state) % 8);
    let sig = lcg(state) % 6;
    let secs = (lcg(state) % 1_000) as f64 / 1e3;
    commit(&user, sig, secs)
}

/// `name` with each letter's case drawn from the LCG.
fn spell(name: &str, state: &mut u64) -> String {
    name.chars()
        .map(|c| match lcg(state) % 2 {
            0 => c.to_ascii_lowercase(),
            _ => c.to_ascii_uppercase(),
        })
        .collect()
}

fn mail(body: &str) -> Action {
    Action::send_mail("dba", body)
}

fn stats_lat(name: &str) -> LatSpec {
    LatSpec::new(name)
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D")
}

// ---------------------------------------------------------------- hoisting

/// Key-readers before and after a block of `Insert` mutators, aggregate
/// readers on a second LAT (which genuinely see the mutators' writes) and a
/// periodic `Reset`: every reader after a fired `Insert` or `Reset` on its
/// LAT finds the hoisted row snapshot cleared and re-fetches
/// (read-your-predecessors'-writes), and readers between two mutators share
/// one snapshot.
#[test]
fn hoisted_snapshots_match_fresh_lookups() {
    let mut p = Pair::new();
    p.lat(stats_lat("Wide_LAT"));
    p.lat(stats_lat("Stats_LAT"));
    let feeds = [Action::insert("Wide_LAT"), Action::insert("Stats_LAT")];
    let flush = [Action::reset("Wide_LAT"), Action::reset("Stats_LAT")];
    p.on_commit("key_before", Some("Wide_LAT.Sig = 3"), &[mail("sig 3")]);
    for i in 0..4 {
        let cond = format!("Query.Duration > 0.{}", 2 * i);
        p.on_commit(&format!("feed{i}"), Some(&cond), &feeds);
    }
    for i in 0..4 {
        let cond = format!("Wide_LAT.Sig = {i}");
        p.on_commit(&format!("key_after{i}"), Some(&cond), &[mail(&cond)]);
    }
    let hot = "Stats_LAT.N >= 5 AND Stats_LAT.Avg_D > 0.2";
    p.on_commit("agg_after", Some(hot), &[mail("hot signature")]);
    p.on_commit("flush", Some("Stats_LAT.N >= 40"), &flush);
    p.on_commit("key_last", Some("Wide_LAT.Sig = 2"), &[mail("sig 2")]);

    // Small signature space: rows are created, re-read, and reset many times.
    let mut state = 0x2545f491_4f6cdd1d_u64;
    for _ in 0..2_000 {
        let sig = lcg(&mut state) % 6;
        let secs = (lcg(&mut state) % 1_000) as f64 / 1e3;
        p.inject(&commit("", sig, secs));
    }
    p.assert_parity("hoisting");
    for name in &p.rules {
        assert!(p.fires(name) > 0, "rule {name} never fired: weak scenario");
    }
    let d = p.real.telemetry().dispatch;
    assert!(d.hoisted_lookup_hits > 0, "snapshot never shared");
}

/// 1 key-reader, 16 `Insert` mutators, 15 more key-readers on one LAT. The
/// first mutator that fires clears the snapshot and the later ones find it
/// already empty, so the 15 readers after the block share one re-fetch:
/// ≤ 2 LAT row fetches/event, however many mutators and readers there are.
#[test]
fn key_readers_keep_one_snapshot_across_a_mutator_block() {
    let mut p = Pair::new();
    p.lat(stats_lat("Sig_LAT"));
    p.on_commit("reader00", Some("Sig_LAT.Sig = 3"), &[]);
    for i in 0..16 {
        // Distinct always-true conditions: the feeds are not duplicates.
        let cond = format!("Query.Duration > 0.000{i}");
        p.on_commit(
            &format!("feed{i:02}"),
            Some(&cond),
            &[Action::insert("Sig_LAT")],
        );
    }
    for i in 0..15 {
        let cond = format!("Sig_LAT.Sig = {}", i % 6);
        p.on_commit(&format!("reader{:02}", i + 1), Some(&cond), &[]);
    }
    let events = 1_000u64;
    let mut state = 0x1234_5678_9abc_def0_u64;
    for _ in 0..events {
        p.inject(&lcg_commit(&mut state));
    }
    p.assert_parity("mutator block");
    let d = p.real.telemetry().dispatch;
    let per_event = d.lat_row_fetches as f64 / events as f64;
    assert!(per_event <= 2.0, "{per_event} LAT row fetches/event");
}

// ------------------------------------------------------------- guard index

/// Every guard shape — equality, IN-list, one- and two-sided ranges, an
/// unsatisfiable range, a guarded rule with a non-indexable tail, a LAT
/// guard — plus the residual reasons that still fire (pattern match, no
/// condition).
#[test]
fn guard_index_prunes_only_what_cannot_fire() {
    let mut p = Pair::new();
    p.lat(stats_lat("Stats_LAT"));
    for i in 0..6 {
        let cond = format!("Query.User = 'user_{i}'");
        p.on_commit(
            &format!("eq{i}"),
            Some(&cond),
            &[mail("user seen: {Query.User}")],
        );
    }
    let in_sig = "Query.Logical_Signature IN (1, 2, 3)";
    p.on_commit("in_sig", Some(in_sig), &[Action::insert("Stats_LAT")]);
    for (name, cond) in [
        ("range_hi", "Query.Duration > 0.5"),
        ("range_lo", "Query.Duration <= 0.2"),
        (
            "range_band",
            "Query.Duration > 0.1 AND Query.Duration < 0.4",
        ),
        ("range_closed", "Query.Duration >= 0.4"),
        // The guard may prune; the VM still decides the tail.
        (
            "guarded_tail",
            "Query.User = 'user_1' AND Query.Query_Text LIKE '%SELECT%'",
        ),
        // Indexed as never-candidate: evaluations still count, fires stay 0.
        ("never", "Query.Duration > 3 AND Query.Duration < 2"),
        ("pattern", "Query.Query_Text LIKE '%SELECT%'"),
        ("lat_reader", "Stats_LAT.N >= 10 AND Stats_LAT.Avg_D > 0.2"),
    ] {
        p.on_commit(name, Some(cond), &[mail(name)]);
    }
    p.on_commit("feed", None, &[Action::insert("Stats_LAT")]);

    let mut state = 0x2545f491_4f6cdd1d_u64;
    let mut events = 0u64;
    for _ in 0..2_000 {
        p.inject(&lcg_commit(&mut state));
        events += 1;
    }
    // Every range endpoint, exactly: an off-by-one in a bound's strictness
    // only shows on the boundary value itself.
    for secs in [0.1, 0.2, 0.4, 0.5, 2.0, 3.0] {
        p.inject(&commit("user_1", 2, secs));
        events += 1;
    }
    // Exact counts on strict endpoints, user and signature matching nothing:
    // at Duration = 0.5 `range_hi` (> 0.5) stays pruned, at 0.4 `range_band`
    // (< 0.4) does; only `range_closed` (>= 0.4) joins the 3 residuals.
    for secs in [0.5, 0.4] {
        let before = p.real.telemetry().matching;
        p.inject(&commit("user_9", 0, secs));
        events += 1;
        let after = p.real.telemetry().matching;
        assert_eq!(after.candidate_rules - before.candidate_rules, 4, "{secs}");
        assert_eq!(after.rules_pruned - before.rules_pruned, 12, "{secs}");
    }
    p.assert_parity("guard shapes");
    for name in &p.rules {
        if name == "never" {
            assert_eq!(p.fires(name), 0);
        } else {
            assert!(p.fires(name) > 0, "rule {name} never fired: weak scenario");
        }
    }
    let m = p.real.telemetry().matching;
    assert_eq!(m.guard_probes, events, "one probe per dispatched event");
    assert!(m.rules_pruned > 0, "selective rules never pruned");
    assert_eq!(m.residual_rules, 2, "pattern, feed");
    assert!(m.candidate_rules_per_event() < p.rules.len() as f64);
}

/// LAT guards, probed per writer-free segment against the row the event
/// hoisted: watchers between feeders and a mid-event `Reset`, so a watcher's row is
/// often one a predecessor changed or emptied; COUNT thresholds crossed
/// upward, AVG/MIN/MAX ones both ways, strict and inclusive endpoints hit
/// exactly; groups never fed; a NULL aggregate; `=`/`IN` on a text column;
/// LAT names in mixed case. A watcher whose condition is all guard
/// conjuncts fires exactly when no guard prunes it, so its pruned count is
/// exact: `evaluations − fires`. A LAT reader the verdict keeps residual,
/// and one whose LAT is keyed on a class outside the payload, never prune.
#[test]
fn lat_guards_prune_exactly_what_cannot_fire() {
    let mut state = 0x51c3_77ad_09be_2f41_u64;
    for round in 0..3 {
        let mut p = Pair::new();
        let mut s = |name: &str| spell(name, &mut state);
        p.lat(
            LatSpec::new(s("Stats_LAT"))
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D")
                .aggregate(LatAggFunc::Min, "Query.Duration", "Min_D")
                .aggregate(LatAggFunc::Max, "Query.Duration", "Max_D")
                .aggregate(LatAggFunc::Last, "Query.User", "Usr")
                .aggregate(LatAggFunc::Max, "Query.Physical_Signature", "Phys"),
        );
        p.lat(
            LatSpec::new("Blk_LAT")
                .group_by("Blocked.Resource", "Res")
                .aggregate(LatAggFunc::Count, "", "N"),
        );
        let feed = || [Action::insert("Stats_LAT")];
        // (name, condition with `S` for the LAT, all guard conjuncts?)
        let rules: &[(&str, &str, bool)] = &[
            ("count_ge", "S.N >= 4", true),
            ("feed_a", "Query.Logical_Signature < 6", false),
            ("count_gt", "S.N > 4", true),
            ("usr_eq", "S.Usr = 'user_3'", true),
            ("feed_b", "Query.Duration >= 0.5", false),
            ("count_band", "S.N > 2 AND S.N <= 6", true),
            ("min_lt", "S.Min_D < 0.25", true),
            ("flush", "S.N >= 12", false),
            ("max_ge", "S.Max_D >= 0.75", true),
            ("avg_hi", "S.Avg_D > 0.375", true),
            ("phys", "S.Phys >= 1", true),
            ("user_and_count", "Query.User = 'user_2' AND S.N >= 3", true),
            ("feed_c", "Query.User IN ('user_0', 'user_5')", false),
            ("usr_in", "S.Usr IN ('user_1', 'user_6')", true),
            (
                "dur_and_avg",
                "Query.Duration > 0.25 AND S.Avg_D <= 0.5",
                true,
            ),
            ("avg_lo", "S.Avg_D <= 0.25 AND S.Avg_D >= 0.125", true),
            ("residual", "S.N + 0 >= 4", false),
            (
                "blocked",
                "Blocked.Wait_Time >= 0 AND Blk_LAT.N >= 1",
                false,
            ),
        ];
        for &(name, cond, _) in rules {
            let cond = cond.replace("S.", &format!("{}.", s("Stats_LAT")));
            let actions: Vec<Action> = match name {
                "flush" => vec![Action::reset(&s("Stats_LAT"))],
                n if n.starts_with("feed") => feed().to_vec(),
                _ => vec![mail(name)],
            };
            p.on_commit(name, Some(&cond), &actions);
        }
        // Signatures 6 and 7 are never fed; 0–2 carry a physical signature,
        // so `Phys` is NULL in the other groups. Quarter-second durations
        // put MIN/MAX, and often AVG, on the bounds exactly.
        for _ in 0..1_500 {
            let sig = lcg(&mut state) % 8;
            let mut q = QueryInfo::synthetic(sig, "SELECT 1");
            q.logical_signature = Some(sig);
            q.physical_signature = (sig < 3).then_some(sig + 1);
            q.duration_micros = (lcg(&mut state) % 4) * 250_000;
            q.user = format!("user_{}", lcg(&mut state) % 8).into();
            p.inject(&EngineEvent::QueryCommit(q));
        }
        let what = format!("LAT guards, round {round}");
        p.assert_parity(&what);
        let mut pruned = 0;
        for &(name, _, all_guards) in rules {
            let st = p.real.rule(name).unwrap().stats();
            assert_eq!(st.action_errors, 0, "{what}: {name}");
            pruned += st.pruned;
            if all_guards {
                assert_eq!(st.pruned, st.evaluations - st.fires, "{what}: {name}");
                assert!(st.fires > 0 && st.pruned > 0, "{what}: {name} {st:?}");
            }
        }
        for name in ["residual", "blocked"] {
            assert_eq!(
                p.real.rule(name).unwrap().stats().pruned,
                0,
                "{what}: {name}"
            );
        }
        assert_eq!(p.real.rule("blocked").unwrap().stats().evaluations, 0);
        let m = p.real.telemetry().matching;
        assert_eq!(m.rules_pruned, pruned, "{what}");
        assert_eq!(m.residual_rules, 2, "{what}: residual, blocked");
    }
}

/// LAT-guard ladders, probed once per writer-free segment: an ascending
/// `N >= k` ladder with a feeder in its middle and a descending `Avg_D <= x`
/// ladder with a `Reset` in its middle, so a verdict must stop at the writer;
/// equal bounds that mix strict and inclusive, `Int` and `Float`; `=`/`IN`
/// on a `LAST(User)` column; rules guarded on two columns of one LAT, and
/// one with a conjunct on each; a missing row (signatures 6 and 7 are never
/// fed) and a NULL column. A watcher whose condition is all guard conjuncts
/// fires exactly when no guard refuses it: `pruned == evaluations − fires`.
/// Tracing every event changes no count: the sampled walk renders its
/// reasons from the same verdicts.
#[test]
fn lat_guard_ladders_prune_in_bulk_exactly() {
    // (name, condition with `S` for the LAT, all guard conjuncts?)
    let rules: &[(&str, &str, bool)] = &[
        ("up1", "S.N >= 1", true),
        ("up2", "S.N >= 2", true),
        ("feed_a", "Query.Logical_Signature < 6", false),
        ("up3", "S.N >= 3", true),
        ("ge4", "S.N >= 4", true),
        ("gt4", "S.N > 4", true),
        ("ge4_float", "S.N >= 4.0", true),
        ("gt4_float", "S.N > 4.0", true),
        ("ge4_again", "S.N >= 4", true),
        ("up6", "S.N >= 6", true),
        ("feed_b", "Query.Duration >= 0.5", false),
        ("up8", "S.N >= 8", true),
        ("down75", "S.Avg_D <= 0.75", true),
        ("down5", "S.Avg_D <= 0.5", true),
        ("flush", "S.N >= 10", false),
        ("down375", "S.Avg_D <= 0.375", true),
        ("below25", "S.Avg_D < 0.25", true),
        ("down25", "S.Avg_D <= 0.25", true),
        ("usr_eq", "S.Usr = 'user_3'", true),
        ("usr_in", "S.Usr IN ('user_1', 'user_3')", true),
        ("usr_eq_again", "S.Usr = 'user_3'", true),
        ("two_columns", "S.N >= 3 AND S.Avg_D > 0.25", false),
        ("phys", "S.Phys >= 1", true),
        ("dur_and_n", "Query.Duration > 0.25 AND S.N >= 2", true),
        ("up2_last", "S.N >= 2", true),
    ];
    let run = |traced: bool| {
        let mut p = Pair::new();
        if traced {
            p.real.configure(MonitorConfig {
                trace_sampling: TraceSampling::EveryNth(1),
                ..p.real.config()
            });
        }
        p.lat(
            LatSpec::new("Stats_LAT")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D")
                .aggregate(LatAggFunc::Last, "Query.User", "Usr")
                .aggregate(LatAggFunc::Max, "Query.Physical_Signature", "Phys"),
        );
        for &(name, cond, _) in rules {
            let cond = cond.replace("S.", "Stats_LAT.");
            let actions = match name {
                "flush" => vec![Action::reset("Stats_LAT")],
                n if n.starts_with("feed") => vec![Action::insert("Stats_LAT")],
                _ => vec![mail(name)],
            };
            p.on_commit(name, Some(&cond), &actions);
        }
        // Signatures 6 and 7 are never fed; 0–2 carry a physical signature,
        // so `Phys` is NULL in the other groups. Quarter-second durations put
        // AVG on the ladder's bounds exactly.
        let mut state = 0x7f4a_7c15_9e37_79b9_u64;
        for _ in 0..1_500 {
            let sig = lcg(&mut state) % 8;
            let mut q = QueryInfo::synthetic(sig, "SELECT 1");
            q.logical_signature = Some(sig);
            q.physical_signature = (sig < 3).then_some(sig + 1);
            q.duration_micros = (lcg(&mut state) % 4) * 250_000;
            q.user = format!("user_{}", lcg(&mut state) % 8).into();
            p.inject(&EngineEvent::QueryCommit(q));
        }
        let what = format!("LAT-guard ladders, traced {traced}");
        p.assert_parity(&what);
        let mut pruned = 0;
        let mut counts = Vec::new();
        for &(name, _, all_guards) in rules {
            let st = p.real.rule(name).unwrap().stats();
            assert_eq!(st.action_errors, 0, "{what}: {name}");
            pruned += st.pruned;
            if all_guards {
                assert_eq!(st.pruned, st.evaluations - st.fires, "{what}: {name}");
                assert!(st.fires > 0 && st.pruned > 0, "{what}: {name} {st:?}");
            }
            counts.push((name, st.evaluations, st.pruned, st.fires, st.actions));
        }
        let t = p.real.telemetry();
        assert_eq!(t.matching.rules_pruned, pruned, "{what}");
        assert_eq!(t.matching.residual_rules, 0, "{what}");
        assert_eq!(t.stats.action_errors, 0, "{what}");
        assert_eq!(p.real.traces().is_empty(), !traced, "{what}");
        let d = t.dispatch;
        (counts, d.lat_row_fetches, d.hoisted_lookup_hits)
    };
    assert_eq!(run(true), run(false));
}

/// Conditions the guards decide — every absorbed shape: `=` and `IN` with
/// and without a `NULL` member, ranges merged from strict and inclusive
/// bounds, `Int` bounds on the `Float` `Query.Duration`, a payload guard
/// with a LAT guard, `=`/`IN`/ranges on LAT columns — fire exactly when the
/// index admits them, with no program run: the reference's tree walk gives
/// the same fires, evaluations and LAT rows. Events carry NULL signatures,
/// and a NULL aggregate column, which no guard admits and no comparison
/// makes `TRUE`. The bounded LAT the rules feed ranks by its whole group
/// key: the reference breaks ranking ties its own way.
#[test]
fn decided_rules_fire_exactly_when_admitted() {
    let mut state = 0x6a09_e667_f3bc_c908_u64;
    for round in 0..4 {
        let mut p = Pair::new();
        p.lat(
            LatSpec::new("Stats_LAT")
                .group_by("Query.User", "Usr")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_D")
                .aggregate(LatAggFunc::Last, "Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Max, "Query.Physical_Signature", "Phys"),
        );
        p.lat(
            LatSpec::new("Hits")
                .group_by("Query.Logical_Signature", "Sig")
                .group_by("Query.User", "Usr")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .order_by("Sig", true)
                .order_by("Usr", true)
                .max_rows(6),
        );
        p.on_commit("feed", None, &[Action::insert("Stats_LAT")]);
        let mut draw = |n: u64| lcg(&mut state) % n;
        for i in 0..16 {
            let (k, j, q) = (draw(6), draw(6), draw(4));
            let cond = match draw(12) {
                0 => format!("Query.Logical_Signature = {k}"),
                1 => format!("Query.Physical_Signature IN ({k}, {j})"),
                2 => format!("Query.Logical_Signature IN ({k}, NULL, {j})"),
                3 => format!("Query.User IN ('user_{k}', NULL)"),
                4 => format!("Query.Duration > 0.{q}5 AND Query.Duration <= 0.{}", q + 5),
                5 => format!("{} <= Query.Duration AND Query.Duration < 1", q % 2),
                6 => format!("Query.Duration >= 0.{q}5 AND Query.Duration > 0.{q}5"),
                7 => format!("Query.Duration < {}", q % 2 + 1),
                8 => format!("Query.User = 'user_{k}' AND Stats_LAT.N >= {}", j + 1),
                9 => format!("Stats_LAT.Sig IN ({k}, NULL) AND Query.Duration >= 0.{q}"),
                10 => format!("Stats_LAT.Phys >= {k} AND Stats_LAT.Phys < {}", k + j + 1),
                _ => format!("Stats_LAT.Avg_D > 0.{q} AND Query.Logical_Signature = {k}"),
            };
            let rule = Rule::new("r").on(RuleEvent::QueryCommit).when(&cond);
            let verdict = sqlcm_core::rule_guard(&rule.ir());
            assert!(verdict.is_ok_and(|g| g.decides), "{cond}");
            let actions = [Action::insert("Hits"), mail(&format!("d{i}: {cond}"))];
            p.on_commit(&format!("d{i}"), Some(&cond), &actions);
        }
        for _ in 0..1_500 {
            let sig = lcg(&mut state) % 7;
            let mut q = QueryInfo::synthetic(sig, "SELECT 1");
            q.logical_signature = (sig < 6).then_some(sig);
            q.physical_signature = (!sig.is_multiple_of(3)).then_some(sig);
            q.duration_micros = (lcg(&mut state) % 20) * 50_000;
            q.user = format!("user_{}", lcg(&mut state) % 7).into();
            p.inject(&EngineEvent::QueryCommit(q));
        }
        let what = format!("decided conditions, round {round}");
        p.assert_parity(&what);
        let mut fired = 0;
        for name in p.rules.iter().filter(|n| n.starts_with('d')) {
            let st = p.real.rule(name).unwrap().stats();
            assert_eq!(st.pruned, st.evaluations - st.fires, "{what}: {name}");
            fired += u64::from(st.fires > 0);
        }
        assert!(fired >= 12, "{what}: {fired} of 16 rules ever fired");
        let d = p.real.telemetry().dispatch;
        assert_eq!(d.vm_instructions, 0, "{what}");
        // Dispatch filed each row under the hash it memoized for the event;
        // the public lookup hashes the key itself and must find the row.
        // (LAT, column of its `Sig` key if it has one, column of `Usr`)
        for (lat, sig, user) in [("Stats_LAT", None, 0), ("Hits", Some(0), 1)] {
            let lat = p.real.lat(lat).unwrap();
            for row in lat.rows() {
                let mut q = QueryInfo::synthetic(0, "SELECT 1");
                q.logical_signature = sig.and_then(|c: usize| row[c].as_i64()).map(|s| s as u64);
                q.user = row[user].as_str().unwrap().into();
                let found = lat.lookup_for(&sqlcm_core::objects::query_object(&q));
                assert_eq!(found.as_ref(), Some(&row), "{what}: {}", lat.spec.name);
            }
        }
    }
}

/// LCG-shaped rule sets (equality, IN, one/two-sided ranges, patterns,
/// guarded conjunctions): catches extraction bugs no hand-picked set would —
/// odd constants, duplicate guards, overlapping ranges, rules that never fire.
#[test]
fn randomized_rule_sets_match() {
    let mut state = 0x9e3779b9_7f4a7c15_u64;
    for round in 0..4 {
        let mut p = Pair::new();
        p.lat(
            LatSpec::new("L")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N"),
        );
        for i in 0..24 {
            let cond = match lcg(&mut state) % 6 {
                0 => format!("Query.User = 'user_{}'", lcg(&mut state) % 8),
                1 => format!(
                    "Query.Logical_Signature IN ({}, {})",
                    lcg(&mut state) % 6,
                    lcg(&mut state) % 6
                ),
                2 => format!("Query.Duration > 0.{}", lcg(&mut state) % 9),
                3 => {
                    // Keep lo < hi: the registration-time analyzer rejects
                    // provably unsatisfiable conditions (E006) outright.
                    let lo = lcg(&mut state) % 5;
                    let hi = lo + 1 + lcg(&mut state) % 4;
                    format!("Query.Duration >= 0.{lo} AND Query.Duration < 0.{hi}")
                }
                4 => "Query.Query_Text LIKE '%SELECT%'".to_string(),
                _ => format!(
                    "Query.User = 'user_{}' AND Query.Logical_Signature IN ({}, {})",
                    lcg(&mut state) % 8,
                    lcg(&mut state) % 6,
                    lcg(&mut state) % 6
                ),
            };
            let action = if i % 3 == 0 {
                Action::insert("L")
            } else {
                mail(&format!("r{i}: {cond}"))
            };
            p.on_commit(&format!("r{i}"), Some(&cond), &[action]);
        }
        for _ in 0..2_000 {
            p.inject(&lcg_commit(&mut state));
        }
        // The decile grid the generated bounds sit on.
        for tenth in 0..10 {
            p.inject(&commit("user_0", tenth % 6, tenth as f64 / 10.0));
        }
        p.assert_parity(&format!("randomized round {round}"));
        assert!(p.real.stats().fires > 0, "round {round}: nothing fired");
        assert!(
            p.real.telemetry().matching.rules_pruned > 0,
            "round {round}: index never pruned"
        );
    }
}

/// 256 per-tenant rules, at most one of which can match any event: the
/// candidate set must stay ≤ 10 % of the registered rules (here ~1/256).
#[test]
fn selective_rules_at_scale_stay_sublinear() {
    const RULES: u64 = 256;
    let mut p = Pair::new();
    for i in 0..RULES {
        let cond = format!("Query.User = 'user_{i}' AND Query.Duration > 0.5");
        p.on_commit(
            &format!("u{i:03}"),
            Some(&cond),
            &[mail("{Query.User} is slow")],
        );
    }
    let mut state = 0xfeed_f00d_dead_beef_u64;
    for _ in 0..600 {
        // 300 users: some events match no rule at all.
        let user = format!("user_{}", lcg(&mut state) % 300);
        let secs = (lcg(&mut state) % 1_000) as f64 / 1e3;
        p.inject(&commit(&user, 1, secs));
    }
    p.assert_parity("256 selective rules");
    assert!(p.real.stats().fires > 0);
    let m = p.real.telemetry().matching;
    assert!(m.rules_pruned > 0);
    let fraction = m.candidate_rules as f64 / (m.guard_probes * RULES) as f64;
    assert!(fraction <= 0.10, "candidate fraction {fraction}");
}

// ------------------------------------------------------ repeated predicates

/// 32 rules repeating one LAT predicate, feed registered last so its Insert
/// never splits them: each evaluates the predicate against the one hoisted
/// row, and all agree with the reference, including while a missing row
/// makes the predicate error out of the ∃.
#[test]
fn rules_repeating_one_lat_predicate_match_the_reference() {
    const SHARERS: u64 = 32;
    let mut p = Pair::new();
    p.lat(stats_lat("Sig_LAT"));
    let shared = "Sig_LAT.Avg_D * 2 + Sig_LAT.N > 40 AND Query.Duration > 0";
    for i in 0..SHARERS {
        p.on_commit(&format!("share{i:02}"), Some(shared), &[]);
    }
    p.on_commit("feed", None, &[Action::insert("Sig_LAT")]);
    // Cold pass: a missing row makes the predicate error out of the ∃
    // until each group exists.
    for sig in 0..6 {
        p.inject(&commit("", sig, 0.25));
    }
    let events = 600u64;
    let mut state = 0x0dd_ba11_u64;
    for _ in 0..events {
        p.inject(&lcg_commit(&mut state));
    }
    p.assert_parity("32 sharers");
    assert!(p.fires("share00") > 0 && p.fires("share00") < events);
}

/// A feed inserting *between* two rules with one LAT predicate: the later
/// one must re-fetch the hoisted row and see its predecessor's write, never
/// the row the earlier one read.
#[test]
fn shared_value_dies_with_the_row_it_was_computed_from() {
    let mut p = Pair::new();
    p.lat(stats_lat("Sig_LAT"));
    p.on_commit("watch_a", Some("Sig_LAT.N >= 3"), &[]);
    p.on_commit("feed", None, &[Action::insert("Sig_LAT")]);
    p.on_commit("watch_b", Some("Sig_LAT.N >= 3"), &[]);
    for _ in 0..10 {
        p.inject(&commit("", 9, 0.1));
    }
    p.assert_parity("feed between sharers");
    // watch_a sees N = i-1 on event i, watch_b sees N = i.
    assert_eq!((p.fires("watch_a"), p.fires("watch_b")), (7, 8));
}

// ------------------------------------------------- what no pairwise suite saw

/// A bounded top-k LAT whose eviction event feeds rules: evictions are
/// queued and handled after the raising event's rules, so `still_counted`
/// (registered after the feeder whose Insert evicts) reads `Seen_LAT` before
/// `on_evict` resets it; `bad_spill` fails on every eviction (no `Query` in
/// an eviction's scope). Distinct durations keep victim choice tie-free; the
/// aging column makes contents depend on the shared manual clock.
#[test]
fn eviction_events_cascade_after_the_raising_event() {
    let mut p = Pair::new();
    p.tolerate_errors();
    p.lat(
        LatSpec::new("Top_LAT")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .aggregate(LatAggFunc::Count, "", "Recent")
            .aging(40_000, 10_000)
            .order_by("D", true)
            .max_rows(4),
    );
    p.lat(stats_lat("Seen_LAT"));
    let evicted = RuleEvent::LatEviction("Top_LAT".into());
    p.on_commit("count", None, &[Action::insert("Seen_LAT")]);
    p.on_commit("track", None, &[Action::insert("Top_LAT")]);
    let seen = [mail("sig {Query.Logical_Signature}")];
    p.on_commit("still_counted", Some("Seen_LAT.N >= 1"), &seen);
    let recent = [mail("{Top_LAT.Recent} recent in top")];
    p.on_commit("recently_top", Some("Top_LAT.Recent >= 2"), &recent);
    let demote = [mail("fell out of the top 4"), Action::reset("Seen_LAT")];
    p.on(evicted.clone(), "on_evict", None, &demote);
    p.on(evicted, "bad_spill", None, &[Action::insert("Seen_LAT")]);
    for i in 0..400u64 {
        // Unique durations (7919 is coprime to 100003), 12 signatures.
        let micros = 1 + i * 7919 % 100_003;
        p.inject(&commit("", i * 5 % 12, micros as f64 / 1e6));
    }
    p.assert_parity("eviction cascade");
    let evictions = p.fires("on_evict");
    assert!(evictions > 10, "only {evictions} evictions: weak scenario");
    let recent = p.fires("recently_top");
    assert!(recent > 0 && recent < 400, "aging never rolled: {recent}");
    let spill = p.real.rule("bad_spill").unwrap().stats();
    assert_eq!(spill.action_errors, evictions);
    assert_eq!(
        p.fires("still_counted"),
        400,
        "saw a same-event eviction's Reset"
    );
}

/// Every site that names a LAT — its definition, a condition qualifier, an
/// `Insert`/`Reset` target, a `Lat.Eviction` subscription, `PersistObject`'s
/// evicted class and a template placeholder — spelled in a random case, with
/// eviction rules that mail and persist the evicted row. A LAT's name is one
/// key however it is spelled, and an eviction rule's template reads the row
/// that was evicted.
#[test]
fn lat_names_in_any_case_reach_one_lat_and_its_evicted_rows() {
    let mut state = 0x7a3c_91e5_0b2d_4f68_u64;
    for round in 0..4 {
        let mut p = Pair::new();
        let mut s = |name: &str| spell(name, &mut state);
        p.lat(
            LatSpec::new(s("Top_LAT"))
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .aggregate(LatAggFunc::Count, "", "N")
                .order_by("D", true)
                .max_rows(3),
        );
        p.lat(stats_lat(&s("Stats_LAT")));
        p.on_commit("feed_top", None, &[Action::insert(&s("Top_LAT"))]);
        let feed = [Action::insert(&s("Stats_LAT"))];
        p.on_commit("feed_stats", Some("Query.Duration > 0.2"), &feed);
        let (a, b, c, d) = (
            s("Stats_LAT"),
            s("Stats_LAT"),
            s("Stats_LAT"),
            s("Stats_LAT"),
        );
        let cond = format!("{a}.N >= 3 AND {b}.Avg_D > 0.4");
        let body = format!("{{{c}.N}} seen, avg {{{d}.Avg_D}}");
        p.on_commit("stats_reader", Some(&cond), &[mail(&body)]);
        let (a, b) = (s("Top_LAT"), s("Top_LAT"));
        let body = format!("{{{b}.D}} is top");
        p.on_commit("top_reader", Some(&format!("{a}.N >= 2")), &[mail(&body)]);
        let cond = format!("{}.N >= 20", s("Stats_LAT"));
        p.on_commit("flush", Some(&cond), &[Action::reset(&s("Stats_LAT"))]);
        let body = format!(
            "fell out: {{{}.Sig}} at {{{}.D}}",
            s("Top_LAT"),
            s("Top_LAT")
        );
        let evicted = RuleEvent::LatEviction(s("Top_LAT"));
        p.on(evicted, "mail_evicted", None, &[mail(&body)]);
        let keep = Action::PersistObject {
            table: "evicted".into(),
            class: ClassName::Evicted(s("Top_LAT")),
            attrs: vec!["Sig".into(), "D".into(), "N".into()],
        };
        p.on(
            RuleEvent::LatEviction(s("Top_LAT")),
            "keep_evicted",
            None,
            &[keep],
        );
        for i in 0..300u64 {
            // Unique durations (7919 is coprime to 100003), so no two groups
            // tie for the victim; 12 signatures into a 3-row LAT.
            let micros = 1 + (i + 300 * round) * 7919 % 100_003;
            p.inject(&commit("", i * 5 % 12, micros as f64 / 1e5));
        }
        p.assert_parity(&format!("spellings, round {round}"));
        for name in &p.rules {
            assert!(p.fires(name) > 0, "round {round}: {name} never fired");
        }
        let evictions = p.fires("mail_evicted");
        assert!(evictions > 10, "round {round}: {evictions} evictions");
        assert_eq!(p.fires("keep_evicted"), evictions);
    }
}

/// Disables `target` when a command runs, then forwards it to `log`.
struct DisablingSink {
    target: Arc<Rule>,
    log: Arc<RecordingCommandSink>,
}

impl CommandSink for DisablingSink {
    fn run(&self, command: &str) -> sqlcm_common::Result<()> {
        self.target.set_enabled(false);
        self.log.run(command)
    }
}

/// Enabled-ness is pinned per event: a rule disabled by an earlier rule's
/// action still runs for that event and is out from the next one on.
#[test]
fn a_rule_disabled_mid_event_finishes_that_event() {
    let mut p = Pair::new();
    p.on_commit("first", None, &[Action::run_external("disable second")]);
    p.on_commit("second", None, &[mail("second fired")]);
    p.real.configure(MonitorConfig {
        command_sink: Arc::new(DisablingSink {
            target: p.real.rule("second").unwrap(),
            log: p.real.command_log(),
        }),
        ..p.real.config()
    });
    p.reference.set_command_sink(Arc::new(DisablingSink {
        target: p.reference.rule("second").unwrap(),
        log: Arc::new(RecordingCommandSink::new()),
    }));
    for _ in 0..3 {
        p.inject(&commit("", 1, 0.1));
    }
    p.assert_parity("mid-event disable");
    assert_eq!((p.fires("first"), p.fires("second")), (3, 1));
}

/// A command sink that refuses every third call, the same on both sides:
/// each refused command is its rule's action error, the firing's later
/// actions still run, and only the commands the sink took reach the ledger.
#[test]
fn a_refused_command_is_its_rules_action_error() {
    let mut p = Pair::new();
    p.tolerate_errors();
    p.lat(stats_lat("Stats_LAT"));
    let hook = Action::run_external;
    p.on_commit("feed", None, &[Action::insert("Stats_LAT")]);
    let slow = [
        hook("slow {Query.Logical_Signature}"),
        mail("after the hook"),
    ];
    p.on_commit("slow", Some("Query.Duration > 0.3"), &slow);
    let seen = [hook("seen {Stats_LAT.N}"), hook("again {Stats_LAT.Sig}")];
    p.on_commit("seen", Some("Stats_LAT.N >= 3"), &seen);
    let every_third = || FaultySink::seeded(3).command(FaultRate::EveryNth(3));
    let real = every_third().install(&p.real);
    let reference = Arc::new(every_third());
    p.reference.set_command_sink(reference.clone());
    let mut state = 0x5EED_u64;
    for i in 0..300 {
        p.inject(&lcg_commit(&mut state));
        if i % 50 == 49 {
            p.assert_parity(&format!("event {i}"));
        }
    }
    p.assert_parity("refused commands");
    let refused = real.failures(Kind::Command);
    assert_eq!(refused, reference.failures(Kind::Command));
    let rule_errors = |r: &str| p.real.rule(r).unwrap().stats().action_errors;
    assert_eq!(rule_errors("slow") + rule_errors("seen"), refused);
    assert!(rule_errors("slow") > 5 && rule_errors("seen") > 5, "weak");
    assert!(p.real.loss_ledger().is_empty());
}

/// `drop_lat` breaks the rules conditioned on the LAT (every evaluation is
/// counted, none fires) while feeders keep their bound handle; redefining the
/// name un-breaks the readers against the new, empty table.
#[test]
fn a_dropped_lat_breaks_its_readers_until_redefined() {
    let mut p = Pair::new();
    p.tolerate_errors();
    p.lat(stats_lat("L"));
    p.on_commit("feed", None, &[Action::insert("L")]);
    p.on_commit("reader", Some("L.N >= 2"), &[mail("seen {L.N} times")]);
    // Integer division by zero: a condition that errors on every evaluation.
    p.on_commit("div0", Some("Query.ID / 0 > 1"), &[mail("unreachable")]);
    let mut state = 0xabad_1dea_u64;
    let mut run = |p: &Pair, what: &str| {
        for _ in 0..50 {
            p.inject(&lcg_commit(&mut state));
        }
        p.assert_parity(what);
        p.fires("reader")
    };
    let live = run(&p, "before drop");
    assert!(live > 0);
    assert!(p.real.drop_lat("L") && p.reference.drop_lat("L"));
    assert_eq!(run(&p, "dropped"), live, "a broken rule fired");
    p.real.define_lat(stats_lat("L")).unwrap();
    p.reference.define_lat(stats_lat("L")).unwrap();
    assert_eq!(
        run(&p, "redefined"),
        live,
        "feed must still hit the old table"
    );
    assert_eq!(p.real.lat("L").unwrap().row_count(), 0);
    assert_eq!(p.real.rule("reader").unwrap().stats().evaluations, 150);
    assert_eq!(p.real.rule("div0").unwrap().stats().action_errors, 150);
}

// ------------------------------------------- derived per-rule evaluation counts
//
// The real monitor never touches a rule the guard index pruned: the pruned
// evaluations the reference's linear scan counts one by one are recovered from
// the event class's clock and the rule's credit intervals. Every scenario
// below moves one of the things that opens or closes an interval, on rules
// that are pruned on most events and candidates on some.

/// Six per-user rules (an index over all of them) plus whatever the scenario
/// adds; every one mails, so a rule that wrongly ran shows in the ledger too.
fn per_user_rules(p: &mut Pair) {
    for i in 0..6 {
        let cond = format!("Query.User = 'user_{i}'");
        p.on_commit(&format!("eq{i}"), Some(&cond), &[mail("seen {Query.User}")]);
    }
}

impl Pair {
    /// Switch `rule` through its bare handle in both monitors: no plan
    /// rebuild, the next event just finds it on or off.
    fn switch(&self, rule: &str, on: bool) {
        self.real.rule(rule).unwrap().set_enabled(on);
        self.reference.rule(rule).unwrap().set_enabled(on);
    }
}

/// Indexed rules switched off and on between events — through the handle and
/// through `set_rule_enabled` (which also republishes the plan): a rule is
/// credited for exactly the events that found it enabled.
#[test]
fn indexed_rules_toggled_between_events_count_exactly() {
    let mut p = Pair::new();
    per_user_rules(&mut p);
    let mut state = 0x51_7c_c1_b7_27_22_0a_95_u64;
    for round in 0..60u64 {
        for _ in 0..5 {
            p.inject(&lcg_commit(&mut state));
        }
        let rule = format!("eq{}", round % 6);
        let on = round % 4 >= 2;
        if round % 3 == 0 {
            assert!(p.real.set_rule_enabled(&rule, on));
            p.reference.rule(&rule).unwrap().set_enabled(on);
        } else {
            p.switch(&rule, on);
        }
        if round % 10 == 9 {
            p.assert_parity(&format!("toggles, round {round}"));
        }
    }
    p.assert_parity("toggles");
    let m = p.real.telemetry().matching;
    assert!(m.rules_pruned > 0 && m.candidate_rules > 0);
    let evaluated_everywhere = p.real.rule("eq0").unwrap().stats().evaluations;
    assert!(
        evaluated_everywhere < 300,
        "eq0 was never off: weak scenario"
    );
}

/// Flips `target`s when a command runs, then forwards it to `log`.
struct FlippingSink {
    targets: Vec<Arc<Rule>>,
    log: Arc<RecordingCommandSink>,
}

impl CommandSink for FlippingSink {
    fn run(&self, command: &str) -> sqlcm_common::Result<()> {
        for t in &self.targets {
            t.set_enabled(!t.is_enabled());
        }
        self.log.run(command)
    }
}

/// An action flips two indexed rules — one registered before it, one after —
/// on every event: the rule switched off mid-event still counts that event
/// (as a candidate or as a pruned rule), the rule switched on mid-event does
/// not, so each is evaluated on every other event exactly.
#[test]
fn indexed_rules_flipped_mid_event_keep_the_event_they_started_enabled() {
    let mut p = Pair::new();
    p.on_commit("early", Some("Query.User = 'user_1'"), &[mail("early")]);
    p.on_commit("flip", None, &[Action::run_external("flip")]);
    p.on_commit("late", Some("Query.User = 'user_2'"), &[mail("late")]);
    p.on_commit("bystander", Some("Query.User = 'user_3'"), &[mail("by")]);
    let targets = |rule: &dyn Fn(&str) -> Arc<Rule>| vec![rule("early"), rule("late")];
    p.real.configure(MonitorConfig {
        command_sink: Arc::new(FlippingSink {
            targets: targets(&|n| p.real.rule(n).unwrap()),
            log: p.real.command_log(),
        }),
        ..p.real.config()
    });
    p.reference.set_command_sink(Arc::new(FlippingSink {
        targets: targets(&|n| p.reference.rule(n).unwrap()),
        log: Arc::new(RecordingCommandSink::new()),
    }));
    let mut state = 0x0123_4567_89ab_cdef_u64;
    let events = 80u64;
    for i in 0..events {
        // Users 1..=3 and one nobody: both targets are candidates on some
        // events and pruned on others, in both phases of the flip.
        let user = format!("user_{}", 1 + lcg(&mut state) % 4);
        p.inject(&commit(&user, i % 3, 0.1));
        if i % 16 == 15 {
            p.assert_parity(&format!("mid-event flips, event {i}"));
        }
    }
    p.assert_parity("mid-event flips");
    for rule in ["early", "late"] {
        let evaluations = p.real.rule(rule).unwrap().stats().evaluations;
        assert_eq!(evaluations, events / 2, "{rule}");
        assert!(p.fires(rule) > 0, "{rule} never ran as a candidate");
    }
    assert_eq!(
        p.real.rule("bystander").unwrap().stats().evaluations,
        events
    );
}

/// A rule registered after events have flowed is credited from its
/// registration on — the class clock it joins is already running.
#[test]
fn a_rule_added_after_events_flowed_counts_from_its_registration() {
    let mut p = Pair::new();
    per_user_rules(&mut p);
    let mut state = 0xdead_beef_cafe_f00d_u64;
    for _ in 0..150 {
        p.inject(&lcg_commit(&mut state));
    }
    p.assert_parity("before the late rule");
    p.on_commit("late", Some("Query.User = 'user_3'"), &[mail("late")]);
    for _ in 0..150 {
        p.inject(&lcg_commit(&mut state));
    }
    p.assert_parity("after the late rule");
    assert_eq!(p.real.rule("late").unwrap().stats().evaluations, 150);
    assert_eq!(p.real.rule("eq0").unwrap().stats().evaluations, 300);
    assert!(p.fires("late") > 0 && p.fires("late") < 150);
}

/// The reference cannot remove a rule, so the first incarnation of `x` lives
/// in the real monitor only and is registered *disabled* (it contributes
/// nothing either side can see). Removing it and registering an enabled `x`
/// in both must start the new rule from zero: nothing is keyed by name, a
/// disabled registration opens no credit, a removal closes none.
#[test]
fn a_rule_removed_and_added_again_under_its_name_starts_from_zero() {
    let mut p = Pair::new();
    per_user_rules(&mut p);
    let mut state = 0x0bad_cafe_0bad_cafe_u64;
    let mut run = |p: &Pair, what: &str| {
        for _ in 0..60 {
            p.inject(&lcg_commit(&mut state));
        }
        p.assert_parity(what);
    };
    run(&p, "before x");
    let first = Rule::new("x")
        .on(RuleEvent::QueryCommit)
        .when("Query.User = 'user_4'")
        .then(mail("first x"));
    first.set_enabled(false);
    let first = p.real.add_rule(first).unwrap();
    run(&p, "disabled x registered");
    assert!(p.real.remove_rule("x"));
    run(&p, "x removed");
    assert_eq!(first.stats().evaluations, 0, "a disabled rule was credited");
    p.on_commit("x", Some("Query.User = 'user_4'"), &[mail("second x")]);
    run(&p, "x registered again");
    assert_eq!(p.real.rule("x").unwrap().stats().evaluations, 60);
    assert_eq!(
        first.stats().evaluations,
        0,
        "the removed rule kept counting"
    );
}

/// One enabled rule plus a disabled, real-only second one: registering the
/// second builds the class's guard index (two rules), removing it drops the
/// index (a one-rule class is scanned), registering it again brings the index
/// back. `solo` is pruned while the index is there and evaluated while it is
/// not; its count must be one per event throughout — and an unprobed event
/// must not tick the clock the probed ones do.
#[test]
fn an_event_class_losing_and_regaining_its_index_counts_exactly() {
    let mut p = Pair::new();
    p.on_commit("solo", Some("Query.User = 'user_1'"), &[mail("solo")]);
    let mut state = 0x1357_9bdf_2468_ace0_u64;
    let mut events = 0u64;
    let mut run = |p: &Pair, what: &str| {
        for _ in 0..40 {
            p.inject(&lcg_commit(&mut state));
        }
        events += 40;
        p.assert_parity(what);
        assert_eq!(
            p.real.rule("solo").unwrap().stats().evaluations,
            events,
            "{what}"
        );
        p.real.telemetry().matching.guard_probes
    };
    let ballast = || {
        let rule = Rule::new("ballast")
            .on(RuleEvent::QueryCommit)
            .when("Query.User = 'user_2'");
        rule.set_enabled(false);
        rule
    };
    assert_eq!(run(&p, "one rule, no index"), 0);
    p.real.add_rule(ballast()).unwrap();
    assert_eq!(run(&p, "two rules, indexed"), 40);
    assert!(p.real.remove_rule("ballast"));
    assert_eq!(run(&p, "one rule again"), 40);
    p.real.add_rule(ballast()).unwrap();
    assert_eq!(run(&p, "indexed again"), 80);
    // Growing by a rule both monitors know keeps the class indexed.
    p.on_commit("second", Some("Query.User = 'user_3'"), &[mail("second")]);
    assert_eq!(run(&p, "three rules"), 120);
    let solo = p.real.rule("solo").unwrap().stats();
    assert!(solo.pruned > 0 && solo.pruned < solo.evaluations);
}
