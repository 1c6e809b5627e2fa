//! `compare <a.json> <b.json>`: judge run B against run A with the bounds of
//! `BENCHMARK.json`, one row per (end-to-end metric, workload).
//!
//! * `worse`      — B's median is worse than A's by more than the bound;
//! * `better`     — B's median is better than A's by more than the bound;
//! * `within`     — neither;
//! * `unresolved` — the quartile spread of either side exceeds the bound, so
//!   the medians cannot settle the question.
//!
//! Exits non-zero on any `worse` and on any rise of `op_fail_share`. Metrics
//! the untraced pass measures but `BENCHMARK.json` does not bound are listed
//! with their change and no verdict.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::stats::Quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `higher_is_better`, `bound` as a share of A's median.
pub fn judge(a: Quartiles, b: Quartiles, higher_is_better: bool, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let base = a.median.abs();
    let gain = if higher_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    };
    if gain < -bound * base {
        Verdict::Worse
    } else if gain > bound * base {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Measured by the untraced pass without a bound in `BENCHMARK.json`.
const UNBOUNDED: [&str; 7] = [
    "rel_op_p50",
    "ops_per_s",
    "op_p50_us",
    "op_p90_us",
    "op_p99_us",
    "ref_p50_us",
    "setup_wall_s",
];

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(contract: &Json) -> Result<Vec<Bound>, String> {
    contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Envelopes of a file: a single one, or `{"runs": [...]}` from a full run.
fn envelopes(file: &Json) -> Vec<&Json> {
    match file.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![file],
    }
}

fn metric(envelope: &Json, name: &str) -> Option<Quartiles> {
    let m = envelope.get("metrics")?.get(name)?;
    Some(Quartiles {
        q1: m.get("q1")?.as_f64()?,
        median: m.get("median")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

fn workload_of(envelope: &Json) -> &str {
    envelope
        .get("workload")
        .and_then(Json::as_str)
        .unwrap_or("?")
}

/// Two envelopes can be compared only when they were measured the same way.
fn same_settings(workload: &str, a: &Json, b: &Json) -> Result<(), String> {
    for key in ["traced", "smoke", "seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "{workload}: the two runs differ in `{key}` ({:?} against {:?}); \
                 compare runs made with the same settings",
                a.get(key),
                b.get(key)
            ));
        }
    }
    Ok(())
}

/// Print the table; `Ok(true)` when nothing is worse and nothing is missing.
pub fn run(a: &Path, b: &Path, contract: &Path) -> Result<bool, String> {
    let bounds = bounds(&read_json(contract)?)?;
    let (table, ok) = table(&read_json(a)?, &read_json(b)?, &bounds)?;
    print!("{table}");
    Ok(ok)
}

/// The comparison as text, and whether B passes.
fn table(file_a: &Json, file_b: &Json, bounds: &[Bound]) -> Result<(String, bool), String> {
    let (runs_a, runs_b) = (envelopes(file_a), envelopes(file_b));
    let mut ok = true;
    let mut out = format!(
        "{:<22} {:<14} {:>14} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    // A workload or metric that one side lacks (a crashed or skipped run) is
    // a failed comparison, never a clean one.
    let missing = |out: &mut String, workload: &str, what: &str, side: &str| {
        let _ = writeln!(out, "{workload:<22} {what:<14} missing from {side}");
    };
    for env_b in &runs_b {
        let workload = workload_of(env_b);
        if !runs_a.iter().any(|e| workload_of(e) == workload) {
            ok = false;
            missing(&mut out, workload, "(every metric)", "A");
        }
    }
    for env_a in runs_a {
        let workload = workload_of(env_a);
        let Some(env_b) = runs_b.iter().find(|e| workload_of(e) == workload) else {
            ok = false;
            missing(&mut out, workload, "(every metric)", "B");
            continue;
        };
        same_settings(workload, env_a, env_b)?;
        for bound in bounds {
            let (sa, sb) = match (metric(env_a, &bound.name), metric(env_b, &bound.name)) {
                (Some(sa), Some(sb)) => (sa, sb),
                (sa, _) => {
                    ok = false;
                    let side = if sa.is_none() { "A" } else { "B" };
                    missing(&mut out, workload, &bound.name, side);
                    continue;
                }
            };
            let verdict = judge(sa, sb, bound.higher_is_better, bound.bound);
            ok &= verdict != Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<22} {:<14} {:>14.4} {:>14.4} {:>+7.1}% {:>6.0}%  {}",
                workload,
                bound.name,
                sa.median,
                sb.median,
                (sb.median / sa.median - 1.0) * 100.0,
                bound.bound * 100.0,
                verdict.as_str()
            );
        }
        // Measured but unbounded (see the README): shown, not judged.
        for name in UNBOUNDED {
            if let (Some(sa), Some(sb)) = (metric(env_a, name), metric(env_b, name)) {
                let _ = writeln!(
                    out,
                    "{:<22} {:<14} {:>14.4} {:>14.4} {:>+7.1}% {:>7}  -",
                    workload,
                    name,
                    sa.median,
                    sb.median,
                    (sb.median / sa.median - 1.0) * 100.0,
                    "none"
                );
            }
        }
        // Failures have no bound: any rise is a regression.
        match (
            metric(env_a, "op_fail_share"),
            metric(env_b, "op_fail_share"),
        ) {
            (Some(fa), Some(fb)) => {
                let rose = fb.median > fa.median;
                ok &= !rose;
                let _ = writeln!(
                    out,
                    "{:<22} {:<14} {:>14.6} {:>14.6} {:>8} {:>7}  {}",
                    workload,
                    "op_fail_share",
                    fa.median,
                    fb.median,
                    "",
                    "any",
                    if rose { "worse" } else { "within" }
                );
            }
            (fa, _) => {
                ok = false;
                let side = if fa.is_none() { "A" } else { "B" };
                missing(&mut out, workload, "op_fail_share", side);
            }
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Quartiles {
        Quartiles { q1, median, q3 }
    }

    #[test]
    fn verdicts() {
        let a = s(99.0, 100.0, 101.0);
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(a, s(104.0, 105.0, 106.0), false, 0.1),
            Verdict::Within
        );
        assert_eq!(judge(a, s(114.0, 115.0, 116.0), false, 0.1), Verdict::Worse);
        assert_eq!(judge(a, s(84.0, 85.0, 86.0), false, 0.1), Verdict::Better);
        // Higher is better flips the direction.
        assert_eq!(judge(a, s(114.0, 115.0, 116.0), true, 0.1), Verdict::Better);
        assert_eq!(judge(a, s(84.0, 85.0, 86.0), true, 0.1), Verdict::Worse);
        // A spread wider than the bound on either side settles nothing.
        assert_eq!(
            judge(a, s(100.0, 115.0, 130.0), false, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(s(90.0, 100.0, 110.0), a, false, 0.1),
            Verdict::Unresolved
        );
    }

    fn envelope(workload: &str, smoke: bool, metrics: &[(&str, f64)]) -> Json {
        let metrics = metrics.iter().map(|&(name, v)| {
            let q = [("median", v), ("q1", v), ("q3", v)];
            (name, Json::obj(q.map(|(k, v)| (k, Json::Num(v)))))
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("traced", Json::Bool(false)),
            ("smoke", Json::Bool(smoke)),
            ("seconds", Json::Num(20.0)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn file(runs: Vec<Json>) -> Json {
        Json::obj([("runs", Json::Arr(runs))])
    }

    fn one_bound() -> Vec<Bound> {
        vec![Bound {
            name: "op_p50_us".into(),
            higher_is_better: false,
            bound: 0.1,
        }]
    }

    #[test]
    fn a_missing_workload_or_metric_fails_the_comparison() {
        let full = [("op_p50_us", 10.0), ("op_fail_share", 0.0)];
        let a = file(vec![
            envelope("w1", false, &full),
            envelope("w2", false, &full),
        ]);
        let (text, ok) = table(&a, &a, &one_bound()).unwrap();
        assert!(ok, "{text}");

        // B lost a whole workload (its run crashed or was skipped).
        let b = file(vec![envelope("w1", false, &full)]);
        let (text, ok) = table(&a, &b, &one_bound()).unwrap();
        assert!(!ok && text.contains("missing from B"), "{text}");
        let (text, ok) = table(&b, &a, &one_bound()).unwrap();
        assert!(!ok && text.contains("missing from A"), "{text}");

        // B lost one bounded metric.
        let b = file(vec![
            envelope("w1", false, &full),
            envelope("w2", false, &[("op_fail_share", 0.0)]),
        ]);
        let (text, ok) = table(&a, &b, &one_bound()).unwrap();
        assert!(
            !ok && text.contains("op_p50_us      missing from B"),
            "{text}"
        );

        // More failures than before is worse, whatever the timings say.
        let b = file(vec![
            envelope("w1", false, &full),
            envelope("w2", false, &[("op_p50_us", 5.0), ("op_fail_share", 0.25)]),
        ]);
        let (text, ok) = table(&a, &b, &one_bound()).unwrap();
        assert!(
            !ok && text.contains("better") && text.contains("worse"),
            "{text}"
        );
    }

    #[test]
    fn runs_made_with_other_settings_are_not_compared() {
        let m = [("op_p50_us", 10.0), ("op_fail_share", 0.0)];
        let full = file(vec![envelope("w1", false, &m)]);
        let smoke = file(vec![envelope("w1", true, &m)]);
        let err = table(&full, &smoke, &one_bound()).unwrap_err();
        assert!(err.contains("`smoke`"), "{err}");
    }
}
