//! The SQLCM performance contract (see `README.md` beside this package).
//!
//! ```text
//! sqlcm-benchmark run [--workload W] --seed N [--seconds S] [--trace [0|1]]
//!                     [--smoke] [--break-check]
//! sqlcm-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run --workload W` measures one workload in this process and prints, as
//! the last line of standard output, the result object `BENCHMARK.json`'s
//! driver reads. Without `--workload`, every workload runs in a child process
//! of its own and the envelopes are gathered into one file.

mod compare;
mod harness;
mod json;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use harness::{Report, RunConfig};
use json::Json;
use workloads::{Kind, Workload};

/// Metrics of the untraced pass that `BENCHMARK.json` lists under
/// `end_to_end`, in its order. The untraced pass also measures `rel_op_p50`,
/// the absolute `ops_per_s`, `op_p50/p90/p99_us`, `ref_p50_us` and
/// `setup_wall_s`, and `op_fail_share`; those are printed and kept in the
/// envelope only — the README's "End-to-end metrics" says why.
const END_TO_END: [&str; 5] = [
    "rel_op_mean",
    "rel_op_p90",
    "setup_s",
    "lat_mem_kib",
    "peak_rss_mib",
];

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    package_dir().join("out")
}

struct RunArgs {
    workload: Option<Kind>,
    seed: u64,
    trace: bool,
    smoke: bool,
    cfg: RunConfig,
}

fn usage() -> String {
    format!(
        "usage: sqlcm-benchmark run [--workload <{}>] --seed <n> [--seconds <s>] \
         [--trace [0|1]] [--smoke] [--break-check]\n       \
         sqlcm-benchmark compare <a.json> <b.json>",
        Kind::ALL.map(Kind::name).join("|")
    )
}

fn parse_run(args: &[&str]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        trace: false,
        smoke: false,
        cfg: RunConfig {
            seconds: 20.0,
            rounds: None,
            break_check: false,
        },
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{}", usage()))
        };
        match *arg {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload =
                    Some(Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                out.cfg.seconds = s;
            }
            // `--trace` alone or `--trace 1` selects the traced pass.
            "--trace" => {
                out.trace = match it.peek().copied().copied() {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => out.smoke = true,
            "--break-check" => out.cfg.break_check = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if out.smoke {
        out.cfg.rounds = Some(2);
    }
    Ok(out)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// How an envelope's line begins (`workload` is its first key).
const ENVELOPE_START: &str = "{\"workload\":";

/// Everything needed to read a result later without the log beside it.
fn envelope(report: &Report, args: &RunArgs) -> Json {
    let w = &report.workload;
    let metrics = report.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("unit", Json::str(m.unit)),
                ("median", Json::Num(m.q.median)),
                ("q1", Json::Num(m.q.q1)),
                ("q3", Json::Num(m.q.q3)),
                ("n", Json::Num(m.samples as f64)),
            ]),
        )
    });
    Json::obj([
        ("workload", Json::str(w.kind.name())),
        ("seed", Json::Num(w.seed as f64)),
        ("traced", Json::Bool(report.traced)),
        ("smoke", Json::Bool(args.smoke)),
        ("seconds", Json::Num(args.cfg.seconds)),
        (
            "git_sha",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], package_dir())),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"], package_dir())),
        ),
        ("clients", Json::Num(w.sizes.clients as f64)),
        ("rules", Json::Num(w.sizes.rules as f64)),
        ("rounds", Json::Num(report.rounds as f64)),
        ("samples_per_round", Json::Num(w.ops_per_round() as f64)),
        ("setups", Json::Num(report.setups as f64)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "failures",
            Json::Arr(report.failures.iter().map(Json::str).collect()),
        ),
        (
            "input_hash",
            Json::Str(format!("{:016x}", report.input_hash)),
        ),
        (
            "counters",
            Json::obj([
                ("evaluations", Json::Num(report.counters.evaluations as f64)),
                ("fires", Json::Num(report.counters.fires as f64)),
                ("lat_inserts", Json::Num(report.counters.lat_inserts as f64)),
                (
                    "lat_evictions",
                    Json::Num(report.counters.lat_evictions as f64),
                ),
            ]),
        ),
        ("metrics", Json::obj(metrics)),
    ])
}

fn print_report(report: &Report) {
    let w = &report.workload;
    println!(
        "workload {} seed {} ({} pass): {} client(s), {} rule(s), {} round(s) of {} op(s), {} set-up(s)",
        w.kind.name(),
        w.seed,
        if report.traced { "traced" } else { "untraced" },
        w.sizes.clients,
        w.sizes.rules,
        report.rounds,
        w.ops_per_round(),
        report.setups,
    );
    println!(
        "  {:<34} {:>16} {:<6} {:>16} {:>16} {:>4}",
        "metric", "median", "unit", "q1", "q3", "n"
    );
    for m in &report.metrics {
        println!(
            "  {:<34} {:>16.4} {:<6} {:>16.4} {:>16.4} {:>4}",
            m.name, m.q.median, m.unit, m.q.q1, m.q.q3, m.samples
        );
    }
    print!("{}", report.notes);
    for f in &report.failures {
        println!("  FAILED CHECK: {f}");
    }
}

/// `<stem>_seed<N>_trace<T>[_smoke][_broken].json` under `out/`: smoke and
/// break-check runs never take the file name of a full run, so `compare` is
/// not handed one for the other.
fn envelope_path(stem: &str, args: &RunArgs) -> PathBuf {
    let mut name = format!("{stem}_seed{}_trace{}", args.seed, args.trace as u8);
    if args.smoke {
        name.push_str("_smoke");
    }
    if args.cfg.break_check {
        name.push_str("_broken");
    }
    out_dir().join(name + ".json")
}

/// One workload in this process; the contract's result object goes last.
fn run_one(kind: Kind, args: &RunArgs) -> Result<bool, String> {
    let w = Workload::new(kind, args.seed, args.smoke);
    let report = if args.trace {
        layers::run_traced(&w, &args.cfg, &out_dir())?
    } else {
        harness::run_untraced(&w, &args.cfg)?
    };
    print_report(&report);
    let envelope = envelope(&report, args).to_string();
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let path = envelope_path(kind.name(), args);
    std::fs::write(&path, &envelope).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{envelope}");

    let correct = report.failed == 0;
    let metrics = report
        .metrics
        .iter()
        .filter(|m| report.traced || END_TO_END.contains(&m.name))
        .map(|m| {
            (
                m.name,
                Json::obj([("value", Json::Num(m.value())), ("unit", Json::str(m.unit))]),
            )
        });
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    Ok(correct)
}

/// Every workload, each in a child process of its own (so `peak_rss_mib` is
/// the workload's), then one file holding all envelopes. An envelope is taken
/// from the standard output of the child that measured it, never from a file
/// an earlier run may have left.
fn run_all(args: &RunArgs, raw: &[&str]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut envelopes = Vec::new();
    for kind in Kind::ALL {
        let mut child = Command::new(&exe)
            .arg("run")
            .args(["--workload", kind.name()])
            .args(raw)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let mut envelope = None;
        for line in BufReader::new(child.stdout.take().expect("stdout is piped")).lines() {
            let line = line.map_err(|e| format!("reading {}'s output: {e}", kind.name()))?;
            println!("{line}");
            if line.starts_with(ENVELOPE_START) {
                envelope = Some(line);
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
        match envelope {
            Some(envelope) => envelopes.push(envelope),
            None => {
                ok = false;
                println!("{}: the run printed no envelope", kind.name());
            }
        }
        println!();
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let path = envelope_path("run", args);
    let all = format!("{{\"runs\":[{}]}}", envelopes.join(","));
    std::fs::write(&path, all).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("all envelopes: {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args.as_slice() {
        ["run", rest @ ..] => parse_run(rest).and_then(|run| match run.workload {
            Some(kind) => run_one(kind, &run),
            None => run_all(&run, rest),
        }),
        ["compare", a, b] => compare::run(
            Path::new(a),
            Path::new(b),
            &package_dir().join("../BENCHMARK.json"),
        ),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_run(&[
            "--workload",
            "storm_shared_lat",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Kind::StormSharedLat));
        assert_eq!((a.seed, a.trace, a.cfg.seconds), (7, false, 10.0));
        assert!(parse_run(&["--trace", "1"]).unwrap().trace);
        assert!(parse_run(&["--trace", "--smoke"]).unwrap().trace);
        assert_eq!(parse_run(&["--smoke"]).unwrap().cfg.rounds, Some(2));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seconds", "0"],
            &["--rounds", "3"],
            &["--frobnicate"],
        ] {
            assert!(parse_run(bad).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` and the program must name the same workloads and
    /// end-to-end metrics, or the driver refuses the result line.
    #[test]
    fn contract_file_matches_the_program() {
        let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json")).unwrap();
        let contract = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            contract
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), Kind::ALL.map(Kind::name));
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(
            contract.get("paths").unwrap().as_arr().unwrap(),
            [Json::str("benchmark")]
        );

        // Units too, and the traced pass against `per_layer`.
        let cfg = RunConfig {
            seconds: 1.0,
            rounds: Some(1),
            break_check: false,
        };
        let w = Workload::new(Kind::StormSharedLat, 1, true);
        let listed = |key: &str| -> Vec<(String, String)> {
            let unit = |m: &Json| m.get("unit").unwrap().as_str().unwrap().to_string();
            let list = contract.get(key).and_then(Json::as_arr).unwrap();
            names(key).into_iter().zip(list.iter().map(unit)).collect()
        };
        let measured = |report: &Report, all: bool| -> Vec<(String, String)> {
            report
                .metrics
                .iter()
                .filter(|m| all || END_TO_END.contains(&m.name))
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        let untraced = harness::run_untraced(&w, &cfg).unwrap();
        assert_eq!(listed("end_to_end"), measured(&untraced, false));
        let traced = layers::run_traced(&w, &cfg, &out_dir()).unwrap();
        assert_eq!(traced.failures, Vec::<String>::new());
        assert_eq!(listed("per_layer"), measured(&traced, true));
    }

    /// The traced pass's own checks (wrapper event counts, `wants` fidelity,
    /// F3's top-k ground truth, replay weights) hold on the host workloads.
    #[test]
    fn traced_pass_checks_hold_on_host_workloads() {
        let cfg = RunConfig {
            seconds: 1.0,
            rounds: Some(2),
            break_check: false,
        };
        for kind in [Kind::HostMixedTopk, Kind::HostPointRules100] {
            let w = Workload::new(kind, 2, true);
            let report = layers::run_traced(&w, &cfg, &out_dir()).unwrap();
            assert_eq!(report.failures, Vec::<String>::new(), "{}", kind.name());
            let events_per_query = report
                .metrics
                .iter()
                .find(|m| m.name == "engine.events_per_query")
                .unwrap();
            assert_eq!(events_per_query.value(), 1.0, "only Query.Commit is wanted");
        }
    }
}
