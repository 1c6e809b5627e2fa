//! The closed-loop round driver and the untraced pass that yields the
//! end-to-end metrics.
//!
//! Load model: every client is a session (host workloads) or an injector
//! thread (storm workloads) that issues its next operation only when the
//! previous one has returned. SQLCM runs synchronously in the thread that
//! raised the event, so there is no queue that could grow and a closed loop is
//! the honest model.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sqlcm_common::EngineEvent;
use sqlcm_core::Sqlcm;
use sqlcm_engine::Session;
use sqlcm_workloads::mixed::WorkloadQuery;

use crate::stats::{self, Quartiles};
use crate::trace::{self, Span};
use crate::workloads::{fingerprint, input_hash, Fingerprint, Instance, Ops, Workload};

/// One reported number: the median over rounds (or set-ups) with quartiles.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub q: Quartiles,
    /// How many per-round values the quartiles summarize.
    pub samples: usize,
}

impl Metric {
    pub fn of(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            q: stats::quartiles(values),
            samples: values.len(),
        }
    }

    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::of(name, unit, &[value])
    }

    pub fn value(&self) -> f64 {
        self.q.median
    }
}

/// What one round measured.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub ops: u64,
    /// Operations that returned an error or a wrong result.
    pub errors: u64,
    pub wall: Duration,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    pub fn ns_per_op(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.ops as f64
    }
}

/// Drives rounds of the workload's operations against one instance.
pub struct Driver<'a> {
    sqlcm: &'a Sqlcm,
    inputs: &'a [Ops],
    sessions: Vec<Session>,
    /// One latency buffer per client, sized before the first timed round.
    samples: Vec<Vec<u64>>,
    merged: Vec<u64>,
}

impl<'a> Driver<'a> {
    pub fn new(inst: &'a Instance, inputs: &'a [Ops]) -> Driver<'a> {
        let total: usize = inputs.iter().map(Ops::len).sum();
        Driver {
            sqlcm: &inst.sqlcm,
            inputs,
            sessions: inputs
                .iter()
                .filter(|ops| matches!(ops, Ops::Queries(_)))
                .map(|_| inst.engine.connect("bench", "sqlcm-benchmark"))
                .collect(),
            samples: inputs
                .iter()
                .map(|ops| Vec::with_capacity(ops.len()))
                .collect(),
            merged: Vec::with_capacity(total),
        }
    }

    /// Run every client's operation list once. With `SPANS`, each operation
    /// is wrapped in a harness span and the clients' spans are returned.
    pub fn round<const SPANS: bool>(&mut self) -> (Round, Vec<Vec<Span>>) {
        let sqlcm = self.sqlcm;
        let mut results: Vec<ClientRound> = Vec::new();
        if let [ops] = self.inputs {
            // A single client runs on the calling thread, where the traced
            // pass's wrapper records its spans too.
            let session = self.sessions.first_mut();
            results.push(run_client::<SPANS>(
                sqlcm,
                session,
                ops,
                &mut self.samples[0],
                None,
            ));
        } else {
            let barrier = Barrier::new(self.inputs.len());
            let mut sessions = self.sessions.iter_mut();
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .inputs
                    .iter()
                    .zip(self.samples.iter_mut())
                    .map(|(ops, samples)| {
                        let session = match ops {
                            Ops::Queries(_) => sessions.next(),
                            Ops::Events(_) => None,
                        };
                        let barrier = &barrier;
                        scope.spawn(move || {
                            run_client::<SPANS>(sqlcm, session, ops, samples, Some(barrier))
                        })
                    })
                    .collect();
                for h in handles {
                    results.push(h.join().expect("client thread panicked"));
                }
            });
        }
        let start = results.iter().map(|r| r.start).min().expect("a client");
        let end = results.iter().map(|r| r.end).max().expect("a client");
        self.merged.clear();
        for s in &self.samples {
            self.merged.extend_from_slice(s);
        }
        self.merged.sort_unstable();
        let round = Round {
            ops: self.merged.len() as u64,
            errors: results.iter().map(|r| r.errors).sum(),
            wall: end - start,
            p50_ns: stats::percentile_sorted(&self.merged, 0.50),
            p90_ns: stats::percentile_sorted(&self.merged, 0.90),
            p99_ns: stats::percentile_sorted(&self.merged, 0.99),
        };
        (round, results.into_iter().map(|r| r.spans).collect())
    }
}

/// One client's share of a round.
struct ClientRound {
    start: Instant,
    end: Instant,
    /// Operations that returned an error or a wrong result.
    errors: u64,
    spans: Vec<Span>,
}

fn run_client<const SPANS: bool>(
    sqlcm: &Sqlcm,
    session: Option<&mut Session>,
    ops: &Ops,
    samples: &mut Vec<u64>,
    barrier: Option<&Barrier>,
) -> ClientRound {
    samples.clear();
    if SPANS {
        // An operation records its own span plus one per event it raises.
        trace::reserve(ops.len() * 4);
    }
    if let Some(b) = barrier {
        b.wait();
    }
    let (start, end, errors) = match ops {
        Ops::Queries(queries) => run_queries::<SPANS>(
            session.expect("a host client has a session"),
            queries,
            samples,
        ),
        Ops::Events(events) => run_events::<SPANS>(sqlcm, events, samples),
    };
    ClientRound {
        start,
        end,
        errors,
        spans: if SPANS { trace::take() } else { Vec::new() },
    }
}

/// Latency of an operation is the time from the previous operation's return
/// to its own: one clock read per operation, and the round's wall time is
/// exactly the sum of its samples.
fn run_queries<const SPANS: bool>(
    session: &mut Session,
    queries: &[WorkloadQuery],
    samples: &mut Vec<u64>,
) -> (Instant, Instant, u64) {
    let mut errors = 0;
    let start = Instant::now();
    let mut prev = start;
    for q in queries {
        let span = SPANS.then(|| {
            trace::next_op();
            trace::enter(trace::Name::EngineExecute)
        });
        let result = session.execute_params(black_box(&q.sql), black_box(&q.params));
        if let Some(span) = span {
            trace::exit(span);
        }
        // Every statement of the host workloads selects at least one row.
        match black_box(result) {
            Ok(r) if !r.rows.is_empty() => {}
            _ => errors += 1,
        }
        let now = Instant::now();
        samples.push((now - prev).as_nanos() as u64);
        prev = now;
    }
    (start, prev, errors)
}

fn run_events<const SPANS: bool>(
    sqlcm: &Sqlcm,
    events: &[EngineEvent],
    samples: &mut Vec<u64>,
) -> (Instant, Instant, u64) {
    let start = Instant::now();
    let mut prev = start;
    for e in events {
        let span = SPANS.then(|| {
            trace::next_op();
            trace::enter(trace::Name::MonitorOnEvent)
        });
        sqlcm.inject_event(black_box(e));
        if let Some(span) = span {
            trace::exit(span);
        }
        let now = Instant::now();
        samples.push((now - prev).as_nanos() as u64);
        prev = now;
    }
    (start, prev, 0)
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// How a run is sized and what it is asked to break.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Measure for this long (rounds are whole, so the last one may overrun).
    pub seconds: f64,
    /// Run exactly this many measured rounds instead (`--smoke` and the
    /// tests, whose counters must repeat exactly).
    pub rounds: Option<u32>,
    /// Make one output check expect a wrong value (see `Workload::check`).
    pub break_check: bool,
}

/// Result of either pass, ready to print.
pub struct Report {
    pub workload: Workload,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub rounds: usize,
    pub setups: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Hash of the generated inputs: equal seeds must give equal hashes.
    pub input_hash: u64,
    /// Counters that repeat exactly from the same seed and round count.
    pub counters: Fingerprint,
    /// Free-form text printed after the metrics (the traced pass's budget table).
    pub notes: String,
}

/// Set the program up repeatedly — at least `min` times and for at least a
/// second in total, because the storm workloads set up in milliseconds — and
/// keep the last instance. Only one instance is alive at a time.
pub fn repeated_setup(w: &Workload, min: usize) -> Result<(Instance, Vec<f64>), String> {
    const MAX_SETUPS: usize = 200;
    let begun = Instant::now();
    let mut inst = w.setup()?;
    let mut times = vec![inst.setup_s()];
    while times.len() < min
        || (begun.elapsed() < Duration::from_secs(1) && times.len() < MAX_SETUPS)
    {
        drop(inst);
        inst = w.setup()?;
        times.push(inst.setup_s());
    }
    // Set-up records `plan.add_rule` spans; only the traced pass keeps them.
    trace::take();
    Ok((inst, times))
}

/// Fewest measured rounds of the untraced pass, however short `--seconds` is
/// and however slow the machine: quartiles over fewer settle nothing.
pub const MIN_ROUNDS: u32 = 10;

/// Call `run` (one or more whole rounds) for `cfg.seconds` and at least
/// `min_rounds` times, or exactly `cfg.rounds` times when that is set.
pub fn measured_rounds(cfg: &RunConfig, min_rounds: u32, mut run: impl FnMut()) {
    let begun = Instant::now();
    let mut done = 0;
    loop {
        run();
        done += 1;
        let finished = match cfg.rounds {
            Some(n) => done >= n,
            None => done >= min_rounds && begun.elapsed().as_secs_f64() >= cfg.seconds,
        };
        if finished {
            break;
        }
    }
}

/// A measured round and the reference round run immediately before it (see
/// `Workload::reference_inputs`).
struct Pair {
    reference: Round,
    round: Round,
}

/// The untraced pass: set-up, one discarded warm-up pair, measured pairs of a
/// reference round and a round, output checks. Every end-to-end metric comes
/// from here.
pub fn run_untraced(w: &Workload, cfg: &RunConfig) -> Result<Report, String> {
    let (inst, setup_times) = repeated_setup(w, if w.smoke { 2 } else { 3 })?;
    let inputs = w.inputs(inst.db.as_ref());
    let reference_inputs = w.reference_inputs(&inst, &inputs)?;
    let mut driver = Driver::new(&inst, &inputs);
    let mut reference = Driver::new(&inst, &reference_inputs);
    let mut pair = || {
        inst.sqlcm.detach(&inst.engine);
        let reference = reference.round::<false>().0;
        inst.sqlcm.reattach(&inst.engine);
        Pair {
            reference,
            round: driver.round::<false>().0,
        }
    };

    // Warm-up: thread-local pools, the plan cache and the LATs reach steady
    // state before anything is timed.
    let warmup = pair();
    let mut pairs = Vec::new();
    measured_rounds(cfg, MIN_ROUNDS, || pairs.push(pair()));

    let monitored_rounds = 1 + pairs.len() as u64;
    let mut failures = w.check(&inst, &inputs, monitored_rounds, cfg.break_check);
    let all = || std::iter::once(&warmup).chain(&pairs);
    let op_errors: u64 = all().map(|p| p.round.errors + p.reference.errors).sum();
    let action_errors = inst.sqlcm.stats().action_errors;
    // Every failed output check counts as one failed operation.
    let failed = op_errors + action_errors + failures.len() as u64;
    if op_errors + action_errors > 0 {
        failures.push(format!(
            "{op_errors} operations failed or returned no row, {action_errors} actions failed"
        ));
    }
    let attempted = all().map(|p| p.round.ops).sum::<u64>();

    let per_pair = |f: &dyn Fn(&Pair) -> f64| pairs.iter().map(f).collect::<Vec<f64>>();
    let us = |ns: u64| ns as f64 / 1e3;
    // What a round's statistic is divided by. Host workloads: the same
    // statistic of the bare round, like for like — the paper's overhead.
    // Storm workloads have no queries to compare with, so their unit is the
    // median bare point select.
    let host = w.kind.is_host();
    let unit = |p: &Pair, like_for_like: f64| {
        if host {
            like_for_like
        } else {
            p.reference.p50_ns as f64
        }
    };
    // Scales a time of this run to the speed at which the bare engine runs
    // its reference queries at their nominal p50.
    let to_reference_speed = w.kind.nominal_reference_p50_ns()
        / stats::median(&per_pair(&|p| p.reference.p50_ns as f64));
    let metrics = vec![
        // Relative to the reference round: steady against the machine's drift.
        Metric::of(
            "rel_op_mean",
            "x",
            &per_pair(&|p| p.round.ns_per_op() / unit(p, p.reference.ns_per_op())),
        ),
        Metric::of(
            "rel_op_p90",
            "x",
            &per_pair(&|p| p.round.p90_ns as f64 / unit(p, p.reference.p90_ns as f64)),
        ),
        // The rest is printed and kept in the envelope but not bounded in
        // BENCHMARK.json — see "End-to-end metrics" in the README.
        Metric::of(
            "rel_op_p50",
            "x",
            &per_pair(&|p| p.round.p50_ns as f64 / p.reference.p50_ns as f64),
        ),
        Metric::of("ops_per_s", "op/s", &per_pair(&|p| p.round.ops_per_s())),
        Metric::of("op_p50_us", "us", &per_pair(&|p| us(p.round.p50_ns))),
        Metric::of("op_p90_us", "us", &per_pair(&|p| us(p.round.p90_ns))),
        Metric::of("op_p99_us", "us", &per_pair(&|p| us(p.round.p99_ns))),
        Metric::of("ref_p50_us", "us", &per_pair(&|p| us(p.reference.p50_ns))),
        // Set-up time in seconds at reference speed, and as the clock read it.
        Metric::of(
            "setup_s",
            "s",
            &setup_times
                .iter()
                .map(|t| t * to_reference_speed)
                .collect::<Vec<_>>(),
        ),
        Metric::of("setup_wall_s", "s", &setup_times),
        Metric::single(
            "lat_mem_kib",
            "KiB",
            inst.sqlcm.lat_memory_bytes() as f64 / 1024.0,
        ),
        Metric::single("peak_rss_mib", "MiB", peak_rss_mib()),
        Metric::single("op_fail_share", "ratio", failed as f64 / attempted as f64),
    ];
    Ok(Report {
        workload: *w,
        traced: false,
        metrics,
        rounds: pairs.len(),
        setups: setup_times.len(),
        attempted,
        failed,
        failures,
        input_hash: input_hash(inputs.iter().chain(&reference_inputs)),
        counters: fingerprint(w.kind, &inst.sqlcm),
        notes: String::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;

    fn smoke(kind: Kind, seed: u64, break_check: bool) -> Report {
        let cfg = RunConfig {
            seconds: 1.0,
            rounds: Some(2),
            break_check,
        };
        run_untraced(&Workload::new(kind, seed, true), &cfg).expect("run")
    }

    fn metric(report: &Report, name: &str) -> f64 {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .expect("metric")
            .value()
    }

    #[test]
    fn every_workload_passes_its_checks() {
        for kind in Kind::ALL {
            let r = smoke(kind, 11, false);
            assert_eq!(r.failures, Vec::<String>::new(), "{}", kind.name());
            assert_eq!(r.failed, 0);
            assert_eq!(
                r.attempted,
                3 * r.workload.ops_per_round(),
                "warm-up + 2 rounds"
            );
            assert_eq!(metric(&r, "op_fail_share"), 0.0);
            for name in [
                "rel_op_mean",
                "rel_op_p90",
                "rel_op_p50",
                "ops_per_s",
                "op_p50_us",
                "op_p90_us",
                "op_p99_us",
                "ref_p50_us",
                "setup_s",
                "setup_wall_s",
                "lat_mem_kib",
                "peak_rss_mib",
            ] {
                assert!(metric(&r, name) > 0.0, "{} {name}", kind.name());
            }
        }
    }

    /// Same seed ⇒ same inputs and, with one client, the same counters and
    /// LAT memory. (`host_mixed_topk` keeps whichever queries ran longest, so
    /// its LAT memory depends on timing; its counters do not.)
    #[test]
    fn same_seed_repeats_exactly_on_single_client_workloads() {
        for kind in [
            Kind::HostMixedTopk,
            Kind::HostPointRules100,
            Kind::StormSelective1k,
        ] {
            let (a, b, other) = (
                smoke(kind, 5, false),
                smoke(kind, 5, false),
                smoke(kind, 6, false),
            );
            assert_eq!(a.input_hash, b.input_hash, "{}", kind.name());
            assert_ne!(a.input_hash, other.input_hash, "{}", kind.name());
            assert_eq!(a.counters, b.counters, "{}", kind.name());
            assert!(a.counters.evaluations > 0 && a.counters.lat_inserts > 0);
            if kind != Kind::HostMixedTopk {
                assert_eq!(metric(&a, "lat_mem_kib"), metric(&b, "lat_mem_kib"));
            }
        }
    }

    #[test]
    fn a_broken_check_fails_the_run() {
        let r = smoke(Kind::HostPointRules100, 3, true);
        assert!(r.failed > 0 && !r.failures.is_empty());
        assert!(r.failures[0].contains("evictions"), "{:?}", r.failures);
        assert!(metric(&r, "op_fail_share") > 0.0);
    }
}
