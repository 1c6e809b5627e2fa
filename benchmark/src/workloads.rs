//! The four workloads: seeded input generation, the rule/LAT catalog each one
//! monitors with, set-up of the program under test, and the output checks.
//!
//! Everything the program under test receives is generated here from
//! `--seed`; the generators of `sqlcm-workloads` are reused and the Zipf
//! tenant draw is the only one added.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlcm_common::{EngineEvent, QueryInfo, Value};
use sqlcm_core::{Action, Lat, LatAggFunc, LatSpec, Rule, RuleEvent, Sqlcm};
use sqlcm_engine::Engine;
use sqlcm_workloads::mixed::{self, MixedConfig, WorkloadQuery};
use sqlcm_workloads::storm::{self, StormConfig, StormShape};
use sqlcm_workloads::tpch::{self, TpchConfig, TpchDb};

use crate::trace;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HostMixedTopk,
    HostPointRules100,
    StormSelective1k,
    StormSharedLat,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::HostMixedTopk,
        Kind::HostPointRules100,
        Kind::StormSelective1k,
        Kind::StormSharedLat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HostMixedTopk => "host_mixed_topk",
            Kind::HostPointRules100 => "host_point_rules100",
            Kind::StormSelective1k => "storm_selective_1k",
            Kind::StormSharedLat => "storm_shared_lat",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// p50 of the workload's reference queries (see `reference_inputs`) on
    /// the reference box in a calm hour. It only fixes the unit of `setup_s`:
    /// set-up time is scaled by this ÷ the run's measured reference p50, so
    /// that the box's slow hours do not read as a slower set-up.
    pub fn nominal_reference_p50_ns(self) -> f64 {
        if self.is_host() {
            30_000.0
        } else {
            16_000.0
        }
    }

    /// Host workloads drive SQL through an engine session; storm workloads
    /// call `Sqlcm::inject_event` directly.
    pub fn is_host(self) -> bool {
        matches!(self, Kind::HostMixedTopk | Kind::HostPointRules100)
    }
}

/// Input sizes of one workload. `full` is what `BENCHMARK.json` measures;
/// `smoke` runs the same code paths and checks in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// TPC-H-lite orders (host workloads).
    pub orders: u32,
    /// Operations one client performs per round.
    pub ops_per_round: u32,
    /// Three-way joins among those operations (`host_mixed_topk`).
    pub joins_per_round: u32,
    /// Rules registered on `Query.Commit`.
    pub rules: u32,
    /// Concurrent clients (sessions or injector threads).
    pub clients: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub sizes: Sizes,
    pub seed: u64,
    pub smoke: bool,
}

/// Size of every bounded LAT in the catalogs (the paper's top-10 / last-10).
pub const K: usize = 10;
/// Watchers beside the feed rule of `storm_shared_lat`.
const WATCHERS: u32 = 31;

impl Workload {
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Workload {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
        let sizes = match (kind, smoke) {
            (Kind::HostMixedTopk, false) => Sizes {
                orders: 5_000,
                ops_per_round: 5_025,
                joins_per_round: 25,
                rules: 3,
                clients: 1,
            },
            (Kind::HostMixedTopk, true) => Sizes {
                orders: 500,
                ops_per_round: 204,
                joins_per_round: 4,
                rules: 3,
                clients: 1,
            },
            (Kind::HostPointRules100, false) => Sizes {
                orders: 5_000,
                ops_per_round: 1_000,
                joins_per_round: 0,
                rules: 100,
                clients: 1,
            },
            (Kind::HostPointRules100, true) => Sizes {
                orders: 500,
                ops_per_round: 100,
                joins_per_round: 0,
                rules: 100,
                clients: 1,
            },
            (Kind::StormSelective1k, false) => Sizes {
                orders: 0,
                ops_per_round: 10_000,
                joins_per_round: 0,
                rules: 1_000,
                clients: 1,
            },
            (Kind::StormSelective1k, true) => Sizes {
                orders: 0,
                ops_per_round: 600,
                joins_per_round: 0,
                rules: 100,
                clients: 1,
            },
            (Kind::StormSharedLat, false) => Sizes {
                orders: 0,
                ops_per_round: 25_000,
                joins_per_round: 0,
                rules: 1 + WATCHERS,
                clients: nproc.min(2),
            },
            (Kind::StormSharedLat, true) => Sizes {
                orders: 0,
                ops_per_round: 2_000,
                joins_per_round: 0,
                rules: 1 + WATCHERS,
                clients: nproc.min(2),
            },
        };
        Workload {
            kind,
            sizes,
            seed,
            smoke,
        }
    }

    /// Operations per round over all clients.
    pub fn ops_per_round(&self) -> u64 {
        self.sizes.ops_per_round as u64 * self.sizes.clients as u64
    }
}

// ------------------------------------------------------------------ catalog

/// The LATs and rules a workload monitors with, in registration order.
pub struct Catalog {
    pub lats: Vec<LatSpec>,
    pub rules: Vec<Rule>,
}

/// F3's top-k LAT: the `K` longest queries by id, text retained.
fn topk_lat() -> LatSpec {
    LatSpec::new("TopK")
        .group_by("Query.ID", "ID")
        .aggregate(LatAggFunc::Max, "Query.Duration", "Duration")
        .aggregate(LatAggFunc::Last, "Query.Query_Text", "Query_Text")
        .order_by("Duration", true)
        .max_rows(K)
}

/// F2's per-rule LAT: all attributes (incl. text) of the last `K` queries.
fn per_rule_lat(name: &str) -> LatSpec {
    LatSpec::new(name)
        .group_by("Query.ID", "ID")
        .aggregate(LatAggFunc::Last, "Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Last, "Query.Query_Text", "Query_Text")
        .aggregate(LatAggFunc::Last, "Query.Duration", "Duration")
        .aggregate(LatAggFunc::Last, "Query.Estimated_Cost", "Cost")
        .aggregate(LatAggFunc::Last, "Query.Start_Time", "Start_Time")
        .aggregate(LatAggFunc::Last, "Query.User", "Usr")
        .aggregate(LatAggFunc::Last, "Query.Application", "App")
        .aggregate(LatAggFunc::Last, "Query.Query_Type", "QType")
        .order_by("ID", true)
        .max_rows(K)
}

fn tenant_lat() -> LatSpec {
    LatSpec::new("Tenant_LAT")
        .group_by("Query.User", "Usr")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")
}

fn sig_lat() -> LatSpec {
    LatSpec::new("Sig_LAT")
        .group_by("Query.Logical_Signature", "Sig")
        .aggregate(LatAggFunc::Count, "", "N")
        .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")
}

fn tenant_name(t: u32) -> String {
    format!("tenant_{t}")
}

impl Workload {
    pub fn catalog(&self) -> Catalog {
        let on_commit = |name: String| Rule::new(name).on(RuleEvent::QueryCommit);
        match self.kind {
            // The leave-it-on catalog: F3's top-k plus Example 1's outlier
            // detection (3 rules on `Query.Commit`, 2 LATs).
            Kind::HostMixedTopk => {
                let outliers = sqlcm_workloads::rules::mixed();
                let mut lats = vec![topk_lat()];
                lats.extend(outliers.lats);
                let mut rules = vec![on_commit("track_topk".into()).then(Action::insert("TopK"))];
                rules.extend(outliers.rules);
                Catalog { lats, rules }
            }
            // F2: every rule fires on every query and keeps its own LAT.
            Kind::HostPointRules100 => {
                let names: Vec<String> =
                    (0..self.sizes.rules).map(|r| format!("lat_{r}")).collect();
                Catalog {
                    lats: names.iter().map(|n| per_rule_lat(n)).collect(),
                    rules: names
                        .iter()
                        .enumerate()
                        .map(|(r, lat)| {
                            on_commit(format!("rule_{r}"))
                                .when("Query.Duration >= 0")
                                .then(Action::insert(lat))
                        })
                        .collect(),
                }
            }
            // One rule per tenant; exactly one is a candidate for any event.
            Kind::StormSelective1k => Catalog {
                lats: vec![tenant_lat()],
                rules: (0..self.sizes.rules)
                    .map(|t| {
                        on_commit(format!("tenant_rule_{t}"))
                            .when(&format!(
                                "Query.User = '{}' AND Query.Duration >= 0",
                                tenant_name(t)
                            ))
                            .then(Action::insert("Tenant_LAT"))
                    })
                    .collect(),
            },
            // One feed plus watchers that read the fed row and never fire.
            Kind::StormSharedLat => {
                let mut rules = vec![on_commit("feed".into()).then(Action::insert("Sig_LAT"))];
                rules.extend((0..WATCHERS).map(|i| {
                    on_commit(format!("watch_{i}"))
                        .when(&format!(
                            "Query.Duration > 0.001 AND Sig_LAT.N >= {}",
                            1_000_000_000u64 + i as u64
                        ))
                        .then(Action::send_mail("dba", "Sig_LAT threshold crossed"))
                }));
                Catalog {
                    lats: vec![sig_lat()],
                    rules,
                }
            }
        }
    }

    /// LAT specs the layer replay drives, each with the inserts one event
    /// causes into LATs of that shape. The weights are cross-checked against
    /// the measured `lat.inserts_per_event`.
    pub fn replay_lats(&self) -> Vec<(LatSpec, f64)> {
        let mut lats = self.catalog().lats;
        if self.kind == Kind::HostPointRules100 {
            // One shape, registered once per rule: replay it once.
            let copies = lats.len() as f64;
            lats.truncate(1);
            return lats.into_iter().map(|l| (l, copies)).collect();
        }
        lats.into_iter().map(|l| (l, 1.0)).collect()
    }
}

// -------------------------------------------------------------------- setup

/// The program under test, set up and ready for the warm-up round.
pub struct Instance {
    pub engine: Engine,
    pub db: Option<TpchDb>,
    pub sqlcm: Arc<Sqlcm>,
    pub rules: Vec<Arc<Rule>>,
    /// Engine creation + TPC-H-lite load.
    pub load_s: f64,
    /// `define_lat` / `add_rule` of the whole catalog.
    pub rules_s: f64,
    /// Mean of the externally timed `add_rule` calls.
    pub add_rule_us: f64,
}

impl Instance {
    pub fn setup_s(&self) -> f64 {
        self.load_s + self.rules_s
    }
}

impl Drop for Instance {
    /// The engine's monitor list holds the monitor and the monitor holds the
    /// engine: without a detach the pair (buffer pool included) is never
    /// freed, and repeated set-ups would pile up in `peak_rss_mib`.
    fn drop(&mut self) {
        self.sqlcm.detach(&self.engine);
    }
}

impl Workload {
    fn load_tpch(&self, engine: &Engine, orders: u32) -> Result<TpchDb, String> {
        let config = TpchConfig {
            orders,
            parts: (orders / 10).max(50),
            customers: (orders / 25).max(20),
            seed: self.seed,
        };
        tpch::load(engine, config).map_err(|e| format!("tpch load: {e}"))
    }

    /// Everything `setup_s` covers: engine, data load, monitor, catalog.
    pub fn setup(&self) -> Result<Instance, String> {
        let t0 = Instant::now();
        let engine = Engine::in_memory();
        let db = if self.kind.is_host() {
            Some(self.load_tpch(&engine, self.sizes.orders)?)
        } else {
            None
        };
        let load_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let sqlcm = Arc::new(Sqlcm::attach(&engine));
        let catalog = self.catalog();
        for lat in catalog.lats {
            sqlcm
                .define_lat(lat)
                .map_err(|e| format!("define_lat: {e}"))?;
        }
        let mut rules = Vec::with_capacity(catalog.rules.len());
        let mut add_rule_s = 0.0;
        for rule in catalog.rules {
            let span = trace::enter(trace::Name::PlanAddRule);
            let t = Instant::now();
            let added = sqlcm.add_rule(rule);
            add_rule_s += t.elapsed().as_secs_f64();
            trace::exit(span);
            rules.push(added.map_err(|e| format!("add_rule: {e}"))?);
        }
        let rules_s = t1.elapsed().as_secs_f64();
        Ok(Instance {
            engine,
            db,
            sqlcm,
            add_rule_us: add_rule_s * 1e6 / rules.len().max(1) as f64,
            rules,
            load_s,
            rules_s,
        })
    }
}

// ------------------------------------------------------------------- inputs

/// What one client does in a round, in order. Every round repeats it, like
/// the paper's "exact same queries (identical constant parameters) in order".
pub enum Ops {
    Queries(Vec<WorkloadQuery>),
    Events(Vec<EngineEvent>),
}

impl Ops {
    pub fn len(&self) -> usize {
        match self {
            Ops::Queries(q) => q.len(),
            Ops::Events(e) => e.len(),
        }
    }
}

/// Zipf(1.0) over `0..n`: rank r is drawn with probability ∝ 1/(r+1).
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: u32) -> Zipf {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    fn draw(&self, rng: &mut SmallRng) -> u32 {
        let total = *self.cumulative.last().expect("at least one rank");
        let u = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= u) as u32
    }
}

/// `storm_selective_1k`: the first `tenants` events visit every tenant once
/// in a seeded order (so every rule fires and `Tenant_LAT` has one row per
/// tenant whatever the seed); the rest are Zipf(1.0) draws.
fn tenant_events(n: u32, tenants: u32, seed: u64) -> Vec<EngineEvent> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x007e_4a47);
    let mut order: Vec<u32> = (0..tenants).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let zipf = Zipf::new(tenants);
    let names: Vec<Arc<str>> = (0..tenants).map(|t| tenant_name(t).into()).collect();
    let text: Arc<str> = "STORM SELECT".into();
    (0..n)
        .map(|i| {
            let tenant = match order.get(i as usize) {
                Some(&t) => t,
                None => zipf.draw(&mut rng),
            };
            let mut q = QueryInfo::synthetic(i as u64 + 1, text.clone());
            q.user = names[tenant as usize].clone();
            q.logical_signature = Some(tenant as u64 % 64);
            q.duration_micros = rng.gen_range(1_000..50_000u64);
            EngineEvent::QueryCommit(q)
        })
        .collect()
}

impl Workload {
    /// Per-client operation lists. Host workloads need the loaded database's
    /// shape (valid keys), which is itself a pure function of the seed.
    pub fn inputs(&self, db: Option<&TpchDb>) -> Vec<Ops> {
        let s = self.sizes;
        match self.kind {
            Kind::HostMixedTopk => vec![Ops::Queries(mixed::generate(
                db.expect("host workload has a database"),
                MixedConfig {
                    point_selects: s.ops_per_round - s.joins_per_round,
                    join_selects: s.joins_per_round,
                    seed: self.seed ^ 0x006d_6978,
                },
            ))],
            Kind::HostPointRules100 => vec![Ops::Queries(mixed::point_select_workload(
                db.expect("host workload has a database"),
                s.ops_per_round,
                self.seed ^ 0x70_6f69_6e74,
            ))],
            Kind::StormSelective1k => {
                vec![Ops::Events(tenant_events(
                    s.ops_per_round,
                    s.rules,
                    self.seed,
                ))]
            }
            Kind::StormSharedLat => storm::per_thread_events(
                StormConfig::new(StormShape::Burst, s.ops_per_round, self.seed),
                s.clients,
            )
            .into_iter()
            .map(Ops::Events)
            .collect(),
        }
    }
}

/// Operations of one reference round, whatever the workload's own round size.
const REFERENCE_OPS: usize = 5_000;
/// TPC-H-lite orders behind the storm workloads' reference queries.
const REFERENCE_ORDERS: u32 = 1_000;

impl Workload {
    /// What the reference round beside every measured round runs: queries on
    /// the instance's engine **with the monitor detached**, one client. The
    /// machine's speed drifts by tens of percent over minutes (see the
    /// README); the bare engine drifts with it, so a round's time divided by
    /// its reference round's is steady where the time itself is not.
    ///
    /// Host workloads: the workload's own operation list, repeated to about
    /// `REFERENCE_OPS` — the paper's unmonitored baseline. Storm workloads
    /// have no queries, so their yardstick is point selects on a small
    /// TPC-H-lite loaded here (after, and outside, the timed set-up).
    pub fn reference_inputs(&self, inst: &Instance, inputs: &[Ops]) -> Result<Vec<Ops>, String> {
        // Smoke runs keep the code path and shrink the work.
        let (ops, orders) = if self.smoke {
            (200, 100)
        } else {
            (REFERENCE_OPS, REFERENCE_ORDERS)
        };
        let queries = match inputs {
            [Ops::Queries(own)] => {
                let passes = ops.div_ceil(own.len());
                let mut queries = Vec::with_capacity(passes * own.len());
                for _ in 0..passes {
                    queries.extend_from_slice(own);
                }
                queries
            }
            _ => {
                inst.sqlcm.detach(&inst.engine);
                let db = self.load_tpch(&inst.engine, orders);
                inst.sqlcm.reattach(&inst.engine);
                mixed::point_select_workload(&db?, ops as u32, self.seed ^ 0x7265_6665)
            }
        };
        Ok(vec![Ops::Queries(queries)])
    }
}

/// Hash of everything the program under test will be handed, for the
/// same-seed ⇒ same-inputs test.
pub fn input_hash<'a>(inputs: impl IntoIterator<Item = &'a Ops>) -> u64 {
    let mut h = DefaultHasher::new();
    for ops in inputs {
        match ops {
            Ops::Queries(qs) => {
                for q in qs {
                    q.sql.hash(&mut h);
                    q.params.hash(&mut h);
                }
            }
            Ops::Events(es) => {
                for e in es {
                    let EngineEvent::QueryCommit(q) = e else {
                        unreachable!("storms are made of Query.Commit events")
                    };
                    (
                        q.id,
                        &q.text,
                        q.logical_signature,
                        q.duration_micros,
                        &q.user,
                    )
                        .hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

// ------------------------------------------------------------------- checks

/// Counters a run must reproduce exactly from the same seed on the
/// single-client workloads (`fires` excludes timing-dependent rules).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub evaluations: u64,
    pub fires: u64,
    pub lat_inserts: u64,
    pub lat_evictions: u64,
}

pub fn fingerprint(kind: Kind, sqlcm: &Sqlcm) -> Fingerprint {
    let t = sqlcm.telemetry();
    Fingerprint {
        evaluations: t.stats.evaluations,
        // `report_outlier` compares a measured duration with its average.
        fires: t
            .rules
            .iter()
            .filter(|r| !(kind == Kind::HostMixedTopk && r.name == "report_outlier"))
            .map(|r| r.fires)
            .sum(),
        lat_inserts: t.lats.iter().map(|l| l.inserts).sum(),
        lat_evictions: t.lats.iter().map(|l| l.evictions).sum(),
    }
}

fn int_column(lat: &Lat, name: &str) -> Result<Vec<i64>, String> {
    let idx = lat
        .column_index(name)
        .ok_or_else(|| format!("{} has no column {name}", lat.spec.name))?;
    lat.rows()
        .iter()
        .map(|row| {
            row[idx]
                .as_i64()
                .ok_or_else(|| format!("{}.{name} is not an integer", lat.spec.name))
        })
        .collect()
}

fn lat(sqlcm: &Sqlcm, name: &str) -> Result<Arc<Lat>, String> {
    sqlcm
        .lat(name)
        .ok_or_else(|| format!("LAT {name} is missing"))
}

impl Workload {
    /// Check the monitor's outputs after `rounds` monitored rounds of
    /// `inputs` (warm-up included), the last of which was the last thing the
    /// engine ran. Returns one message per failed check.
    ///
    /// `break_check` deliberately expects one eviction too many, to show that
    /// a failed check makes the command exit non-zero.
    pub fn check(
        &self,
        inst: &Instance,
        inputs: &[Ops],
        rounds: u64,
        break_check: bool,
    ) -> Vec<String> {
        let sqlcm = &*inst.sqlcm;
        let mut failures = Vec::new();
        let mut expect = |what: &str, got: u64, want: u64| {
            if got != want {
                failures.push(format!(
                    "{}: {what} = {got}, expected {want}",
                    self.kind.name()
                ));
            }
        };
        let ops = rounds * inputs.iter().map(|o| o.len() as u64).sum::<u64>();
        let stats = sqlcm.stats();
        let telemetry = sqlcm.telemetry();
        let result = (|| -> Result<(), String> {
            match self.kind {
                Kind::HostMixedTopk => {
                    let n: i64 = int_column(&*lat(sqlcm, "Duration_LAT")?, "N")?.iter().sum();
                    expect("sum of Duration_LAT.N", n as u64, ops);
                    expect(
                        "TopK rows",
                        lat(sqlcm, "TopK")?.row_count() as u64,
                        K as u64,
                    );
                }
                Kind::HostPointRules100 => {
                    // Query ids are allocated in order, so the id taken here
                    // follows that of the last query: the last K queries are
                    // the K ids below it.
                    let next_id = inst.engine.handle().allocate_query_id() as i64;
                    let last_ids: Vec<i64> = (next_id - K as i64..next_id).collect();
                    for l in &telemetry.lats {
                        let mut ids = int_column(&*lat(sqlcm, &l.name)?, "ID")?;
                        ids.sort_unstable();
                        if ids != last_ids {
                            return Err(format!(
                                "{} holds ids {ids:?}, the last {K} queries were {last_ids:?}",
                                l.name
                            ));
                        }
                        expect(&format!("{}.inserts", l.name), l.inserts, ops);
                        let want = ops.saturating_sub(K as u64 + break_check as u64);
                        expect(&format!("{}.evictions", l.name), l.evictions, want);
                    }
                    expect("LATs", telemetry.lats.len() as u64, self.sizes.rules as u64);
                    expect("fires", stats.fires, ops * self.sizes.rules as u64);
                }
                Kind::StormSelective1k => {
                    let mut histogram: HashMap<&str, u64> = HashMap::new();
                    for ops in inputs {
                        let Ops::Events(events) = ops else { continue };
                        for e in events {
                            if let EngineEvent::QueryCommit(q) = e {
                                *histogram.entry(&q.user).or_default() += rounds;
                            }
                        }
                    }
                    let tenants = lat(sqlcm, "Tenant_LAT")?;
                    let usr = tenants.column_index("Usr").ok_or("no Usr column")?;
                    let n = tenants.column_index("N").ok_or("no N column")?;
                    let rows = tenants.rows();
                    expect("Tenant_LAT rows", rows.len() as u64, histogram.len() as u64);
                    let wrong = rows
                        .iter()
                        .filter(|row| match (&row[usr], row[n].as_i64()) {
                            (Value::Text(u), Some(n)) => histogram.get(&**u) != Some(&(n as u64)),
                            _ => true,
                        })
                        .count();
                    expect(
                        "tenants whose N differs from the histogram",
                        wrong as u64,
                        0,
                    );
                    expect("fires", stats.fires, ops);
                }
                Kind::StormSharedLat => {
                    let n: i64 = int_column(&*lat(sqlcm, "Sig_LAT")?, "N")?.iter().sum();
                    expect("sum of Sig_LAT.N", n as u64, ops);
                    let watcher_fires: u64 = telemetry
                        .rules
                        .iter()
                        .filter(|r| r.name != "feed")
                        .map(|r| r.fires)
                        .sum();
                    expect("watcher fires", watcher_fires, 0);
                    expect("fires", stats.fires, ops);
                }
            }
            Ok(())
        })();
        if let Err(e) = result {
            failures.push(format!("{}: {e}", self.kind.name()));
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0u32; 100];
        for _ in 0..20_000 {
            counts[zipf.draw(&mut rng) as usize] += 1;
        }
        // P(rank 0) = 1/H_100 ≈ 0.193; P(rank 99) ≈ 0.0019.
        assert!((3_400..4_400).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > 5 * counts[9] && counts[9] > 3 * counts[99]);
    }

    #[test]
    fn tenant_storm_covers_every_tenant_first() {
        let events = tenant_events(500, 100, 9);
        let users: Vec<&str> = events
            .iter()
            .map(|e| match e {
                EngineEvent::QueryCommit(q) => &*q.user,
                _ => unreachable!(),
            })
            .collect();
        let mut head: Vec<&str> = users[..100].to_vec();
        head.sort_unstable();
        head.dedup();
        assert_eq!(head.len(), 100, "the first 100 events are a permutation");
        assert!(users[100..].iter().filter(|u| **u == "tenant_0").count() > 40);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for kind in Kind::ALL {
            let hash = |seed: u64| {
                let w = Workload::new(kind, seed, true);
                let inst = w.setup().expect("setup");
                input_hash(&w.inputs(inst.db.as_ref()))
            };
            assert_eq!(hash(5), hash(5), "{}", kind.name());
            assert_ne!(hash(5), hash(6), "{}", kind.name());
        }
    }
}
