//! Light-weight aggregation tables (paper §4.3).
//!
//! A LAT is an in-memory GROUP BY over inserted monitored objects:
//!
//! * **grouping columns** — object attributes (e.g. `Query.Logical_Signature`);
//! * **aggregation columns** — `COUNT`, `SUM`, `AVG`, `STDEV`, `MIN`, `MAX`,
//!   `FIRST`, `LAST` over attributes, each optionally in its **aging** variant:
//!   a moving window of width `t` maintained in blocks spanning `Δ` ("SQLCM
//!   groups values into blocks … which are then used as the unit of aging",
//!   using at most `2t/Δ` extra storage);
//! * a **size bound** (rows and/or approximate bytes) with ordering columns: on
//!   overflow the row with the smallest ordering value is discarded and exposed
//!   to the rule engine as an evicted-row monitored object;
//! * **persistence**: rows can be written to an ordinary table (plus a timestamp
//!   column) and re-seeded from one at startup.
//!
//! Concurrency: the row map is **sharded** by group-key hash into
//! [`LatSpec::shards`] independently locked shards (default
//! [`DEFAULT_LAT_SHARDS`]); each row additionally has its own `Mutex`. Probe
//! threads folding different groups therefore touch different locks entirely —
//! mirroring (and extending) the paper's fine-grained latching ("each LAT row
//! as well as … the hash table are protected through latches"). Operations
//! that need a cross-shard view keep the paper's single-table semantics:
//!
//! * **eviction** is two-phase — every shard nominates its local minimum under
//!   the ordering spec, then a coordinator (serialized by a per-LAT eviction
//!   lock) removes the global victim, so the evicted row is still the
//!   *globally* least important one (§3.2.4);
//! * **reset** and **snapshot/iteration** acquire all shard locks in index
//!   order, presenting one consistent point-in-time view.
//!
//! The A3 and T3 benches stress this; `ReferenceLat` (see [`crate::lat_ref`])
//! is a deliberately naive single-lock implementation used as a differential
//! oracle for the sharded one.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sqlcm_common::{Error, Result, SharedClock, Timestamp, Value};

use crate::objects::{ClassName, Object};

/// Default number of row-map shards per LAT (see [`LatSpec::shards`]).
pub const DEFAULT_LAT_SHARDS: usize = 16;

/// `LatAggFunc` and the shard-count ceiling (specs beyond it are rejected)
/// are declared once, in the analyzer crate.
pub use sqlcm_analyze::{LatAggFunc, MAX_LAT_SHARDS};

/// Aging parameters: report only values from the last `window` µs, maintained in
/// blocks of `block` µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgingSpec {
    pub window_micros: u64,
    pub block_micros: u64,
}

/// One source attribute reference, `Class.Attribute`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrRef {
    pub class: ClassName,
    pub attr: String,
}

impl AttrRef {
    /// Parse `"Query.Duration"` style references.
    pub fn parse(s: &str) -> Result<AttrRef> {
        let (class, attr) = s
            .split_once('.')
            .ok_or_else(|| Error::Monitor(format!("attribute reference {s} needs Class.Attr")))?;
        let class = ClassName::parse(class)
            .ok_or_else(|| Error::Monitor(format!("unknown monitored class {class}")))?;
        Ok(AttrRef {
            class,
            attr: attr.to_string(),
        })
    }
}

/// One grouping column: source attribute + output column alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupColumn {
    pub source: AttrRef,
    pub alias: String,
}

/// One aggregation column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggColumn {
    pub func: LatAggFunc,
    /// Source attribute; `None` only for COUNT.
    pub source: Option<AttrRef>,
    pub alias: String,
    pub aging: Option<AgingSpec>,
}

/// Declarative specification of a LAT (the paper's "LAT specification").
#[derive(Debug, Clone, PartialEq)]
pub struct LatSpec {
    pub name: String,
    pub group_by: Vec<GroupColumn>,
    pub aggregates: Vec<AggColumn>,
    /// (column alias, descending?) — "least important" rows (smallest ordering
    /// value) are evicted first.
    pub ordering: Vec<(String, bool)>,
    pub max_rows: Option<usize>,
    pub max_bytes: Option<usize>,
    /// Number of independently locked row-map shards; `None` means
    /// [`DEFAULT_LAT_SHARDS`]. Must be in `1..=`[`MAX_LAT_SHARDS`].
    pub shards: Option<usize>,
}

impl LatSpec {
    pub fn new(name: impl Into<String>) -> LatSpec {
        LatSpec {
            name: name.into(),
            group_by: Vec::new(),
            aggregates: Vec::new(),
            ordering: Vec::new(),
            max_rows: None,
            max_bytes: None,
            shards: None,
        }
    }

    /// Add a grouping column (`source` is `"Class.Attribute"`).
    pub fn group_by(mut self, source: &str, alias: &str) -> LatSpec {
        self.group_by.push(GroupColumn {
            source: AttrRef::parse(source).expect("valid attribute reference"),
            alias: alias.to_string(),
        });
        self
    }

    /// Add an aggregation column. For `Count`, `source` may be `""`.
    pub fn aggregate(mut self, func: LatAggFunc, source: &str, alias: &str) -> LatSpec {
        let source = if source.is_empty() {
            None
        } else {
            Some(AttrRef::parse(source).expect("valid attribute reference"))
        };
        self.aggregates.push(AggColumn {
            func,
            source,
            alias: alias.to_string(),
            aging: None,
        });
        self
    }

    /// Make the most recently added aggregate aging.
    pub fn aging(mut self, window_micros: u64, block_micros: u64) -> LatSpec {
        let last = self
            .aggregates
            .last_mut()
            .expect("aging() follows aggregate()");
        last.aging = Some(AgingSpec {
            window_micros,
            block_micros,
        });
        self
    }

    pub fn order_by(mut self, column: &str, desc: bool) -> LatSpec {
        self.ordering.push((column.to_string(), desc));
        self
    }

    pub fn max_rows(mut self, n: usize) -> LatSpec {
        self.max_rows = Some(n);
        self
    }

    pub fn max_bytes(mut self, n: usize) -> LatSpec {
        self.max_bytes = Some(n);
        self
    }

    /// Override the shard count (default [`DEFAULT_LAT_SHARDS`]). Use 1 to
    /// recover a single-lock table, more for heavily concurrent probe paths.
    pub fn shards(mut self, n: usize) -> LatSpec {
        self.shards = Some(n);
        self
    }

    /// The shard count this spec resolves to.
    pub fn shard_count(&self) -> usize {
        self.shards.unwrap_or(DEFAULT_LAT_SHARDS)
    }

    /// Output column names: group aliases then aggregate aliases.
    pub fn columns(&self) -> Vec<String> {
        self.group_by
            .iter()
            .map(|g| g.alias.clone())
            .chain(self.aggregates.iter().map(|a| a.alias.clone()))
            .collect()
    }

    /// Validate internal consistency (duplicate aliases, ordering refs, COUNT
    /// without source, aging parameters).
    pub fn validate(&self) -> Result<()> {
        if self.group_by.is_empty() {
            return Err(Error::Monitor(format!(
                "LAT {} needs at least one grouping column",
                self.name
            )));
        }
        let cols = self.columns();
        let mut seen = std::collections::HashSet::new();
        for c in &cols {
            if !seen.insert(c.to_ascii_lowercase()) {
                return Err(Error::Monitor(format!(
                    "duplicate column {c} in LAT {}",
                    self.name
                )));
            }
        }
        for (o, _) in &self.ordering {
            if !cols.iter().any(|c| c.eq_ignore_ascii_case(o)) {
                return Err(Error::Monitor(format!(
                    "ordering column {o} is not a column of LAT {}",
                    self.name
                )));
            }
        }
        for a in &self.aggregates {
            if a.source.is_none() && a.func != LatAggFunc::Count {
                return Err(Error::Monitor(format!(
                    "aggregate {} of LAT {} needs a source attribute",
                    a.alias, self.name
                )));
            }
            if let Some(ag) = &a.aging {
                if ag.block_micros == 0 || ag.window_micros < ag.block_micros {
                    return Err(Error::Monitor(format!(
                        "aging of {} needs 0 < block ≤ window",
                        a.alias
                    )));
                }
            }
            // Grouping sources and aggregate sources must agree on the class so
            // one in-context object can feed the whole row.
            if let Some(src) = &a.source {
                if src.class != self.group_by[0].source.class {
                    return Err(Error::Monitor(format!(
                        "LAT {}: aggregate source class {} differs from grouping class {}",
                        self.name, src.class, self.group_by[0].source.class
                    )));
                }
            }
        }
        for g in &self.group_by[1..] {
            if g.source.class != self.group_by[0].source.class {
                return Err(Error::Monitor(format!(
                    "LAT {}: all grouping columns must come from one class",
                    self.name
                )));
            }
        }
        if let Some(n) = self.shards {
            if n == 0 || n > MAX_LAT_SHARDS {
                return Err(Error::Monitor(format!(
                    "LAT {}: shard count {n} must be in 1..={MAX_LAT_SHARDS}",
                    self.name
                )));
            }
        }
        Ok(())
    }

    /// The monitored class whose objects feed this LAT.
    pub fn source_class(&self) -> &ClassName {
        &self.group_by[0].source.class
    }
}

// ---------------------------------------------------------------- aggregates

/// Mergeable aggregate state — also the per-block state of aging aggregates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AggState {
    Count(i64),
    Sum { sum: f64, seen: bool },
    Avg { sum: f64, n: i64 },
    StdDev { n: i64, sum: f64, sumsq: f64 },
    Min(Option<Value>),
    Max(Option<Value>),
    First(Option<Value>),
    Last(Option<Value>),
}

impl AggState {
    fn new(func: LatAggFunc) -> AggState {
        match func {
            LatAggFunc::Count => AggState::Count(0),
            LatAggFunc::Sum => AggState::Sum {
                sum: 0.0,
                seen: false,
            },
            LatAggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            LatAggFunc::StdDev => AggState::StdDev {
                n: 0,
                sum: 0.0,
                sumsq: 0.0,
            },
            LatAggFunc::Min => AggState::Min(None),
            LatAggFunc::Max => AggState::Max(None),
            LatAggFunc::First => AggState::First(None),
            LatAggFunc::Last => AggState::Last(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        let numeric = |v: &Value, what: &str| {
            v.as_f64()
                .ok_or_else(|| Error::Monitor(format!("{what} of non-numeric value {v}")))
        };
        match self {
            AggState::Count(c) => match v {
                None => *c += 1,
                Some(val) if !val.is_null() => *c += 1,
                _ => {}
            },
            AggState::Sum { sum, seen } => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    *sum += numeric(val, "SUM")?;
                    *seen = true;
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    *sum += numeric(val, "AVG")?;
                    *n += 1;
                }
            }
            AggState::StdDev { n, sum, sumsq } => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    let x = numeric(val, "STDEV")?;
                    *n += 1;
                    *sum += x;
                    *sumsq += x * x;
                }
            }
            AggState::Min(cur) => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    if cur.as_ref().is_none_or(|c| val < c) {
                        *cur = Some(val.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    if cur.as_ref().is_none_or(|c| val > c) {
                        *cur = Some(val.clone());
                    }
                }
            }
            AggState::First(cur) => {
                if cur.is_none() {
                    if let Some(val) = v {
                        *cur = Some(val.clone());
                    }
                }
            }
            AggState::Last(cur) => {
                if let Some(val) = v {
                    *cur = Some(val.clone());
                }
            }
        }
        Ok(())
    }

    /// Merge `other` (a *later* block) into `self`.
    fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum { sum: a, seen: sa }, AggState::Sum { sum: b, seen: sb }) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::Avg { sum: a, n: na }, AggState::Avg { sum: b, n: nb }) => {
                *a += b;
                *na += nb;
            }
            (
                AggState::StdDev {
                    n: na,
                    sum: sa,
                    sumsq: qa,
                },
                AggState::StdDev {
                    n: nb,
                    sum: sb,
                    sumsq: qb,
                },
            ) => {
                *na += nb;
                *sa += sb;
                *qa += qb;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|av| bv < av) {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|av| bv > av) {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggState::First(a), AggState::First(b)) => {
                if a.is_none() {
                    *a = b.clone();
                }
            }
            (AggState::Last(a), AggState::Last(b)) => {
                if b.is_some() {
                    *a = b.clone();
                }
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    fn finish(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(*c),
            AggState::Sum { sum, seen } => {
                if *seen {
                    Value::Float(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, n } => {
                if *n > 0 {
                    Value::Float(sum / *n as f64)
                } else {
                    Value::Null
                }
            }
            AggState::StdDev { n, sum, sumsq } => {
                if *n > 0 {
                    let mean = sum / *n as f64;
                    Value::Float((sumsq / *n as f64 - mean * mean).max(0.0).sqrt())
                } else {
                    Value::Null
                }
            }
            AggState::Min(v) | AggState::Max(v) | AggState::First(v) | AggState::Last(v) => {
                v.clone().unwrap_or(Value::Null)
            }
        }
    }

    fn size_bytes(&self) -> usize {
        let base = std::mem::size_of::<AggState>();
        match self {
            AggState::Min(Some(v))
            | AggState::Max(Some(v))
            | AggState::First(Some(v))
            | AggState::Last(Some(v)) => base + v.size_bytes(),
            _ => base,
        }
    }
}

/// Aging aggregate: a deque of Δ-aligned blocks, each a plain [`AggState`].
#[derive(Debug, Clone)]
struct AgingState {
    func: LatAggFunc,
    spec: AgingSpec,
    /// (block start, state); ordered by start ascending.
    blocks: VecDeque<(Timestamp, AggState)>,
}

impl AgingState {
    fn new(func: LatAggFunc, spec: AgingSpec) -> AgingState {
        AgingState {
            func,
            spec,
            blocks: VecDeque::new(),
        }
    }

    fn expire(&mut self, now: Timestamp) {
        let cutoff = now.saturating_sub(self.spec.window_micros);
        while let Some((start, _)) = self.blocks.front() {
            // A block is dropped when *all* its values are older than the
            // window — blocks are the unit of aging (§4.3).
            if start + self.spec.block_micros <= cutoff {
                self.blocks.pop_front();
            } else {
                break;
            }
        }
    }

    /// Returns whether the value opened a new aging block (a "roll").
    fn update(&mut self, v: Option<&Value>, now: Timestamp) -> Result<bool> {
        self.expire(now);
        let block_start = now - now % self.spec.block_micros;
        match self.blocks.back_mut() {
            Some((start, state)) if *start == block_start => {
                state.update(v)?;
                Ok(false)
            }
            _ => {
                let mut state = AggState::new(self.func);
                state.update(v)?;
                self.blocks.push_back((block_start, state));
                Ok(true)
            }
        }
    }

    fn finish(&self, now: Timestamp) -> Value {
        let cutoff = now.saturating_sub(self.spec.window_micros);
        let mut acc: Option<AggState> = None;
        for (start, state) in &self.blocks {
            if start + self.spec.block_micros <= cutoff {
                continue;
            }
            match &mut acc {
                None => acc = Some(state.clone()),
                Some(a) => a.merge(state),
            }
        }
        acc.map_or_else(|| AggState::new(self.func).finish(), |a| a.finish())
    }

    fn size_bytes(&self) -> usize {
        std::mem::size_of::<AgingState>()
            + self
                .blocks
                .iter()
                .map(|(_, s)| 8 + s.size_bytes())
                .sum::<usize>()
    }
}

#[derive(Debug, Clone)]
enum ColumnState {
    Plain(AggState),
    Aging(AgingState),
}

impl ColumnState {
    /// Returns whether an aging column rolled over to a new block.
    fn update(&mut self, v: Option<&Value>, now: Timestamp) -> Result<bool> {
        match self {
            ColumnState::Plain(s) => s.update(v).map(|()| false),
            ColumnState::Aging(s) => s.update(v, now),
        }
    }

    fn finish(&self, now: Timestamp) -> Value {
        match self {
            ColumnState::Plain(s) => s.finish(),
            ColumnState::Aging(s) => s.finish(now),
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            ColumnState::Plain(s) => s.size_bytes(),
            ColumnState::Aging(s) => s.size_bytes(),
        }
    }
}

struct LatRow {
    group: Vec<Value>,
    aggs: Vec<ColumnState>,
}

impl LatRow {
    fn size_bytes(&self) -> usize {
        self.group.iter().map(Value::size_bytes).sum::<usize>()
            + self.aggs.iter().map(ColumnState::size_bytes).sum::<usize>()
            + 48
    }

    fn output(&self, now: Timestamp) -> Vec<Value> {
        let mut out = self.group.clone();
        out.extend(self.aggs.iter().map(|a| a.finish(now)));
        out
    }
}

/// Statistics of one LAT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatStats {
    pub inserts: u64,
    pub evictions: u64,
    pub resets: u64,
    /// Aging blocks opened (paper §4.3's Δ-block rollover), across all rows.
    pub aging_rolls: u64,
    /// Highest row count observed after size enforcement — never exceeds
    /// `max_rows` on a bounded LAT.
    pub row_high_water: u64,
}

/// Point-in-time occupancy and contention numbers of one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatShardStats {
    pub rows: usize,
    /// Shard-lock acquisitions that found the lock held (fast-path `try_*`
    /// failed and the thread had to block).
    pub contentions: u64,
}

/// One independently locked slice of the row map.
struct Shard {
    rows: RwLock<HashMap<Vec<Value>, Arc<Mutex<LatRow>>>>,
    contentions: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            rows: RwLock::new(HashMap::new()),
            contentions: AtomicU64::new(0),
        }
    }

    /// Read-lock this shard, counting contention.
    fn read(&self) -> parking_lot::RwLockReadGuard<'_, HashMap<Vec<Value>, Arc<Mutex<LatRow>>>> {
        match self.rows.try_read() {
            Some(g) => g,
            None => {
                self.contentions.fetch_add(1, Ordering::Relaxed);
                self.rows.read()
            }
        }
    }

    /// Write-lock this shard, counting contention.
    fn write(&self) -> parking_lot::RwLockWriteGuard<'_, HashMap<Vec<Value>, Arc<Mutex<LatRow>>>> {
        match self.rows.try_write() {
            Some(g) => g,
            None => {
                self.contentions.fetch_add(1, Ordering::Relaxed);
                self.rows.write()
            }
        }
    }

    /// Approximate bytes of this shard's rows (per-shard size accounting).
    fn memory_bytes(&self) -> usize {
        self.read().values().map(|r| r.lock().size_bytes()).sum()
    }
}

/// A live light-weight aggregation table.
pub struct Lat {
    pub spec: LatSpec,
    clock: SharedClock,
    columns: Arc<[String]>,
    /// Indexes of the ordering columns in `columns`, with desc flags.
    ordering_idx: Vec<(usize, bool)>,
    /// Pre-resolved positions of the grouping attributes in the source class's
    /// value layout (compiled once; inserts avoid name matching).
    group_attr_idx: Vec<usize>,
    /// Pre-resolved positions of each aggregate's source attribute.
    agg_attr_idx: Vec<Option<usize>>,
    /// Row map, sharded by group-key hash.
    shards: Box<[Shard]>,
    /// Serializes size enforcement (and hence new-group inserts on bounded
    /// LATs): the two-phase evict's coordinator lock. Keeps the occupancy
    /// invariant `rows ≤ max_rows` visible at every quiescent point.
    evict_lock: Mutex<()>,
    inserts: AtomicU64,
    evictions: AtomicU64,
    resets: AtomicU64,
    aging_rolls: AtomicU64,
    row_high_water: AtomicU64,
}

impl std::fmt::Debug for Lat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lat")
            .field("name", &self.spec.name)
            .field("columns", &self.columns)
            .field("shards", &self.shards.len())
            .field("rows", &self.row_count())
            .finish_non_exhaustive()
    }
}

impl Lat {
    pub fn new(spec: LatSpec, clock: SharedClock) -> Result<Lat> {
        spec.validate()?;
        let columns: Arc<[String]> = spec.columns().into();
        let ordering_idx = spec
            .ordering
            .iter()
            .map(|(name, desc)| {
                let idx = columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(name))
                    .expect("validated");
                (idx, *desc)
            })
            .collect();
        let resolve = |r: &AttrRef| -> Result<usize> {
            crate::objects::static_attr_index(&r.class, &r.attr).ok_or_else(|| {
                Error::Monitor(format!(
                    "class {} has no attribute {} (LAT {})",
                    r.class, r.attr, spec.name
                ))
            })
        };
        let group_attr_idx = spec
            .group_by
            .iter()
            .map(|g| resolve(&g.source))
            .collect::<Result<_>>()?;
        let agg_attr_idx = spec
            .aggregates
            .iter()
            .map(|a| a.source.as_ref().map(&resolve).transpose())
            .collect::<Result<_>>()?;
        let n_shards = spec.shard_count();
        Ok(Lat {
            spec,
            clock,
            columns,
            ordering_idx,
            group_attr_idx,
            agg_attr_idx,
            shards: (0..n_shards).map(|_| Shard::new()).collect(),
            evict_lock: Mutex::new(()),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            aging_rolls: AtomicU64::new(0),
            row_high_water: AtomicU64::new(0),
        })
    }

    /// Output column names (shared with evicted-row objects).
    pub fn columns(&self) -> Arc<[String]> {
        self.columns.clone()
    }

    /// Which shard owns a group key.
    fn shard_of(&self, key: &[Value]) -> &Shard {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Number of row-map shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total shard-lock contention events since creation (fast-path `try_*`
    /// acquisitions that found the lock held and had to block).
    pub fn lock_contentions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.contentions.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-shard occupancy and contention snapshot.
    pub fn shard_stats(&self) -> Vec<LatShardStats> {
        self.shards
            .iter()
            .map(|s| LatShardStats {
                rows: s.read().len(),
                contentions: s.contentions.load(Ordering::Relaxed),
            })
            .collect()
    }

    pub fn row_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn stats(&self) -> LatStats {
        LatStats {
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            aging_rolls: self.aging_rolls.load(Ordering::Relaxed),
            row_high_water: self.row_high_water.load(Ordering::Relaxed),
        }
    }

    /// Approximate bytes held (group keys + aggregate states), summed over the
    /// per-shard accounts.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bytes()).sum()
    }

    /// Extract this LAT's grouping key from an object (`None` if the object
    /// lacks an attribute).
    pub fn group_key_of(&self, obj: &Object) -> Option<Vec<Value>> {
        self.group_attr_idx
            .iter()
            .map(|&i| obj.values().get(i).cloned())
            .collect()
    }

    /// Insert (or fold) an object into the LAT — the `Insert(LATName)` action.
    /// Returns rows evicted by the size bound, already materialized.
    pub fn insert(&self, obj: &Object) -> Result<Vec<Vec<Value>>> {
        self.insert_and(obj, true)
    }

    /// Like [`Lat::insert`], but with eviction-victim materialization optional:
    /// when no rule subscribes to this LAT's eviction event, the victims'
    /// output rows (which clone text attributes) need not be built.
    pub fn insert_and(&self, obj: &Object, want_evicted: bool) -> Result<Vec<Vec<Value>>> {
        let now = self.clock.now_micros();
        let key = self.group_key_of(obj).ok_or_else(|| {
            Error::Monitor(format!(
                "object of class {} lacks grouping attributes for LAT {}",
                obj.class, self.spec.name
            ))
        })?;
        let shard = self.shard_of(&key);
        // Fast path: existing group, shared shard lock + row latch. Probes
        // touching different groups land on different shards and different row
        // latches, so they never contend on an exclusive lock.
        {
            let rows = shard.read();
            if let Some(row) = rows.get(&key) {
                let mut row = row.lock();
                self.update_row(&mut row, obj, now)?;
                self.inserts.fetch_add(1, Ordering::Relaxed);
                return Ok(Vec::new());
            }
        }
        // New group. On a bounded LAT the coordinator lock serializes map
        // growth with two-phase eviction, so the occupancy bound holds at
        // every quiescent point (row high-water never exceeds `max_rows`).
        let bounded = self.spec.max_rows.is_some() || self.spec.max_bytes.is_some();
        let _coord = if bounded {
            Some(self.evict_lock.lock())
        } else {
            None
        };
        let created = {
            let mut rows = shard.write();
            match rows.entry(key) {
                // Raced with another creator of the same group: fold in and
                // return. Updating an existing group never evicts (§3.2.4's
                // eviction event fires only when a row is truly discarded).
                Entry::Occupied(e) => {
                    let mut row = e.get().lock();
                    self.update_row(&mut row, obj, now)?;
                    false
                }
                Entry::Vacant(e) => {
                    let mut row = LatRow {
                        group: e.key().clone(),
                        aggs: self
                            .spec
                            .aggregates
                            .iter()
                            .map(|a| match &a.aging {
                                Some(ag) => ColumnState::Aging(AgingState::new(a.func, *ag)),
                                None => ColumnState::Plain(AggState::new(a.func)),
                            })
                            .collect(),
                    };
                    // Fold before publishing: a failed update leaves no row.
                    self.update_row(&mut row, obj, now)?;
                    e.insert(Arc::new(Mutex::new(row)));
                    true
                }
            }
        };
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if !created {
            return Ok(Vec::new());
        }
        let evicted = if bounded {
            self.enforce_size(now, want_evicted)
        } else {
            Vec::new()
        };
        // High water records post-enforcement occupancy; on a bounded LAT the
        // coordinator lock is still held here, so the count is exact.
        self.row_high_water
            .fetch_max(self.row_count() as u64, Ordering::Relaxed);
        Ok(evicted)
    }

    fn update_row(&self, row: &mut LatRow, obj: &Object, now: Timestamp) -> Result<()> {
        for (state, idx) in row.aggs.iter_mut().zip(&self.agg_attr_idx) {
            let v = match idx {
                // COUNT with no source counts objects.
                None => None,
                Some(i) => Some(obj.values().get(*i).ok_or_else(|| {
                    Error::Monitor(format!(
                        "object of class {} is too short for LAT {}",
                        obj.class, self.spec.name
                    ))
                })?),
            };
            if state.update(v, now)? {
                self.aging_rolls.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Two-phase global eviction while over the row/byte bound; returns
    /// evicted output rows. Callers hold `evict_lock`, which serializes this
    /// with other new-group inserts — at most one shard lock is held at any
    /// instant, so probe fast paths on other shards keep flowing.
    fn enforce_size(&self, now: Timestamp, want_evicted: bool) -> Vec<Vec<Value>> {
        let mut evicted = Vec::new();
        loop {
            let total_rows = self.row_count();
            let over_rows = self.spec.max_rows.is_some_and(|m| total_rows > m);
            let over_bytes = self.spec.max_bytes.is_some_and(|m| self.memory_bytes() > m);
            if !(over_rows || over_bytes) {
                break;
            }
            if total_rows <= 1 {
                break; // never evict the last row — it is the one being inserted
            }
            // Phase 1: each shard nominates its local minimum under the
            // ordering spec ("SQLCM automatically discards the row(s) …
            // having smallest value of the ordering columns", §4.3; no
            // ordering spec falls back to an arbitrary victim). Only the
            // ordering-column values are materialized for the scan.
            let mut nominees = Vec::with_capacity(self.shards.len());
            for (si, shard) in self.shards.iter().enumerate() {
                let rows = shard.read();
                if let Some((k, ok)) = rows
                    .iter()
                    .map(|(k, r)| (k, self.ordering_key(&r.lock(), now)))
                    .min_by(|(_, a), (_, b)| self.cmp_ordering_keys(a, b))
                    .map(|(k, ok)| (k.clone(), ok))
                {
                    nominees.push((si, k, ok));
                }
            }
            // Phase 2: the coordinator picks the globally worst nominee and
            // removes it from its owning shard.
            let victim = nominees
                .into_iter()
                .min_by(|(_, _, a), (_, _, b)| self.cmp_ordering_keys(a, b));
            match victim {
                Some((si, key, _)) => {
                    // `remove` can miss if a concurrent `reset` cleared the
                    // shard between phases; the loop re-checks the bound.
                    if let Some(row) = self.shards[si].write().remove(&key) {
                        if want_evicted {
                            evicted.push(row.lock().output(now));
                        }
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
        evicted
    }

    /// Importance comparison per the ordering spec: for a DESC column bigger is
    /// more important (evict smallest); for ASC smaller is more important.
    fn cmp_importance(&self, a: &[Value], b: &[Value]) -> std::cmp::Ordering {
        for (idx, desc) in &self.ordering_idx {
            let ord = a[*idx].cmp(&b[*idx]);
            let ord = if *desc { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Just the ordering-column values of a row (cheap victim-scan key).
    fn ordering_key(&self, row: &LatRow, now: Timestamp) -> Vec<Value> {
        let n_group = self.spec.group_by.len();
        self.ordering_idx
            .iter()
            .map(|(idx, _)| {
                if *idx < n_group {
                    row.group[*idx].clone()
                } else {
                    row.aggs[*idx - n_group].finish(now)
                }
            })
            .collect()
    }

    /// Compare two [`Lat::ordering_key`] outputs (positionally aligned with
    /// `ordering_idx`, so desc flags apply by position).
    fn cmp_ordering_keys(&self, a: &[Value], b: &[Value]) -> std::cmp::Ordering {
        for (pos, (_, desc)) in self.ordering_idx.iter().enumerate() {
            let ord = a[pos].cmp(&b[pos]);
            let ord = if *desc { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Look up the row whose grouping columns match `obj` (the rule engine's
    /// implicit-∃ binding, §5.2). Returns the materialized output row.
    pub fn lookup_for(&self, obj: &Object) -> Option<Vec<Value>> {
        let key = self.group_key_of(obj)?;
        let now = self.clock.now_micros();
        let rows = self.shard_of(&key).read();
        rows.get(&key).map(|r| r.lock().output(now))
    }

    /// Resolve a LAT column name to its position.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Materialize all rows (order unspecified). All shard read locks are
    /// acquired (in index order) before any row is materialized, so the
    /// snapshot is a consistent cross-shard view: no concurrent new-group
    /// insert, eviction, or reset can interleave mid-iteration.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        let now = self.clock.now_micros();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        guards
            .iter()
            .flat_map(|g| g.values().map(|r| r.lock().output(now)))
            .collect()
    }

    /// Materialize all rows sorted by the ordering spec, most important first.
    pub fn rows_ordered(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows();
        rows.sort_by(|a, b| self.cmp_importance(a, b).reverse());
        rows
    }

    /// `Reset(LATName)`: clear contents and free memory. All shard write
    /// locks are held (acquired in index order) before the first shard is
    /// cleared, so observers never see a partially reset table.
    pub fn reset(&self) {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        for g in guards.iter_mut() {
            g.clear();
        }
        self.resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Seed a row from persisted values (LAT restore at startup, §4.3). AVG and
    /// STDEV are re-seeded with weight `seed_count` (exact when the LAT also
    /// persisted its COUNT; weight 1 otherwise).
    pub fn seed_row(&self, values: &[Value], seed_count: i64) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(Error::Monitor(format!(
                "LAT {} restore row has {} columns, expected {}",
                self.spec.name,
                values.len(),
                self.columns.len()
            )));
        }
        let n_group = self.spec.group_by.len();
        let key = values[..n_group].to_vec();
        let now = self.clock.now_micros();
        let mut aggs = Vec::with_capacity(self.spec.aggregates.len());
        for (spec, v) in self.spec.aggregates.iter().zip(&values[n_group..]) {
            let state = seed_state(spec.func, v, seed_count);
            aggs.push(match &spec.aging {
                Some(ag) => {
                    let mut s = AgingState::new(spec.func, *ag);
                    s.blocks.push_back((now - now % ag.block_micros, state));
                    ColumnState::Aging(s)
                }
                None => ColumnState::Plain(state),
            });
        }
        {
            let mut rows = self.shard_of(&key).write();
            rows.insert(
                key.clone(),
                Arc::new(Mutex::new(LatRow { group: key, aggs })),
            );
        }
        self.row_high_water
            .fetch_max(self.row_count() as u64, Ordering::Relaxed);
        Ok(())
    }
}

fn seed_state(func: LatAggFunc, v: &Value, n: i64) -> AggState {
    match func {
        LatAggFunc::Count => AggState::Count(v.as_i64().unwrap_or(0)),
        LatAggFunc::Sum => AggState::Sum {
            sum: v.as_f64().unwrap_or(0.0),
            seen: !v.is_null(),
        },
        LatAggFunc::Avg => {
            let n = n.max(1);
            AggState::Avg {
                sum: v.as_f64().unwrap_or(0.0) * n as f64,
                n: if v.is_null() { 0 } else { n },
            }
        }
        LatAggFunc::StdDev => {
            // Re-seed as n identical observations at the persisted stdev around
            // 0 mean is meaningless; seed with zero spread at the mean instead.
            let n = n.max(1);
            AggState::StdDev {
                n,
                sum: 0.0,
                sumsq: v.as_f64().map(|s| s * s * n as f64).unwrap_or(0.0),
            }
        }
        LatAggFunc::Min => AggState::Min(none_if_null(v)),
        LatAggFunc::Max => AggState::Max(none_if_null(v)),
        LatAggFunc::First => AggState::First(none_if_null(v)),
        LatAggFunc::Last => AggState::Last(none_if_null(v)),
    }
}

fn none_if_null(v: &Value) -> Option<Value> {
    if v.is_null() {
        None
    } else {
        Some(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{query_object, ClassName};
    use sqlcm_common::{ManualClock, QueryInfo};

    fn qobj(sig: i64, duration_secs: f64) -> Object {
        let mut q = QueryInfo::synthetic(1, format!("q{sig}"));
        q.logical_signature = Some(sig as u64);
        q.duration_micros = (duration_secs * 1e6) as u64;
        query_object(&q)
    }

    fn duration_lat() -> LatSpec {
        LatSpec::new("Duration_LAT")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")
            .aggregate(LatAggFunc::Count, "", "N")
            .order_by("Avg_Duration", true)
            .max_rows(100)
    }

    #[test]
    fn spec_validation() {
        assert!(duration_lat().validate().is_ok());
        assert!(LatSpec::new("x").validate().is_err(), "no grouping");
        assert!(LatSpec::new("x")
            .group_by("Query.ID", "a")
            .aggregate(LatAggFunc::Sum, "", "s")
            .validate()
            .is_err());
        assert!(LatSpec::new("x")
            .group_by("Query.ID", "a")
            .order_by("nope", true)
            .validate()
            .is_err());
        assert!(
            LatSpec::new("x")
                .group_by("Query.ID", "a")
                .group_by("Query.ID", "A")
                .validate()
                .is_err(),
            "duplicate alias"
        );
        assert!(
            LatSpec::new("x")
                .group_by("Query.ID", "a")
                .aggregate(LatAggFunc::Avg, "Transaction.Duration", "d")
                .validate()
                .is_err(),
            "mixed classes"
        );
    }

    #[test]
    fn group_and_aggregate() {
        let (clock, _) = ManualClock::shared(0);
        let lat = Lat::new(duration_lat(), clock).unwrap();
        lat.insert(&qobj(1, 2.0)).unwrap();
        lat.insert(&qobj(1, 4.0)).unwrap();
        lat.insert(&qobj(2, 10.0)).unwrap();
        assert_eq!(lat.row_count(), 2);
        let row = lat.lookup_for(&qobj(1, 0.0)).unwrap();
        assert_eq!(row[0], Value::Int(1));
        assert_eq!(row[1], Value::Float(3.0), "AVG");
        assert_eq!(row[2], Value::Int(2), "COUNT");
        assert!(lat.lookup_for(&qobj(99, 0.0)).is_none());
    }

    #[test]
    fn aging_rolls_and_row_high_water_counted() {
        let (clock, handle) = ManualClock::shared(0);
        let spec = LatSpec::new("Rolling")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .aging(1_000, 100)
            .order_by("N", true)
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        lat.insert(&qobj(1, 1.0)).unwrap(); // opens block 0
        lat.insert(&qobj(1, 1.0)).unwrap(); // same block
        handle.advance(100);
        lat.insert(&qobj(1, 1.0)).unwrap(); // rolls to block 1
        lat.insert(&qobj(2, 1.0)).unwrap(); // new group: its first block
        assert_eq!(lat.stats().aging_rolls, 3);
        assert_eq!(lat.stats().row_high_water, 2);
        // High water records post-enforcement occupancy, so it never exceeds
        // the row bound even when an insert transiently overfills the table.
        lat.insert(&qobj(3, 1.0)).unwrap();
        assert_eq!(lat.row_count(), 2);
        assert_eq!(lat.stats().row_high_water, 2);
        lat.reset();
        assert_eq!(lat.row_count(), 0);
        assert_eq!(lat.stats().row_high_water, 2, "high water survives reset");
    }

    #[test]
    fn update_of_existing_group_under_full_lat_never_evicts() {
        // Regression: folding into an existing group must not run size
        // enforcement — eviction events fire only on true evictions.
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Full")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .order_by("N", true)
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        lat.insert(&qobj(1, 1.0)).unwrap();
        lat.insert(&qobj(2, 1.0)).unwrap();
        assert_eq!(lat.row_count(), 2, "LAT is exactly full");
        for _ in 0..10 {
            let evicted = lat.insert(&qobj(1, 1.0)).unwrap();
            assert!(evicted.is_empty(), "existing-group update evicted a row");
        }
        assert_eq!(lat.stats().evictions, 0);
        assert_eq!(lat.row_count(), 2);
        // A genuinely new group does evict — exactly once.
        let evicted = lat.insert(&qobj(3, 1.0)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(lat.stats().evictions, 1);
        assert_eq!(lat.row_count(), 2);
    }

    #[test]
    fn shard_count_defaults_and_overrides() {
        let (clock, _) = ManualClock::shared(0);
        let base = || {
            LatSpec::new("Sharded")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
        };
        let lat = Lat::new(base(), clock.clone()).unwrap();
        assert_eq!(lat.shard_count(), DEFAULT_LAT_SHARDS);
        let lat = Lat::new(base().shards(4), clock.clone()).unwrap();
        assert_eq!(lat.shard_count(), 4);
        assert_eq!(lat.shard_stats().len(), 4);
        assert_eq!(lat.lock_contentions(), 0);
        assert!(Lat::new(base().shards(0), clock.clone()).is_err());
        assert!(Lat::new(base().shards(MAX_LAT_SHARDS + 1), clock).is_err());
    }

    #[test]
    fn rows_spread_across_shards_and_single_shard_still_works() {
        let (clock, _) = ManualClock::shared(0);
        for n_shards in [1, 3, 16] {
            let spec = LatSpec::new("Spread")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .shards(n_shards);
            let lat = Lat::new(spec, clock.clone()).unwrap();
            for sig in 0..64 {
                lat.insert(&qobj(sig, 1.0)).unwrap();
            }
            assert_eq!(lat.row_count(), 64);
            assert_eq!(lat.rows().len(), 64);
            let per_shard: usize = lat.shard_stats().iter().map(|s| s.rows).sum();
            assert_eq!(per_shard, 64);
            if n_shards > 1 {
                let occupied = lat.shard_stats().iter().filter(|s| s.rows > 0).count();
                assert!(occupied > 1, "hash should spread 64 groups over shards");
            }
        }
    }

    #[test]
    fn topk_eviction_by_ordering() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Top3")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(3);
        let lat = Lat::new(spec, clock).unwrap();
        for (sig, d) in [(1, 5.0), (2, 1.0), (3, 9.0), (4, 3.0), (5, 7.0)] {
            lat.insert(&qobj(sig, d)).unwrap();
        }
        assert_eq!(lat.row_count(), 3);
        let rows = lat.rows_ordered();
        let durations: Vec<f64> = rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert_eq!(durations, vec![9.0, 7.0, 5.0], "top-3 by duration kept");
        assert_eq!(lat.stats().evictions, 2);
    }

    #[test]
    fn ascending_order_keeps_smallest() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Bottom2")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Min, "Query.Duration", "D")
            .order_by("D", false)
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        for (sig, d) in [(1, 5.0), (2, 1.0), (3, 9.0)] {
            lat.insert(&qobj(sig, d)).unwrap();
        }
        let rows = lat.rows_ordered();
        let d: Vec<f64> = rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert_eq!(d, vec![1.0, 5.0]);
    }

    #[test]
    fn eviction_returns_evicted_rows() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("T")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(1);
        let lat = Lat::new(spec, clock).unwrap();
        assert!(lat.insert(&qobj(1, 5.0)).unwrap().is_empty());
        let evicted = lat.insert(&qobj(2, 9.0)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0][0], Value::Int(1), "smaller row evicted");
    }

    #[test]
    fn min_max_first_last() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("T")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Min, "Query.Duration", "mn")
            .aggregate(LatAggFunc::Max, "Query.Duration", "mx")
            .aggregate(LatAggFunc::First, "Query.Query_Text", "first_text")
            .aggregate(LatAggFunc::Last, "Query.Query_Text", "last_text");
        let lat = Lat::new(spec, clock).unwrap();
        let mut q1 = QueryInfo::synthetic(1, "first");
        q1.logical_signature = Some(1);
        q1.duration_micros = 3_000_000;
        let mut q2 = QueryInfo::synthetic(2, "second");
        q2.logical_signature = Some(1);
        q2.duration_micros = 1_000_000;
        lat.insert(&query_object(&q1)).unwrap();
        lat.insert(&query_object(&q2)).unwrap();
        let row = lat.lookup_for(&query_object(&q1)).unwrap();
        assert_eq!(row[1], Value::Float(1.0));
        assert_eq!(row[2], Value::Float(3.0));
        assert_eq!(row[3], Value::text("first"));
        assert_eq!(row[4], Value::text("second"));
    }

    #[test]
    fn stdev_matches_naive() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("T")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::StdDev, "Query.Duration", "sd");
        let lat = Lat::new(spec, clock).unwrap();
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for d in data {
            lat.insert(&qobj(1, d)).unwrap();
        }
        let row = lat.lookup_for(&qobj(1, 0.0)).unwrap();
        // Population stdev of the classic example = 2.0.
        assert!((row[1].as_f64().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn aging_window_drops_old_blocks() {
        let (clock, handle) = ManualClock::shared(0);
        let spec = LatSpec::new("T")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Sum, "Query.Duration", "s")
            .aging(10_000_000, 1_000_000); // 10 s window, 1 s blocks
        let lat = Lat::new(spec, clock).unwrap();
        lat.insert(&qobj(1, 1.0)).unwrap(); // t = 0
        handle.advance(5_000_000);
        lat.insert(&qobj(1, 2.0)).unwrap(); // t = 5 s
        let row = lat.lookup_for(&qobj(1, 0.0)).unwrap();
        assert_eq!(row[1], Value::Float(3.0), "both in window");
        handle.advance(7_000_000); // now 12 s: first block fully expired
        let row = lat.lookup_for(&qobj(1, 0.0)).unwrap();
        assert_eq!(row[1], Value::Float(2.0));
        handle.advance(10_000_000); // everything expired
        let row = lat.lookup_for(&qobj(1, 0.0)).unwrap();
        assert_eq!(row[1], Value::Null);
    }

    #[test]
    fn aging_avg_over_window() {
        let (clock, handle) = ManualClock::shared(0);
        let spec = LatSpec::new("T")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "avg")
            .aging(4_000_000, 1_000_000);
        let lat = Lat::new(spec, clock).unwrap();
        for d in [10.0, 20.0, 30.0] {
            lat.insert(&qobj(1, d)).unwrap();
            handle.advance(2_000_000);
        }
        // now = 6 s; window [2, 6]; 10.0 inserted at t=0 in block [0,1) expired;
        // 20.0 at t=2 (block [2,3)) and 30.0 at t=4 remain.
        let row = lat.lookup_for(&qobj(1, 0.0)).unwrap();
        assert_eq!(row[1], Value::Float(25.0));
    }

    #[test]
    fn aging_storage_bounded_by_blocks() {
        let (clock, handle) = ManualClock::shared(0);
        let spec = LatSpec::new("T")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Sum, "Query.Duration", "s")
            .aging(10_000_000, 1_000_000);
        let lat = Lat::new(spec, clock).unwrap();
        // Insert for 100 s; the deque must stay ≈ window/block = 10-11 blocks.
        for _ in 0..100 {
            lat.insert(&qobj(1, 1.0)).unwrap();
            handle.advance(1_000_000);
        }
        let bytes = lat.memory_bytes();
        // 11 blocks * ~50 B each plus row overhead — comfortably under 2 KiB,
        // i.e. the 2t/Δ bound, not 100 blocks.
        assert!(bytes < 2048, "memory {bytes} should be bounded by window");
    }

    #[test]
    fn reset_clears() {
        let (clock, _) = ManualClock::shared(0);
        let lat = Lat::new(duration_lat(), clock).unwrap();
        lat.insert(&qobj(1, 1.0)).unwrap();
        lat.reset();
        assert_eq!(lat.row_count(), 0);
        assert_eq!(lat.stats().resets, 1);
    }

    #[test]
    fn max_bytes_bound() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("T")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Last, "Query.Query_Text", "txt")
            .order_by("Sig", true)
            .max_bytes(1000);
        let lat = Lat::new(spec, clock).unwrap();
        for sig in 0..100 {
            lat.insert(&qobj(sig, 1.0)).unwrap();
        }
        assert!(lat.memory_bytes() <= 1400, "near the byte bound");
        assert!(lat.row_count() < 100);
        assert!(lat.stats().evictions > 0);
    }

    #[test]
    fn seed_restores_values() {
        let (clock, _) = ManualClock::shared(0);
        let lat = Lat::new(duration_lat(), clock).unwrap();
        lat.seed_row(&[Value::Int(5), Value::Float(4.0), Value::Int(10)], 10)
            .unwrap();
        let row = lat.lookup_for(&qobj(5, 0.0)).unwrap();
        assert_eq!(row[1], Value::Float(4.0));
        assert_eq!(row[2], Value::Int(10));
        // Further inserts fold in with the seeded weight.
        lat.insert(&qobj(5, 15.0)).unwrap();
        let row = lat.lookup_for(&qobj(5, 0.0)).unwrap();
        assert_eq!(row[1], Value::Float((4.0 * 10.0 + 15.0) / 11.0));
        assert!(lat.seed_row(&[Value::Int(1)], 1).is_err(), "arity checked");
    }

    #[test]
    fn concurrent_inserts_are_consistent() {
        let clock = sqlcm_common::SystemClock::shared();
        let lat = std::sync::Arc::new(Lat::new(duration_lat(), clock).unwrap());
        let threads = 8;
        let per = 500;
        let mut handles = vec![];
        for t in 0..threads {
            let lat = lat.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    // Half the inserts share group 0 (hot row), rest spread out.
                    let sig = if i % 2 == 0 {
                        0
                    } else {
                        (t * per + i) as i64 % 50
                    };
                    lat.insert(&qobj(sig, 1.0)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: i64 = lat.rows().iter().map(|r| r[2].as_i64().unwrap()).sum();
        assert_eq!(total, (threads * per) as i64, "no lost updates");
        assert_eq!(lat.stats().inserts, (threads * per) as u64);
    }

    #[test]
    fn source_class_accessor() {
        assert_eq!(*duration_lat().source_class(), ClassName::Query);
    }
}
