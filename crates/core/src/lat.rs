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
//! Concurrency: the row map is **sharded** by group-key hash (one keyed
//! `RandomState` per LAT — group keys are user-controlled text) into a fixed
//! 16 independently locked shards; each row additionally has its own latch.
//! Probe threads folding different groups therefore touch different locks
//! entirely — mirroring (and extending) the paper's fine-grained latching
//! ("each LAT row as well as … the hash table are protected through
//! latches"). A row's group
//! key is stored once, in the row, beside the 64-bit hash the LAT's keyed
//! `RandomState` gives it; the shard map and the victim index hold `Arc`
//! handles to the row. Every insert, lookup and restore hashes its key once —
//! read in place from the monitored object, whatever the number of grouping
//! columns — and that hash does the rest: bits 32–35 pick the shard (the
//! tables take buckets from the low bits and tags from the top seven, so
//! these are free), and the shard tables, whose hasher passes a stored hash
//! through, are probed with a borrowed `(hash, values)` key and drop an
//! evicted row without hashing at all. Occupancy is one atomic counter,
//! adjusted under the shard write lock that adds or removes the row.
//!
//! # Victim index
//!
//! The evicted row must be the *globally* least important one under the
//! ordering spec (§3.2.4). A bounded LAT keeps its rows filed in an ordered
//! index owned by the **coordinator** — whoever holds `evict_lock`, which every
//! new-group insert, `seed_row` and `reset` on a bounded LAT takes — so eviction
//! pops the minimum instead of scanning. The ordering spec is classified once,
//! at [`Lat::new`]:
//!
//! * **fixed** — every ordering column is a grouping column (or there is no
//!   ordering spec: any row may go). A row's rank never changes: the creator
//!   files it, the evictor pops it, a fold never touches the index.
//! * **folded** — some ordering column is a plain aggregate (`MAX(Duration)`,
//!   `COUNT`, `AVG`, …). The creator files the row once it is in the shard
//!   map, reading its key and setting its `filed` flag in one step under the
//!   row latch; the first later fold that moves the key marks the row dirty
//!   under the row latch it already holds and queues it (once, with the key
//!   it is still filed under) on a small side queue. The evictor re-files
//!   queued rows before it pops, so a fold never takes `evict_lock`. The
//!   filed key lives only in the index entry, squeezed into 16 bytes when it
//!   is one number.
//! * **clocked** — some ordering column is an *aging* aggregate, whose value
//!   decays with the clock even when nothing folds, so no filed key stays
//!   valid. These LATs keep the one O(n) path: the evictor scans every row,
//!   comparing against the running best in place.
//!
//! Lock order: `evict_lock` → shard lock → row latch → dirty queue. `reset`
//! and snapshot/iteration acquire all shard locks in index order, presenting
//! one consistent point-in-time view; `reset` on a bounded LAT holds
//! `evict_lock` too, so map, index and occupancy are cleared together.
//! `max_bytes` enforcement still sums [`Lat::memory_bytes`] per new group.
//!
//! # Spare row
//!
//! The coordinator keeps the last row it evicted as a *spare*, emptied of its
//! values, and builds the next new group in it: a full LAT that evicts on
//! every new group allocates nothing for it. A victim that anything else
//! still holds — a *folded* LAT's dirty queue — is not kept, and `reset`
//! drops the spare.
//!
//! The A3 and T3 benches stress this; `ReferenceLat` (see [`crate::lat_ref`])
//! is a deliberately naive single-lock implementation used as a differential
//! oracle for the sharded one.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sqlcm_common::{Error, Result, SharedClock, Timestamp, Value};
use sqlcm_telemetry::ShardedCounter;

use crate::objects::Object;

/// Independently locked row-map shards per LAT.
const LAT_SHARDS: usize = 16;

/// The LAT specification is declared once, in the analyzer crate.
pub use sqlcm_analyze::{AggColumn, AgingSpec, AttrRef, GroupColumn, LatAggFunc, LatSpec};

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
            // A value stamped before the newest block started — a fold that
            // read the clock before a concurrent one rolled the block — joins
            // the newest block, keeping the deque ordered by start.
            Some((start, state)) if *start >= block_start => {
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

/// One or more values, held inline in the (universal) one-column case: a
/// row's group key then costs no heap allocation of its own.
#[derive(PartialEq, Eq)]
enum Key {
    One(Value),
    Many(Box<[Value]>),
}

impl Key {
    fn from_slice(values: &[Value]) -> Key {
        match values {
            [v] => Key::One(v.clone()),
            vs => Key::Many(vs.into()),
        }
    }

    /// `n` NULLs, overwritten in place when the row is given its group.
    fn blank(n: usize) -> Key {
        match n {
            1 => Key::One(Value::Null),
            n => Key::Many(vec![Value::Null; n].into()),
        }
    }

    fn as_slice(&self) -> &[Value] {
        match self {
            Key::One(v) => std::slice::from_ref(v),
            Key::Many(vs) => vs,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Value] {
        match self {
            Key::One(v) => std::slice::from_mut(v),
            Key::Many(vs) => vs,
        }
    }

    fn size_bytes(&self) -> usize {
        self.as_slice().iter().map(Value::size_bytes).sum()
    }
}

/// One LAT row. The group key and its hash are immutable while the row is in
/// the map and live outside the latch, so the shard map and the victim index
/// hash and compare them without locking.
struct Row {
    /// The LAT's keyed hash of `group`: the shard tables file the row under
    /// it, and its bits 32–35 name the owning shard.
    hash: u64,
    group: Key,
    /// The LAT's ordering spec: index entries rank themselves through their
    /// row, so their `Ord` needs no context and they carry no copy of it.
    order: OrderSpec,
    state: Mutex<RowState>,
}

/// The latched part of a row.
struct RowState {
    aggs: Vec<ColumnState>,
    /// *Folded* LATs: the row has an entry in the victim index, under the
    /// ordering key it had when it was last filed. Set by the coordinator when
    /// it files the row; false before that, once the row has left the index,
    /// and on every other LAT.
    filed: bool,
    /// A fold moved the ordering key away from the filed one; the row sits on
    /// the dirty queue (exactly once) until the evictor re-files it.
    dirty: bool,
}

impl Row {
    fn size_bytes(&self) -> usize {
        let state = self.state.lock();
        let aggs = state.aggs.iter().map(ColumnState::size_bytes);
        self.group.size_bytes() + aggs.sum::<usize>() + 48
    }

    fn output(&self, state: &RowState, now: Timestamp) -> Vec<Value> {
        let group = self.group.as_slice();
        let mut out = Vec::with_capacity(group.len() + state.aggs.len());
        out.extend_from_slice(group);
        out.extend(state.aggs.iter().map(|a| a.finish(now)));
        out
    }
}

/// A group key as the shard tables see it: the hash the LAT gave it, and its
/// values. A row is one, and so is a key read in place from a monitored
/// object, so the tables are probed without building an owned key.
trait GroupKey {
    fn stored_hash(&self) -> u64;
    fn arity(&self) -> usize;
    fn at(&self, i: usize) -> &Value;
}

impl Hash for dyn GroupKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.stored_hash());
    }
}

impl PartialEq for dyn GroupKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        let n = self.arity();
        self.stored_hash() == other.stored_hash()
            && n == other.arity()
            && (0..n).all(|i| self.at(i) == other.at(i))
    }
}

impl Eq for dyn GroupKey + '_ {}

impl GroupKey for Row {
    fn stored_hash(&self) -> u64 {
        self.hash
    }

    fn arity(&self) -> usize {
        self.group.as_slice().len()
    }

    fn at(&self, i: usize) -> &Value {
        &self.group.as_slice()[i]
    }
}

/// A monitored object's group key, read in place: `values[idx[i]]` is its
/// `i`-th column.
struct Probe<'a> {
    hash: u64,
    values: &'a [Value],
    idx: &'a [usize],
}

impl GroupKey for Probe<'_> {
    fn stored_hash(&self) -> u64 {
        self.hash
    }

    fn arity(&self) -> usize {
        self.idx.len()
    }

    fn at(&self, i: usize) -> &Value {
        &self.values[self.idx[i]]
    }
}

/// A shard-map entry: the row itself, hashed and compared as a [`GroupKey`].
struct RowRef(Arc<Row>);

impl<'a> Borrow<dyn GroupKey + 'a> for RowRef {
    fn borrow(&self) -> &(dyn GroupKey + 'a) {
        &*self.0
    }
}

impl Hash for RowRef {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PartialEq for RowRef {
    fn eq(&self, other: &RowRef) -> bool {
        let (a, b): (&dyn GroupKey, &dyn GroupKey) = (&*self.0, &*other.0);
        a == b
    }
}

impl Eq for RowRef {}

/// The shard tables' hasher. A key writes one `u64`, its stored hash — keyed
/// by the LAT's `RandomState` — and that is the hash: the tables never hash a
/// key themselves.
#[derive(Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("shard-table keys write only their stored hash")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

type RowSet = HashSet<RowRef, BuildHasherDefault<StoredHash>>;

/// The ordering spec resolved against the output columns: (column position,
/// descending?). One allocation per LAT, one thin handle per row.
type OrderSpec = Arc<Vec<(usize, bool)>>;

/// Importance comparison per the ordering spec, column by column: on a DESC
/// column the bigger value is more important (the smallest is evicted first);
/// on ASC, the smaller. `pick(pos, col)` yields the two sides' values for the
/// `pos`-th ordering column, which is output column `col`.
fn cmp_importance<'a>(
    order: &[(usize, bool)],
    pick: impl Fn(usize, usize) -> (&'a Value, &'a Value),
) -> std::cmp::Ordering {
    for (pos, &(col, desc)) in order.iter().enumerate() {
        let (a, b) = pick(pos, col);
        let ord = if desc { a.cmp(b) } else { b.cmp(a) };
        if ord.is_ne() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// *Fixed*-class index entry: ranked by the row's own group values. Ties (and
/// a missing ordering spec) fall back to the whole group key, which is unique.
struct ByGroup {
    row: Arc<Row>,
}

impl Ord for ByGroup {
    fn cmp(&self, other: &ByGroup) -> std::cmp::Ordering {
        let (a, b) = (self.row.group.as_slice(), other.row.group.as_slice());
        cmp_importance(&self.row.order, |_, col| (&a[col], &b[col])).then_with(|| a.cmp(b))
    }
}

/// The ordering-column values a *folded* row is filed under, in 16 bytes when
/// they are one number (`COUNT`, `MAX(Duration)`, `AVG`, a timestamp, …) and
/// boxed otherwise. Compares exactly as the values themselves do.
enum Rank {
    Int(i64),
    Float(f64),
    Timestamp(u64),
    Boxed(Box<Key>),
}

impl Rank {
    fn new(key: Key) -> Rank {
        match key {
            Key::One(Value::Int(i)) => Rank::Int(i),
            Key::One(Value::Float(x)) => Rank::Float(x),
            Key::One(Value::Timestamp(t)) => Rank::Timestamp(t),
            key => Rank::Boxed(Box::new(key)),
        }
    }

    /// Run `f` on the values, positionally aligned with the ordering spec.
    fn with_values<R>(&self, f: impl FnOnce(&[Value]) -> R) -> R {
        match self {
            Rank::Int(i) => f(&[Value::Int(*i)]),
            Rank::Float(x) => f(&[Value::Float(*x)]),
            Rank::Timestamp(t) => f(&[Value::Timestamp(*t)]),
            Rank::Boxed(key) => f(key.as_slice()),
        }
    }

    /// Heap bytes behind the 16 inline ones.
    fn boxed_bytes(&self) -> usize {
        match self {
            Rank::Boxed(key) => std::mem::size_of::<Key>() + key.size_bytes(),
            _ => 0,
        }
    }
}

/// *Folded*-class index entry: ranked by the ordering-column values the row
/// had when it was filed. The row itself keeps no copy. Equal ranks fall back
/// to the group key, larger first: where keys grow over time (query IDs,
/// timestamps) an incumbent outlives a newcomer that only ties it, which is
/// also what a stable sort of the full log answers.
struct ByRank {
    rank: Rank,
    row: Arc<Row>,
}

impl Ord for ByRank {
    fn cmp(&self, other: &ByRank) -> std::cmp::Ordering {
        let by_rank = self.rank.with_values(|a| {
            other
                .rank
                .with_values(|b| cmp_importance(&self.row.order, |pos, _| (&a[pos], &b[pos])))
        });
        by_rank.then_with(|| other.row.group.as_slice().cmp(self.row.group.as_slice()))
    }
}

macro_rules! eq_from_ord {
    ($($t:ty),*) => {$(
        impl PartialOrd for $t {
            fn partial_cmp(&self, other: &$t) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl PartialEq for $t {
            fn eq(&self, other: &$t) -> bool {
                self.cmp(other).is_eq()
            }
        }
        impl Eq for $t {}
    )*};
}
eq_from_ord!(ByGroup, ByRank);

/// How a LAT picks its eviction victim (see the module docs). Sorted least
/// important first, so the victim is `pop_first`.
enum VictimIndex {
    Fixed(BTreeSet<ByGroup>),
    Folded(BTreeSet<ByRank>),
    /// *Clocked* LATs scan; unbounded LATs never evict.
    Scan,
}

impl VictimIndex {
    #[cfg(test)]
    fn len(&self) -> usize {
        match self {
            VictimIndex::Fixed(set) => set.len(),
            VictimIndex::Folded(set) => set.len(),
            VictimIndex::Scan => 0,
        }
    }

    fn clear(&mut self) {
        match self {
            VictimIndex::Fixed(set) => set.clear(),
            VictimIndex::Folded(set) => set.clear(),
            VictimIndex::Scan => {}
        }
    }
}

/// What `evict_lock` guards.
struct Coordinator {
    index: VictimIndex,
    /// Heap bytes behind the *folded* entries' boxed ranks, adjusted with
    /// every entry that enters or leaves the index.
    boxed_bytes: usize,
    /// Dirty rows taken off the queue for re-filing; swapped with the queue so
    /// both keep their capacity.
    refile: Vec<(Rank, Arc<Row>)>,
    /// The last row evicted, held by nothing else and emptied of its values:
    /// the next new group is built in it (module docs, "Spare row").
    spare: Option<Arc<Row>>,
}

impl Coordinator {
    /// Approximate bytes of the index itself, in O(1): its entries, plus
    /// whatever the *folded* entries' filed keys hold on the heap.
    fn index_bytes(&self) -> usize {
        match &self.index {
            VictimIndex::Fixed(set) => set.len() * std::mem::size_of::<ByGroup>(),
            VictimIndex::Folded(set) => {
                set.len() * std::mem::size_of::<ByRank>() + self.boxed_bytes
            }
            VictimIndex::Scan => 0,
        }
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
    /// Rows whose ordering key was (re)computed to choose eviction victims:
    /// 0 for *fixed* LATs, the rows re-filed after a key-changing fold for
    /// *folded* ones, every row per eviction for *clocked* ones.
    pub victims_examined: u64,
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
    rows: RwLock<RowSet>,
    contentions: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            rows: RwLock::new(RowSet::default()),
            contentions: AtomicU64::new(0),
        }
    }

    /// Read-lock this shard, counting contention.
    fn read(&self) -> parking_lot::RwLockReadGuard<'_, RowSet> {
        match self.rows.try_read() {
            Some(g) => g,
            None => {
                self.contentions.fetch_add(1, Ordering::Relaxed);
                self.rows.read()
            }
        }
    }

    /// Write-lock this shard, counting contention.
    fn write(&self) -> parking_lot::RwLockWriteGuard<'_, RowSet> {
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
        self.read().iter().map(|r| r.0.size_bytes()).sum()
    }
}

/// A live light-weight aggregation table.
pub struct Lat {
    pub spec: LatSpec,
    clock: SharedClock,
    columns: Arc<[String]>,
    /// Indexes of the ordering columns in `columns`, with desc flags.
    order: OrderSpec,
    /// Pre-resolved positions of the grouping attributes in the source class's
    /// value layout (compiled once; inserts avoid name matching).
    group_attr_idx: Vec<usize>,
    /// Pre-resolved positions of each aggregate's source attribute.
    agg_attr_idx: Vec<Option<usize>>,
    /// Keys every group-key hash: group keys are user-controlled text.
    hasher: RandomState,
    /// Row map, sharded by group-key hash.
    shards: Box<[Shard]>,
    /// Rows across all shards; adjusted under the shard write lock that adds
    /// or removes the row, so it equals Σ shard lengths whenever no such lock
    /// is held.
    occupancy: AtomicUsize,
    /// Has a row or byte bound, i.e. evicts.
    bounded: bool,
    /// Some aggregate is aging: the only columns whose state and value depend
    /// on *when* they are folded or read.
    ages: bool,
    /// Bounded with an aggregate (non-aging) ordering column: rows are filed
    /// under a key that folds can move.
    folded: bool,
    /// The coordinator lock: serializes new-group inserts, `seed_row` and
    /// `reset` on a bounded LAT and guards its victim index, keeping the
    /// occupancy invariant `rows ≤ max_rows` visible at every quiescent
    /// point. Never taken on an unbounded LAT, nor by any fold.
    evict_lock: Mutex<Coordinator>,
    /// *Folded* LATs: rows whose ordering key moved since they were filed,
    /// each with the key it is still filed under. Pushed under the row latch,
    /// drained by the evictor.
    dirty: Mutex<Vec<(Rank, Arc<Row>)>>,
    /// Striped by dispatcher: every insert writes it.
    inserts: ShardedCounter,
    evictions: AtomicU64,
    resets: AtomicU64,
    aging_rolls: AtomicU64,
    row_high_water: AtomicU64,
    victims_examined: AtomicU64,
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
        let order: OrderSpec = Arc::new(
            spec.ordering
                .iter()
                .map(|(name, desc)| {
                    let idx = columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(name))
                        .expect("validated");
                    (idx, *desc)
                })
                .collect(),
        );
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
        // Classify the ordering spec (module docs, "Victim index").
        let bounded = spec.bounded();
        let n_group = spec.group_by.len();
        let ordering_aggs = || {
            order
                .iter()
                .filter(|(col, _)| *col >= n_group)
                .map(|(col, _)| &spec.aggregates[*col - n_group])
        };
        let index = if !bounded || ordering_aggs().any(|a| a.aging.is_some()) {
            VictimIndex::Scan
        } else if ordering_aggs().next().is_some() {
            VictimIndex::Folded(BTreeSet::new())
        } else {
            VictimIndex::Fixed(BTreeSet::new())
        };
        let ages = spec.aggregates.iter().any(|a| a.aging.is_some());
        Ok(Lat {
            spec,
            clock,
            columns,
            order,
            group_attr_idx,
            agg_attr_idx,
            hasher: RandomState::new(),
            shards: (0..LAT_SHARDS).map(|_| Shard::new()).collect(),
            occupancy: AtomicUsize::new(0),
            bounded,
            ages,
            folded: matches!(index, VictimIndex::Folded(_)),
            evict_lock: Mutex::new(Coordinator {
                index,
                boxed_bytes: 0,
                refile: Vec::new(),
                spare: None,
            }),
            dirty: Mutex::new(Vec::new()),
            inserts: ShardedCounter::new(),
            evictions: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            aging_rolls: AtomicU64::new(0),
            row_high_water: AtomicU64::new(0),
            victims_examined: AtomicU64::new(0),
        })
    }

    /// Output column names (shared with evicted-row objects).
    pub fn columns(&self) -> Arc<[String]> {
        self.columns.clone()
    }

    /// The keyed hash of a group key: its length, then each value — the bytes
    /// `<[Value]>::hash` writes — wherever the values are read from.
    fn hash_key<'v>(&self, key: impl ExactSizeIterator<Item = &'v Value>) -> u64 {
        let mut h = self.hasher.build_hasher();
        h.write_usize(key.len());
        key.for_each(|v| v.hash(&mut h));
        h.finish()
    }

    /// The shard that owns a group-key hash, picked by bits 32–35: the shard
    /// tables take buckets from the low bits and tags from the top seven, so
    /// picking by either would leave most of every table's buckets unused.
    fn shard_of(&self, hash: u64) -> &Shard {
        &self.shards[(hash >> 32) as usize % LAT_SHARDS]
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

    /// Rows currently held. One atomic load — `Relaxed`, because the count
    /// publishes nothing: whoever acts on it (the evictor) holds `evict_lock`,
    /// under which every change to a bounded LAT's count is made.
    pub fn row_count(&self) -> usize {
        self.occupancy.load(Ordering::Relaxed)
    }

    pub fn stats(&self) -> LatStats {
        LatStats {
            inserts: self.inserts.get(),
            evictions: self.evictions.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            aging_rolls: self.aging_rolls.load(Ordering::Relaxed),
            row_high_water: self.row_high_water.load(Ordering::Relaxed),
            victims_examined: self.victims_examined.load(Ordering::Relaxed),
        }
    }

    /// Approximate bytes held: group keys and aggregate states, summed over
    /// the per-shard accounts, plus the victim index and its dirty queue.
    pub fn memory_bytes(&self) -> usize {
        // `evict_lock` before any shard lock, held for one O(1) read and
        // released before the sweep.
        let index = self.coordinator().map_or(0, |coord| coord.index_bytes());
        index + self.dirty_bytes() + self.row_bytes()
    }

    fn row_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bytes()).sum()
    }

    /// Bytes of the dirty-queue entries (*folded* LATs; at most one per row).
    fn dirty_bytes(&self) -> usize {
        if !self.folded {
            return 0;
        }
        let queued = self.dirty.lock();
        queued
            .iter()
            .map(|(was, _)| std::mem::size_of::<(Rank, Arc<Row>)>() + was.boxed_bytes())
            .sum()
    }

    /// Run `f` on this LAT's group key of `obj`, read in place and hashed
    /// once. `None` if the object lacks a grouping attribute.
    fn with_group_key<R>(&self, obj: &Object, f: impl FnOnce(&Probe) -> R) -> Option<R> {
        let values = obj.values();
        let idx = self.group_attr_idx.as_slice();
        if idx.iter().any(|&i| i >= values.len()) {
            return None;
        }
        let hash = self.hash_key(idx.iter().map(|&i| &values[i]));
        Some(f(&Probe { hash, values, idx }))
    }

    /// The time an insert or lookup folds or reads at: only aging aggregates
    /// look at it, so a LAT without one never reads its clock here.
    fn now_if_aging(&self) -> Timestamp {
        if self.ages {
            self.clock.now_micros()
        } else {
            0
        }
    }

    /// The coordinator lock, on LATs that evict.
    fn coordinator(&self) -> Option<parking_lot::MutexGuard<'_, Coordinator>> {
        self.bounded.then(|| self.evict_lock.lock())
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
        let now = self.now_if_aging();
        self.with_group_key(obj, |key| self.insert_keyed(key, obj, now, want_evicted))
            .ok_or_else(|| {
                Error::Monitor(format!(
                    "object of class {} lacks grouping attributes for LAT {}",
                    obj.class, self.spec.name
                ))
            })?
    }

    fn insert_keyed(
        &self,
        key: &Probe,
        obj: &Object,
        now: Timestamp,
        want_evicted: bool,
    ) -> Result<Vec<Vec<Value>>> {
        let shard = self.shard_of(key.hash);
        let probe: &dyn GroupKey = key;
        // Fast path: existing group, shared shard lock + row latch. Probes
        // touching different groups land on different shards and different row
        // latches, so they never contend on an exclusive lock.
        if let Some(row) = shard.read().get(probe) {
            self.fold(&row.0, obj, now)?;
            self.inserts.incr();
            return Ok(Vec::new());
        }
        // New group. On a bounded LAT the coordinator lock serializes map
        // growth with eviction, so the occupancy bound holds at every
        // quiescent point (row high-water never exceeds `max_rows`).
        let mut coord = self.coordinator();
        let created = {
            let mut rows = shard.write();
            match rows.get(probe) {
                // Raced with another creator of the same group: fold in and
                // return. Updating an existing group never evicts (§3.2.4's
                // eviction event fires only when a row is truly discarded).
                Some(row) => {
                    self.fold(&row.0, obj, now)?;
                    None
                }
                None => {
                    let spare = coord.as_deref_mut().and_then(|c| c.spare.take());
                    let row = self.create_row(spare, key, obj, now)?;
                    rows.insert(RowRef(Arc::clone(&row)));
                    self.occupancy.fetch_add(1, Ordering::Relaxed);
                    Some(row)
                }
            }
        };
        self.inserts.incr();
        let Some(row) = created else {
            return Ok(Vec::new());
        };
        let evicted = match coord.as_deref_mut() {
            Some(coord) => {
                self.file(coord, row, now);
                self.enforce_size(coord, now, want_evicted)
            }
            None => Vec::new(),
        };
        // High water records post-enforcement occupancy; on a bounded LAT the
        // coordinator lock is still held here, so the count is exact.
        self.row_high_water
            .fetch_max(self.row_count() as u64, Ordering::Relaxed);
        Ok(evicted)
    }

    /// Fold `obj` into an existing row under its latch. On a *folded* LAT the
    /// first fold that moves the ordering key away from the filed one queues
    /// the row for re-filing, with the key it is still filed under — without
    /// `evict_lock`, and without allocating when that key is one number.
    fn fold(&self, row: &Arc<Row>, obj: &Object, now: Timestamp) -> Result<()> {
        let mut state = row.state.lock();
        // A clean filed row still has the key it was filed under.
        let filed_under = (state.filed && !state.dirty)
            .then(|| self.rank_of(row.group.as_slice(), &state.aggs, now));
        // A failed update may still have folded the leading aggregates.
        let result = self.update_row(&mut state.aggs, obj, now);
        if let Some(was) = filed_under {
            if was.with_values(|was| self.key_moved(was, &state.aggs, now)) {
                state.dirty = true;
                self.dirty.lock().push((was, Arc::clone(row)));
            }
        }
        result
    }

    fn update_row(&self, aggs: &mut [ColumnState], obj: &Object, now: Timestamp) -> Result<()> {
        for (state, idx) in aggs.iter_mut().zip(&self.agg_attr_idx) {
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

    /// Every aggregate column's initial state.
    fn fresh_aggs(&self) -> impl Iterator<Item = ColumnState> + '_ {
        self.spec.aggregates.iter().map(|a| match &a.aging {
            Some(ag) => ColumnState::Aging(AgingState::new(a.func, *ag)),
            None => ColumnState::Plain(AggState::new(a.func)),
        })
    }

    /// The row of a new group, folded from `obj` before anyone can see it:
    /// built in the coordinator's spare when there is one, else allocated.
    /// A failed update drops it, so it leaves no row.
    fn create_row(
        &self,
        spare: Option<Arc<Row>>,
        key: &Probe,
        obj: &Object,
        now: Timestamp,
    ) -> Result<Arc<Row>> {
        let mut row = spare.unwrap_or_else(|| {
            let aggs = self.fresh_aggs().collect();
            self.new_row(0, Key::blank(key.idx.len()), aggs)
        });
        let fresh = Arc::get_mut(&mut row).expect("the spare row is shared with nothing");
        fresh.hash = key.hash;
        for (slot, &i) in fresh.group.as_mut_slice().iter_mut().zip(key.idx) {
            slot.clone_from(&key.values[i]);
        }
        self.update_row(&mut fresh.state.get_mut().aggs, obj, now)?;
        Ok(row)
    }

    /// Keep an evicted row as the coordinator's spare, its group key and
    /// aggregate states re-initialised in place so it holds no values — unless
    /// something else, such as a *folded* LAT's dirty queue, still holds it.
    fn retire(&self, coord: &mut Coordinator, mut row: Arc<Row>) {
        let Some(spent) = Arc::get_mut(&mut row) else {
            return;
        };
        spent.group.as_mut_slice().fill(Value::Null);
        let aggs = &mut spent.state.get_mut().aggs;
        for (agg, fresh) in aggs.iter_mut().zip(self.fresh_aggs()) {
            *agg = fresh;
        }
        coord.spare = Some(row);
    }

    /// Box up a new row, not yet in the map or the victim index.
    fn new_row(&self, hash: u64, group: Key, aggs: Vec<ColumnState>) -> Arc<Row> {
        Arc::new(Row {
            hash,
            group,
            order: Arc::clone(&self.order),
            state: Mutex::new(RowState {
                aggs,
                filed: false,
                dirty: false,
            }),
        })
    }

    /// One ordering-column value of a row.
    fn ordering_value(
        &self,
        group: &[Value],
        aggs: &[ColumnState],
        col: usize,
        now: Timestamp,
    ) -> Value {
        match col.checked_sub(group.len()) {
            None => group[col].clone(),
            Some(agg) => aggs[agg].finish(now),
        }
    }

    /// The ordering-column values of a row, positionally aligned with `order`.
    fn rank_of(&self, group: &[Value], aggs: &[ColumnState], now: Timestamp) -> Rank {
        Rank::new(match self.order.as_slice() {
            [(col, _)] => Key::One(self.ordering_value(group, aggs, *col, now)),
            order => Key::Many(
                order
                    .iter()
                    .map(|(col, _)| self.ordering_value(group, aggs, *col, now))
                    .collect(),
            ),
        })
    }

    /// Have the ordering-column values moved away from `was`? Only aggregate
    /// columns can move; nothing is allocated.
    fn key_moved(&self, was: &[Value], aggs: &[ColumnState], now: Timestamp) -> bool {
        let n_group = self.spec.group_by.len();
        self.order
            .iter()
            .zip(was)
            .any(|(&(col, _), was)| col >= n_group && aggs[col - n_group].finish(now) != *was)
    }

    /// File a row in the victim index (the caller holds `evict_lock`). The
    /// row is already in the shard map, so folds may have reached it: a
    /// *folded* row is ranked and marked `filed` in one step under its latch,
    /// which means no fold queues a row that has no index entry yet, and the
    /// first fold that does queue it names exactly the key it is filed under.
    fn file(&self, coord: &mut Coordinator, row: Arc<Row>, now: Timestamp) {
        match &mut coord.index {
            VictimIndex::Fixed(set) => {
                set.insert(ByGroup { row });
            }
            VictimIndex::Folded(set) => {
                let rank = {
                    let mut state = row.state.lock();
                    state.filed = true;
                    self.rank_of(row.group.as_slice(), &state.aggs, now)
                };
                coord.boxed_bytes += rank.boxed_bytes();
                set.insert(ByRank { rank, row });
            }
            VictimIndex::Scan => {}
        }
    }

    /// Take a row that has left the map out of the victim index (the caller
    /// holds `evict_lock`).
    fn unfile(&self, coord: &mut Coordinator, row: &Arc<Row>, now: Timestamp) {
        // Afterwards every filed row sits under its current key.
        self.refile_dirty(coord, now);
        match &mut coord.index {
            VictimIndex::Fixed(set) => {
                set.remove(&ByGroup {
                    row: Arc::clone(row),
                });
            }
            VictimIndex::Folded(set) => {
                let mut state = row.state.lock();
                state.filed = false;
                let rank = self.rank_of(row.group.as_slice(), &state.aggs, now);
                let entry = ByRank {
                    rank,
                    row: Arc::clone(row),
                };
                if let Some(gone) = set.take(&entry) {
                    coord.boxed_bytes -= gone.rank.boxed_bytes();
                }
            }
            VictimIndex::Scan => {}
        }
    }

    /// Evict while over the row/byte bound; returns the evicted output rows.
    /// The caller holds `evict_lock` (it passes the guarded coordinator), which
    /// serializes this with other new-group inserts — at most one shard lock
    /// is held at any instant, so probe fast paths on other shards keep
    /// flowing.
    fn enforce_size(
        &self,
        coord: &mut Coordinator,
        now: Timestamp,
        want_evicted: bool,
    ) -> Vec<Vec<Value>> {
        let mut evicted = Vec::new();
        loop {
            let total_rows = self.occupancy.load(Ordering::Relaxed);
            let over_rows = self.spec.max_rows.is_some_and(|m| total_rows > m);
            let over_bytes = self
                .spec
                .max_bytes
                .is_some_and(|m| coord.index_bytes() + self.dirty_bytes() + self.row_bytes() > m);
            if !(over_rows || over_bytes) {
                break;
            }
            if total_rows <= 1 {
                break; // never evict the last row — it is the one being inserted
            }
            // "SQLCM automatically discards the row(s) … having smallest value
            // of the ordering columns" (§4.3).
            let Some(victim) = self.pop_victim(coord, now) else {
                break;
            };
            evicted.extend(self.discard(coord, victim, now, want_evicted));
        }
        evicted
    }

    /// Take a victim popped from the index out of the row map and retire it
    /// (the caller holds `evict_lock`). Returns its output row if it was in
    /// the map and `want_evicted`.
    fn discard(
        &self,
        coord: &mut Coordinator,
        victim: Arc<Row>,
        now: Timestamp,
        want_evicted: bool,
    ) -> Option<Vec<Value>> {
        {
            let mut rows = self.shard_of(victim.hash).write();
            if !rows.remove(&*victim as &dyn GroupKey) {
                return None;
            }
            self.occupancy.fetch_sub(1, Ordering::Relaxed);
        }
        self.evictions.fetch_add(1, Ordering::Relaxed);
        let output = {
            let mut state = victim.state.lock();
            // If it still sits on the dirty queue, it is skipped there.
            state.filed = false;
            want_evicted.then(|| victim.output(&state, now))
        };
        self.retire(coord, victim);
        output
    }

    /// Remove and return the least important row under the ordering spec.
    fn pop_victim(&self, coord: &mut Coordinator, now: Timestamp) -> Option<Arc<Row>> {
        self.refile_dirty(coord, now);
        match &mut coord.index {
            VictimIndex::Fixed(set) => set.pop_first().map(|e| e.row),
            VictimIndex::Folded(set) => set.pop_first().map(|e| {
                coord.boxed_bytes -= e.rank.boxed_bytes();
                e.row
            }),
            VictimIndex::Scan => self.scan_victim(now),
        }
    }

    /// *Folded* LATs: re-file every row a fold has marked dirty under its
    /// current key, so the index minimum is the true one.
    fn refile_dirty(&self, coord: &mut Coordinator, now: Timestamp) {
        let Coordinator {
            index: VictimIndex::Folded(set),
            boxed_bytes,
            refile,
            ..
        } = coord
        else {
            return;
        };
        std::mem::swap(refile, &mut *self.dirty.lock());
        for (was, row) in refile.drain(..) {
            let mut state = row.state.lock();
            state.dirty = false;
            // Evicted or replaced since it was queued?
            if !state.filed {
                continue;
            }
            let stale = ByRank {
                rank: was,
                row: Arc::clone(&row),
            };
            if let Some(gone) = set.take(&stale) {
                *boxed_bytes -= gone.rank.boxed_bytes();
            }
            let rank = self.rank_of(row.group.as_slice(), &state.aggs, now);
            drop(state);
            *boxed_bytes += rank.boxed_bytes();
            set.insert(ByRank { rank, row });
            self.victims_examined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The *clocked* path: an aging ordering column decays with the clock, so
    /// every row's key is computed afresh and compared with the running best.
    /// Two key buffers for the whole scan; ties keep the first row met.
    fn scan_victim(&self, now: Timestamp) -> Option<Arc<Row>> {
        let mut best: Option<Arc<Row>> = None;
        let mut best_key: Vec<Value> = Vec::with_capacity(self.order.len());
        let mut key: Vec<Value> = Vec::with_capacity(self.order.len());
        let mut examined = 0;
        for shard in self.shards.iter() {
            for row in shard.read().iter() {
                let state = row.0.state.lock();
                key.clear();
                key.extend(self.order.iter().map(|(col, _)| {
                    self.ordering_value(row.0.group.as_slice(), &state.aggs, *col, now)
                }));
                examined += 1;
                let less_important =
                    || cmp_importance(&self.order, |pos, _| (&key[pos], &best_key[pos])).is_lt();
                if best.is_none() || less_important() {
                    std::mem::swap(&mut key, &mut best_key);
                    best = Some(Arc::clone(&row.0));
                }
            }
        }
        self.victims_examined.fetch_add(examined, Ordering::Relaxed);
        best
    }

    /// Look up the row whose grouping columns match `obj` (the rule engine's
    /// implicit-∃ binding, §5.2). Returns the materialized output row.
    pub fn lookup_for(&self, obj: &Object) -> Option<Vec<Value>> {
        let now = self.now_if_aging();
        self.with_group_key(obj, |key| {
            let rows = self.shard_of(key.hash).read();
            rows.get(key as &dyn GroupKey)
                .map(|r| r.0.output(&r.0.state.lock(), now))
        })?
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
            .flat_map(|g| g.iter().map(|r| r.0.output(&r.0.state.lock(), now)))
            .collect()
    }

    /// Materialize all rows sorted by the ordering spec, most important first.
    pub fn rows_ordered(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows();
        rows.sort_by(|a, b| cmp_importance(&self.order, |_, col| (&b[col], &a[col])));
        rows
    }

    /// `Reset(LATName)`: clear contents and free memory. All shard write
    /// locks are held (acquired in index order) before the first shard is
    /// cleared, so observers never see a partially reset table; on a bounded
    /// LAT the coordinator lock is taken first, so no new-group insert is
    /// between its insert and its eviction, and the row map, the victim index
    /// and the occupancy count empty together.
    pub fn reset(&self) {
        let mut coord = self.coordinator();
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        for g in guards.iter_mut() {
            g.clear();
        }
        self.occupancy.store(0, Ordering::Relaxed);
        if let Some(coord) = coord.as_deref_mut() {
            coord.index.clear();
            coord.boxed_bytes = 0;
            coord.spare = None;
            // No fold is running (every shard is write-locked) and the rows
            // it queued are gone.
            self.dirty.lock().clear();
        }
        self.resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Seed a row from persisted values (LAT restore at startup, §4.3). AVG and
    /// STDEV are re-seeded with weight `seed_count` (exact when the LAT also
    /// persisted its COUNT; weight 1 otherwise). On a bounded LAT the size
    /// bound is enforced as for an insert: restoring more rows than fit keeps
    /// the most important ones (evictions are counted, no eviction event is
    /// raised).
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
        let key = &values[..n_group];
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
        let mut coord = self.coordinator();
        let hash = self.hash_key(key.iter());
        let row = self.new_row(hash, Key::from_slice(key), aggs);
        let replaced = {
            let mut rows = self.shard_of(hash).write();
            let replaced = rows.replace(RowRef(Arc::clone(&row)));
            if replaced.is_none() {
                self.occupancy.fetch_add(1, Ordering::Relaxed);
            }
            replaced
        };
        if let Some(coord) = coord.as_deref_mut() {
            if let Some(old) = replaced {
                self.unfile(coord, &old.0, now);
            }
            self.file(coord, row, now);
            self.enforce_size(coord, now, false);
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
    fn rows_spread_across_shards() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Spread")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N");
        let lat = Lat::new(spec, clock).unwrap();
        assert_eq!(lat.shard_stats().len(), LAT_SHARDS);
        assert_eq!(lat.lock_contentions(), 0);
        for sig in 0..64 {
            lat.insert(&qobj(sig, 1.0)).unwrap();
        }
        assert_eq!(lat.row_count(), 64);
        assert_eq!(lat.rows().len(), 64);
        let per_shard: usize = lat.shard_stats().iter().map(|s| s.rows).sum();
        assert_eq!(per_shard, 64);
        let occupied = lat.shard_stats().iter().filter(|s| s.rows > 0).count();
        assert!(occupied > 1, "hash should spread 64 groups over shards");
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

    /// Two folds into one row can reach the row latch in the reverse order
    /// of their clock reads. The late, older value joins the newest block:
    /// the blocks stay ordered by start, one per Δ.
    #[test]
    fn aging_fold_stamped_before_the_newest_block_joins_it() {
        let spec = AgingSpec {
            window_micros: 10_000_000,
            block_micros: 1_000_000,
        };
        let mut col = ColumnState::Aging(AgingState::new(LatAggFunc::Sum, spec));
        let (t2, t1, t2b) = (5_100_000, 4_900_000, 5_200_000);
        let mut rolls = 0;
        for (now, v) in [(t2, 1.0), (t1, 2.0), (t2b, 4.0)] {
            rolls += col.update(Some(&Value::Float(v)), now).unwrap() as u32;
        }
        let ColumnState::Aging(aging) = &col else {
            unreachable!()
        };
        assert_eq!(aging.blocks.len(), 1);
        assert_eq!(rolls, 1);
        assert_eq!(col.finish(t2b), Value::Float(7.0));
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

    /// Row map, occupancy count and victim index describe the same rows.
    fn assert_consistent(lat: &Lat) {
        let coord = lat.evict_lock.lock();
        let in_shards: usize = lat.shards.iter().map(|s| s.read().len()).sum();
        assert_eq!(lat.row_count(), in_shards, "occupancy vs Σ shard lengths");
        if !matches!(coord.index, VictimIndex::Scan) {
            assert_eq!(coord.index.len(), in_shards, "victim index vs row map");
        }
        if let VictimIndex::Folded(set) = &coord.index {
            let boxed: usize = set.iter().map(|e| e.rank.boxed_bytes()).sum();
            assert_eq!(coord.boxed_bytes, boxed, "running count of boxed ranks");
        }
        if let Some(m) = lat.spec.max_rows {
            assert!(in_shards <= m.max(1), "bound {m} exceeded: {in_shards}");
        }
        if let Some(spare) = &coord.spare {
            assert_eq!(Arc::strong_count(spare), 1, "the spare is shared");
            let group = spare.group.as_slice();
            assert!(
                group.iter().all(Value::is_null),
                "the spare holds {group:?}"
            );
        }
    }

    /// The coordinator's spare row, by address.
    fn spare(lat: &Lat) -> Option<*const Row> {
        lat.evict_lock.lock().spare.as_ref().map(Arc::as_ptr)
    }

    /// The row holding group `key`, by address.
    fn row_at(lat: &Lat, key: &[Value]) -> Option<*const Row> {
        lat.shards.iter().find_map(|s| {
            let rows = s.read();
            let row = rows.iter().find(|r| r.0.group.as_slice() == key)?;
            Some(Arc::as_ptr(&row.0))
        })
    }

    fn sigs(lat: &Lat) -> Vec<i64> {
        let mut sigs: Vec<i64> = lat.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        sigs.sort_unstable();
        sigs
    }

    #[test]
    fn restore_enforces_the_row_bound() {
        // Regression: `seed_row` used to insert without the coordinator lock
        // and without enforcing the bound, so restoring more rows than
        // `max_rows` left the LAT overfull until some later insert evicted.
        const N: usize = 4;
        let fixed = LatSpec::new("Fixed")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("Sig", true)
            .max_rows(N);
        let folded = LatSpec::new("Folded")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(N);
        for spec in [fixed, folded] {
            let (clock, _) = ManualClock::shared(0);
            let lat = Lat::new(spec, clock).unwrap();
            // Sig i carries duration i, so both orderings rank alike; seed in
            // an order that puts keepers before and after the losers.
            for sig in [7, 1, 9, 3, 5, 2, 8, 4, 6] {
                lat.seed_row(&[Value::Int(sig), Value::Float(sig as f64)], 1)
                    .unwrap();
                assert_consistent(&lat);
            }
            assert_eq!(sigs(&lat), vec![6, 7, 8, 9], "the N most important remain");
            let stats = lat.stats();
            assert_eq!(stats.evictions, 5);
            assert!(stats.row_high_water <= N as u64, "{stats:?}");
            // The next insert evicts the least important of what is left.
            let evicted = lat.insert(&qobj(10, 10.0)).unwrap();
            assert_eq!(evicted, vec![vec![Value::Int(6), Value::Float(6.0)]]);
            // Re-seeding a held group replaces its row, in the index too.
            lat.seed_row(&[Value::Int(7), Value::Float(70.0)], 1)
                .unwrap();
            assert_consistent(&lat);
            assert_eq!(lat.row_count(), N);
            assert_eq!(
                lat.lookup_for(&qobj(7, 0.0)).unwrap()[1],
                Value::Float(70.0)
            );
        }
    }

    #[test]
    fn a_recycled_row_shows_nothing_of_its_victim() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Recycled")
            .group_by("Query.ID", "ID")
            .aggregate(LatAggFunc::First, "Query.Procedure", "F")
            .aggregate(LatAggFunc::Min, "Query.Procedure", "MN")
            .aggregate(LatAggFunc::Max, "Query.Procedure", "MX")
            .aggregate(LatAggFunc::Last, "Query.Procedure", "L")
            .order_by("ID", true)
            .max_rows(1);
        let lat = Lat::new(spec, clock).unwrap();
        let obj = |id: u64, procedure: Option<&str>| {
            let mut q = QueryInfo::synthetic(id, "q");
            q.procedure = procedure.map(Into::into);
            query_object(&q)
        };
        lat.insert(&obj(1, Some("victim"))).unwrap();
        lat.insert(&obj(2, Some("victim"))).unwrap();
        // Each new group is built in the row of the one evicted before it,
        // which held "victim" in every column; a NULL attribute folds into
        // none of them, so any leftover would show.
        for (id, procedure) in [(3, None), (4, Some("new"))] {
            let spare = spare(&lat).expect("the last victim is kept");
            lat.insert(&obj(id, procedure)).unwrap();
            let key = [Value::Int(id as i64)];
            assert_eq!(row_at(&lat, &key), Some(spare), "built in the spare");
            let v = procedure.map_or(Value::Null, Value::text);
            let want = [&key[..], &[v.clone(), v.clone(), v.clone(), v]].concat();
            assert_eq!(lat.rows(), vec![want]);
            assert_consistent(&lat);
        }
        lat.reset();
        assert_eq!(spare(&lat), None, "reset drops the spare");
        assert_consistent(&lat);
    }

    #[test]
    fn a_victim_on_the_dirty_queue_is_not_recycled() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Queued")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        lat.insert(&qobj(1, 1.0)).unwrap();
        lat.insert(&qobj(2, 5.0)).unwrap();
        // The evictor has popped group 1 when a fold that does not take
        // `evict_lock` moves its key and queues it for re-filing.
        let mut coord = lat.evict_lock.lock();
        let victim = lat.pop_victim(&mut coord, 0).unwrap();
        assert_eq!(victim.group.as_slice(), [Value::Int(1)]);
        lat.insert(&qobj(1, 3.0)).unwrap();
        assert_eq!(lat.dirty.lock().len(), 1);
        let queued = Arc::as_ptr(&victim);
        lat.discard(&mut coord, victim, 0, false);
        assert!(coord.spare.is_none(), "a queued victim was kept");
        drop(coord);
        assert_eq!((lat.row_count(), lat.stats().evictions), (1, 1));
        // The next new group gets a row of its own; the eviction after it
        // drops the queued row and recycles its own victim.
        lat.insert(&qobj(3, 4.0)).unwrap();
        assert_ne!(row_at(&lat, &[Value::Int(3)]), Some(queued));
        let evicted = lat.insert(&qobj(4, 6.0)).unwrap();
        assert_eq!(evicted, vec![vec![Value::Int(3), Value::Float(4.0)]]);
        assert!(lat.dirty.lock().is_empty());
        assert!(spare(&lat).is_some());
        assert_consistent(&lat);
        assert_eq!(sigs(&lat), vec![2, 4]);
    }

    #[test]
    fn an_evicted_row_is_read_before_its_row_is_recycled() {
        // Two grouping columns, one of them text: a spare's key is
        // overwritten column by column.
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Pairs")
            .group_by("Query.Logical_Signature", "Sig")
            .group_by("Query.User", "Usr")
            .aggregate(LatAggFunc::Last, "Query.Query_Text", "Txt")
            .order_by("Sig", true)
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        let obj = |sig: u64| {
            let mut q = QueryInfo::synthetic(1, format!("text {sig}"));
            q.logical_signature = Some(sig);
            q.user = format!("user {sig}").into();
            query_object(&q)
        };
        for sig in 1..=6 {
            let held = lat.rows_ordered();
            let evicted = lat.insert(&obj(sig)).unwrap();
            // A full LAT evicts its least important row, as it was.
            let victims = if held.len() == 2 { &held[1..] } else { &[] };
            assert_eq!(evicted, victims);
            assert_consistent(&lat);
        }
        let row = lat.lookup_for(&obj(6)).unwrap();
        assert_eq!(
            row,
            [Value::Int(6), Value::text("user 6"), Value::text("text 6")]
        );
        let mut q = QueryInfo::synthetic(1, "");
        (q.logical_signature, q.user) = (Some(6), "user 5".into());
        assert!(lat.lookup_for(&query_object(&q)).is_none());
    }

    #[test]
    fn victims_examined_proves_the_scan_is_gone() {
        const ROWS: usize = 1_000;
        const GROUPS: i64 = 10_000;
        let base = |order: &str| {
            LatSpec::new("Pin")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .order_by(order, true)
                .max_rows(ROWS)
        };
        // Fixed: the ordering column is the grouping column.
        let (clock, _) = ManualClock::shared(0);
        let lat = Lat::new(base("Sig"), clock.clone()).unwrap();
        for sig in 0..GROUPS {
            lat.insert(&qobj(sig, 1.0)).unwrap();
        }
        assert_eq!(lat.stats().evictions, (GROUPS as u64) - ROWS as u64);
        assert_eq!(lat.stats().victims_examined, 0);
        assert_consistent(&lat);

        // Folded: every new group is followed by two folds into the newest
        // (most important) row, one that raises its MAX and one that does not.
        let lat = Lat::new(base("D"), clock.clone()).unwrap();
        let mut key_changing_folds = 0;
        for sig in 0..GROUPS {
            let d = (sig * 2) as f64;
            lat.insert(&qobj(sig, d)).unwrap();
            lat.insert(&qobj(sig, d + 1.0)).unwrap();
            key_changing_folds += 1;
            lat.insert(&qobj(sig, d - 1.0)).unwrap();
        }
        let stats = lat.stats();
        assert_eq!(stats.evictions, (GROUPS as u64) - ROWS as u64);
        assert!(stats.victims_examined > 0, "re-filed rows are counted");
        assert!(
            stats.victims_examined <= key_changing_folds,
            "{} rows re-filed for {key_changing_folds} key-changing folds",
            stats.victims_examined
        );
        assert_consistent(&lat);
        assert_eq!(
            sigs(&lat),
            (GROUPS - ROWS as i64..GROUPS).collect::<Vec<_>>()
        );

        // Clocked: an aging ordering column keeps the scan — n per eviction.
        let spec = LatSpec::new("Clocked")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .aging(1_000, 100)
            .order_by("N", true)
            .max_rows(3);
        let lat = Lat::new(spec, clock).unwrap();
        for sig in 0..5 {
            lat.insert(&qobj(sig, 1.0)).unwrap();
        }
        assert_eq!(lat.stats().evictions, 2);
        assert_eq!(lat.stats().victims_examined, 2 * 4, "4 rows scanned twice");
    }

    #[test]
    fn memory_bytes_counts_the_victim_index() {
        let (clock, _) = ManualClock::shared(0);
        let spec = |bound: Option<usize>, order: &str| {
            let spec = LatSpec::new("Mem")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .order_by(order, true);
            match bound {
                Some(m) => spec.max_rows(m),
                None => spec,
            }
        };
        let fill = |spec: LatSpec| {
            let lat = Lat::new(spec, clock.clone()).unwrap();
            for sig in 0..8 {
                lat.insert(&qobj(sig, 1.0)).unwrap();
            }
            lat.memory_bytes()
        };
        let unbounded = fill(spec(None, "Sig"));
        let fixed = fill(spec(Some(8), "Sig"));
        let folded = fill(spec(Some(8), "D"));
        // One handle per row, plus 16 bytes for a numeric filed key.
        assert_eq!(std::mem::size_of::<ByGroup>(), 8);
        assert_eq!(std::mem::size_of::<ByRank>(), 24);
        assert_eq!(fixed, unbounded + 8 * 8);
        assert_eq!(folded, unbounded + 8 * 24);
    }

    #[test]
    fn multi_column_keys_and_boxed_ranks_stay_in_step() {
        // Two grouping columns take the owned-key probe; two ordering columns
        // make every filed rank a boxed one, whose bytes are counted as the
        // entries come and go.
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Multi")
            .group_by("Query.Logical_Signature", "Sig")
            .group_by("Query.User", "Usr")
            .aggregate(LatAggFunc::Count, "", "N")
            .order_by("N", true)
            .order_by("Sig", false)
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        for sig in [1, 2, 1, 3, 1, 2, 4] {
            lat.insert(&qobj(sig, 1.0)).unwrap();
            assert_consistent(&lat);
        }
        assert_eq!(sigs(&lat), vec![1, 2], "3 and 4 had the lowest count");
        let row = lat.lookup_for(&qobj(1, 0.0)).unwrap();
        assert_eq!(row[2], Value::Int(3), "three folds into one group");
        let boxed = lat.evict_lock.lock().boxed_bytes;
        assert!(boxed > 0);
        // A queued fold is counted too, until the evictor re-files the row.
        let before = lat.memory_bytes();
        lat.insert(&qobj(2, 1.0)).unwrap();
        let queued = std::mem::size_of::<(Rank, Arc<Row>)>() + boxed / 2;
        assert_eq!(lat.memory_bytes(), before + queued);
        // Re-seeding a held group swaps its entry; reset drops them all.
        let usr = row[1].clone();
        lat.seed_row(&[Value::Int(1), usr, Value::Int(9)], 1)
            .unwrap();
        assert_consistent(&lat);
        assert_eq!(lat.evict_lock.lock().boxed_bytes, boxed);
        assert_eq!(lat.memory_bytes(), before, "queue drained by the seed");
        lat.reset();
        assert_consistent(&lat);
        assert_eq!(lat.memory_bytes(), 0);
    }

    #[test]
    fn reset_racing_new_group_inserts_keeps_map_index_and_count_in_step() {
        // `reset` holds the coordinator lock, so it cannot land between a
        // creator's insert and its eviction; whatever the interleaving, the
        // three views of "which rows exist" agree afterwards.
        let folded = LatSpec::new("Race")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .order_by("N", true)
            .max_rows(4);
        let fixed = LatSpec::new("Race")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .order_by("Sig", true)
            .max_rows(4);
        for spec in [folded, fixed] {
            let lat = Lat::new(spec, sqlcm_common::SystemClock::shared()).unwrap();
            let barrier = std::sync::Barrier::new(3);
            for round in 0..200i64 {
                std::thread::scope(|scope| {
                    for t in 0..2 {
                        let (lat, barrier) = (&lat, &barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            for i in 0..8 {
                                // New groups (evicting) and folds into them.
                                lat.insert(&qobj(round * 100 + t * 8 + i, 1.0)).unwrap();
                                lat.insert(&qobj(round * 100 + i, 1.0)).unwrap();
                            }
                        });
                    }
                    barrier.wait();
                    lat.reset();
                });
                assert_consistent(&lat);
            }
            assert_eq!(lat.stats().resets, 200);
        }
    }

    #[test]
    fn seed_racing_folds_on_the_same_group_files_the_row_once() {
        // Regression: a fold reaching a freshly seeded row before it was
        // filed used to queue it for re-filing, and the row ended up in the
        // victim index twice — a stale entry that later evicted a live row.
        let spec = LatSpec::new("SeedRace")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(4);
        let lat = Lat::new(spec, sqlcm_common::SystemClock::shared()).unwrap();
        for sig in 0..4 {
            lat.insert(&qobj(sig, 1.0)).unwrap();
        }
        for round in 0..20 {
            let folding = std::sync::atomic::AtomicBool::new(true);
            std::thread::scope(|scope| {
                let (lat, folding) = (&lat, &folding);
                scope.spawn(move || {
                    for i in 0..2_000 {
                        // Every fold raises group 0's MAX, i.e. moves its key.
                        let d = (round * 2_000 + i + 2) as f64;
                        lat.insert(&qobj(0, d)).unwrap();
                    }
                    folding.store(false, Ordering::Relaxed);
                });
                while folding.load(Ordering::Relaxed) {
                    lat.seed_row(&[Value::Int(0), Value::Float(1.5)], 1)
                        .unwrap();
                }
            });
            assert_consistent(&lat);
        }
        // No stale entry is left to pop: four new groups push out exactly the
        // four rows held now, least important first.
        lat.seed_row(&[Value::Int(0), Value::Float(1.5)], 1)
            .unwrap();
        for sig in 10..14 {
            let evicted = lat.insert(&qobj(sig, 100.0 + sig as f64)).unwrap();
            assert_eq!(evicted.len(), 1);
            assert_consistent(&lat);
        }
        assert_eq!(sigs(&lat), vec![10, 11, 12, 13]);
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
