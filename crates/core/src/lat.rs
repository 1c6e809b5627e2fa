//! Light-weight aggregation tables (paper §4.3).
//!
//! A LAT is an in-memory GROUP BY over inserted monitored objects:
//!
//! * **grouping columns** — object attributes (e.g. `Query.Logical_Signature`);
//! * **aggregation columns** — `COUNT`, `SUM`, `AVG`, `STDEV`, `MIN`, `MAX`,
//!   `FIRST`, `LAST` over attributes, each optionally in its **aging** variant:
//!   a moving window of width `t` maintained in blocks spanning `Δ` ("SQLCM
//!   groups values into blocks … which are then used as the unit of aging",
//!   using at most `2t/Δ` extra storage); each column and aging block folds
//!   through `sqlcm_sql::agg::AggState`, the kernel of the engine's GROUP BY;
//! * a **size bound** (rows and/or approximate bytes) with ordering columns: on
//!   overflow the row with the smallest ordering value is discarded and exposed
//!   to the rule engine as an evicted-row monitored object;
//! * **persistence**: rows can be written to an ordinary table (plus a timestamp
//!   column) and re-seeded from one at startup.
//!
//! Every insert, lookup and restore hashes its group key at most once, with
//! SipHash under one process-wide key (`GROUP_KEY`), reading the key in place
//! from the monitored object whatever the number of grouping columns. The key
//! is a `RandomState`'s, secret and random per process, so group keys — which
//! are user-controlled text — resist HashDoS exactly as under a key per LAT.
//! Sharing it makes the hash a function of the grouping values alone: two
//! LATs grouped by the same attributes of one object hash it alike, and the
//! dispatcher hashes a payload object once per event for all of them
//! (`Lat::group_hash`, then the crate-private `insert_keyed` and
//! `lookup_keyed`); the public API hashes for itself. A row stores its key
//! once, beside that 64-bit hash; the tables compare the hash first and the
//! full key on a match. Occupancy is one atomic counter, moved under the
//! latch that adds or removes the row.
//!
//! # Tables
//!
//! Every LAT keeps its rows in `Table`s, each under its own reader-writer
//! latch: the rows, stored in place in a slot vector, and an open-addressed
//! hash index from group-key hash to slot, at most half full
//! (`BUCKETS_PER_ROW`), so a search rarely walks a run. Inserts and folds
//! take a table's latch exclusively, lookups and snapshots share it. A
//! bounded LAT has one table, which also keeps the victim order (below).
//!
//! An unbounded LAT never evicts, and concurrent probe threads fold into it
//! (the A3 and T3 benches, `storm_shared_lat`). It stripes its rows over a
//! fixed 16 tables by group-key hash, so threads folding different groups
//! mostly take different latches: lock striping in place of the paper's
//! latch per row ("each LAT row as well as … the hash table are protected
//! through latches"). Bits 32–35 of the hash pick the table; a table's
//! index reads the low 32. These tables keep no victim order.
//!
//! # Bounded LATs
//!
//! A LAT whose spec sets `max_rows` or `max_bytes` keeps its **victim
//! order** in its one table: an indexed binary min-heap of slot numbers,
//! least important row at the root, with each slot's heap position kept in
//! a vector beside the slots.
//!
//! One comparator orders every bounded LAT, reading the rows in place: the
//! ordering columns, each in its own direction (the smallest value of a DESC
//! column, the largest of an ASC one, is the least important), then the
//! grouping columns the ordering leaves out. Every grouping column is
//! ranked, so no two held rows tie. The ordering spec is classified once,
//! at [`Lat::new`]:
//!
//! * **fixed** — every ordering column is a grouping column (or there is no
//!   ordering spec: any row may go). A row's place never changes. Ties fall
//!   to the smaller group key.
//! * **folded** — some ordering column is a plain aggregate (`MAX(Duration)`,
//!   `COUNT`, `AVG`, …). After a fold the row sifts down, then up, to its
//!   new place. Ties fall to the larger group key: where keys grow over time
//!   (query IDs, timestamps) an incumbent outlives a newcomer that only ties
//!   it, which is also what a stable sort of the full log answers.
//! * **clocked** — some ordering column is an *aging* aggregate, whose value
//!   decays with the clock even when nothing folds, so no place stays valid.
//!   The heap is rebuilt (Floyd's heapify, at the insert's time) at most once
//!   per insert, just before the order is read. Ties fall as on a folded LAT.
//!
//! A new group is built in the table's scratch slot first, so a failed
//! update leaves no trace. In a full table, a newcomer less important than
//! the root is its own victim: its output is the evicted row, and it never
//! enters the table. Otherwise the root's output is read (when an eviction
//! rule subscribes), the newcomer takes the root's slot, and one sift down
//! from the root files it — so a full LAT that evicts on every new group
//! allocates nothing for it.
//!
//! `max_bytes` bounds the bytes of the rows held (`Slot::bytes`), a running
//! count kept under the latch only by LATs that set it. It leaves out the
//! heap, the heap positions and the hash index, which [`Lat::memory_bytes`]
//! adds.

use std::cmp::Ordering as Cmp;
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use sqlcm_common::{Error, Result, SharedClock, Timestamp, Value};
use sqlcm_sql::agg::AggState;
use sqlcm_telemetry::ShardedCounter;

use crate::objects::Object;
use crate::rules::RuleEvent;

/// Independently latched tables per unbounded LAT.
const LAT_SHARDS: usize = 16;

/// Keys every LAT's group-key hash (module docs): secret, random per process.
static GROUP_KEY: LazyLock<RandomState> = LazyLock::new(RandomState::new);

#[cfg(debug_assertions)]
thread_local! {
    static KEY_HASHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A bounded LAT's hash index holds at most one row per this many buckets.
const BUCKETS_PER_ROW: usize = 2;

/// The LAT specification is declared once, in the analyzer crate.
pub use sqlcm_analyze::{AggColumn, AgingSpec, AttrRef, GroupColumn, LatAggFunc, LatSpec};

// ---------------------------------------------------------------- aggregates

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

/// An aggregate column's state. The aging one is boxed, so a row of plain
/// columns — the common case — packs them at the plain state's size.
#[derive(Debug, Clone)]
enum ColumnState {
    Plain(AggState),
    Aging(Box<AgingState>),
}

impl ColumnState {
    /// Back to the initial state, in place, before a new group's first
    /// fold: an aging column keeps its block buffer.
    fn reset(&mut self) {
        match self {
            // A LAST always has a source attribute (`LatSpec::validate`), so
            // that fold overwrites it. Left as it was, the fold skips the
            // reference-count traffic when the text is the same shared one.
            ColumnState::Plain(AggState::Last(_)) => {}
            ColumnState::Plain(s) => *s = AggState::new(s.func()),
            ColumnState::Aging(s) => s.blocks.clear(),
        }
    }

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

/// Every aggregate column's initial state.
fn fresh_aggs(spec: &LatSpec) -> impl Iterator<Item = ColumnState> + '_ {
    spec.aggregates.iter().map(|a| match &a.aging {
        Some(ag) => ColumnState::Aging(Box::new(AgingState::new(a.func, *ag))),
        None => ColumnState::Plain(AggState::new(a.func)),
    })
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

/// A row's group key and the LAT's keyed hash of it. Immutable while the row
/// is held, so the tables hash and compare it in place.
struct Group {
    hash: u64,
    key: Key,
}

impl Group {
    /// Overwrite this group, value by value, with a probe's.
    fn assign(&mut self, probe: &Probe) {
        self.hash = probe.hash;
        for (slot, &i) in self.key.as_mut_slice().iter_mut().zip(probe.idx) {
            slot.clone_from(&probe.values[i]);
        }
    }
}

/// A row, stored in place in its table's slot vector.
struct Slot {
    group: Group,
    aggs: Vec<ColumnState>,
}

impl Slot {
    /// A slot holding no row: a NULL key and initial aggregates.
    fn blank(spec: &LatSpec) -> Slot {
        let key = Key::blank(spec.group_by.len());
        let (group, aggs) = (Group { hash: 0, key }, fresh_aggs(spec).collect());
        Slot { group, aggs }
    }

    /// Bytes of the row: the slot itself and what its key and aggregate
    /// states hold. What `max_bytes` bounds.
    fn bytes(&self) -> usize {
        let states = self.aggs.iter().map(ColumnState::size_bytes);
        std::mem::size_of::<Slot>() + self.group.key.size_bytes() + states.sum::<usize>()
    }

    /// The output row: the group values, then every aggregate's.
    fn output(&self, now: Timestamp) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.group.key.as_slice().len() + self.aggs.len());
        self.output_into(now, &mut out);
        out
    }

    /// [`Slot::output`] written over `out`, in its capacity.
    fn output_into(&self, now: Timestamp, out: &mut Vec<Value>) {
        out.clear();
        out.extend_from_slice(self.group.key.as_slice());
        out.extend(self.aggs.iter().map(|a| a.finish(now)));
    }

    /// How this row's output column `col` compares with `other`'s, read in
    /// place.
    fn cmp_at(&self, other: &Slot, col: usize, now: Timestamp) -> Cmp {
        let (a, b) = (self.group.key.as_slice(), other.group.key.as_slice());
        match col.checked_sub(a.len()) {
            None => a[col].cmp(&b[col]),
            Some(agg) => self.aggs[agg].finish(now).cmp(&other.aggs[agg].finish(now)),
        }
    }
}

/// A group key as the tables see it: the hash the LAT gave it, and its
/// values. A held row's group is one, and so is a key read in place from a
/// monitored object, so the tables are probed without building an owned key.
trait GroupKey {
    fn stored_hash(&self) -> u64;
    fn arity(&self) -> usize;
    fn at(&self, i: usize) -> &Value;
}

impl PartialEq for dyn GroupKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        let n = self.arity();
        self.stored_hash() == other.stored_hash()
            && n == other.arity()
            && (0..n).all(|i| self.at(i) == other.at(i))
    }
}

impl GroupKey for Group {
    fn stored_hash(&self) -> u64 {
        self.hash
    }

    fn arity(&self) -> usize {
        self.key.as_slice().len()
    }

    fn at(&self, i: usize) -> &Value {
        &self.key.as_slice()[i]
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

/// Importance comparison per an ordering, column by column: on a DESC column
/// the bigger value is more important (the smallest is evicted first); on
/// ASC, the smaller. `cmp(col)` compares the two sides' output column `col`;
/// `Less` is less important.
fn cmp_importance(order: &[(usize, bool)], cmp: impl Fn(usize) -> Cmp) -> Cmp {
    let mut ords = order.iter().map(|&(col, desc)| match desc {
        true => cmp(col),
        false => cmp(col).reverse(),
    });
    ords.find(|o| o.is_ne()).unwrap_or(Cmp::Equal)
}

/// How a bounded LAT's ordering spec ranks its rows (module docs, "Bounded
/// LATs").
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Fixed,
    Folded,
    Clocked,
}

/// A bounded LAT's victim order.
struct Ranking {
    /// Output columns ranked, with DESC flags: the ordering columns, then the
    /// grouping columns they leave out, which break ties.
    cols: Vec<(usize, bool)>,
    class: Class,
}

impl Ranking {
    fn new(spec: &LatSpec, order: &[(usize, bool)]) -> Ranking {
        let n_group = spec.group_by.len();
        let mut ordering_aggs = order
            .iter()
            .filter_map(|(col, _)| col.checked_sub(n_group))
            .map(|agg| &spec.aggregates[agg]);
        let class = if ordering_aggs.clone().any(|a| a.aging.is_some()) {
            Class::Clocked
        } else if ordering_aggs.next().is_some() {
            Class::Folded
        } else {
            Class::Fixed
        };
        // Ties fall to the smaller key on a fixed LAT, else to the larger.
        let ties = (0..n_group).filter(|g| order.iter().all(|(col, _)| col != g));
        let ties = ties.map(|g| (g, class == Class::Fixed));
        let cols = order.iter().copied().chain(ties).collect();
        Ranking { cols, class }
    }

    /// `Less` when row `a` is less important than row `b` at `now`.
    fn cmp(&self, a: &Slot, b: &Slot, now: Timestamp) -> Cmp {
        cmp_importance(&self.cols, |col| a.cmp_at(b, col, now))
    }
}

/// Hash-index bucket that names no slot.
const EMPTY: u64 = u64::MAX;

/// A hash-index bucket naming slot `s`, whose group-key hash is `hash`: the
/// hash's low 32 bits above the slot, so a search compares hashes and finds
/// its run's home buckets without reaching any slot.
fn bucket(hash: u64, s: u32) -> u64 {
    hash << 32 | u64::from(s)
}

/// Rows, their hash index and, on a bounded LAT, the victim order, all
/// under one latch (module docs, "Tables").
struct Table {
    /// How the victim order ranks rows; `None` on a table that keeps no
    /// victim order (an unbounded LAT's), whose `heap` and `pos` stay empty.
    ranking: Option<Ranking>,
    /// The rows, stored in place. A slot the index does not name holds none.
    slots: Vec<Slot>,
    /// Slots that hold no row, reused first.
    free: Vec<u32>,
    /// Open-addressed, linearly probed hash index of [`bucket`]s, or
    /// [`EMPTY`]. A power of two long, at most half full
    /// ([`BUCKETS_PER_ROW`]).
    buckets: Vec<u64>,
    /// The slots of the rows held, a binary min-heap in the victim order:
    /// `heap[0]` is the least important row. A *clocked* LAT's heap is in
    /// order only right after [`Table::heapify`].
    heap: Vec<u32>,
    /// `pos[s]` is slot `s`'s index in `heap`; stale when `s` is free.
    pos: Vec<u32>,
    /// A new group is built here before it is known to stay; a slot's old
    /// buffers come back here when the group moves in.
    scratch: Slot,
    /// Σ [`Slot::bytes`] over the rows held, kept only under `max_bytes`.
    bytes: usize,
}

impl Table {
    fn new(spec: &LatSpec, order: &[(usize, bool)]) -> Table {
        // Room for `max_rows` + 1 rows within the load bound, up to 1 024
        // buckets.
        let buckets = spec.max_rows.map_or(8, |m| {
            ((m.min(1024 / BUCKETS_PER_ROW - 1) + 1) * BUCKETS_PER_ROW).next_power_of_two()
        });
        Table {
            ranking: spec.bounded().then(|| Ranking::new(spec, order)),
            slots: Vec::new(),
            free: Vec::new(),
            buckets: vec![EMPTY; buckets],
            heap: Vec::new(),
            pos: Vec::new(),
            scratch: Slot::blank(spec),
            bytes: 0,
        }
    }

    /// Rows held.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// How the victim order ranks rows, if the table keeps one.
    fn class(&self) -> Option<Class> {
        self.ranking.as_ref().map(|r| r.class)
    }

    /// Bytes held: the rows, and the victim order and hash index of a table
    /// that keeps a victim order. A table without one counts its rows only.
    fn memory_bytes(&self) -> usize {
        let rows: usize = self.held().map(|s| self.slot(s).bytes()).sum();
        let order = (self.heap.len() + self.pos.len()) * std::mem::size_of::<u32>();
        let index = self.buckets.len() * std::mem::size_of::<u64>();
        rows + self.ranking.as_ref().map_or(0, |_| order + index)
    }

    /// Drop every row, keeping the buffers.
    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.buckets.fill(EMPTY);
        self.heap.clear();
        self.pos.clear();
        self.bytes = 0;
    }

    fn slot(&self, s: u32) -> &Slot {
        &self.slots[s as usize]
    }

    /// The slots of the rows held, in bucket order.
    fn held(&self) -> impl Iterator<Item = u32> + '_ {
        let slot = |&b: &u64| (b != EMPTY).then_some(b as u32);
        self.buckets.iter().filter_map(slot)
    }

    /// The bucket a search for a hash whose low 32 bits are `tag` starts at.
    fn home(&self, tag: u64) -> usize {
        tag as usize & (self.buckets.len() - 1)
    }

    fn next(&self, b: usize) -> usize {
        (b + 1) & (self.buckets.len() - 1)
    }

    /// The slot holding group `key`.
    fn find(&self, key: &dyn GroupKey) -> Option<u32> {
        let tag = key.stored_hash() & u64::from(u32::MAX);
        let mut b = self.home(tag);
        while self.buckets[b] != EMPTY {
            let (found, s) = (self.buckets[b] >> 32, self.buckets[b] as u32);
            if found == tag && (&self.slot(s).group as &dyn GroupKey) == key {
                return Some(s);
            }
            b = self.next(b);
        }
        None
    }

    /// Index slot `s`, which holds a row whose group is not indexed yet.
    fn index(&mut self, s: u32) {
        if BUCKETS_PER_ROW * self.len() > self.buckets.len() {
            let grown = vec![EMPTY; 2 * self.buckets.len()];
            let old = std::mem::replace(&mut self.buckets, grown);
            old.into_iter()
                .filter(|&b| b != EMPTY)
                .for_each(|b| self.put(b));
        }
        self.put(bucket(self.slot(s).group.hash, s));
    }

    fn put(&mut self, filled: u64) {
        let mut b = self.home(filled >> 32);
        while self.buckets[b] != EMPTY {
            b = self.next(b);
        }
        self.buckets[b] = filled;
    }

    /// Take slot `s` out of the index. The rest of its run is filed again,
    /// so no search stops short at the hole.
    fn unindex(&mut self, s: u32) {
        let gone = bucket(self.slot(s).group.hash, s);
        let mut b = self.home(gone >> 32);
        while self.buckets[b] != gone {
            b = self.next(b);
        }
        self.buckets[b] = EMPTY;
        loop {
            b = self.next(b);
            match std::mem::replace(&mut self.buckets[b], EMPTY) {
                EMPTY => break,
                moved => self.put(moved),
            }
        }
    }

    /// Whether row `a` is less important than row `b` at `now`: never on a
    /// table that keeps no victim order.
    fn less(&self, a: &Slot, b: &Slot, now: Timestamp) -> bool {
        let below = |r: &Ranking| r.cmp(a, b, now).is_lt();
        self.ranking.as_ref().is_some_and(below)
    }

    /// Whether the row at heap index `i` is less important than the one at
    /// `j`.
    fn below(&self, i: usize, j: usize, now: Timestamp) -> bool {
        self.less(self.slot(self.heap[i]), self.slot(self.heap[j]), now)
    }

    /// Put slot `s` at heap index `i`.
    fn set(&mut self, i: usize, s: u32) {
        self.heap[i] = s;
        self.pos[s as usize] = i as u32;
    }

    fn swap(&mut self, i: usize, j: usize) {
        let (a, b) = (self.heap[i], self.heap[j]);
        self.set(i, b);
        self.set(j, a);
    }

    /// Move the row at heap index `i` up while it is less important than
    /// its parent.
    fn sift_up(&mut self, mut i: usize, now: Timestamp) {
        while i > 0 && self.below(i, (i - 1) / 2, now) {
            self.swap(i, (i - 1) / 2);
            i = (i - 1) / 2;
        }
    }

    /// Move the row at heap index `i` down while a child is less important.
    fn sift_down(&mut self, mut i: usize, now: Timestamp) {
        loop {
            let mut least = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len() && self.below(child, least, now) {
                    least = child;
                }
            }
            if least == i {
                return;
            }
            self.swap(i, least);
            i = least;
        }
    }

    /// Re-place held slot `s` after its row changed: whether it moved.
    fn resift(&mut self, s: u32, now: Timestamp) -> bool {
        let at = self.pos[s as usize] as usize;
        self.sift_down(at, now);
        self.sift_up(self.pos[s as usize] as usize, now);
        self.pos[s as usize] as usize != at
    }

    /// Put the heap in order at `now` (Floyd's heapify).
    fn heapify(&mut self, now: Timestamp) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, now);
        }
    }

    /// File slot `s`, which holds a row the heap lacks, if the table keeps
    /// a victim order.
    fn push(&mut self, s: u32, now: Timestamp) {
        if self.ranking.is_none() {
            return;
        }
        self.heap.push(s);
        self.set(self.heap.len() - 1, s);
        self.sift_up(self.heap.len() - 1, now);
    }

    /// Take the least important row out of the heap: its slot.
    fn pop(&mut self, now: Timestamp) -> u32 {
        let least = self.heap.swap_remove(0);
        if let Some(&last) = self.heap.first() {
            self.set(0, last);
            self.sift_down(0, now);
        }
        least
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
    /// Rows re-placed in the victim order: 0 for *fixed* and unbounded
    /// LATs, the rows a fold moved for *folded* ones, every row each time
    /// the order is rebuilt (at most once per insert) for *clocked* ones.
    pub victims_examined: u64,
}

/// Point-in-time occupancy and contention numbers of one table's latch: one
/// of an unbounded LAT's 16, or a bounded LAT's one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatShardStats {
    pub rows: usize,
    /// Lock acquisitions that found the lock held (fast-path `try_*`
    /// failed and the thread had to block).
    pub contentions: u64,
}

/// A reader-writer lock that counts the acquisitions that found it held.
struct Latched<T> {
    lock: RwLock<T>,
    contentions: AtomicU64,
}

impl<T> Latched<T> {
    fn new(value: T) -> Latched<T> {
        Latched {
            lock: RwLock::new(value),
            contentions: AtomicU64::new(0),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, T> {
        self.lock.try_read().unwrap_or_else(|| {
            self.contentions.fetch_add(1, Ordering::Relaxed);
            self.lock.read()
        })
    }

    /// The rows `rows` counts in the guarded value, and the contentions.
    fn stats(&self, rows: impl FnOnce(&T) -> usize) -> LatShardStats {
        let contentions = self.contentions.load(Ordering::Relaxed);
        let rows = rows(&self.read());
        LatShardStats { rows, contentions }
    }

    fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.lock.try_write().unwrap_or_else(|| {
            self.contentions.fetch_add(1, Ordering::Relaxed);
            self.lock.write()
        })
    }
}

/// A live light-weight aggregation table.
pub struct Lat {
    pub spec: LatSpec,
    /// `Lat.Eviction` of this LAT, made once: an insert asks the plan
    /// whether a rule subscribes to it without allocating.
    pub(crate) eviction: RuleEvent,
    clock: SharedClock,
    columns: Arc<[String]>,
    /// Indexes of the ordering columns in `columns`, with desc flags.
    order: Vec<(usize, bool)>,
    /// Pre-resolved positions of the grouping attributes in the source class's
    /// value layout (compiled once; inserts avoid name matching).
    group_attr_idx: Vec<usize>,
    /// Pre-resolved positions of each aggregate's source attribute.
    agg_attr_idx: Vec<Option<usize>>,
    /// One table on a bounded LAT, [`LAT_SHARDS`] on an unbounded one
    /// (module docs, "Tables").
    tables: Box<[Latched<Table>]>,
    /// Rows held: moved under the latch of the table that gains or loses
    /// them.
    occupancy: AtomicUsize,
    /// Some aggregate is aging: the only columns whose state and value depend
    /// on *when* they are folded or read.
    ages: bool,
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
            .field("bounded", &self.spec.bounded())
            .field("rows", &self.row_count())
            .finish_non_exhaustive()
    }
}

impl Lat {
    pub fn new(spec: LatSpec, clock: SharedClock) -> Result<Lat> {
        spec.validate()?;
        let columns: Arc<[String]> = spec.columns().into();
        let order: Vec<(usize, bool)> = spec
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
        let n_tables = if spec.bounded() { 1 } else { LAT_SHARDS };
        let tables = (0..n_tables)
            .map(|_| Latched::new(Table::new(&spec, &order)))
            .collect();
        let ages = spec.aggregates.iter().any(|a| a.aging.is_some());
        Ok(Lat {
            eviction: RuleEvent::LatEviction(spec.name.clone()),
            spec,
            clock,
            columns,
            order,
            group_attr_idx,
            agg_attr_idx,
            tables,
            occupancy: AtomicUsize::new(0),
            ages,
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
    fn hash_key<'v>(key: impl ExactSizeIterator<Item = &'v Value>) -> u64 {
        #[cfg(debug_assertions)]
        KEY_HASHES.with(|n| n.set(n.get() + 1));
        let mut h = GROUP_KEY.build_hasher();
        h.write_usize(key.len());
        key.for_each(|v| v.hash(&mut h));
        h.finish()
    }

    /// Group keys this thread has hashed, in every LAT: what the dispatcher's
    /// hash-memo pins count. Debug builds only — a release build counts
    /// nothing.
    #[cfg(debug_assertions)]
    pub fn key_hashes_on_this_thread() -> u64 {
        KEY_HASHES.with(std::cell::Cell::get)
    }

    /// Positions of the grouping attributes in the source class's values:
    /// with the object, all a group-key hash depends on.
    pub(crate) fn group_attrs(&self) -> &[usize] {
        &self.group_attr_idx
    }

    /// The hash of this LAT's group key of `obj`, which every LAT grouped by
    /// the same attributes shares. `None` if the object lacks a grouping
    /// attribute.
    pub(crate) fn group_hash(&self, obj: &Object) -> Option<u64> {
        self.with_group_key(obj, None, |key| key.hash)
    }

    /// The table that holds a group-key hash's row, picked by bits 32–35: a
    /// table's index reads the low 32 bits, so picking by them would leave
    /// most of every table's buckets unused.
    fn table_of(&self, hash: u64) -> &Latched<Table> {
        &self.tables[(hash >> 32) as usize & (self.tables.len() - 1)]
    }

    /// Lock contention events since creation (fast-path `try_*` acquisitions
    /// that found the latch held and had to block), over every table.
    pub fn lock_contentions(&self) -> u64 {
        let load = |t: &Latched<Table>| t.contentions.load(Ordering::Relaxed);
        self.tables.iter().map(load).sum()
    }

    /// Per-latch occupancy and contention snapshot: one entry per table, 16
    /// on an unbounded LAT and one on a bounded LAT.
    pub fn shard_stats(&self) -> Vec<LatShardStats> {
        self.tables.iter().map(|t| t.stats(Table::len)).collect()
    }

    /// Rows currently held. One atomic load — `Relaxed`, because the count
    /// publishes nothing: whoever acts on it (the evictor) holds the bounded
    /// LAT's one latch, under which every change to its count is made.
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

    /// Approximate bytes held: the rows' slots, group keys and aggregate
    /// states; on a bounded LAT also the heap, the heap positions and the
    /// hash index.
    pub fn memory_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.read().memory_bytes()).sum()
    }

    /// Run `f` on this LAT's group key of `obj`, read in place and hashed
    /// once — or not at all when `hash` is its [`Lat::group_hash`] already.
    /// `None` if the object lacks a grouping attribute.
    fn with_group_key<R>(
        &self,
        obj: &Object,
        hash: Option<u64>,
        f: impl FnOnce(&Probe) -> R,
    ) -> Option<R> {
        let values = obj.values();
        let idx = self.group_attr_idx.as_slice();
        if idx.iter().any(|&i| i >= values.len()) {
            return None;
        }
        let hash = hash.unwrap_or_else(|| Self::hash_key(idx.iter().map(|&i| &values[i])));
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

    /// Insert (or fold) an object into the LAT — the `Insert(LATName)` action.
    /// Returns rows evicted by the size bound, already materialized.
    pub fn insert(&self, obj: &Object) -> Result<Vec<Vec<Value>>> {
        self.insert_and(obj, true)
    }

    /// Like [`Lat::insert`], but with eviction-victim materialization optional:
    /// when no rule subscribes to this LAT's eviction event, the victims'
    /// output rows (which clone text attributes) need not be built.
    pub fn insert_and(&self, obj: &Object, want_evicted: bool) -> Result<Vec<Vec<Value>>> {
        self.insert_keyed(obj, None, want_evicted)
    }

    /// [`Lat::insert_and`] of an object whose [`Lat::group_hash`] is `hash`,
    /// when the caller has it.
    pub(crate) fn insert_keyed(
        &self,
        obj: &Object,
        hash: Option<u64>,
        want_evicted: bool,
    ) -> Result<Vec<Vec<Value>>> {
        let now = self.now_if_aging();
        self.with_group_key(obj, hash, |key| {
            let mut guard = self.table_of(key.hash).write();
            let t = &mut *guard;
            if let Some(s) = t.find(key) {
                self.modify(t, s, now, |slot| self.update_row(&mut slot.aggs, obj, now))?;
                self.inserts.incr();
                return Ok(Vec::new());
            }
            // A failed update leaves the new group in the scratch slot only.
            t.scratch.group.assign(key);
            t.scratch.aggs.iter_mut().for_each(ColumnState::reset);
            self.update_row(&mut t.scratch.aggs, obj, now)?;
            self.inserts.incr();
            Ok(self.admit(t, now, want_evicted))
        })
        .ok_or_else(|| {
            Error::Monitor(format!(
                "object of class {} lacks grouping attributes for LAT {}",
                obj.class, self.spec.name
            ))
        })?
    }

    /// Record a row count reached after size enforcement.
    fn note_high_water(&self, rows: usize) {
        if rows as u64 > self.row_high_water.load(Ordering::Relaxed) {
            self.row_high_water
                .fetch_max(rows as u64, Ordering::Relaxed);
        }
    }

    /// Publish the change to table `t`'s row count since it held `before`
    /// rows; the caller holds its latch.
    fn settle(&self, t: &Table, before: usize) {
        // The atomic add wraps, so a shrunk table's wrapped delta subtracts.
        let delta = t.len().wrapping_sub(before);
        if delta != 0 {
            self.occupancy.fetch_add(delta, Ordering::Relaxed);
        }
        self.note_high_water(self.row_count());
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

    /// Change a held row in place (the caller holds the table's latch). On a
    /// *folded* table the row then sifts to its new place; under `max_bytes`
    /// the byte count follows the change.
    fn modify<R>(
        &self,
        t: &mut Table,
        s: u32,
        now: Timestamp,
        f: impl FnOnce(&mut Slot) -> R,
    ) -> R {
        let slot = &mut t.slots[s as usize];
        t.bytes -= self.counted(slot);
        // A failed update may still have folded the leading aggregates.
        let result = f(slot);
        t.bytes += self.counted(slot);
        if t.class() == Some(Class::Folded) && t.resift(s, now) {
            self.victims_examined.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Put a *clocked* table's heap in order at `now`, once per insert: the
    /// caller passes whether it has already.
    fn rank(&self, t: &mut Table, now: Timestamp, ranked: &mut bool) {
        if t.class() == Some(Class::Clocked) && !*ranked {
            t.heapify(now);
            self.victims_examined
                .fetch_add(t.len() as u64, Ordering::Relaxed);
        }
        *ranked = true;
    }

    /// Take the new group built in `t.scratch` into table `t`, then evict
    /// while over the bound; returns the evicted output rows if
    /// `want_evicted`. A full table gives the newcomer the root's slot —
    /// unless the newcomer ranks below the root, when the newcomer is its
    /// own victim and never enters.
    fn admit(&self, t: &mut Table, now: Timestamp, want: bool) -> Vec<Vec<Value>> {
        let (mut evicted, mut ranked, before) = (Vec::new(), false, t.len());
        if self.spec.max_rows.is_some_and(|m| t.len() >= m.max(1)) {
            self.rank(t, now, &mut ranked);
            let root = t.heap[0];
            if t.less(&t.scratch, t.slot(root), now) {
                // Folds may have left the table over `max_bytes`: the
                // newcomer goes first, then `enforce` evicts as usual.
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted.extend(want.then(|| t.scratch.output(now)));
            } else {
                evicted.extend(self.remove(t, root, now, want));
                let s = self.place(t);
                t.set(0, s);
                t.sift_down(0, now);
            }
        } else {
            let s = self.place(t);
            t.push(s, now);
        }
        self.enforce(t, now, want, ranked, &mut evicted);
        self.settle(t, before);
        evicted
    }

    /// A row's share of the running byte count: its bytes when the spec sets
    /// `max_bytes`, else nothing, so other LATs pay nothing for the count.
    fn counted(&self, row: &Slot) -> usize {
        self.spec.max_bytes.map_or(0, |_| row.bytes())
    }

    /// Move the row built in `t.scratch` into a free slot and index it.
    fn place(&self, t: &mut Table) -> u32 {
        let s = t.free.pop().unwrap_or_else(|| {
            t.slots.push(Slot::blank(&self.spec));
            if t.ranking.is_some() {
                t.pos.push(0);
            }
            (t.slots.len() - 1) as u32
        });
        std::mem::swap(&mut t.slots[s as usize], &mut t.scratch);
        t.index(s);
        t.bytes += self.counted(t.slot(s));
        s
    }

    /// Evict the row in slot `s`, already out of the heap or about to leave
    /// its place to the newcomer: read its output if `want_evicted`, then free
    /// the slot.
    fn remove(&self, t: &mut Table, s: u32, now: Timestamp, want: bool) -> Option<Vec<Value>> {
        let output = want.then(|| t.slot(s).output(now));
        t.bytes -= self.counted(t.slot(s));
        t.unindex(s);
        t.free.push(s);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        output
    }

    /// Evict while over the row or byte bound — never the last row. `ranked`
    /// says whether this insert has put a *clocked* heap in order already.
    fn enforce(
        &self,
        t: &mut Table,
        now: Timestamp,
        want: bool,
        mut ranked: bool,
        out: &mut Vec<Vec<Value>>,
    ) {
        let over = |t: &Table| {
            self.spec.max_rows.is_some_and(|m| t.len() > m)
                || self.spec.max_bytes.is_some_and(|m| t.bytes > m)
        };
        while t.len() > 1 && over(t) {
            // "SQLCM automatically discards the row(s) … having smallest
            // value of the ordering columns" (§4.3).
            self.rank(t, now, &mut ranked);
            let s = t.pop(now);
            out.extend(self.remove(t, s, now, want));
        }
    }

    /// Look up the row whose grouping columns match `obj` (the rule engine's
    /// implicit-∃ binding, §5.2). Returns the materialized output row.
    pub fn lookup_for(&self, obj: &Object) -> Option<Vec<Value>> {
        self.lookup_with(obj, None, Slot::output)
    }

    /// [`Lat::lookup_for`] written over `out`, in its capacity: whether the
    /// LAT has the row. `out` is unspecified when it has not. `hash` is the
    /// object's [`Lat::group_hash`], when the caller has it.
    pub(crate) fn lookup_keyed(
        &self,
        obj: &Object,
        hash: Option<u64>,
        out: &mut Vec<Value>,
    ) -> bool {
        let found = self.lookup_with(obj, hash, |row, now| row.output_into(now, out));
        found.is_some()
    }

    /// `f` of `obj`'s row, under its table's latch.
    fn lookup_with<R>(
        &self,
        obj: &Object,
        hash: Option<u64>,
        f: impl FnOnce(&Slot, Timestamp) -> R,
    ) -> Option<R> {
        let now = self.now_if_aging();
        self.with_group_key(obj, hash, |key| {
            let t = self.table_of(key.hash).read();
            t.find(key).map(|s| f(t.slot(s), now))
        })?
    }

    /// Resolve a LAT column name to its position.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Materialize all rows (order unspecified). Every table's read latch
    /// is taken (in index order) before any row is materialized, so the
    /// snapshot is one consistent view: no concurrent insert, eviction, or
    /// reset can interleave mid-iteration.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        let now = self.clock.now_micros();
        let tables: Vec<_> = self.tables.iter().map(|t| t.read()).collect();
        let rows = tables
            .iter()
            .flat_map(|t| t.held().map(|s| t.slot(s).output(now)));
        rows.collect()
    }

    /// Materialize all rows sorted by the ordering spec, most important first.
    pub fn rows_ordered(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows();
        rows.sort_by(|a, b| cmp_importance(&self.order, |col| b[col].cmp(&a[col])));
        rows
    }

    /// `Reset(LATName)`: clear contents and free memory. Every table's
    /// write latch is held (acquired in index order) before the first row
    /// goes, so observers never see a partially reset LAT.
    pub fn reset(&self) {
        let mut tables: Vec<_> = self.tables.iter().map(|t| t.write()).collect();
        for t in &mut tables {
            self.occupancy.fetch_sub(t.len(), Ordering::Relaxed);
            t.clear();
        }
        self.resets.fetch_add(1, Ordering::Relaxed);
    }

    /// Seed a row from persisted values (LAT restore at startup, §4.3). AVG and
    /// STDEV are re-seeded with weight `seed_count` (exact when the LAT also
    /// persisted its COUNT; weight 1 otherwise). A held group's row is
    /// replaced. On a bounded LAT the size bound is enforced as for an
    /// insert: restoring more rows than fit keeps the most important ones
    /// (evictions are counted, no eviction event is raised).
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
                    ColumnState::Aging(Box::new(s))
                }
                None => ColumnState::Plain(state),
            });
        }
        let group = Group {
            hash: Self::hash_key(key.iter()),
            key: Key::from_slice(key),
        };
        let mut guard = self.table_of(group.hash).write();
        let t = &mut *guard;
        match t.find(&group) {
            Some(s) => {
                let before = t.len();
                self.modify(t, s, now, |slot| slot.aggs = aggs);
                self.enforce(t, now, false, false, &mut Vec::new());
                self.settle(t, before);
            }
            None => {
                (t.scratch.group, t.scratch.aggs) = (group, aggs);
                self.admit(t, now, false);
            }
        }
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

    /// Two folds into one row can reach its table's latch in the reverse
    /// order of their clock reads. The late, older value joins the newest block:
    /// the blocks stay ordered by start, one per Δ.
    #[test]
    fn aging_fold_stamped_before_the_newest_block_joins_it() {
        let spec = AgingSpec {
            window_micros: 10_000_000,
            block_micros: 1_000_000,
        };
        let mut col = ColumnState::Aging(Box::new(AgingState::new(LatAggFunc::Sum, spec)));
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

    /// A deterministic xorshift stream: `next(n)` is in `0..n`.
    fn xorshift(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        }
    }

    /// Over random insert/fold/evict/reset/seed schedules, on each victim
    /// class, a byte-bounded LAT's running byte count equals a from-scratch
    /// sum after every operation (`assert_consistent`), and the bound holds
    /// after every operation that may evict: a new group or a seed. A fold
    /// never evicts (§3.2.4), so one that grows a row may leave the table
    /// over the bound until the next new group.
    #[test]
    fn max_bytes_running_count_matches_a_from_scratch_sum() {
        const MAX_BYTES: usize = 1_200;
        for (order, aging) in [("Sig", false), ("N", false), ("N", true)] {
            let (clock, handle) = ManualClock::shared(0);
            let mut spec = LatSpec::new("Bytes")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N");
            if aging {
                spec = spec.aging(1_000, 100);
            }
            let spec = spec
                .aggregate(LatAggFunc::Last, "Query.Query_Text", "Txt")
                .order_by(order, true)
                .max_bytes(MAX_BYTES);
            let lat = Lat::new(spec, clock).unwrap();
            let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
            for step in 0..2_000 {
                let sig = next(24);
                let text = "x".repeat(next(40) as usize);
                let held = lat.lookup_for(&qobj(sig as i64, 0.0)).is_some();
                let may_evict = match next(20) {
                    0 => {
                        lat.reset();
                        false
                    }
                    1..=3 => {
                        let n = Value::Int(next(5) as i64 + 1);
                        lat.seed_row(&[Value::Int(sig as i64), n, Value::text(text)], 1)
                            .unwrap();
                        true
                    }
                    _ => {
                        let mut q = QueryInfo::synthetic(1, text);
                        q.logical_signature = Some(sig);
                        lat.insert(&query_object(&q)).unwrap();
                        !held
                    }
                };
                if aging && step % 7 == 0 {
                    handle.advance(50);
                }
                assert_consistent(&lat);
                let (bytes, rows) = {
                    let t = lat.tables[0].read();
                    (t.bytes, t.len())
                };
                if may_evict {
                    assert!(
                        bytes <= MAX_BYTES || rows == 1,
                        "{order}: {bytes} B in {rows}"
                    );
                }
            }
            assert!(lat.stats().evictions > 0, "{order}");
        }
    }

    /// The open-addressed hash index through equal hashes of distinct keys,
    /// runs that wrap around the end, removals from the middle of a run and
    /// growth: every held row stays findable, and a removed one is gone.
    #[test]
    fn hash_index_survives_collisions_wraparound_and_removal() {
        let spec = LatSpec::new("Index")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .max_rows(5);
        let mut t = Table::new(&spec, &[]);
        assert_eq!(t.buckets.len(), 16);
        let mut next = xorshift(7);
        let mut held: Vec<u32> = Vec::new();
        for step in 0..5_000 {
            if held.len() < 14 && (held.is_empty() || next(2) == 0) {
                // Four hashes, homed on the last three buckets and the first.
                let hash = [13, 14, 15, 16][next(4) as usize];
                let s = t.free.pop().unwrap_or_else(|| {
                    t.slots.push(Slot::blank(&spec));
                    (t.slots.len() - 1) as u32
                });
                let key = Key::One(Value::Int(step));
                t.slots[s as usize].group = Group { hash, key };
                t.index(s);
                held.push(s);
            } else {
                let s = held.swap_remove(next(held.len() as u64) as usize);
                t.unindex(s);
                t.free.push(s);
                assert_eq!(t.find(&t.slot(s).group), None, "a removed row is found");
            }
            assert_eq!(t.held().count(), held.len());
            for &s in &held {
                assert_eq!(t.find(&t.slot(s).group), Some(s));
            }
        }
        assert_eq!(t.buckets.len(), 32, "grown past 3/4 full");
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
    /// Occupancy and every table's hash index describe the same rows, each
    /// row in the table its hash picks. On a table that keeps a victim
    /// order, each held slot is in the heap exactly once at the index `pos`
    /// gives, a non-*clocked* heap is in order, and the running byte count
    /// equals a from-scratch sum.
    fn assert_consistent(lat: &Lat) {
        let mut rows = 0;
        for latched in lat.tables.iter() {
            let table = latched.read();
            let held: Vec<u32> = table.held().collect();
            rows += held.len();
            assert_eq!(table.len(), held.len(), "slots in use vs hash index");
            for &s in &held {
                assert!(!table.free.contains(&s), "slot {s} is held and free");
                let group = &table.slot(s).group;
                assert_eq!(table.find(group), Some(s), "index misses a row");
                let home = lat.table_of(group.hash);
                assert!(std::ptr::eq(home, latched), "a row in another's table");
            }
            if table.ranking.is_none() {
                assert!(table.heap.is_empty() && table.pos.is_empty(), "no order");
                continue;
            }
            // `pos[heap[i]] == i` makes the heap's slots distinct: with the
            // lengths equal, every held slot is in it exactly once.
            assert_eq!(table.heap.len(), held.len(), "heap vs hash index");
            for (i, &s) in table.heap.iter().enumerate() {
                assert!(held.contains(&s), "heap names free slot {s}");
                assert_eq!(table.pos[s as usize] as usize, i, "pos of slot {s}");
            }
            if table.class() != Some(Class::Clocked) {
                for i in 1..table.heap.len() {
                    assert!(!table.below(i, (i - 1) / 2, 0), "heap order at {i}");
                }
            }
            if lat.spec.max_bytes.is_some() {
                let bytes: usize = held.iter().map(|&s| table.slot(s).bytes()).sum();
                assert_eq!(table.bytes, bytes, "running byte count vs Σ slot bytes");
            }
        }
        assert_eq!(lat.row_count(), rows, "occupancy vs hash indexes");
        if let Some(m) = lat.spec.max_rows {
            assert!(rows <= m.max(1), "bound {m} exceeded: {rows}");
        }
    }

    /// The slot holding group `key` in a bounded LAT.
    fn slot_of(lat: &Lat, key: &[Value]) -> Option<u32> {
        let t = lat.tables[0].read();
        let found = t.held().find(|&s| t.slot(s).group.key.as_slice() == key);
        found
    }

    fn sigs(lat: &Lat) -> Vec<i64> {
        let mut sigs: Vec<i64> = lat.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        sigs.sort_unstable();
        sigs
    }

    #[test]
    fn restore_enforces_the_row_bound() {
        // Regression: `seed_row` used to insert without enforcing the bound,
        // so restoring more rows than `max_rows` left the LAT overfull until
        // some later insert evicted.
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
        // Each new group is built in the buffers of the row evicted before
        // it, which held "victim" in every column, and moves into its
        // victim's slot; a NULL attribute folds into none of the columns, so
        // any leftover would show.
        for (id, procedure) in [(3, None), (4, Some("new"))] {
            let victim = slot_of(&lat, &[Value::Int(id as i64 - 1)]);
            assert!(victim.is_some());
            lat.insert(&obj(id, procedure)).unwrap();
            let key = [Value::Int(id as i64)];
            assert_eq!(slot_of(&lat, &key), victim, "built in the victim's slot");
            let v = procedure.map_or(Value::Null, Value::text);
            let want = [&key[..], &[v.clone(), v.clone(), v.clone(), v]].concat();
            assert_eq!(lat.rows(), vec![want]);
            assert_consistent(&lat);
        }
        lat.reset();
        assert!(lat.rows().is_empty());
        assert_consistent(&lat);
    }

    #[test]
    fn a_rank_moving_fold_is_refiled_before_the_next_eviction() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Refiled")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Max, "Query.Duration", "D")
            .order_by("D", true)
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        lat.insert(&qobj(1, 1.0)).unwrap();
        lat.insert(&qobj(2, 5.0)).unwrap();
        // A fold moves group 1's rank from 1.0 to 3.0: its row is re-placed
        // in the heap under the table latch, before anything else can evict.
        lat.insert(&qobj(1, 3.0)).unwrap();
        assert_consistent(&lat);
        let evicted = lat.insert(&qobj(3, 4.0)).unwrap();
        assert_eq!(evicted, vec![vec![Value::Int(1), Value::Float(3.0)]]);
        assert_eq!((lat.row_count(), lat.stats().evictions), (2, 1));
        let evicted = lat.insert(&qobj(4, 6.0)).unwrap();
        assert_eq!(evicted, vec![vec![Value::Int(3), Value::Float(4.0)]]);
        assert_consistent(&lat);
        assert_eq!(sigs(&lat), vec![2, 4]);
    }

    #[test]
    fn a_new_group_below_the_minimum_is_its_own_victim() {
        // Fixed (ordered by the grouping column) and folded (by MAX).
        for order in ["Sig", "D"] {
            let (clock, _) = ManualClock::shared(0);
            let spec = LatSpec::new("Own")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                .order_by(order, true)
                .max_rows(3);
            let lat = Lat::new(spec, clock).unwrap();
            for sig in 5..8 {
                lat.insert(&qobj(sig, sig as f64)).unwrap();
            }
            let (rows, before) = (sigs(&lat), lat.stats());
            let evicted = lat.insert(&qobj(1, 1.0)).unwrap();
            assert_eq!(evicted, vec![vec![Value::Int(1), Value::Float(1.0)]]);
            let after = lat.stats();
            assert_eq!(after.inserts, before.inserts + 1);
            assert_eq!(after.evictions, before.evictions + 1);
            assert!(after.row_high_water <= 3, "{after:?}");
            assert_eq!(sigs(&lat), rows, "{order}: the table is unchanged");
            assert!(lat.lookup_for(&qobj(1, 0.0)).is_none());
            assert_consistent(&lat);
        }
    }

    /// A LAT bounded by rows and bytes, full by rows and pushed over its byte
    /// bound by folds: a new group below the minimum is its own victim, and
    /// the byte bound is enforced after it as after any other new group.
    #[test]
    fn an_own_victim_still_enforces_the_byte_bound() {
        const MAX_BYTES: usize = 1_000;
        let text_obj = |sig: u64, len: usize| {
            let mut q = QueryInfo::synthetic(1, "x".repeat(len));
            q.logical_signature = Some(sig);
            query_object(&q)
        };
        for order in ["Sig", "N"] {
            let (clock, _) = ManualClock::shared(0);
            let spec = LatSpec::new("RowsAndBytes")
                .group_by("Query.Logical_Signature", "Sig")
                .aggregate(LatAggFunc::Count, "", "N")
                .aggregate(LatAggFunc::Last, "Query.Query_Text", "Txt")
                .order_by(order, true)
                .max_rows(3)
                .max_bytes(MAX_BYTES);
            let lat = Lat::new(spec, clock).unwrap();
            let bytes = |lat: &Lat| lat.tables[0].read().bytes;
            for sig in [10, 11, 12] {
                lat.insert(&text_obj(sig, 1)).unwrap();
                lat.insert(&text_obj(sig, 1)).unwrap();
            }
            // Folds never evict: a longer LAST text leaves the table over,
            // by less than a short row's bytes.
            let room = MAX_BYTES - bytes(&lat);
            lat.insert(&text_obj(11, room + 50)).unwrap();
            assert!(bytes(&lat) > MAX_BYTES, "{order}: the folds overfill");
            assert_eq!(lat.row_count(), 3);
            let evicted = lat.insert(&text_obj(1, 1)).unwrap();
            let sigs_out: Vec<i64> = evicted.iter().map(|r| r[0].as_i64().unwrap()).collect();
            assert_eq!(sigs_out[0], 1, "{order}: the newcomer goes first");
            assert!(sigs_out.len() > 1, "{order}: and then held rows");
            assert!(bytes(&lat) <= MAX_BYTES, "{order}: {} B", bytes(&lat));
            assert_eq!(lat.stats().evictions, sigs_out.len() as u64);
            assert!(lat.lookup_for(&text_obj(1, 1)).is_none());
            assert_consistent(&lat);
        }
    }

    #[test]
    fn a_fold_that_lowers_a_rank_makes_it_the_next_victim() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Lowered")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Min, "Query.Duration", "Mn")
            .order_by("Mn", true)
            .max_rows(3);
        let lat = Lat::new(spec, clock).unwrap();
        for (sig, d) in [(1, 10.0), (2, 20.0), (3, 30.0)] {
            lat.insert(&qobj(sig, d)).unwrap();
        }
        // Group 3 was the most important; its MIN falls below everyone's.
        lat.insert(&qobj(3, 1.0)).unwrap();
        assert_eq!(lat.stats().victims_examined, 1, "one moved row");
        assert_consistent(&lat);
        let evicted = lat.insert(&qobj(4, 15.0)).unwrap();
        assert_eq!(evicted, vec![vec![Value::Int(3), Value::Float(1.0)]]);
        assert_eq!(sigs(&lat), vec![1, 2, 4]);
    }

    fn user_obj(sig: u64, user: &str) -> Object {
        let mut q = QueryInfo::synthetic(1, "q");
        (q.logical_signature, q.user) = (Some(sig), user.into());
        query_object(&q)
    }

    #[test]
    fn fixed_ties_on_the_first_of_two_grouping_columns_evict_the_smaller_key() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Pairs")
            .group_by("Query.Logical_Signature", "Sig")
            .group_by("Query.User", "Usr")
            .aggregate(LatAggFunc::Count, "", "N")
            .order_by("Sig", true)
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        lat.insert(&user_obj(1, "b")).unwrap();
        lat.insert(&user_obj(1, "c")).unwrap();
        let row = |user: &str| vec![Value::Int(1), Value::text(user), Value::Int(1)];
        assert_eq!(lat.insert(&user_obj(1, "a")).unwrap(), vec![row("a")]);
        assert_eq!(lat.insert(&user_obj(1, "d")).unwrap(), vec![row("b")]);
        let mut users: Vec<Value> = lat.rows().into_iter().map(|r| r[1].clone()).collect();
        users.sort();
        assert_eq!(users, [Value::text("c"), Value::text("d")]);
    }

    #[test]
    fn an_empty_ordering_spec_evicts_the_smallest_key() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Any")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        lat.insert(&qobj(5, 1.0)).unwrap();
        lat.insert(&qobj(3, 1.0)).unwrap();
        let row = |sig: i64| vec![vec![Value::Int(sig), Value::Int(1)]];
        assert_eq!(lat.insert(&qobj(4, 1.0)).unwrap(), row(3));
        assert_eq!(lat.insert(&qobj(1, 1.0)).unwrap(), row(1));
        assert_eq!(sigs(&lat), vec![4, 5]);
    }

    #[test]
    fn folded_ties_on_equal_count_evict_the_larger_key() {
        let (clock, _) = ManualClock::shared(0);
        let spec = LatSpec::new("Counted")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .order_by("N", true)
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        lat.insert(&qobj(5, 1.0)).unwrap();
        lat.insert(&qobj(3, 1.0)).unwrap();
        let row = |sig: i64| vec![vec![Value::Int(sig), Value::Int(1)]];
        assert_eq!(lat.insert(&qobj(4, 1.0)).unwrap(), row(5));
        assert_eq!(lat.insert(&qobj(6, 1.0)).unwrap(), row(6));
        assert_eq!(sigs(&lat), vec![3, 4]);
    }

    /// A clocked LAT breaks ties as a folded one does, whatever the hash
    /// order: two groups with different counts age to a tie at 0, and a
    /// newcomer evicts the larger key of the pair.
    #[test]
    fn clocked_ties_evict_the_larger_key() {
        let (clock, handle) = ManualClock::shared(0);
        let spec = LatSpec::new("ClockedTies")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .aging(1_000, 100)
            .order_by("N", true)
            .max_rows(2);
        let lat = Lat::new(spec, clock).unwrap();
        let mut next = xorshift(0xC10C);
        for pair in 0..16 {
            let (a, b) = (next(1 << 20) as i64, next(1 << 20) as i64);
            if a == b {
                continue;
            }
            lat.reset();
            for _ in 0..1 + pair % 3 {
                lat.insert(&qobj(a, 1.0)).unwrap();
            }
            lat.insert(&qobj(b, 1.0)).unwrap();
            handle.advance(2_000);
            let evicted = lat.insert(&qobj(-1, 1.0)).unwrap();
            let row = vec![vec![Value::Int(a.max(b)), Value::Int(0)]];
            assert_eq!(evicted, row, "pair {pair}: {a} and {b} tie at 0");
            assert_eq!(sigs(&lat), vec![-1, a.min(b)]);
        }
    }

    #[test]
    fn an_evicted_row_is_read_before_its_row_is_recycled() {
        // Two grouping columns, one of them text: a recycled slot's key is
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
        // Each new group is the most important and sinks to a leaf, where
        // raising its MAX leaves it: no fold moves a row.
        assert_eq!(stats.victims_examined, 0, "no row moved");
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

        // Clocked: an aging ordering column re-ranks every row held before a
        // newcomer that may evict enters — n per full insert.
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
        assert_eq!(
            lat.stats().victims_examined,
            2 * 3,
            "3 rows re-ranked twice"
        );
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
        // A bounded row is the same slot as an unbounded one, plus its heap
        // entry and its heap position, a `u32` each, whatever it is ranked
        // by. The table's hash index has room for the 8 rows and a newcomer
        // within the load bound, in a power of two of buckets.
        let row = 2 * std::mem::size_of::<u32>();
        let buckets = ((8 + 1) * BUCKETS_PER_ROW).next_power_of_two();
        let index = buckets * std::mem::size_of::<u64>();
        assert_eq!(fixed, unbounded + 8 * row + index);
        assert_eq!(folded, fixed, "one footprint for every class");
    }

    /// The heap compares rows by `Value::cmp`, in each ordering column's own
    /// direction: over edge values of each kind, seeded in a scrambled order
    /// into a LAT of every size up to their number, what stays is the `k`
    /// most important by a sort of the values themselves.
    #[test]
    fn the_heap_keeps_the_most_important_edge_values() {
        let ints = [i64::MIN, -2, -1, 0, 1, i64::MAX].map(Value::Int);
        let floats = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ]
        .map(Value::Float);
        let stamps = [0, 1, u64::MAX >> 1, u64::MAX].map(Value::Timestamp);
        let mut next = xorshift(11);
        for vals in [&ints[..], &floats[..], &stamps[..]] {
            for desc in [true, false] {
                for k in 1..=vals.len() {
                    let (clock, _) = ManualClock::shared(0);
                    let spec = LatSpec::new("Edges")
                        .group_by("Query.Logical_Signature", "Sig")
                        .aggregate(LatAggFunc::Max, "Query.Duration", "D")
                        .order_by("D", desc)
                        .max_rows(k);
                    let lat = Lat::new(spec, clock).unwrap();
                    let mut order: Vec<usize> = (0..vals.len()).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, next(i as u64 + 1) as usize);
                    }
                    for &i in &order {
                        lat.seed_row(&[Value::Int(i as i64), vals[i].clone()], 1)
                            .unwrap();
                        assert_consistent(&lat);
                    }
                    // Most important first; equal values keep the smaller key.
                    let mut want: Vec<usize> = (0..vals.len()).collect();
                    want.sort_by(|&a, &b| match desc {
                        true => vals[b].cmp(&vals[a]),
                        false => vals[a].cmp(&vals[b]),
                    });
                    want.truncate(k);
                    want.sort_unstable();
                    let want: Vec<i64> = want.into_iter().map(|i| i as i64).collect();
                    assert_eq!(sigs(&lat), want, "{vals:?} desc {desc}, k {k}");
                }
            }
        }
    }

    #[test]
    fn multi_column_keys_and_the_heap_stay_in_step() {
        // Two grouping columns take the owned-key probe; two ordering
        // columns, a folded one and a grouping one in the other direction,
        // and a tie-break column make the comparator read three columns.
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
        // A fold re-places its row at once, in the heap it had.
        let before = lat.memory_bytes();
        lat.insert(&qobj(2, 1.0)).unwrap();
        assert_consistent(&lat);
        assert_eq!(lat.memory_bytes(), before);
        // Re-seeding a held group re-places it; reset empties the heap.
        let usr = row[1].clone();
        lat.seed_row(&[Value::Int(1), usr, Value::Int(9)], 1)
            .unwrap();
        assert_consistent(&lat);
        assert_eq!(lat.memory_bytes(), before);
        lat.reset();
        assert_consistent(&lat);
        assert_eq!(
            lat.memory_bytes(),
            8 * std::mem::size_of::<u64>(),
            "the index"
        );
    }

    #[test]
    fn reset_racing_new_group_inserts_keeps_map_index_and_count_in_step() {
        // `reset` takes the table latch, so it cannot land between a
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
        let unbounded = LatSpec::new("Race")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N");
        for spec in [folded, fixed, unbounded] {
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
        // filed used to leave the row in the victim order twice — a stale
        // entry that later evicted a live row.
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
