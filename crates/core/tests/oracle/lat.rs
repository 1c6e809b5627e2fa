//! The reference LAT: a *deliberately naive* re-implementation of the LAT
//! semantics of the paper's §4.3, against which both production stores —
//! the sharded unbounded table and the latched bounded one — are checked.
//!
//! [`ReferenceLat`] has one global mutex, no sharding and no incremental
//! aggregate state. It keeps the **raw event log** per group —
//! `(timestamp, per-aggregate source values)` — and recomputes every
//! aggregate from scratch on observation. That makes it slow and obviously
//! correct, which is the point: the proptest harnesses in
//! `crates/core/tests/lat_differential.rs` replay randomized operation
//! sequences against both implementations and assert identical observable
//! state (rows, aggregates, eviction victims, reset output).
//!
//! Two insert modes:
//!
//! * [`ReferenceLat::insert`] — self-contained: picks its own eviction victim
//!   (the globally smallest ordering key). Tie-breaking between rows with
//!   equal ordering keys is arbitrary in *both* implementations, so this mode
//!   is only deterministic when the workload avoids ties.
//! * [`ReferenceLat::insert_matching`] — differential: folds the event in,
//!   then *validates* the victims the production LAT reported (each must
//!   exist, carry the globally minimal ordering key at eviction time, and
//!   match the recomputed output row) and removes those same rows. This keeps
//!   both tables in lock-step even under ties.
//!
//! Attributes are read by name from the object ([`Object::get`]). Byte
//! bounds (`max_bytes`) are intentionally unsupported: they are defined in
//! terms of the production table's internal representation sizes, which a
//! log-based oracle cannot (and should not) reproduce.

use std::sync::Mutex;

use sqlcm_common::{Error, Result, SharedClock, Timestamp, Value};
use sqlcm_core::lat::{AgingSpec, AttrRef, LatAggFunc, LatSpec};
use sqlcm_core::objects::Object;

/// One logged event: insertion timestamp plus the value delivered to each
/// aggregate column (`None` = source-less COUNT counting objects; note
/// `Some(Value::Null)` is distinct and means an attribute that was NULL).
type RefEvent = (Timestamp, Vec<Option<Value>>);

struct RefInner {
    /// Insertion-ordered rows: (group key, event log).
    rows: Vec<(Vec<Value>, Vec<RefEvent>)>,
}

/// The naive single-lock reference implementation. See the module docs.
pub struct ReferenceLat {
    pub spec: LatSpec,
    clock: SharedClock,
    /// Output column names: group aliases, then aggregate aliases.
    columns: Vec<String>,
    /// Positions of the ordering columns in the output row, with desc flags.
    ordering_idx: Vec<(usize, bool)>,
    /// The attribute each grouping column reads.
    group_attrs: Vec<String>,
    /// The attribute each aggregate reads (`None`: a source-less COUNT).
    agg_attrs: Vec<Option<String>>,
    inner: Mutex<RefInner>,
}

impl ReferenceLat {
    pub fn new(spec: LatSpec, clock: SharedClock) -> Result<ReferenceLat> {
        spec.validate()?;
        if spec.max_bytes.is_some() {
            return Err(Error::Monitor(format!(
                "ReferenceLat {}: byte bounds are not supported by the oracle",
                spec.name
            )));
        }
        let columns = spec.columns();
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
        // A source must name an attribute of its class's schema table.
        let attr = |src: &AttrRef| -> Result<String> {
            let known = src.class.schema().is_some_and(|schema| {
                schema
                    .attrs
                    .iter()
                    .any(|(name, _)| name.eq_ignore_ascii_case(&src.attr))
            });
            if !known {
                return Err(Error::Monitor(format!(
                    "class {} has no attribute {} (LAT {})",
                    src.class, src.attr, spec.name
                )));
            }
            Ok(src.attr.clone())
        };
        let group_attrs = spec
            .group_by
            .iter()
            .map(|g| attr(&g.source))
            .collect::<Result<_>>()?;
        let agg_attrs = spec
            .aggregates
            .iter()
            .map(|a| a.source.as_ref().map(attr).transpose())
            .collect::<Result<_>>()?;
        Ok(ReferenceLat {
            spec,
            clock,
            columns,
            ordering_idx,
            group_attrs,
            agg_attrs,
            inner: Mutex::new(RefInner { rows: Vec::new() }),
        })
    }

    /// Output column names: the attributes of this LAT's evicted rows.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub fn row_count(&self) -> usize {
        self.inner.lock().unwrap().rows.len()
    }

    /// Self-contained insert: folds the event, then evicts the globally
    /// smallest ordering key while over the row bound. Returns the evicted
    /// output rows (materialized at eviction time), like `Lat::insert`.
    pub fn insert(&self, obj: &Object) -> Result<Vec<Vec<Value>>> {
        let now = self.clock.now_micros();
        let mut inner = self.inner.lock().unwrap();
        self.fold(&mut inner, obj, now)?;
        let mut evicted = Vec::new();
        while self
            .spec
            .max_rows
            .is_some_and(|m| inner.rows.len() > m && inner.rows.len() > 1)
        {
            let victim = (0..inner.rows.len())
                .min_by(|&a, &b| {
                    let ka = self.ordering_key_of(&inner.rows[a], now);
                    let kb = self.ordering_key_of(&inner.rows[b], now);
                    self.cmp_ordering_keys(&ka, &kb)
                })
                .expect("non-empty");
            let row = inner.rows.remove(victim);
            evicted.push(self.output_of(&row, now));
        }
        Ok(evicted)
    }

    /// Differential insert: folds the event, then validates and removes the
    /// victims the production LAT reported for the *same* insert. Panics (via
    /// `assert!`) when a victim is not a legal global minimum — that is the
    /// oracle's verdict.
    pub fn insert_matching(&self, obj: &Object, victims: &[Vec<Value>]) -> Result<()> {
        let now = self.clock.now_micros();
        let mut inner = self.inner.lock().unwrap();
        self.fold(&mut inner, obj, now)?;
        for victim in victims {
            let n_group = self.spec.group_by.len();
            let vkey = &victim[..n_group];
            let pos = inner
                .rows
                .iter()
                .position(|(k, _)| k == vkey)
                .unwrap_or_else(|| panic!("evicted group {vkey:?} not present in the oracle"));
            let vord = self.ordering_key_of(&inner.rows[pos], now);
            for (i, row) in inner.rows.iter().enumerate() {
                if i == pos {
                    continue;
                }
                let k = self.ordering_key_of(row, now);
                assert!(
                    !self.cmp_ordering_keys(&k, &vord).is_lt(),
                    "LAT evicted {victim:?} but the oracle holds a less important row \
                     {:?} (ordering {k:?} < {vord:?})",
                    row.0
                );
            }
            let expect = self.output_of(&inner.rows[pos], now);
            assert_eq!(
                &expect, victim,
                "evicted row's materialized output diverges from the oracle"
            );
            inner.rows.remove(pos);
        }
        if let Some(m) = self.spec.max_rows {
            assert!(
                inner.rows.len() <= m.max(1),
                "LAT reported {} victims but the oracle still holds {} rows (bound {m})",
                victims.len(),
                inner.rows.len()
            );
        }
        Ok(())
    }

    /// Append an event to its group's log (creating the row if new).
    fn fold(&self, inner: &mut RefInner, obj: &Object, now: Timestamp) -> Result<()> {
        let read = |attr: &String| {
            obj.get(attr).cloned().ok_or_else(|| {
                Error::Monitor(format!(
                    "object of class {} has no attribute {attr} for LAT {}",
                    obj.class, self.spec.name
                ))
            })
        };
        let key: Vec<Value> = self.group_attrs.iter().map(read).collect::<Result<_>>()?;
        let event: Vec<Option<Value>> = self
            .agg_attrs
            .iter()
            .map(|attr| attr.as_ref().map(read).transpose())
            .collect::<Result<_>>()?;
        match inner.rows.iter_mut().find(|(k, _)| *k == key) {
            Some((_, log)) => log.push((now, event)),
            None => inner.rows.push((key, vec![(now, event)])),
        }
        Ok(())
    }

    /// Recompute one output row from the raw log.
    fn output_of(&self, row: &(Vec<Value>, Vec<RefEvent>), now: Timestamp) -> Vec<Value> {
        let (key, log) = row;
        let mut out = key.clone();
        for (col, agg) in self.spec.aggregates.iter().enumerate() {
            out.push(recompute(agg.func, agg.aging, log, col, now));
        }
        out
    }

    fn ordering_key_of(&self, row: &(Vec<Value>, Vec<RefEvent>), now: Timestamp) -> Vec<Value> {
        let out = self.output_of(row, now);
        self.ordering_idx
            .iter()
            .map(|(idx, _)| out[*idx].clone())
            .collect()
    }

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

    /// Materialize all rows (insertion order).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        let now = self.clock.now_micros();
        let inner = self.inner.lock().unwrap();
        inner.rows.iter().map(|r| self.output_of(r, now)).collect()
    }

    /// Materialize the row whose grouping columns match `obj`.
    pub fn lookup_for(&self, obj: &Object) -> Option<Vec<Value>> {
        let key: Vec<Value> = self
            .group_attrs
            .iter()
            .map(|attr| obj.get(attr).cloned())
            .collect::<Option<_>>()?;
        let now = self.clock.now_micros();
        let inner = self.inner.lock().unwrap();
        inner
            .rows
            .iter()
            .find(|(k, _)| *k == key)
            .map(|r| self.output_of(r, now))
    }

    /// Clear all rows (`Reset`).
    pub fn reset(&self) {
        self.inner.lock().unwrap().rows.clear();
    }
}

/// Is the event's value included for aggregation at `now`? Aging columns
/// include an event iff its Δ-aligned block still overlaps the window —
/// blocks are the unit of aging, so up to one block of already-expired
/// values is retained at the window boundary (§4.3).
fn included(aging: Option<AgingSpec>, te: Timestamp, now: Timestamp) -> bool {
    match aging {
        None => true,
        Some(ag) => {
            let block_start = te - te % ag.block_micros;
            block_start + ag.block_micros > now.saturating_sub(ag.window_micros)
        }
    }
}

/// Naively recompute one aggregate column from a group's event log.
fn recompute(
    func: LatAggFunc,
    aging: Option<AgingSpec>,
    log: &[RefEvent],
    col: usize,
    now: Timestamp,
) -> Value {
    let live = log
        .iter()
        .filter(|(te, _)| included(aging, *te, now))
        .map(|(_, vals)| vals[col].as_ref());
    // A non-null numeric scan in log order (matches the production left-fold).
    let nums = || {
        log.iter()
            .filter(|(te, _)| included(aging, *te, now))
            .filter_map(|(_, vals)| vals[col].as_ref())
            .filter(|v| !v.is_null())
            .filter_map(|v| v.as_f64())
    };
    match func {
        LatAggFunc::Count => {
            // Source-less COUNT counts objects; with a source it counts
            // non-null values.
            let n = live
                .filter(|v| v.is_none() || v.is_some_and(|v| !v.is_null()))
                .count();
            Value::Int(n as i64)
        }
        LatAggFunc::Sum => {
            let mut any = false;
            let mut sum = 0.0;
            for x in nums() {
                any = true;
                sum += x;
            }
            if any {
                Value::Float(sum)
            } else {
                Value::Null
            }
        }
        LatAggFunc::Avg => {
            let mut n = 0i64;
            let mut sum = 0.0;
            for x in nums() {
                n += 1;
                sum += x;
            }
            if n > 0 {
                Value::Float(sum / n as f64)
            } else {
                Value::Null
            }
        }
        LatAggFunc::StdDev => {
            let (mut n, mut sum, mut sumsq) = (0i64, 0.0, 0.0);
            for x in nums() {
                n += 1;
                sum += x;
                sumsq += x * x;
            }
            if n > 0 {
                let mean = sum / n as f64;
                Value::Float((sumsq / n as f64 - mean * mean).max(0.0).sqrt())
            } else {
                Value::Null
            }
        }
        LatAggFunc::Min => live
            .flatten()
            .filter(|v| !v.is_null())
            .min()
            .cloned()
            .unwrap_or(Value::Null),
        LatAggFunc::Max => live
            .flatten()
            .filter(|v| !v.is_null())
            .max()
            .cloned()
            .unwrap_or(Value::Null),
        // FIRST keeps the first *delivered* value, NULL included; LAST the
        // most recent delivered value.
        LatAggFunc::First => live.flatten().next().cloned().unwrap_or(Value::Null),
        LatAggFunc::Last => live.flatten().last().cloned().unwrap_or(Value::Null),
    }
}
