//! The aggregate kernel: what each aggregate function does with a value, a
//! NULL, a non-number and a merge, and what type it yields.
//!
//! One kernel serves the host engine's `GROUP BY` and every LAT column
//! (paper §4.3). The paper casts probe values to server types "so the
//! server's aggregation machinery can be reused"; here both sides fold
//! through the same [`AggState`].

use std::sync::Arc;

use sqlcm_common::{DataType, Error, Result, Value};

/// Aggregate functions. SQL names COUNT, SUM, AVG, MIN, MAX and STDEV; LATs
/// also keep FIRST and LAST (paper §4.3: "in addition to the standard
/// aggregation functions COUNT, SUM, and AVG, SQLCM also supports … STDEV
/// and FIRST and LAST").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    StdDev,
    Min,
    Max,
    First,
    Last,
}

impl AggFunc {
    /// The aggregate a SQL function name (upper case) calls, if any.
    pub fn parse(name: &str) -> Option<AggFunc> {
        Some(match name {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "STDEV" | "STDDEV" => AggFunc::StdDev,
            _ => return None,
        })
    }

    /// The type [`AggState::finish`] yields over values of type `source`
    /// (`None`: unknown, or no source).
    pub fn result_type(self, source: Option<DataType>) -> Option<DataType> {
        match self {
            AggFunc::Count => Some(DataType::Int),
            AggFunc::Sum | AggFunc::Avg | AggFunc::StdDev => Some(DataType::Float),
            AggFunc::Min | AggFunc::Max | AggFunc::First | AggFunc::Last => source,
        }
    }
}

/// Mergeable aggregate state — also the per-block state of a LAT's aging
/// aggregates.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
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
    #[inline]
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                sum: 0.0,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::StdDev => AggState::StdDev {
                n: 0,
                sum: 0.0,
                sumsq: 0.0,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::First => AggState::First(None),
            AggFunc::Last => AggState::Last(None),
        }
    }

    pub fn func(&self) -> AggFunc {
        match self {
            AggState::Count(_) => AggFunc::Count,
            AggState::Sum { .. } => AggFunc::Sum,
            AggState::Avg { .. } => AggFunc::Avg,
            AggState::StdDev { .. } => AggFunc::StdDev,
            AggState::Min(_) => AggFunc::Min,
            AggState::Max(_) => AggFunc::Max,
            AggState::First(_) => AggFunc::First,
            AggState::Last(_) => AggFunc::Last,
        }
    }

    /// Fold one value in. `None` is an absent value — `COUNT(*)`'s row, a
    /// source-less LAT COUNT's object — which COUNT counts and the numeric
    /// aggregates skip; NULL is skipped by all but FIRST and LAST. A
    /// non-numeric SUM, AVG or STDEV input is a [`Error::TypeError`].
    #[inline]
    pub fn update(&mut self, v: Option<&Value>) -> Result<()> {
        let numeric = |v: &Value, what: &str| {
            v.as_f64()
                .ok_or_else(|| Error::TypeError(format!("{what} of non-numeric value {v}")))
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
            AggState::Last(cur) => match (cur.as_ref(), v) {
                // The same shared text again: no reference-count traffic.
                (Some(Value::Text(was)), Some(Value::Text(new))) if Arc::ptr_eq(was, new) => {}
                (_, Some(val)) => *cur = Some(val.clone()),
                (_, None) => {}
            },
        }
        Ok(())
    }

    /// Merge `other`, the state of values folded *after* this one's.
    #[inline]
    pub fn merge(&mut self, other: &AggState) {
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

    /// The aggregate's value, of the type [`AggFunc::result_type`] names.
    /// STDEV is the population deviation (0.0 over one value). Over no
    /// values COUNT is 0 and every other aggregate NULL.
    #[inline]
    pub fn finish(&self) -> Value {
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

    /// Approximate bytes held: the state plus a kept value's heap share.
    pub fn size_bytes(&self) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [AggFunc; 8] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::StdDev,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::First,
        AggFunc::Last,
    ];

    /// An input: absent, NULL, or an integer-valued number (so float sums
    /// stay exact whatever the grouping), as an INT or a FLOAT.
    fn input() -> impl Strategy<Value = Option<Value>> {
        (0u8..8, -40i64..40).prop_map(|(kind, n)| match kind {
            0 => None,
            1 => Some(Value::Null),
            2 | 3 => Some(Value::Float(n as f64)),
            _ => Some(Value::Int(n)),
        })
    }

    fn fold(func: AggFunc, values: &[Option<Value>]) -> AggState {
        let mut state = AggState::new(func);
        for v in values {
            state.update(v.as_ref()).unwrap();
        }
        state
    }

    #[test]
    fn finish_yields_the_result_type() {
        let values = [Some(Value::Int(3)), Some(Value::Int(4))];
        for f in ALL {
            assert_eq!(AggState::new(f).func(), f);
            let ty = fold(f, &values).finish().data_type();
            assert_eq!(ty, f.result_type(Some(DataType::Int)), "{f:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn folding_a_then_b_equals_merging_their_folds(
            a in proptest::collection::vec(input(), 0..12),
            b in proptest::collection::vec(input(), 0..12),
        ) {
            let both: Vec<_> = a.iter().chain(&b).cloned().collect();
            for f in ALL {
                let mut merged = fold(f, &a);
                merged.merge(&fold(f, &b));
                let whole = fold(f, &both);
                prop_assert_eq!(&merged, &whole, "{:?}", f);
                prop_assert_eq!(merged.finish(), whole.finish(), "{:?}", f);
            }
            // FIRST and LAST keep the order: the first and last present value.
            let present = || both.iter().flatten();
            prop_assert_eq!(
                fold(AggFunc::First, &both).finish(),
                present().next().cloned().unwrap_or(Value::Null)
            );
            prop_assert_eq!(
                fold(AggFunc::Last, &both).finish(),
                present().last().cloned().unwrap_or(Value::Null)
            );
            // A non-numeric SUM, AVG or STDEV input is a type error and
            // leaves the state as it was; the other aggregates take it.
            let text = Value::text("x");
            for f in ALL {
                let mut state = fold(f, &a);
                let numeric = matches!(f, AggFunc::Sum | AggFunc::Avg | AggFunc::StdDev);
                match state.update(Some(&text)) {
                    Err(Error::TypeError(_)) if numeric => prop_assert_eq!(&state, &fold(f, &a)),
                    other => prop_assert!(other.is_ok() && !numeric, "{:?}: {:?}", f, other),
                }
            }
        }
    }
}
