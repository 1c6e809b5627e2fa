//! Order statistics used for every reported number: a per-round statistic is
//! a percentile of that round's samples, and a reported metric is the median
//! of the per-round statistics together with its quartiles.

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so spreads
/// printed here can be compared with the driver's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// `(q3 - q1) / median`: the run-to-run spread as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => Quartiles {
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
        },
        1 => Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        },
        n => {
            let at = |k: usize| {
                // Exclusive method: the k-th cut point sits at position
                // k(n+1)/4 (1-based); beyond the ends it extrapolates from
                // the outermost pair, as Python does.
                let pos = (k * (n + 1)) as f64 / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
            };
            Quartiles {
                q1: at(1),
                median: at(2),
                q3: at(3),
            }
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// The `p`-th percentile (0 < p ≤ 1) of already **sorted** samples
/// (nearest-rank: the smallest sample with at least `p` of the data at or
/// below it).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q.q1 - 2.75).abs() < 1e-12);
        assert!((q.median - 5.5).abs() < 1e-12);
        assert!((q.q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[10.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }
}
