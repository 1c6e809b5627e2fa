//! The shared monitoring task of §6.2.2: "determining the 10 most expensive
//! queries during a given workload", and the accuracy metric used in Figure 3's
//! discussion ("5 of the 10 most expensive queries were not part of the PULL
//! result set …").

/// One query execution's cost, as a monitor observed (or the ground truth).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCost {
    pub query_id: u64,
    pub text: std::sync::Arc<str>,
    pub duration_micros: u64,
}

impl From<sqlcm_common::QueryInfo> for QueryCost {
    fn from(q: sqlcm_common::QueryInfo) -> Self {
        QueryCost {
            query_id: q.id,
            text: q.text,
            duration_micros: q.duration_micros,
        }
    }
}

/// Top-k by duration (descending), query id as the tiebreaker for determinism.
pub fn top_k(costs: &[QueryCost], k: usize) -> Vec<QueryCost> {
    let mut sorted: Vec<QueryCost> = costs.to_vec();
    sorted.sort_by(|a, b| {
        b.duration_micros
            .cmp(&a.duration_micros)
            .then(a.query_id.cmp(&b.query_id))
    });
    sorted.truncate(k);
    sorted
}

/// How many queries of the true top-k the monitor's top-k misses.
pub fn missed_count(truth: &[QueryCost], observed: &[QueryCost]) -> usize {
    truth
        .iter()
        .filter(|t| !observed.iter().any(|o| o.query_id == t.query_id))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u64, d: u64) -> QueryCost {
        QueryCost {
            query_id: id,
            text: format!("q{id}").into(),
            duration_micros: d,
        }
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let costs = vec![c(1, 10), c(2, 30), c(3, 20), c(4, 30)];
        let top = top_k(&costs, 2);
        assert_eq!(top.iter().map(|x| x.query_id).collect::<Vec<_>>(), [2, 4]);
        assert_eq!(top_k(&costs, 10).len(), 4);
        assert!(top_k(&[], 3).is_empty());
    }

    #[test]
    fn missed_counts() {
        let truth = vec![c(1, 10), c(2, 9), c(3, 8)];
        let observed = vec![c(2, 9), c(9, 100)];
        assert_eq!(missed_count(&truth, &observed), 2);
        assert_eq!(missed_count(&truth, &truth), 0);
        assert_eq!(missed_count(&truth, &[]), 3);
    }
}
