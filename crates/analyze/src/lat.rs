//! What a LAT is: the declarative specification (paper §4.3) that
//! `sqlcm-core` builds its tables from and the analyzer derives LAT schemas
//! from.

use sqlcm_common::{Error, Result};

use crate::schema::ClassName;

/// Aggregation functions available in LATs: the aggregate kernel's, which
/// the engine's GROUP BY folds through too.
pub use sqlcm_sql::agg::AggFunc as LatAggFunc;

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
    /// Bound on the approximate bytes of the rows held: their keys and
    /// aggregate states, not the table's index structures.
    pub max_bytes: Option<usize>,
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

    /// Whether the LAT has a size bound — only bounded LATs evict rows and
    /// hence raise `LatEviction` events.
    pub fn bounded(&self) -> bool {
        self.max_rows.is_some() || self.max_bytes.is_some()
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
        Ok(())
    }

    /// The monitored class whose objects feed this LAT.
    pub fn source_class(&self) -> &ClassName {
        &self.group_by[0].source.class
    }
}
