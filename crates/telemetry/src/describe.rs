//! The one description of an exported metric slice.
//!
//! A snapshot slice declares each field it exports exactly once, in export
//! order, as a `(name, read)` row of its [`Describe::FIELDS`] table — the
//! way the analyzer declares a monitored class's attributes. Writers
//! (`sqlcm-core`'s JSON and text renderers) walk that table, so a metric has
//! one name wherever it is read, and adding one is one row.

use crate::HistogramSnapshot;

/// One exported field: its name, and how to read its value off the slice.
pub type Field<T> = (&'static str, for<'a> fn(&'a T) -> Metric<'a>);

/// A slice's fields with their values, in export order.
pub type Fields<'a> = Vec<(&'static str, Metric<'a>)>;

/// One exported value.
pub enum Metric<'a> {
    Count(u64),
    Flag(bool),
    Label(&'a str),
    /// A derived ratio, written to four decimal places.
    Ratio(f64),
    /// A latency histogram over nanoseconds, written as its summary.
    Nanos(&'a HistogramSnapshot),
    /// A nested slice, or `None` for an absent one.
    Slice(Option<Fields<'a>>),
    List(Vec<Metric<'a>>),
}

impl<'a> Metric<'a> {
    pub fn slice<T: Describe>(of: &'a T) -> Metric<'a> {
        Metric::Slice(Some(of.describe()))
    }

    pub fn list<T: Describe>(items: &'a [T]) -> Metric<'a> {
        Metric::List(items.iter().map(Metric::slice).collect())
    }
}

/// A snapshot slice that declares its exported fields.
pub trait Describe: Sized + 'static {
    const FIELDS: &'static [Field<Self>];

    fn describe(&self) -> Fields<'_> {
        Self::FIELDS
            .iter()
            .map(|(name, read)| (*name, read(self)))
            .collect()
    }
}

/// The summary a histogram exports: the 64 raw buckets stay internal.
impl Describe for HistogramSnapshot {
    const FIELDS: &'static [Field<Self>] = &[
        ("count", |h| Metric::Count(h.count)),
        ("sum", |h| Metric::Count(h.sum)),
        ("max", |h| Metric::Count(h.max)),
        ("p50", |h| Metric::Count(h.p50())),
        ("p95", |h| Metric::Count(h.p95())),
        ("p99", |h| Metric::Count(h.p99())),
    ];
}
