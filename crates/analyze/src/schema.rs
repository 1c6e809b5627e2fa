//! The typed schema universe the analyzer checks references against.
//!
//! Two kinds of "relations" can appear in a rule condition:
//!
//! * **monitored object classes** ([`ClassName`]: `Query`, `Transaction`, …) —
//!   fixed schemas, declared once in the `*_ATTRS` tables below
//!   ([`ClassName::schema`]); `sqlcm-core`'s object constructors lay their
//!   values out in exactly this order and derive their attribute names and
//!   `static_attr_index` from it;
//! * **LATs** — schemas derived from the registered `LatSpec`s, with column
//!   types inferred from the aggregate function and its source attribute.
//!
//! A class is *iterable* when the rule engine can enumerate live instances for
//! it outside an event payload (active queries, blocked pairs, catalog
//! tables). Non-iterable classes are only in scope when the event payload
//! carries them — the joinability and dead-rule checks key off this flag.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use sqlcm_common::DataType;

use crate::diagnostics::{Code, Diagnostic};
use crate::lat::{AttrRef, LatAggFunc, LatSpec};

/// Class of a monitored object. LAT-eviction objects carry the LAT name,
/// which compares by its canonical lowercase key (see [`crate::RuleEvent`]).
#[derive(Debug, Clone)]
pub enum ClassName {
    Query,
    Transaction,
    Blocker,
    Blocked,
    Timer,
    Session,
    /// A catalog table — the schema extension the paper names explicitly
    /// ("this schema can be augmented to cover other relevant server objects
    /// (e.g., Table)", §2.2).
    Table,
    /// SQLCM's own health: a snapshot of the monitor's telemetry, so ECA
    /// rules can watch the watcher (raised by the self-monitoring bridge).
    Monitor,
    /// Evicted row of the named LAT.
    Evicted(String),
}

impl ClassName {
    /// Parse a condition qualifier into a class, if it names one. LAT names
    /// never parse: a qualifier that is not a built-in class is a LAT name.
    /// Allocation-free: this runs per attribute reference per rule evaluation.
    pub fn parse(s: &str) -> Option<ClassName> {
        if s.eq_ignore_ascii_case("query") {
            Some(ClassName::Query)
        } else if s.eq_ignore_ascii_case("transaction") {
            Some(ClassName::Transaction)
        } else if s.eq_ignore_ascii_case("blocker") {
            Some(ClassName::Blocker)
        } else if s.eq_ignore_ascii_case("blocked") {
            Some(ClassName::Blocked)
        } else if s.eq_ignore_ascii_case("timer") {
            Some(ClassName::Timer)
        } else if s.eq_ignore_ascii_case("session") {
            Some(ClassName::Session)
        } else if s.eq_ignore_ascii_case("table") {
            Some(ClassName::Table)
        } else if s.eq_ignore_ascii_case("monitor") {
            Some(ClassName::Monitor)
        } else {
            None
        }
    }

    /// The class's attribute table; `None` for evicted rows, whose layout is
    /// their LAT's.
    pub fn schema(&self) -> Option<&'static ClassSchema> {
        builtin_classes().iter().find(|c| c.class == *self)
    }
}

impl PartialEq for ClassName {
    fn eq(&self, other: &ClassName) -> bool {
        match (self, other) {
            (ClassName::Evicted(a), ClassName::Evicted(b)) => a.eq_ignore_ascii_case(b),
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        }
    }
}

impl Eq for ClassName {}

impl Hash for ClassName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        if let ClassName::Evicted(lat) = self {
            lat.bytes()
                .for_each(|b| state.write_u8(b.to_ascii_lowercase()));
        }
    }
}

impl fmt::Display for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassName::Query => f.write_str("Query"),
            ClassName::Transaction => f.write_str("Transaction"),
            ClassName::Blocker => f.write_str("Blocker"),
            ClassName::Blocked => f.write_str("Blocked"),
            ClassName::Timer => f.write_str("Timer"),
            ClassName::Session => f.write_str("Session"),
            ClassName::Table => f.write_str("Table"),
            ClassName::Monitor => f.write_str("Monitor"),
            ClassName::Evicted(lat) => write!(f, "Evicted({lat})"),
        }
    }
}

/// Attributes of the `Query` class, in value-layout order (also the leading
/// attributes of `Blocker`/`Blocked`).
const QUERY_ATTRS: &[(&str, DataType)] = &[
    ("ID", DataType::Int),
    ("Query_Text", DataType::Text),
    ("Logical_Signature", DataType::Int),
    ("Physical_Signature", DataType::Int),
    ("Start_Time", DataType::Timestamp),
    ("Duration", DataType::Float),
    ("Estimated_Cost", DataType::Float),
    ("Time_Blocked", DataType::Float),
    ("Times_Blocked", DataType::Int),
    ("Queries_Blocked", DataType::Int),
    ("Number_of_instances", DataType::Int),
    ("Query_Type", DataType::Text),
    ("User", DataType::Text),
    ("Application", DataType::Text),
    ("Session_ID", DataType::Int),
    ("Transaction_ID", DataType::Int),
    ("Procedure", DataType::Text),
];

/// Extra attributes `Blocker`/`Blocked` objects carry after the `Query` ones
/// (lock-pair context).
const BLOCK_EXTRA_ATTRS: &[(&str, DataType)] =
    &[("Resource", DataType::Text), ("Wait_Time", DataType::Float)];

/// Attributes of the `Transaction` class.
const TXN_ATTRS: &[(&str, DataType)] = &[
    ("ID", DataType::Int),
    ("Start_Time", DataType::Timestamp),
    ("Duration", DataType::Float),
    ("Logical_Signature", DataType::Int),
    ("Physical_Signature", DataType::Int),
    ("Statements", DataType::Int),
    ("User", DataType::Text),
    ("Application", DataType::Text),
    ("Session_ID", DataType::Int),
];

/// Attributes of the `Session` class (login/logout auditing).
const SESSION_ATTRS: &[(&str, DataType)] = &[
    ("Session_ID", DataType::Int),
    ("User", DataType::Text),
    ("Application", DataType::Text),
    ("Success", DataType::Bool),
];

/// Attributes of the `Timer` class ("a Timer object also exposes the current
/// time as an attribute").
const TIMER_ATTRS: &[(&str, DataType)] = &[
    ("Name", DataType::Text),
    ("Time", DataType::Timestamp),
    ("Alarms_Remaining", DataType::Int),
];

/// Attributes of the `Table` class (schema extension, §2.2).
const TABLE_ATTRS: &[(&str, DataType)] = &[
    ("Name", DataType::Text),
    ("Row_Count", DataType::Int),
    ("Columns", DataType::Int),
    ("Indexes", DataType::Int),
    ("Clustered", DataType::Bool),
];

/// Attributes of the `Monitor` class — SQLCM's own health snapshot,
/// dispatched by the self-monitoring bridge on MonitorTick. Latencies are
/// seconds, like every other duration attribute.
const MONITOR_ATTRS: &[(&str, DataType)] = &[
    ("Name", DataType::Text),
    ("Events", DataType::Int),
    ("Evaluations", DataType::Int),
    ("Fires", DataType::Int),
    ("Actions", DataType::Int),
    ("Action_Errors", DataType::Int),
    ("Eval_P50", DataType::Float),
    ("Eval_P95", DataType::Float),
    ("Eval_P99", DataType::Float),
    ("Eval_Max", DataType::Float),
    ("Probe_P99", DataType::Float),
    ("Lat_Memory", DataType::Int),
    ("Rule_Count", DataType::Int),
    ("Lat_Count", DataType::Int),
    ("Quarantined_Rules", DataType::Int),
    ("Deferred_Depth", DataType::Int),
];

/// Schema of one monitored object class.
#[derive(Debug, Clone)]
pub struct ClassSchema {
    pub class: ClassName,
    /// Whether the rule engine can iterate live instances of this class when
    /// it is referenced outside the event payload.
    pub iterable: bool,
    pub attrs: Vec<(String, DataType)>,
}

impl ClassSchema {
    fn new(class: ClassName, iterable: bool, attrs: &[&[(&str, DataType)]]) -> ClassSchema {
        ClassSchema {
            class,
            iterable,
            attrs: attrs
                .iter()
                .flat_map(|part| part.iter())
                .map(|(a, t)| (a.to_string(), *t))
                .collect(),
        }
    }

    /// Position of an attribute in the class's value layout, matched
    /// case-insensitively.
    pub fn attr_index(&self, attr: &str) -> Option<usize> {
        self.attrs
            .iter()
            .position(|(a, _)| a.eq_ignore_ascii_case(attr))
    }

    /// Case-insensitive attribute lookup.
    pub fn attr_type(&self, attr: &str) -> Option<DataType> {
        self.attrs
            .iter()
            .find(|(a, _)| a.eq_ignore_ascii_case(attr))
            .map(|(_, t)| *t)
    }

    /// Canonical spelling of an attribute, matched case-insensitively.
    pub fn canonical_attr(&self, attr: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(a, _)| a.eq_ignore_ascii_case(attr))
            .map(|(a, _)| a.as_str())
    }
}

/// One column of a LAT schema.
#[derive(Debug, Clone)]
pub struct LatColumn {
    pub name: String,
    /// `None` when the type could not be inferred (bad source reference).
    pub ty: Option<DataType>,
    /// True for aging (moving-window) aggregates.
    pub aging: bool,
    /// True for grouping columns.
    pub group: bool,
    /// Aggregate function for aggregate columns; `None` for grouping columns.
    pub func: Option<LatAggFunc>,
    /// `Class.Attribute` the column is computed from — the grouping source
    /// for group columns, the aggregate source for aggregate columns
    /// (`None` for `COUNT(*)`).
    pub source: Option<AttrRef>,
}

/// Schema of one registered LAT.
#[derive(Debug, Clone)]
pub struct LatSchema {
    pub name: String,
    /// The class the grouping columns come from; lookups probe the LAT with
    /// the key built from an in-scope object of this class.
    pub source_class: Option<ClassName>,
    pub columns: Vec<LatColumn>,
    /// Whether the LAT has a size bound (`max_rows`/`max_bytes`) — only
    /// bounded LATs evict rows and hence raise `LatEviction` events.
    pub bounded: bool,
    /// Number of aging aggregates (each adds block-ring maintenance cost).
    pub aging_aggregates: usize,
    /// Total number of aggregate columns.
    pub aggregate_count: usize,
}

impl LatSchema {
    /// Case-insensitive column lookup.
    pub fn column(&self, name: &str) -> Option<&LatColumn> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// The aggregate (non-key) columns.
    pub fn aggregate_columns(&self) -> impl Iterator<Item = &LatColumn> {
        self.columns.iter().filter(|c| !c.group)
    }
}

/// The built-in monitored object classes of the SQLCM engine, built once per
/// process.
fn builtin_classes() -> &'static [ClassSchema] {
    static CLASSES: OnceLock<Vec<ClassSchema>> = OnceLock::new();
    CLASSES.get_or_init(|| {
        let block = [QUERY_ATTRS, BLOCK_EXTRA_ATTRS];
        vec![
            ClassSchema::new(ClassName::Query, true, &[QUERY_ATTRS]),
            ClassSchema::new(ClassName::Blocker, true, &block),
            ClassSchema::new(ClassName::Blocked, true, &block),
            ClassSchema::new(ClassName::Transaction, false, &[TXN_ATTRS]),
            ClassSchema::new(ClassName::Session, false, &[SESSION_ATTRS]),
            ClassSchema::new(ClassName::Timer, false, &[TIMER_ATTRS]),
            ClassSchema::new(ClassName::Table, true, &[TABLE_ATTRS]),
            ClassSchema::new(ClassName::Monitor, false, &[MONITOR_ATTRS]),
        ]
    })
}

/// All relations a rule condition may reference: the built-in classes plus
/// the LATs registered so far.
#[derive(Debug, Clone)]
pub struct SchemaUniverse {
    /// Keyed by [`caseless`] LAT name (LAT names are case-insensitive at
    /// runtime); more than one schema under a key only on a collision.
    lats: HashMap<u64, Vec<LatSchema>>,
}

/// Hash of a name's ASCII-lowercase form, made without allocating it.
fn caseless(name: &str) -> u64 {
    let mut h = DefaultHasher::new();
    for chunk in name.as_bytes().chunks(32) {
        let mut lower = [0u8; 32];
        lower
            .iter_mut()
            .zip(chunk)
            .for_each(|(l, b)| *l = b.to_ascii_lowercase());
        h.write(&lower[..chunk.len()]);
    }
    h.finish()
}

impl Default for SchemaUniverse {
    fn default() -> SchemaUniverse {
        SchemaUniverse::builtin()
    }
}

impl SchemaUniverse {
    /// A universe holding the built-in classes and no LATs yet.
    pub fn builtin() -> SchemaUniverse {
        SchemaUniverse {
            lats: HashMap::new(),
        }
    }

    /// The built-in class a condition qualifier names (case-insensitive).
    pub fn class(&self, name: &str) -> Option<&'static ClassSchema> {
        ClassName::parse(name)?.schema()
    }

    pub fn classes(&self) -> impl Iterator<Item = &'static ClassSchema> {
        builtin_classes().iter()
    }

    /// Case-insensitive LAT lookup.
    pub fn lat(&self, name: &str) -> Option<&LatSchema> {
        let same = self.lats.get(&caseless(name))?;
        same.iter().find(|l| l.name.eq_ignore_ascii_case(name))
    }

    pub fn lats(&self) -> impl Iterator<Item = &LatSchema> {
        self.lats.values().flatten()
    }

    /// Derive a [`LatSchema`] from a LAT spec and register it. Reports `E001`
    /// for grouping or aggregate sources that name an unknown class or
    /// attribute; the schema is only registered when the spec has no
    /// error-severity diagnostics (a denied `define_lat` must not leave a
    /// half-known LAT behind).
    pub fn register_lat(&mut self, spec: &LatSpec) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let mut columns = Vec::new();
        for g in &spec.group_by {
            columns.push(LatColumn {
                name: g.alias.clone(),
                ty: self.resolve_attr(&spec.name, &g.source, &mut diags),
                aging: false,
                group: true,
                func: None,
                source: Some(g.source.clone()),
            });
        }
        for a in &spec.aggregates {
            let source_ty = match &a.source {
                Some(s) => self.resolve_attr(&spec.name, s, &mut diags),
                None => None,
            };
            columns.push(LatColumn {
                name: a.alias.clone(),
                ty: a.func.result_type(source_ty),
                aging: a.aging.is_some(),
                group: false,
                func: Some(a.func),
                source: a.source.clone(),
            });
        }

        if !crate::diagnostics::has_errors(&diags) {
            let same = self.lats.entry(caseless(&spec.name)).or_default();
            same.retain(|l| !l.name.eq_ignore_ascii_case(&spec.name));
            same.push(LatSchema {
                name: spec.name.clone(),
                source_class: spec.group_by.first().map(|g| g.source.class.clone()),
                columns,
                bounded: spec.bounded(),
                aging_aggregates: spec.aggregates.iter().filter(|a| a.aging.is_some()).count(),
                aggregate_count: spec.aggregates.len(),
            });
        }
        diags
    }

    fn resolve_attr(
        &self,
        lat: &str,
        src: &AttrRef,
        diags: &mut Vec<Diagnostic>,
    ) -> Option<DataType> {
        let AttrRef { class, attr } = src;
        let Some(schema) = class.schema() else {
            diags.push(
                Diagnostic::new(
                    Code::E001,
                    lat,
                    format!("unknown monitored class `{class}`"),
                )
                .with_span(format!("{class}.{attr}"))
                .with_help(known_classes_help(self)),
            );
            return None;
        };
        match schema.attr_type(attr) {
            Some(t) => Some(t),
            None => {
                diags.push(
                    Diagnostic::new(
                        Code::E001,
                        lat,
                        format!("class {class} has no attribute `{attr}`"),
                    )
                    .with_span(format!("{class}.{attr}"))
                    .with_help(attrs_help(schema)),
                );
                None
            }
        }
    }
}

pub(crate) fn known_classes_help(universe: &SchemaUniverse) -> String {
    let names: Vec<String> = universe.classes().map(|c| c.class.to_string()).collect();
    format!("known classes: {}", names.join(", "))
}

pub(crate) fn attrs_help(schema: &ClassSchema) -> String {
    let names: Vec<&str> = schema.attrs.iter().map(|(a, _)| a.as_str()).collect();
    format!("{} attributes: {}", schema.class, names.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_lat() -> LatSpec {
        LatSpec::new("Duration_LAT")
            .group_by("Query.Logical_Signature", "Sig")
            .aggregate(LatAggFunc::Count, "", "N")
            .aggregate(LatAggFunc::Avg, "Query.Duration", "Avg_Duration")
            .aging(60_000_000, 10_000_000)
            .aggregate(LatAggFunc::Max, "Query.User", "Last_User")
            .max_rows(10)
    }

    #[test]
    fn lat_column_types_are_inferred() {
        let mut u = SchemaUniverse::builtin();
        assert!(u.register_lat(&demo_lat()).is_empty());
        let lat = u.lat("duration_lat").expect("registered");
        assert_eq!(lat.source_class, Some(ClassName::Query));
        assert_eq!(lat.column("Sig").unwrap().ty, Some(DataType::Int));
        assert_eq!(lat.column("N").unwrap().ty, Some(DataType::Int));
        assert_eq!(
            lat.column("avg_duration").unwrap().ty,
            Some(DataType::Float)
        );
        assert_eq!(lat.column("Last_User").unwrap().ty, Some(DataType::Text));
        assert!(lat.column("Avg_Duration").unwrap().aging);
        assert_eq!(lat.aging_aggregates, 1);
        assert!(lat.bounded);
    }

    #[test]
    fn bad_source_reference_reports_e001_and_skips_registration() {
        let mut u = SchemaUniverse::builtin();
        let mut spec = demo_lat();
        spec.group_by[0].source.attr = "Bogus".into();
        let diags = u.register_lat(&spec);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::E001);
        assert!(u.lat("Duration_LAT").is_none());
    }

    #[test]
    fn iterable_flags_match_runtime_iteration_sets() {
        let u = SchemaUniverse::builtin();
        for (class, iterable) in [
            ("Query", true),
            ("Blocker", true),
            ("Blocked", true),
            ("Table", true),
            ("Transaction", false),
            ("Session", false),
            ("Timer", false),
            ("Monitor", false),
        ] {
            assert_eq!(u.class(class).unwrap().iterable, iterable, "{class}");
        }
    }

    #[test]
    fn class_name_parse() {
        assert_eq!(ClassName::parse("query"), Some(ClassName::Query));
        assert_eq!(ClassName::parse("BLOCKER"), Some(ClassName::Blocker));
        assert_eq!(ClassName::parse("Duration_LAT"), None);
        assert!(ClassName::Evicted("Duration_LAT".into()).schema().is_none());
    }
}
