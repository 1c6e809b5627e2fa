//! Monitored objects: the SQLCM schema (paper Appendix A).
//!
//! A monitored object is a bag of named attribute values assembled on demand
//! from engine probes. The classes of the prototype are `Query`, `Transaction`,
//! `Blocker`, `Blocked` (both with the `Query` attribute set, per the paper) and
//! `Timer`; we add `Session` for login/logout auditing (§5.1 allows widening the
//! schema) and *evicted-row* objects whose attributes are the columns of the LAT
//! they were evicted from (§4.3).
//!
//! Durations are exposed in **seconds** (`Float`), matching the paper's example
//! conditions (`Query.Duration > 100`); raw probe values are microseconds.

use std::sync::Arc;

use sqlcm_common::{BlockPairInfo, QueryInfo, QueryType, SessionInfo, Timestamp, TxnInfo, Value};

use crate::telemetry::TelemetrySnapshot;

/// The class names are declared once, in the analyzer crate.
pub use sqlcm_analyze::ClassName;

/// A monitored object: class + attribute values. Attribute names are shared per
/// construction site (`Arc<[String]>`), so objects are cheap to build.
#[derive(Debug, Clone)]
pub struct Object {
    pub class: ClassName,
    names: Arc<[String]>,
    values: Vec<Value>,
}

impl Object {
    pub fn new(class: ClassName, names: Arc<[String]>, values: Vec<Value>) -> Object {
        debug_assert_eq!(names.len(), values.len());
        Object {
            class,
            names,
            values,
        }
    }

    /// Attribute lookup, case-insensitive. Linear scan — attribute sets are tiny
    /// and this beats hashing for ≤ 20 names.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(attr))
            .map(|i| &self.values[i])
    }

    pub fn attribute_names(&self) -> &[String] {
        &self.names
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Take back the value buffer for reuse (payload scratch pooling): the
    /// dispatcher recycles these `Vec`s across events so steady-state payload
    /// assembly performs no heap allocation.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

/// Attribute position within the *static* classes' value layout — the order
/// of the class's attribute table in [`sqlcm_analyze::schema`], which
/// `query_object`, `block_pair_objects`, `txn_object`, `session_object` and
/// `timer_object` fill in. Used to compile rule conditions once at
/// registration instead of string-matching per evaluation. Evicted-row classes
/// have per-LAT layouts and are resolved against the LAT instead.
pub fn static_attr_index(class: &ClassName, attr: &str) -> Option<usize> {
    class.schema()?.attr_index(attr)
}

/// The attribute-name array of a static class, from its schema table (each
/// constructor caches its own in a `OnceLock`).
fn attr_names(class: ClassName) -> Arc<[String]> {
    class
        .schema()
        .expect("every static class has a schema table")
        .attrs
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

fn micros_to_secs(us: u64) -> Value {
    Value::Float(us as f64 / 1_000_000.0)
}

/// The `Query_Type` attribute value, interned once per variant so payload
/// assembly clones an `Arc<str>` instead of formatting a fresh `String` on
/// every event.
fn query_type_value(t: QueryType) -> Value {
    use std::sync::OnceLock;
    static CACHE: OnceLock<[Arc<str>; 5]> = OnceLock::new();
    let cache = CACHE.get_or_init(|| {
        [
            Arc::from("SELECT"),
            Arc::from("INSERT"),
            Arc::from("UPDATE"),
            Arc::from("DELETE"),
            Arc::from("OTHER"),
        ]
    });
    let idx = match t {
        QueryType::Select => 0,
        QueryType::Insert => 1,
        QueryType::Update => 2,
        QueryType::Delete => 3,
        QueryType::Other => 4,
    };
    Value::Text(cache[idx].clone())
}

fn query_names() -> Arc<[String]> {
    use std::sync::OnceLock;
    static NAMES: OnceLock<Arc<[String]>> = OnceLock::new();
    NAMES.get_or_init(|| attr_names(ClassName::Query)).clone()
}

fn block_names() -> Arc<[String]> {
    use std::sync::OnceLock;
    static NAMES: OnceLock<Arc<[String]>> = OnceLock::new();
    NAMES.get_or_init(|| attr_names(ClassName::Blocker)).clone()
}

/// Append the `Query` attribute values to `out` (no clear — block-pair layouts
/// append extra columns after these). Text values are `Arc<str>` refcount
/// bumps: with `out` capacity already grown, this allocates nothing.
fn query_values_into(q: &QueryInfo, out: &mut Vec<Value>) {
    out.extend([
        Value::Int(q.id as i64),
        Value::Text(q.text.clone()),
        q.logical_signature
            .map(|s| Value::Int(s as i64))
            .unwrap_or(Value::Null),
        q.physical_signature
            .map(|s| Value::Int(s as i64))
            .unwrap_or(Value::Null),
        Value::Timestamp(q.start_time),
        micros_to_secs(q.duration_micros),
        Value::Float(q.estimated_cost),
        micros_to_secs(q.time_blocked_micros),
        Value::Int(q.times_blocked as i64),
        Value::Int(q.queries_blocked as i64),
        Value::Int(1),
        query_type_value(q.query_type),
        Value::Text(q.user.clone()),
        Value::Text(q.application.clone()),
        Value::Int(q.session_id as i64),
        Value::Int(q.txn_id as i64),
        q.procedure.clone().map(Value::Text).unwrap_or(Value::Null),
    ]);
}

/// Build the `Query` object from a probe snapshot.
pub fn query_object(q: &QueryInfo) -> Object {
    query_object_in(q, Vec::new())
}

/// Like [`query_object`], but fills a recycled value buffer (cleared first,
/// capacity retained) instead of allocating a fresh one.
pub fn query_object_in(q: &QueryInfo, mut buf: Vec<Value>) -> Object {
    buf.clear();
    query_values_into(q, &mut buf);
    Object::new(ClassName::Query, query_names(), buf)
}

/// Build the `Blocker` / `Blocked` pair from a lock-conflict probe.
pub fn block_pair_objects(p: &BlockPairInfo) -> (Object, Object) {
    block_pair_objects_in(p, Vec::new(), Vec::new())
}

/// Like [`block_pair_objects`], with recycled value buffers.
pub fn block_pair_objects_in(
    p: &BlockPairInfo,
    blocker_buf: Vec<Value>,
    blocked_buf: Vec<Value>,
) -> (Object, Object) {
    let mk = |class: ClassName, q: &QueryInfo, mut values: Vec<Value>| {
        values.clear();
        query_values_into(q, &mut values);
        values.push(Value::Text(p.resource.clone()));
        values.push(micros_to_secs(p.wait_micros));
        Object::new(class, block_names(), values)
    };
    (
        mk(ClassName::Blocker, &p.blocker, blocker_buf),
        mk(ClassName::Blocked, &p.blocked, blocked_buf),
    )
}

/// Build the `Transaction` object. The signature *sequences* (§4.2 kinds 3–4)
/// are exposed hashed into one integer each, the form LAT grouping uses.
pub fn txn_object(t: &TxnInfo) -> Object {
    txn_object_in(t, Vec::new())
}

/// Like [`txn_object`], with a recycled value buffer.
pub fn txn_object_in(t: &TxnInfo, mut buf: Vec<Value>) -> Object {
    use std::sync::OnceLock;
    static NAMES: OnceLock<Arc<[String]>> = OnceLock::new();
    let names = NAMES
        .get_or_init(|| attr_names(ClassName::Transaction))
        .clone();
    let lsig = sqlcm_engine::signature::transaction_signature(&t.logical_signature);
    let psig = sqlcm_engine::signature::transaction_signature(&t.physical_signature);
    buf.clear();
    buf.extend([
        Value::Int(t.id as i64),
        Value::Timestamp(t.start_time),
        micros_to_secs(t.duration_micros),
        Value::Int(lsig as i64),
        Value::Int(psig as i64),
        Value::Int(t.statements as i64),
        Value::Text(t.user.clone()),
        Value::Text(t.application.clone()),
        Value::Int(t.session_id as i64),
    ]);
    Object::new(ClassName::Transaction, names, buf)
}

pub fn session_object(s: &SessionInfo) -> Object {
    session_object_in(s, Vec::new())
}

/// Like [`session_object`], with a recycled value buffer.
pub fn session_object_in(s: &SessionInfo, mut buf: Vec<Value>) -> Object {
    use std::sync::OnceLock;
    static NAMES: OnceLock<Arc<[String]>> = OnceLock::new();
    let names = NAMES.get_or_init(|| attr_names(ClassName::Session)).clone();
    buf.clear();
    buf.extend([
        Value::Int(s.session_id as i64),
        Value::Text(s.user.clone()),
        Value::Text(s.application.clone()),
        Value::Bool(s.success),
    ]);
    Object::new(ClassName::Session, names, buf)
}

pub fn timer_object(name: &str, now: Timestamp, remaining: i64) -> Object {
    use std::sync::OnceLock;
    static NAMES: OnceLock<Arc<[String]>> = OnceLock::new();
    let names = NAMES.get_or_init(|| attr_names(ClassName::Timer)).clone();
    Object::new(
        ClassName::Timer,
        names,
        vec![
            Value::text(name),
            Value::Timestamp(now),
            Value::Int(remaining),
        ],
    )
}

/// Build the `Table` object from a catalog entry. Iterated by timer-driven
/// rules (e.g. alert when a table outgrows a budget).
pub fn table_object(t: &sqlcm_engine::catalog::TableInfo) -> Object {
    use std::sync::OnceLock;
    static NAMES: OnceLock<Arc<[String]>> = OnceLock::new();
    let names = NAMES.get_or_init(|| attr_names(ClassName::Table)).clone();
    Object::new(
        ClassName::Table,
        names,
        vec![
            Value::text(t.name.clone()),
            Value::Int(t.row_count() as i64),
            Value::Int(t.columns.len() as i64),
            Value::Int(t.indexes.read().len() as i64),
            Value::Bool(t.clustered_key().is_some()),
        ],
    )
}

/// Build the `Monitor` object the self-monitoring bridge dispatches, straight
/// from a telemetry snapshot. Latencies are seconds, from the histograms
/// merged across rules (`Eval_*`, the rules' timed evaluations) and probe
/// kinds (`Probe_P99`, every event); counts are totals since attach.
pub fn monitor_object(snap: &TelemetrySnapshot) -> Object {
    use std::sync::OnceLock;
    static NAMES: OnceLock<Arc<[String]>> = OnceLock::new();
    let names = NAMES.get_or_init(|| attr_names(ClassName::Monitor)).clone();
    let count = |n: u64| Value::Int(n as i64);
    let secs = |nanos: u64| Value::Float(nanos as f64 * 1e-9);
    let (stats, eval) = (&snap.stats, snap.merged_condition_latency());
    let containment = &snap.containment;
    Object::new(
        ClassName::Monitor,
        names,
        vec![
            Value::text("sqlcm"),
            count(stats.events),
            count(stats.evaluations),
            count(stats.fires),
            count(stats.actions),
            count(stats.action_errors),
            secs(eval.p50()),
            secs(eval.p95()),
            secs(eval.p99()),
            secs(eval.max),
            secs(snap.merged_probe_latency().p99()),
            count(snap.lats.iter().map(|l| l.memory_bytes).sum()),
            count(snap.rules.len() as u64),
            count(snap.lats.len() as u64),
            count(containment.quarantined.len() as u64),
            count(containment.deferred.queue_depth),
        ],
    )
}

/// Build the evicted-row object for a LAT eviction (§4.3): its attributes are
/// exactly the LAT's columns.
pub fn evicted_object(lat_name: &str, columns: Arc<[String]>, row: Vec<Value>) -> Object {
    Object::new(ClassName::Evicted(lat_name.to_string()), columns, row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_common::QueryType;

    fn qinfo() -> QueryInfo {
        QueryInfo {
            id: 7,
            text: "SELECT 1".into(),
            logical_signature: Some(111),
            physical_signature: Some(222),
            start_time: 1_000_000,
            duration_micros: 2_500_000,
            estimated_cost: 12.5,
            time_blocked_micros: 500_000,
            times_blocked: 2,
            queries_blocked: 3,
            query_type: QueryType::Select,
            session_id: 4,
            txn_id: 5,
            user: "alice".into(),
            application: "ap".into(),
            procedure: Some("p".into()),
        }
    }

    #[test]
    fn query_object_attributes() {
        let o = query_object(&qinfo());
        assert_eq!(o.class, ClassName::Query);
        assert_eq!(o.get("ID"), Some(&Value::Int(7)));
        assert_eq!(o.get("duration"), Some(&Value::Float(2.5)), "seconds");
        assert_eq!(o.get("Time_Blocked"), Some(&Value::Float(0.5)));
        assert_eq!(o.get("Logical_Signature"), Some(&Value::Int(111)));
        assert_eq!(o.get("Query_Type"), Some(&Value::text("SELECT")));
        assert_eq!(o.get("User"), Some(&Value::text("alice")));
        assert_eq!(o.get("Number_of_instances"), Some(&Value::Int(1)));
        assert_eq!(o.get("nope"), None);
    }

    #[test]
    fn block_pair_has_resource_and_wait() {
        let p = BlockPairInfo {
            blocker: qinfo(),
            blocked: qinfo(),
            resource: "table:1/row:5".into(),
            wait_micros: 3_000_000,
        };
        let (blocker, blocked) = block_pair_objects(&p);
        assert_eq!(blocker.class, ClassName::Blocker);
        assert_eq!(blocked.class, ClassName::Blocked);
        assert_eq!(
            blocked.get("Wait_Time"),
            Some(&Value::Float(3.0)),
            "seconds"
        );
        assert_eq!(blocker.get("Resource"), Some(&Value::text("table:1/row:5")));
        assert_eq!(blocker.get("Duration"), Some(&Value::Float(2.5)));
    }

    #[test]
    fn txn_object_hashes_signature_sequences() {
        let t = TxnInfo {
            id: 1,
            start_time: 0,
            duration_micros: 1_000_000,
            logical_signature: vec![1, 2, 3],
            physical_signature: vec![4, 5, 6],
            statements: 3,
            session_id: 9,
            user: "u".into(),
            application: "a".into(),
        };
        let o = txn_object(&t);
        assert_eq!(o.get("Statements"), Some(&Value::Int(3)));
        let sig = o.get("Logical_Signature").unwrap().clone();
        let t2 = TxnInfo {
            logical_signature: vec![3, 2, 1],
            ..t.clone()
        };
        assert_ne!(txn_object(&t2).get("Logical_Signature").unwrap(), &sig);
    }

    #[test]
    fn evicted_object_mirrors_lat_columns() {
        let cols: Arc<[String]> = vec!["Sig".to_string(), "Avg_Duration".to_string()].into();
        let o = evicted_object("Duration_LAT", cols, vec![Value::Int(1), Value::Float(2.0)]);
        assert_eq!(o.class, ClassName::Evicted("Duration_LAT".into()));
        assert_eq!(o.get("avg_duration"), Some(&Value::Float(2.0)));
    }
}
