//! What a rule is made of besides its condition: the triggering event and
//! the actions (paper §5). `sqlcm-core` re-exports both and builds its
//! runtime `Rule` from them; the analyzer passes read them directly.

use std::fmt;
use std::hash::{Hash, Hasher};

use sqlcm_common::ProbeKind;

use crate::schema::ClassName;

/// The events a rule can subscribe to (paper §5.1 plus schema extensions).
///
/// A LAT name's canonical form is its ASCII-lowercase key — the form the
/// monitor's LAT registry uses — so `LatEviction` compares and hashes by it
/// (as does [`ClassName::Evicted`]): dispatch, evicted-object lookup and the
/// analyzer's cascade edges agree whatever spelling a rule uses, while
/// `Display` keeps the rule's own. Timer names are keyed exactly, as the
/// runtime's timer registry keys them.
#[derive(Debug, Clone)]
pub enum RuleEvent {
    QueryStart,
    QueryCompile,
    QueryCommit,
    QueryRollback,
    QueryCancel,
    QueryBlocked,
    BlockReleased,
    TxnBegin,
    TxnCommit,
    TxnRollback,
    Login,
    Logout,
    /// `Timer.Alarm` of the named timer.
    TimerAlarm(String),
    /// Eviction from the named LAT (§4.3: evicted rows are monitored objects).
    LatEviction(String),
    /// The self-monitoring bridge materialized a health snapshot: the payload
    /// is one `Monitor` object, so rules can watch the watcher.
    MonitorTick,
}

impl RuleEvent {
    /// The classes guaranteed present in the event's payload.
    pub fn payload_classes(&self) -> Vec<ClassName> {
        match self {
            RuleEvent::QueryStart
            | RuleEvent::QueryCompile
            | RuleEvent::QueryCommit
            | RuleEvent::QueryRollback
            | RuleEvent::QueryCancel => vec![ClassName::Query],
            RuleEvent::QueryBlocked | RuleEvent::BlockReleased => {
                vec![ClassName::Blocker, ClassName::Blocked]
            }
            RuleEvent::TxnBegin | RuleEvent::TxnCommit | RuleEvent::TxnRollback => {
                vec![ClassName::Transaction]
            }
            RuleEvent::Login | RuleEvent::Logout => vec![ClassName::Session],
            RuleEvent::TimerAlarm(_) => vec![ClassName::Timer],
            RuleEvent::LatEviction(lat) => vec![ClassName::Evicted(lat.clone())],
            RuleEvent::MonitorTick => vec![ClassName::Monitor],
        }
    }
}

/// The one table of which rule event each probe kind raises: each name is
/// both a [`ProbeKind`] and a [`RuleEvent`] variant.
macro_rules! probe_events {
    ($($kind:ident),* $(,)?) => {
        impl From<ProbeKind> for RuleEvent {
            fn from(kind: ProbeKind) -> RuleEvent {
                match kind {
                    $(ProbeKind::$kind => RuleEvent::$kind,)*
                }
            }
        }

        impl RuleEvent {
            /// The probe that raises this event; `None` for the events the
            /// monitor raises itself (timers, evictions, health ticks).
            pub fn probe(&self) -> Option<ProbeKind> {
                match self {
                    $(RuleEvent::$kind => Some(ProbeKind::$kind),)*
                    RuleEvent::TimerAlarm(_)
                    | RuleEvent::LatEviction(_)
                    | RuleEvent::MonitorTick => None,
                }
            }
        }
    };
}

probe_events!(
    QueryStart,
    QueryCompile,
    QueryCommit,
    QueryRollback,
    QueryCancel,
    QueryBlocked,
    BlockReleased,
    TxnBegin,
    TxnCommit,
    TxnRollback,
    Login,
    Logout,
);

impl PartialEq for RuleEvent {
    fn eq(&self, other: &RuleEvent) -> bool {
        match (self, other) {
            (RuleEvent::TimerAlarm(a), RuleEvent::TimerAlarm(b)) => a == b,
            (RuleEvent::LatEviction(a), RuleEvent::LatEviction(b)) => a.eq_ignore_ascii_case(b),
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        }
    }
}

impl Eq for RuleEvent {}

impl Hash for RuleEvent {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            RuleEvent::TimerAlarm(timer) => timer.hash(state),
            RuleEvent::LatEviction(lat) => {
                lat.bytes()
                    .for_each(|b| state.write_u8(b.to_ascii_lowercase()));
            }
            _ => {}
        }
    }
}

impl fmt::Display for RuleEvent {
    /// Event names in the probe `Class.Event` convention (used by the flight
    /// recorder, telemetry exports and diagnostics): a probe's own name for
    /// the events a probe raises.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleEvent::TimerAlarm(t) => write!(f, "Timer.Alarm({t})"),
            RuleEvent::LatEviction(lat) => write!(f, "Lat.Eviction({lat})"),
            RuleEvent::MonitorTick => f.write_str("Monitor.Tick"),
            probe => f.write_str(probe.probe().expect("a probe's event").name()),
        }
    }
}

/// One action of a rule's A-clause (paper §5.3), executed in list order.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Action {
    /// `Insert(LATName)` — fold the in-context object into the LAT.
    Insert { lat: String },
    /// `Reset(LATName)` — clear the LAT and free its memory.
    Reset { lat: String },
    /// `Object.Persist(Table, Attr1, …)` — write the listed attributes of the
    /// in-context object of `class` as one row.
    PersistObject {
        table: String,
        class: ClassName,
        attrs: Vec<String>,
    },
    /// `Lat.Persist(Table)` — write every LAT row plus a timestamp column.
    PersistLat { table: String, lat: String },
    /// `SendMail(Text, Address)`.
    SendMail { to: String, template: String },
    /// `RunExternal(Command)`.
    RunExternal { template: String },
    /// `Cancel()` — applies to a `Query`, `Blocker` or `Blocked` object (§5.3).
    Cancel { class: ClassName },
    /// `Set(Time, number_alarms)` on the named timer.
    SetTimer {
        timer: String,
        period_micros: u64,
        number_alarms: i64,
    },
}

impl Action {
    pub fn insert(lat: &str) -> Action {
        Action::Insert { lat: lat.into() }
    }

    pub fn reset(lat: &str) -> Action {
        Action::Reset { lat: lat.into() }
    }

    /// Persist attributes of the in-context object of `class` ("Query",
    /// "Blocker", …).
    pub fn persist_object(table: &str, class: &str, attrs: &[&str]) -> Action {
        Action::PersistObject {
            table: table.into(),
            class: ClassName::parse(class).expect("valid monitored class"),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
        }
    }

    pub fn persist_lat(table: &str, lat: &str) -> Action {
        Action::PersistLat {
            table: table.into(),
            lat: lat.into(),
        }
    }

    pub fn send_mail(to: &str, template: &str) -> Action {
        Action::SendMail {
            to: to.into(),
            template: template.into(),
        }
    }

    pub fn run_external(template: &str) -> Action {
        Action::RunExternal {
            template: template.into(),
        }
    }

    /// Cancel the in-context object of `class` ("Query", "Blocker", "Blocked").
    pub fn cancel(class: &str) -> Action {
        let class = ClassName::parse(class).expect("valid monitored class");
        assert!(
            matches!(
                class,
                ClassName::Query | ClassName::Blocker | ClassName::Blocked
            ),
            "Cancel() applies to Query, Blocker or Blocked (paper §5.3)"
        );
        Action::Cancel { class }
    }

    pub fn set_timer(timer: &str, period_micros: u64, number_alarms: i64) -> Action {
        Action::SetTimer {
            timer: timer.into(),
            period_micros,
            number_alarms,
        }
    }

    /// The action's kind: its name in the rule language and its span label
    /// in traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Action::Insert { .. } => "Insert",
            Action::Reset { .. } => "Reset",
            Action::PersistObject { .. } => "PersistObject",
            Action::PersistLat { .. } => "PersistLat",
            Action::SendMail { .. } => "SendMail",
            Action::RunExternal { .. } => "RunExternal",
            Action::Cancel { .. } => "Cancel",
            Action::SetTimer { .. } => "SetTimer",
        }
    }

    /// The LAT this action targets, if any.
    pub fn lat_refs(&self) -> Option<&str> {
        match self {
            Action::Insert { lat } | Action::Reset { lat } | Action::PersistLat { lat, .. } => {
                Some(lat)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Action {
    /// The action's label in diagnostics: its kind and its targets.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = self.kind();
        match self {
            Action::Insert { lat } | Action::Reset { lat } => write!(f, "{kind}({lat})"),
            Action::PersistLat { lat, table } => write!(f, "{kind}({lat} -> {table})"),
            Action::PersistObject { class, table, .. } => write!(f, "{kind}({class} -> {table})"),
            Action::SetTimer { timer, .. } => write!(f, "{kind}({timer})"),
            Action::Cancel { class } => write!(f, "{kind}({class})"),
            Action::SendMail { .. } | Action::RunExternal { .. } => f.write_str(kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash(event: &RuleEvent) -> u64 {
        let mut h = DefaultHasher::new();
        event.hash(&mut h);
        h.finish()
    }

    #[test]
    fn payload_classes() {
        assert_eq!(
            RuleEvent::QueryBlocked.payload_classes(),
            vec![ClassName::Blocker, ClassName::Blocked]
        );
        assert_eq!(
            RuleEvent::TimerAlarm("t".into()).payload_classes(),
            vec![ClassName::Timer]
        );
        assert_eq!(
            RuleEvent::MonitorTick.payload_classes(),
            vec![ClassName::Monitor]
        );
        assert_eq!(
            RuleEvent::LatEviction("Top".into()).payload_classes(),
            vec![ClassName::Evicted("Top".into())]
        );
    }

    #[test]
    fn lat_names_match_by_key_and_timer_names_exactly() {
        let (small, lower) = (
            RuleEvent::LatEviction("Small".into()),
            RuleEvent::LatEviction("small".into()),
        );
        assert_eq!(small, lower);
        assert_eq!(hash(&small), hash(&lower));
        assert_eq!(small.to_string(), "Lat.Eviction(Small)", "spelling kept");
        assert_eq!(
            ClassName::Evicted("Small".into()),
            ClassName::Evicted("SMALL".into())
        );
        assert_ne!(
            RuleEvent::TimerAlarm("Tick".into()),
            RuleEvent::TimerAlarm("tick".into())
        );
        assert_ne!(small, RuleEvent::TimerAlarm("Small".into()));
        assert_ne!(RuleEvent::QueryStart, RuleEvent::QueryCommit);
    }

    #[test]
    fn event_display_matches_probe_names() {
        assert_eq!(RuleEvent::QueryCommit.to_string(), "Query.Commit");
        assert_eq!(RuleEvent::BlockReleased.to_string(), "Query.Block_Released");
        assert_eq!(
            RuleEvent::TimerAlarm("audit".into()).to_string(),
            "Timer.Alarm(audit)"
        );
        assert_eq!(RuleEvent::MonitorTick.to_string(), "Monitor.Tick");
    }

    #[test]
    fn every_probe_kind_raises_the_event_of_its_name() {
        for kind in ProbeKind::ALL {
            let event = RuleEvent::from(kind);
            assert_eq!(event.probe(), Some(kind));
            assert_eq!(event.to_string(), kind.name());
        }
        assert_eq!(RuleEvent::MonitorTick.probe(), None);
        assert_eq!(RuleEvent::TimerAlarm("t".into()).probe(), None);
    }

    #[test]
    fn constructors() {
        assert_eq!(Action::insert("L"), Action::Insert { lat: "L".into() });
        assert_eq!(
            Action::cancel("Blocker"),
            Action::Cancel {
                class: ClassName::Blocker
            }
        );
        assert_eq!(Action::insert("L").lat_refs(), Some("L"));
        assert_eq!(Action::send_mail("a", "b").lat_refs(), None);
        assert_eq!(
            Action::persist_lat("t", "L").to_string(),
            "PersistLat(L -> t)"
        );
    }

    #[test]
    #[should_panic(expected = "Cancel() applies to")]
    fn cancel_rejects_timer() {
        let _ = Action::cancel("Timer");
    }
}
