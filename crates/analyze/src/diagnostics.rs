//! Diagnostic model: stable codes, severities, and rendering.
//!
//! Every check in this crate reports through [`Diagnostic`]. Codes are stable
//! API: tools (and tests) match on `E...`/`W...` strings, so once published a
//! code keeps its meaning. `E` codes deny registration; `W` codes are
//! collected and surfaced but never block.

use std::fmt;

/// How severe a diagnostic is. Errors deny rule/LAT registration; warnings
/// are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    Error,
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// Stable diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// Unknown LAT, class attribute, or LAT column reference.
    E001,
    /// Condition type mismatch (e.g. a COUNT column compared with a string).
    E002,
    /// LAT reference whose grouping columns can never be matched from an
    /// in-scope object: under missing-row ⇒ false semantics the condition is
    /// statically always false.
    E003,
    /// Cascade cycle through LAT-eviction or timer events — the ruleset could
    /// recurse without bound (the paper's no-recursion restriction, §4).
    E004,
    /// Dead rule: the condition references a class that is neither in the
    /// event payload nor iterable, so the rule can never fire.
    W101,
    /// Duplicate rule: same event and identical condition as an earlier rule.
    W102,
    /// Estimated per-firing cost exceeds the analyzer's threshold.
    W201,
    /// Condition provably unsatisfiable under the attribute interval domains
    /// (e.g. a COUNT column compared `< 0`) — the rule can never fire.
    E006,
    /// Condition provably tautological — the rule fires on every event it
    /// sees, so the condition is dead weight (or a comparison is inverted).
    W103,
    /// Division whose divisor is an aggregate column that may be zero or
    /// NULL (AVG/SUM over an empty or never-fed window).
    W104,
    /// Identical predicate duplicated across rules on the same event — the
    /// dispatch plan shares its evaluation via a CSE slot, but the rules may
    /// want factoring.
    W105,
    /// Condition reads a LAT aggregate column that no admitted rule's
    /// `Insert` ever feeds — the column stays at its initial aggregate.
    W203,
    /// Unconditional external action (`SendMail`/`RunExternal`) on a hot
    /// event class — every single event pays the external-sink cost, with no
    /// condition to thin the firings.
    W204,
    /// Unindexable condition on a hot event class: the condition reads only
    /// payload attributes yet yields no guard atom the dispatch-time guard
    /// index can use, so the rule is evaluated on every event of the class
    /// instead of being pruned when it provably cannot match.
    W205,
    /// Order-sensitive pair: an earlier same-event rule reads columns this
    /// rule writes, so swapping the two changes observable behaviour.
    W301,
    /// Cascade amplification: a single event can transitively trigger more
    /// rule evaluations than the analyzer's threshold.
    W302,
}

impl Code {
    /// Every code, in documentation order. New codes must be added here —
    /// the exhaustiveness test in `tests/codes.rs` walks this list.
    pub const ALL: [Code; 16] = [
        Code::E001,
        Code::E002,
        Code::E003,
        Code::E004,
        Code::E006,
        Code::W101,
        Code::W102,
        Code::W103,
        Code::W104,
        Code::W105,
        Code::W201,
        Code::W203,
        Code::W204,
        Code::W205,
        Code::W301,
        Code::W302,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Code::E001 => "E001",
            Code::E002 => "E002",
            Code::E003 => "E003",
            Code::E004 => "E004",
            Code::E006 => "E006",
            Code::W101 => "W101",
            Code::W102 => "W102",
            Code::W103 => "W103",
            Code::W104 => "W104",
            Code::W105 => "W105",
            Code::W201 => "W201",
            Code::W203 => "W203",
            Code::W204 => "W204",
            Code::W205 => "W205",
            Code::W301 => "W301",
            Code::W302 => "W302",
        }
    }

    /// Severity is determined by the code family.
    pub fn severity(self) -> Severity {
        match self {
            Code::E001 | Code::E002 | Code::E003 | Code::E004 | Code::E006 => Severity::Error,
            Code::W101
            | Code::W102
            | Code::W103
            | Code::W104
            | Code::W105
            | Code::W201
            | Code::W203
            | Code::W204
            | Code::W205
            | Code::W301
            | Code::W302 => Severity::Warning,
        }
    }

    /// Short human title, used by the lint front end.
    pub fn title(self) -> &'static str {
        match self {
            Code::E001 => "unknown reference",
            Code::E002 => "type mismatch",
            Code::E003 => "unjoinable LAT reference",
            Code::E004 => "cascade cycle",
            Code::E006 => "unsatisfiable condition",
            Code::W101 => "dead rule",
            Code::W102 => "duplicate rule",
            Code::W103 => "tautological condition",
            Code::W104 => "possible division by zero",
            Code::W105 => "duplicated predicate across rules",
            Code::W201 => "costly rule",
            Code::W203 => "read-only LAT column",
            Code::W204 => "unconditional external action",
            Code::W205 => "unindexable hot-event condition",
            Code::W301 => "order-sensitive rule pair",
            Code::W302 => "cascade amplification",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single finding of the static analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// Name of the rule (or LAT) the finding is attached to.
    pub rule: String,
    /// Textual locus inside the rule: a rendered sub-expression or action.
    pub span: Option<String>,
    pub message: String,
    /// Optional suggestion for fixing the finding.
    pub help: Option<String>,
}

impl Diagnostic {
    pub fn new(code: Code, rule: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            rule: rule.into(),
            span: None,
            message: message.into(),
            help: None,
        }
    }

    pub fn with_span(mut self, span: impl Into<String>) -> Diagnostic {
        self.span = Some(span.into());
        self
    }

    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.code, self.rule, self.message)?;
        if let Some(span) = &self.span {
            write!(f, " (at `{span}`)")?;
        }
        if let Some(help) = &self.help {
            write!(f, "; help: {help}")?;
        }
        Ok(())
    }
}

/// True when any diagnostic in the slice denies registration.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(Diagnostic::is_error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::E001.as_str(), "E001");
        assert_eq!(Code::W201.as_str(), "W201");
        assert_eq!(Code::E004.severity(), Severity::Error);
        assert_eq!(Code::W101.severity(), Severity::Warning);
    }

    #[test]
    fn display_renders_code_rule_span_help() {
        let d = Diagnostic::new(Code::E002, "r1", "cannot compare INT with TEXT")
            .with_span("L.N = 'x'")
            .with_help("compare with an integer literal");
        let s = d.to_string();
        assert!(s.contains("E002"));
        assert!(s.contains("[r1]"));
        assert!(s.contains("`L.N = 'x'`"));
        assert!(s.contains("help:"));
    }
}
