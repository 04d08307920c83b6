//! Diagnostic model: severities, subjects, and the finding record itself.

/// How seriously a finding is treated.
///
/// `Allow` suppresses the rule, `Warn` reports without failing gates, and
/// `Deny` fails the CI lint gate. The compiler itself never fails a build on
/// diagnostics — hazardous variants must still compile so the fault harness
/// can measure them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suppressed.
    Allow,
    /// Reported, non-fatal.
    Warn,
    /// Reported, fails the CI lint gate.
    Deny,
}

impl Severity {
    /// The lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    /// Parses a lowercase label.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One offending IR entity: a stable id (`n4` / `e7`) plus its
/// human-readable name (edges are named `caller->callee`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Subject {
    /// Display id of the node (`n4`) or edge (`e7`).
    pub id: String,
    /// Node name, or `from->to` for edges.
    pub name: String,
}

impl Subject {
    /// Builds a subject from id + name.
    pub fn new(id: impl Into<String>, name: impl Into<String>) -> Self {
        Subject {
            id: id.into(),
            name: name.into(),
        }
    }
}

/// One finding of a lint pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule id, e.g. `BP001`.
    pub rule: String,
    /// Rule slug, e.g. `retry-amplification`.
    pub name: String,
    /// Effective severity (after configuration overrides).
    pub severity: Severity,
    /// Offending nodes, most significant first.
    pub nodes: Vec<Subject>,
    /// Offending edges, most significant first.
    pub edges: Vec<Subject>,
    /// One-line description of the hazard at this site.
    pub message: String,
    /// One-line fix hint.
    pub fix: String,
    /// Quantitative rules attach the predicted bound (BP001: worst-case
    /// wire amplification; BP002: downstream budget in ms) so the
    /// cross-validation harness can bracket the dynamic measurement.
    pub bound: Option<f64>,
}

impl Diagnostic {
    /// Builds a finding for `rule` (severity starts at the rule default).
    pub fn new(rule: &crate::passes::Rule, message: impl Into<String>) -> Self {
        Diagnostic {
            rule: rule.id.to_string(),
            name: rule.name.to_string(),
            severity: rule.severity,
            nodes: Vec::new(),
            edges: Vec::new(),
            message: message.into(),
            fix: String::new(),
            bound: None,
        }
    }

    /// Adds an offending node.
    pub fn node(mut self, id: impl Into<String>, name: impl Into<String>) -> Self {
        self.nodes.push(Subject::new(id, name));
        self
    }

    /// Adds an offending edge.
    pub fn edge(mut self, id: impl Into<String>, name: impl Into<String>) -> Self {
        self.edges.push(Subject::new(id, name));
        self
    }

    /// Sets the fix hint.
    pub fn fix(mut self, fix: impl Into<String>) -> Self {
        self.fix = fix.into();
        self
    }

    /// Attaches the predicted quantitative bound.
    pub fn bound(mut self, bound: f64) -> Self {
        self.bound = Some(bound);
        self
    }

    /// The first subject (nodes before edges), used for deterministic
    /// ordering.
    pub fn primary_subject(&self) -> Option<&Subject> {
        self.nodes.first().or_else(|| self.edges.first())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_labels_roundtrip() {
        for s in [Severity::Allow, Severity::Warn, Severity::Deny] {
            assert_eq!(Severity::parse(s.label()), Some(s));
        }
        assert_eq!(Severity::parse("fatal"), None);
        assert!(Severity::Warn < Severity::Deny);
        assert!(Severity::Allow < Severity::Warn);
    }

    #[test]
    fn builder_accumulates_subjects() {
        let rule = crate::passes::Rule {
            id: "BP000",
            name: "test-rule",
            severity: Severity::Warn,
            summary: "",
            doc: "",
        };
        let d = Diagnostic::new(&rule, "msg")
            .node("n1", "svc")
            .edge("e2", "svc->db")
            .fix("do less")
            .bound(4.0);
        assert_eq!(d.primary_subject().unwrap().name, "svc");
        assert_eq!(d.edges[0].id, "e2");
        assert_eq!(d.bound, Some(4.0));
    }
}
