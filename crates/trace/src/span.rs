//! Spans, traces, and structural signatures.

/// Identifies a trace (one end-to-end request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies a span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

/// One operation within a trace (a service method execution, a backend call).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the trace.
    pub id: SpanId,
    /// Parent span, `None` for the root.
    pub parent: Option<SpanId>,
    /// Service (or backend) that executed the operation.
    pub service: String,
    /// Operation / method name.
    pub operation: String,
    /// Start time, ns since simulation epoch.
    pub start_ns: u64,
    /// End time, ns since simulation epoch (`>= start_ns` once finished).
    pub end_ns: u64,
    /// Whether the operation ended in an error (timeout, fault, overload).
    pub error: bool,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// `service:operation` label used in signatures and Sifter tokens.
    pub fn label(&self) -> String {
        format!("{}:{}", self.service, self.operation)
    }
}

/// A complete trace: all spans of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Trace id.
    pub id: TraceId,
    /// Spans, in creation order (parents precede children).
    pub spans: Vec<Span>,
}

impl Trace {
    /// The root span, if the trace is non-empty.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Child spans of `parent`, in creation order.
    pub fn children(&self, parent: SpanId) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect()
    }

    /// Whether any span errored.
    pub fn has_error(&self) -> bool {
        self.spans.iter().any(|s| s.error)
    }

    /// End-to-end latency: root span duration (0 for empty traces).
    pub fn latency_ns(&self) -> u64 {
        self.root().map(Span::duration_ns).unwrap_or(0)
    }

    /// Maximum span depth (root = 1; 0 for empty traces).
    pub fn depth(&self) -> usize {
        fn depth_of(t: &Trace, s: &Span) -> usize {
            1 + t
                .children(s.id)
                .iter()
                .map(|c| depth_of(t, c))
                .max()
                .unwrap_or(0)
        }
        self.root().map(|r| depth_of(self, r)).unwrap_or(0)
    }

    /// The structural signature: a parenthesized pre-order walk of span
    /// labels, with error markers. Two traces with the same call structure
    /// (and error placement) share a signature — this is the "visited
    /// services' execution order" grouping that trace tools use, and the
    /// token stream Sifter learns over.
    pub fn signature(&self) -> String {
        fn walk(t: &Trace, s: &Span, out: &mut String) {
            out.push('(');
            out.push_str(&s.label());
            if s.error {
                out.push('!');
            }
            for c in t.children(s.id) {
                walk(t, c, out);
            }
            out.push(')');
        }
        let mut out = String::new();
        if let Some(r) = self.root() {
            walk(self, r, &mut out);
        }
        out
    }

    /// The signature as a flat token sequence: `+label` on entry, `-` on
    /// exit, plus `!` suffixes for errors. Used by the Sifter encoder.
    pub fn token_stream(&self) -> Vec<String> {
        fn walk(t: &Trace, s: &Span, out: &mut Vec<String>) {
            let mut label = format!("+{}", s.label());
            if s.error {
                label.push('!');
            }
            out.push(label);
            for c in t.children(s.id) {
                walk(t, c, out);
            }
            out.push(format!("-{}", s.label()));
        }
        let mut out = Vec::new();
        if let Some(r) = self.root() {
            walk(self, r, &mut out);
        }
        out
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace has no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// frontend → (user, post → db).
    pub(crate) fn sample() -> Trace {
        Trace {
            id: TraceId(1),
            spans: vec![
                Span {
                    id: SpanId(0),
                    parent: None,
                    service: "frontend".into(),
                    operation: "Handle".into(),
                    start_ns: 0,
                    end_ns: 1000,
                    error: false,
                },
                Span {
                    id: SpanId(1),
                    parent: Some(SpanId(0)),
                    service: "user".into(),
                    operation: "Login".into(),
                    start_ns: 100,
                    end_ns: 300,
                    error: false,
                },
                Span {
                    id: SpanId(2),
                    parent: Some(SpanId(0)),
                    service: "post".into(),
                    operation: "Store".into(),
                    start_ns: 300,
                    end_ns: 900,
                    error: false,
                },
                Span {
                    id: SpanId(3),
                    parent: Some(SpanId(2)),
                    service: "db".into(),
                    operation: "Write".into(),
                    start_ns: 400,
                    end_ns: 800,
                    error: true,
                },
            ],
        }
    }

    #[test]
    fn tree_queries() {
        let t = sample();
        assert_eq!(t.root().unwrap().service, "frontend");
        assert_eq!(t.children(SpanId(0)).len(), 2);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.latency_ns(), 1000);
        assert!(t.has_error());
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn signature_encodes_structure_and_errors() {
        let t = sample();
        assert_eq!(
            t.signature(),
            "(frontend:Handle(user:Login)(post:Store(db:Write!)))"
        );
    }

    #[test]
    fn token_stream_is_balanced() {
        let t = sample();
        let toks = t.token_stream();
        assert_eq!(toks.len(), 2 * t.len());
        let opens = toks.iter().filter(|t| t.starts_with('+')).count();
        let closes = toks.iter().filter(|t| t.starts_with('-')).count();
        assert_eq!(opens, closes);
        assert_eq!(toks[0], "+frontend:Handle");
        assert_eq!(toks.last().unwrap(), "-frontend:Handle");
        assert!(toks.contains(&"+db:Write!".to_string()));
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = Trace {
            id: TraceId(0),
            spans: vec![],
        };
        assert_eq!(t.signature(), "");
        assert_eq!(t.depth(), 0);
        assert_eq!(t.latency_ns(), 0);
        assert!(t.token_stream().is_empty());
    }

    #[test]
    fn span_duration_saturates() {
        let mut s = sample().spans[0].clone();
        s.end_ns = 0;
        s.start_ns = 10;
        assert_eq!(s.duration_ns(), 0);
    }
}
