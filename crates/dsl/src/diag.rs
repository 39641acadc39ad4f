//! Rustc-style diagnostics for the rule checker.
//!
//! A [`Diagnostic`] is one finding: a stable code (`RC0101`), a
//! severity, a human message, an optional source span and an optional
//! owning rule. [`Diagnostics`] is an ordered collection with a text
//! rendering; only `Error`-severity findings make a program
//! undeployable.

use std::fmt;

/// A 1-based line/column position in rule source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl Span {
    pub fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }

    /// The sentinel span used by synthesized AST nodes.
    pub fn none() -> Self {
        Span { line: 0, col: 0 }
    }

    /// True unless this is the `none()` sentinel.
    pub fn is_known(&self) -> bool {
        self.line != 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// How bad a finding is. Only `Error` blocks deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Note,
    Warning,
    Error,
}

impl Severity {
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// One finding from the analyzer (or a parse failure promoted into
/// diagnostic form).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: &'static str,
    pub severity: Severity,
    pub message: String,
    pub span: Option<Span>,
    pub rule: Option<String>,
}

impl Diagnostic {
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            span: None,
            rule: None,
        }
    }

    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic::new(code, Severity::Error, message)
    }

    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic::new(code, Severity::Warning, message)
    }

    pub fn note(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic::new(code, Severity::Note, message)
    }

    pub fn at(mut self, span: Span) -> Self {
        if span.is_known() {
            self.span = Some(span);
        }
        self
    }

    pub fn in_rule(mut self, rule: impl Into<String>) -> Self {
        self.rule = Some(rule.into());
        self
    }

    /// `error[RC0101]: unknown variable `x` (rule `r`, 3:12)`.
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity.label(), self.code, self.message);
        match (&self.rule, &self.span) {
            (Some(r), Some(s)) => {
                out.push_str(&format!(" (rule `{r}`, {s})"));
            }
            (Some(r), None) => {
                out.push_str(&format!(" (rule `{r}`)"));
            }
            (None, Some(s)) => {
                out.push_str(&format!(" ({s})"));
            }
            (None, None) => {}
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// An ordered bag of findings from one analysis run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    pub fn new() -> Self {
        Diagnostics::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warning_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// All findings, one rendered line each.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.render());
            out.push('\n');
        }
        out
    }

    /// The findings, most severe first (stable within a severity).
    pub fn sorted_by_severity(&self) -> Vec<&Diagnostic> {
        let mut v: Vec<&Diagnostic> = self.items.iter().collect();
        v.sort_by_key(|d| std::cmp::Reverse(d.severity));
        v
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_code_severity_and_span() {
        let d = Diagnostic::error("RC0101", "unknown variable `x`")
            .at(Span::new(3, 12))
            .in_rule("r1");
        assert_eq!(
            d.render(),
            "error[RC0101]: unknown variable `x` (rule `r1`, 3:12)"
        );
    }

    #[test]
    fn has_errors_ignores_warnings_and_notes() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning("RC0102", "w"));
        ds.push(Diagnostic::note("RC0104", "n"));
        assert!(!ds.has_errors());
        ds.push(Diagnostic::error("RC0101", "e"));
        assert!(ds.has_errors());
        assert_eq!(ds.error_count(), 1);
        assert_eq!(ds.warning_count(), 1);
    }

    #[test]
    fn unknown_span_is_dropped() {
        let d = Diagnostic::note("RC0104", "m").at(Span::none());
        assert!(d.span.is_none());
    }
}
