//! The `harness lint` subcommand: `rulecheck` as a CLI.
//!
//! Lints rewrite-rule programs — files given on the command line, or
//! the embedded corpus (`--corpus`): the kvstore Figure 4 rules, the
//! Redis §5.2 reorder rules, and every generated vsftpd Table 1 rule
//! program — against the syscall event vocabulary and each program's
//! real builtins. Exits nonzero when any error-severity diagnostic is
//! found, so CI can gate on it.

use std::sync::Arc;

use dsl::{AnalysisContext, Builtins, Diagnostic, Diagnostics, Severity};
use obs::json::{self, JsonObject};
use servers::{kvstore, redis, vsftpd};

/// One named rule program to lint, with the builtins it runs against.
pub struct LintTarget {
    pub name: String,
    pub source: String,
    pub builtins: Arc<Builtins>,
}

impl LintTarget {
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        builtins: Arc<Builtins>,
    ) -> Self {
        LintTarget {
            name: name.into(),
            source: source.into(),
            builtins,
        }
    }
}

/// Every rule program embedded in the reproduction, paired with the
/// builtins its update package actually registers.
pub fn corpus() -> Vec<LintTarget> {
    let std = Arc::new(Builtins::standard());
    let kv = kvstore::kv_builtins();
    let mut targets = vec![
        LintTarget::new("kvstore/fwd", kvstore::FWD_RULES_SRC, kv.clone()),
        LintTarget::new("kvstore/rev", kvstore::REV_RULES_SRC, kv),
        LintTarget::new("redis/fwd", redis::REORDER_FWD_SRC, std.clone()),
        LintTarget::new("redis/rev", redis::REORDER_REV_SRC, std.clone()),
    ];
    for (from, to) in vsftpd::version_pairs() {
        let from_f = vsftpd::VsftpdFeatures::for_version(&from).expect("known version");
        let to_f = vsftpd::VsftpdFeatures::for_version(&to).expect("known version");
        for (leg, src) in [
            ("fwd", vsftpd::fwd_rules_src(from_f, to_f)),
            ("rev", vsftpd::rev_rules_src(from_f, to_f)),
        ] {
            if !src.trim().is_empty() {
                targets.push(LintTarget::new(
                    format!("vsftpd/{from}->{to}/{leg}"),
                    src,
                    std.clone(),
                ));
            }
        }
    }
    targets
}

/// Lints one program against the syscall vocabulary and its builtins.
pub fn lint_target(target: &LintTarget) -> Diagnostics {
    let events = mve::event_signatures();
    let ctx = AnalysisContext::new()
        .with_events(&events)
        .with_builtins(&target.builtins);
    dsl::check_source(&target.source, &ctx)
}

/// The outcome of linting a set of targets.
pub struct LintReport {
    pub results: Vec<(String, Diagnostics)>,
}

impl LintReport {
    /// Lints every target.
    pub fn run(targets: &[LintTarget]) -> Self {
        LintReport {
            results: targets
                .iter()
                .map(|t| (t.name.clone(), lint_target(t)))
                .collect(),
        }
    }

    /// True when any target produced an error-severity diagnostic.
    pub fn has_errors(&self) -> bool {
        self.results.iter().any(|(_, ds)| ds.has_errors())
    }

    /// Total findings at or above `min`.
    pub fn count_at_least(&self, min: Severity) -> usize {
        self.results
            .iter()
            .flat_map(|(_, ds)| ds.iter())
            .filter(|d| d.severity >= min)
            .count()
    }

    /// Human-readable report, one block per target with findings.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, ds) in &self.results {
            if ds.is_empty() {
                out.push_str(&format!("{name}: clean\n"));
            } else {
                out.push_str(&format!(
                    "{name}: {} error(s), {} warning(s)\n",
                    ds.error_count(),
                    ds.warning_count()
                ));
                for d in ds.sorted_by_severity() {
                    out.push_str(&format!("  {}\n", d.render()));
                }
            }
        }
        out
    }

    /// Machine-readable report: one JSON object per target.
    pub fn to_json(&self) -> String {
        json::array(self.results.iter().map(|(name, ds)| {
            let mut target = JsonObject::new();
            target
                .field_str("target", name)
                .field_raw("diagnostics", &json::array(ds.iter().map(diagnostic_json)));
            target.finish()
        }))
    }
}

/// One diagnostic as a JSON object; an absent span or rule is `null`.
fn diagnostic_json(d: &Diagnostic) -> String {
    let mut o = JsonObject::new();
    o.field_str("code", d.code)
        .field_str("severity", d.severity.label())
        .field_str("message", &d.message);
    match d.span {
        Some(s) => o
            .field_u64("line", s.line.into())
            .field_u64("col", s.col.into()),
        None => o.field_raw("line", "null").field_raw("col", "null"),
    };
    match &d.rule {
        Some(r) => o.field_str("rule", r),
        None => o.field_raw("rule", "null"),
    };
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_embedded_corpus_lints_clean_of_errors() {
        let report = LintReport::run(&corpus());
        assert!(!report.has_errors(), "{}", report.render_text());
        // The corpus is also free of warnings — only intentional notes
        // (non-linear binders used as equality constraints) remain.
        assert_eq!(
            report.count_at_least(Severity::Warning),
            0,
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn json_escapes_and_nulls() {
        let d = Diagnostic::warning("RC0102", "binder \"n\" unused");
        assert_eq!(
            diagnostic_json(&d),
            r#"{"code":"RC0102","severity":"warning","message":"binder \"n\" unused","line":null,"col":null,"rule":null}"#
        );
        let d = d.at(dsl::Span::new(3, 12)).in_rule("r\n1");
        assert!(
            diagnostic_json(&d).ends_with(r#""line":3,"col":12,"rule":"r\n1"}"#),
            "{}",
            diagnostic_json(&d)
        );
    }

    #[test]
    fn a_planted_bad_rule_is_caught() {
        let target = LintTarget::new(
            "planted",
            "rule bad { on frobnicate(x) => write(x, undefined, 1) }",
            Arc::new(Builtins::standard()),
        );
        let report = LintReport::run(&[target]);
        assert!(report.has_errors());
        let text = report.render_text();
        assert!(text.contains("RC0201"), "{text}");
        assert!(text.contains("RC0101"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"target\":\"planted\""), "{json}");
        assert!(json.contains("RC0201"), "{json}");
    }
}
