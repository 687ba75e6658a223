//! Diagnostics: findings and their human/JSON rendering.

use std::collections::BTreeMap;

use telemetry::Json;

/// One finding from one rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `panic-reach`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    pub line: u32,
    /// Qualified function name the finding is in (`""` for file-level).
    pub func: String,
    pub msg: String,
}

impl Diagnostic {
    pub fn render_human(&self) -> String {
        format!(
            "[{}] {}:{} ({}) {}",
            self.rule,
            self.file,
            self.line,
            if self.func.is_empty() {
                "-"
            } else {
                &self.func
            },
            self.msg
        )
    }
}

/// Render all diagnostics plus per-rule counts as a JSON report.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for d in diags {
        *counts.entry(d.rule).or_insert(0) += 1;
    }
    let findings = diags.iter().map(|d| {
        Json::obj([
            ("rule", Json::from(d.rule)),
            ("file", Json::from(d.file.as_str())),
            ("line", Json::from(d.line)),
            ("function", Json::from(d.func.as_str())),
            ("message", Json::from(d.msg.as_str())),
        ])
    });
    let counts = counts.into_iter().map(|(rule, n)| (rule, Json::from(n)));
    let report = Json::obj([
        ("findings", Json::arr(findings)),
        ("counts", Json::obj(counts)),
        ("total", Json::from(diags.len())),
    ]);
    report.to_json_pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "panic-reach",
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            func: "X::go".into(),
            msg: "reachable unwrap".into(),
        }
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let d = Diagnostic {
            msg: "say \"hi\"\nline2".into(),
            ..diag()
        };
        let j = render_json(&[d.clone(), diag()]);
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"panic-reach\": 2"));
        assert!(j.contains("\"total\": 2"));
    }
}
