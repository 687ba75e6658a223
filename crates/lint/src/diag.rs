//! Diagnostics: findings, human/JSON rendering, and the audited baseline.
//!
//! A baseline file lists findings that have been audited and accepted.
//! Each entry must carry a justification comment — the loader rejects a
//! baseline entry with no preceding `#` comment, so exceptions cannot be
//! silently accumulated. Keys are `rule-id @ path # function` (no line
//! numbers, so entries survive unrelated edits).

use std::collections::{BTreeMap, HashMap};

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
    /// Baseline key: stable across unrelated line churn.
    pub fn key(&self) -> String {
        format!("{} @ {} # {}", self.rule, self.file, self.func)
    }

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
pub fn render_json(diags: &[Diagnostic], baselined: usize) -> String {
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
        ("baselined", Json::from(baselined)),
    ]);
    report.to_json_pretty() + "\n"
}

/// A parsed baseline: audited finding keys with justifications.
#[derive(Default)]
pub struct Baseline {
    entries: HashMap<String, String>,
}

impl Baseline {
    /// Parse baseline text. Returns an error for an entry with no
    /// justification comment directly above it.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = HashMap::new();
        let mut pending_comment: Vec<String> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                pending_comment.clear();
                continue;
            }
            if let Some(c) = line.strip_prefix('#') {
                pending_comment.push(c.trim().to_owned());
                continue;
            }
            if pending_comment.is_empty() {
                return Err(format!(
                    "baseline line {}: entry `{line}` has no justification comment above it",
                    ln + 1
                ));
            }
            entries.insert(line.to_owned(), pending_comment.join(" "));
            pending_comment.clear();
        }
        Ok(Baseline { entries })
    }

    pub fn contains(&self, d: &Diagnostic) -> bool {
        self.entries.contains_key(&d.key())
    }

    /// Entries that matched no finding (stale — should be removed).
    pub fn stale<'a>(&'a self, diags: &[Diagnostic]) -> Vec<&'a str> {
        let seen: std::collections::HashSet<String> = diags.iter().map(|d| d.key()).collect();
        let mut out: Vec<&str> = self
            .entries
            .keys()
            .filter(|k| !seen.contains(*k))
            .map(String::as_str)
            .collect();
        out.sort_unstable();
        out
    }
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
    fn baseline_requires_justification() {
        let ok = Baseline::parse(
            "# audited 2026-08: cold path, covered by test_x\npanic-reach @ crates/x/src/lib.rs # X::go\n",
        )
        .unwrap();
        assert!(ok.contains(&diag()));
        let err = Baseline::parse("panic-reach @ crates/x/src/lib.rs # X::go\n");
        assert!(err.is_err(), "entry without comment must be rejected");
    }

    #[test]
    fn baseline_key_ignores_lines() {
        let mut d = diag();
        let b = Baseline::parse(&format!("# why\n{}\n", d.key())).unwrap();
        d.line = 99;
        assert!(b.contains(&d), "key is line-independent");
    }

    #[test]
    fn stale_entries_are_reported() {
        let b = Baseline::parse("# old\npanic-reach @ crates/gone.rs # f\n").unwrap();
        let stale = b.stale(&[diag()]);
        assert_eq!(stale, vec!["panic-reach @ crates/gone.rs # f"]);
    }

    #[test]
    fn baseline_key_round_trips_through_parse() {
        // A key produced by `Diagnostic::key()` written into a baseline
        // (with justification) must come back as a matching, non-stale
        // entry — the exact flow `scripts/ci.sh` relies on.
        let d = diag();
        let text = format!("# audited: round-trip test\n{}\n", d.key());
        let b = Baseline::parse(&text).unwrap();
        assert!(b.contains(&d));
        assert!(b.stale(&[d]).is_empty(), "a matched entry is not stale");
    }

    #[test]
    fn baseline_parses_multiple_entries_each_needing_a_comment() {
        let text = "# first\nrule-a @ f.rs # f\n\n# second\nrule-b @ g.rs # g\n";
        let b = Baseline::parse(text).unwrap();
        assert_eq!(b.stale(&[]), ["rule-a @ f.rs # f", "rule-b @ g.rs # g"]);
        // A blank line clears the pending comment: the entry after it
        // must bring its own justification.
        let bad = "# only one comment\nrule-a @ f.rs # f\n\nrule-b @ g.rs # g\n";
        assert!(Baseline::parse(bad).is_err());
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let d = Diagnostic {
            msg: "say \"hi\"\nline2".into(),
            ..diag()
        };
        let j = render_json(&[d.clone(), diag()], 1);
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"panic-reach\": 2"));
        assert!(j.contains("\"total\": 2"));
        assert!(j.contains("\"baselined\": 1"));
    }
}
