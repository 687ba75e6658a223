//! `wildcard-match`: matches over the failure enums (`MpiError`,
//! `VelocError`, `RedError`) in the recovery crates must enumerate every
//! variant — no `_` wildcard and no bare-binding catch-all arm. When a new
//! failure class is added (the paper's evolution added `Revoked` on top of
//! `ProcFailed`), a wildcard silently routes it to whatever the old
//! default was; exhaustive matches make the compiler surface every site
//! that needs a decision.
//!
//! The paper's `FenixEvent` maps onto `MpiError` in this codebase: Fenix
//! surfaces process failure as ULFM error classes rather than a separate
//! event enum (see `rules::FAILURE_ENUMS`).
//!
//! `matches!(e, …)` is exempt — its implicit `_ => false` *is* the point
//! of the macro — and so are matches that never name a failure-enum
//! variant in any arm (e.g. a `Result` match that forwards `Err(e)`
//! wholesale).

use crate::callgraph::{GraphOpts, Workspace};
use crate::diag::Diagnostic;
use crate::parser::contains_word;
use crate::rules::{in_crates, FAILURE_ENUMS, STRICT_FAILURE_CRATES};

pub fn check(ws: &Workspace, opts: GraphOpts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, f) in ws.live(opts) {
        let file = ws.file(id);
        if !in_crates(&file.crate_name, STRICT_FAILURE_CRATES) {
            continue;
        }
        for m in &f.matches {
            let named_enum = FAILURE_ENUMS
                .iter()
                .find(|e| m.arms.iter().any(|a| contains_word(&a.pat, e)));
            let Some(named_enum) = named_enum else {
                continue;
            };
            for arm in &m.arms {
                if arm.is_catch_all {
                    out.push(Diagnostic {
                        rule: "wildcard-match",
                        file: file.rel.clone(),
                        line: arm.line,
                        func: f.qual(),
                        msg: format!(
                            "catch-all arm `{}` in a match over `{named_enum}`; enumerate \
                             every failure variant so new failure classes force a decision \
                             here",
                            arm.pat
                        ),
                    });
                }
            }
        }
    }
    out
}
