//! `panic-reach`: no `panic!`/`todo!`/`unimplemented!`, `.unwrap()`,
//! `.expect(…)`, or non-range `[…]`-indexing in a protocol crate (see
//! [`crate::rules::PANIC_SITE_CRATES`]) may be reachable through the
//! call graph from a recovery entry point in `fenix`, `veloc`,
//! `kokkos-resilience`, or `redstore`. A panic on the re-entry path after
//! a failure kills the rank that was supposed to be recovering — turning a
//! survivable fault into a second, unsurvivable one.
//!
//! This upgrades PR 2's per-file `unwrap-on-recovery-path` text rule to
//! transitive call-graph precision: the entry set is the functions a rank
//! executes on the post-failure path (see
//! [`crate::rules::RECOVERY_ENTRY_FNS`]), and every function reachable
//! from them is checked.
//!
//! Deliberately *not* sites: `assert!`/`debug_assert!` (stated invariants)
//! and `unreachable!` (documented impossible states) — the paper's
//! runtime keeps those as contract documentation, and the model checker
//! exercises them.

use crate::callgraph::{CallGraph, FnId, GraphOpts, Workspace};
use crate::diag::Diagnostic;
use crate::parser::PanicKind;
use crate::rules::{in_crates, PANIC_SITE_CRATES, RECOVERY_ENTRY_FNS};

pub fn check(ws: &Workspace, graph: &CallGraph, opts: GraphOpts) -> Vec<Diagnostic> {
    let entries: Vec<FnId> = ws
        .fns()
        .filter(|(id, f)| {
            if f.is_test || ws.file(*id).file_is_test {
                return false;
            }
            if f.mutant_gated && !opts.include_mutants {
                return false;
            }
            let krate = ws.file(*id).crate_name.as_str();
            RECOVERY_ENTRY_FNS
                .iter()
                .any(|(c, names)| *c == krate && names.contains(&f.name.as_str()))
        })
        .map(|(id, _)| id)
        .collect();
    let reach = graph.reachable(&entries);
    let mut out = Vec::new();
    for id in reach {
        let f = ws.fn_item(id);
        let file = ws.file(id);
        // The traversal follows calls anywhere; only sites in
        // protocol-participating crates are reported.
        if !in_crates(&file.crate_name, PANIC_SITE_CRATES) {
            continue;
        }
        for site in &f.panics {
            let what = match &site.kind {
                PanicKind::Macro(m) => format!("{m}!"),
                PanicKind::Unwrap => ".unwrap()".into(),
                PanicKind::Expect => ".expect(…)".into(),
                PanicKind::Index => "[…]-indexing".into(),
            };
            out.push(Diagnostic {
                rule: "panic-reach",
                file: file.rel.clone(),
                line: site.line,
                func: f.qual(),
                msg: format!(
                    "{what} is reachable from a recovery entry point; a panic here kills \
                     the recovering rank — return the error through the resilience layers \
                     instead"
                ),
            });
        }
    }
    out
}
