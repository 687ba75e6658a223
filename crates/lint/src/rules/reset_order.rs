//! `reset-order`: after a communicator repair, `Context::reset(new_comm)`
//! clears the checkpoint-metadata cache (agreed versions, region stats)
//! before the next commit. Reading that metadata *before* the reset in the
//! same recovery function consumes pre-failure state — the classic stale
//! read the paper's reset contract exists to prevent (a rank would agree
//! on a version other ranks no longer have).
//!
//! The check is intra-procedural and positional: within one non-test
//! function, any stale-metadata read (`latest_version`, `restart_version`,
//! `latest_agreed_below`, `region_stats`, `checkpoint_bytes`) textually
//! before a `.reset(comm)` call is flagged. Argument-less `.reset()` calls
//! (accumulator resets etc.) are ignored — the lint targets the
//! communicator-taking reset.

use crate::callgraph::{GraphOpts, Workspace};
use crate::diag::Diagnostic;
use crate::parser::CallKind;
use crate::rules::STALE_METADATA_READS;

pub fn check(ws: &Workspace, opts: GraphOpts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, f) in ws.live(opts) {
        let file = ws.file(id);
        // First `.reset(<non-empty args>)` call in the function.
        let reset_si = f
            .calls
            .iter()
            .filter(|c| c.kind == CallKind::Method && c.name() == "reset")
            .filter(|c| {
                // The token after the callee name's `(` must not be `)`.
                let mut k = c.si + 1;
                while k < file.sig.len() && file.text(k) != "(" {
                    k += 1;
                }
                k + 1 < file.sig.len() && file.text(k + 1) != ")"
            })
            .map(|c| c.si)
            .min();
        let Some(reset_si) = reset_si else { continue };
        for call in &f.calls {
            if call.kind == CallKind::Method
                && STALE_METADATA_READS.contains(&call.name())
                && call.si < reset_si
            {
                out.push(Diagnostic {
                    rule: "reset-order",
                    file: file.rel.clone(),
                    line: call.line,
                    func: f.qual(),
                    msg: format!(
                        "`{}()` reads checkpoint metadata before `reset(new_comm)` clears \
                         the cache; move the read after the reset",
                        call.name()
                    ),
                });
            }
        }
    }
    out
}
