//! `delta-base-reset`: incremental checkpoints are only sound while the
//! client's remembered delta base is a version the rank actually holds.
//! Every reset path — `Context::reset(new_comm)` after a Fenix repair, or
//! a protection-table teardown via `clear_protected` on body re-entry —
//! must therefore reach the data layer's generation invalidation
//! (`invalidate_deltas`, directly or through `set_rank`/`clear`), or a
//! recovered rank could emit a delta frame against a base it no longer
//! possesses and silently corrupt its own restart chain.
//!
//! The check is transitive: for each non-test function in the integration
//! crates (`kokkos-resilience`, `resilience`) that contains a `reset` or
//! `clear_protected` call, the rule follows the workspace call graph (the
//! invalidation usually lives two layers down, in `veloc`) and demands
//! that some reachable function contains an `invalidate_deltas` call site.

use crate::callgraph::{CallGraph, GraphOpts, Workspace};
use crate::diag::Diagnostic;
use crate::rules::in_crates;

/// Crates whose reset paths must invalidate delta-chain state.
pub const DELTA_RESET_CRATES: &[&str] = &["kokkos-resilience", "resilience"];

/// Call names that tear down protection/communicator state.
const RESET_CALLS: &[&str] = &["reset", "clear_protected"];

/// The generation-invalidation call every reset path must reach.
const INVALIDATE_CALL: &str = "invalidate_deltas";

pub fn check(ws: &Workspace, graph: &CallGraph, opts: GraphOpts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, f) in ws.live(opts) {
        let file = ws.file(id);
        if !in_crates(&file.crate_name, DELTA_RESET_CRATES) {
            continue;
        }
        let Some(trigger) = f.calls.iter().find(|c| RESET_CALLS.contains(&c.name())) else {
            continue;
        };
        let invalidated = graph.reach(&[id]).into_keys().any(|rid| {
            ws.fn_item(rid)
                .calls
                .iter()
                .any(|c| c.name() == INVALIDATE_CALL)
        });
        if !invalidated {
            out.push(Diagnostic {
                rule: "delta-base-reset",
                file: file.rel.clone(),
                line: trigger.line,
                func: f.qual(),
                msg: format!(
                    "`{}()` tears down protection state without reaching \
                     `invalidate_deltas`; a recovered rank could emit a delta \
                     checkpoint against a base it no longer holds",
                    trigger.name()
                ),
            });
        }
    }
    out
}
