//! `single-exit`: the paper's single control-flow exit point (§ "Process
//! resiliency", Fig. 4). Every rank — survivor, repaired, or spare — must
//! leave the resilient region by returning through the `fenix::run` loop;
//! a `std::process::exit`/`abort` anywhere in the code the loop can reach
//! bypasses rank-state agreement and the final collective, exactly the bug
//! class Fenix's `Fenix_Init` contract exists to prevent.
//!
//! Roots are the functions that *call* `fenix::run`. The root itself is
//! exempt (exiting after the loop has returned is the harness's business);
//! everything transitively reachable from the root — which includes the
//! loop body closure's callees, since closure calls attribute to the
//! enclosing function — must be exit-free; a secondary exit hidden behind
//! a crate boundary is still a violation.

use crate::callgraph::{CallGraph, FnId, Workspace};
use crate::diag::Diagnostic;
use crate::parser::CallKind;

pub fn check(ws: &Workspace, graph: &CallGraph) -> Vec<Diagnostic> {
    let roots: Vec<FnId> = ws
        .fns()
        .filter(|(_, f)| !f.is_test)
        .filter(|(_, f)| {
            f.calls.iter().any(|c| {
                c.kind == CallKind::Path
                    && c.name() == "run"
                    && c.segs.iter().any(|s| s == "fenix" || s == "runtime")
            })
        })
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        return Vec::new();
    }
    let mut reach = graph.reachable(&roots);
    for r in &roots {
        reach.remove(r);
    }
    let mut out = Vec::new();
    for id in reach {
        let f = ws.fn_item(id);
        for call in &f.calls {
            let is_exit = call.kind == CallKind::Path
                && matches!(call.name(), "exit" | "abort" | "_exit")
                && call.segs.iter().any(|s| s == "process" || s == "libc");
            if is_exit {
                out.push(Diagnostic {
                    rule: "single-exit",
                    file: ws.file(id).rel.clone(),
                    line: call.line,
                    func: f.qual(),
                    msg: format!(
                        "`{}` is reachable from the fenix::run loop; recovery paths must \
                         return through the single exit point, not terminate the process",
                        call.segs.join("::")
                    ),
                });
            }
        }
    }
    out
}
