//! `protect-pairing`: a VeloC-style `protect(id, region)` registration
//! with no covering `checkpoint`/`restart` call, or a `restart` into a
//! file that never protects anything, is a protocol error — the paper's
//! data layer only persists regions that are both registered *and*
//! committed, and only restores into regions that were re-registered
//! after the repair (Fig. 4's "protect → restart/checkpoint" sequence).
//!
//! Granularity: the "region" is the source file, refined by the call
//! graph — a `protect` caller is also clean when a `checkpoint`/`restart`
//! call appears in one of its transitive callees. This keeps backend
//! plumbing (where protect and checkpoint live in different methods of
//! one file) and app runners (protect in a helper, checkpoint in the
//! loop) clean without type information.

use crate::callgraph::{CallGraph, GraphOpts, Workspace};
use crate::diag::Diagnostic;
use crate::parser::{CallKind, FnItem};

fn method_call_named(f: &FnItem, names: &[&str]) -> bool {
    f.calls
        .iter()
        .any(|c| c.kind == CallKind::Method && names.contains(&c.name()))
}

pub fn check(ws: &Workspace, graph: &CallGraph, opts: GraphOpts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, f) in ws.live(opts) {
        let has_protect = method_call_named(f, &["protect"]);
        let has_restart = method_call_named(f, &["restart"]);
        if !has_protect && !has_restart {
            continue;
        }
        // File-level co-occurrence first, then the call-graph closure.
        let covers = |names: &[&str]| -> bool {
            let same_file = &ws.file(id).fns;
            same_file
                .iter()
                .any(|g| opts.is_live(g) && method_call_named(g, names))
                || graph
                    .reach(&[id])
                    .into_keys()
                    .any(|r| method_call_named(ws.fn_item(r), names))
        };
        if has_protect && !covers(&["checkpoint", "restart"]) {
            let site = f
                .calls
                .iter()
                .find(|c| c.kind == CallKind::Method && c.name() == "protect")
                .expect("has_protect implies a protect call");
            out.push(Diagnostic {
                rule: "protect-pairing",
                file: ws.file(id).rel.clone(),
                line: site.line,
                func: f.qual(),
                msg: "protect() registers a region but no checkpoint()/restart() covers it \
                      in this file or its callees; the region is never persisted"
                    .into(),
            });
        }
        if has_restart && !covers(&["protect"]) {
            let site = f
                .calls
                .iter()
                .find(|c| c.kind == CallKind::Method && c.name() == "restart")
                .expect("has_restart implies a restart call");
            out.push(Diagnostic {
                rule: "protect-pairing",
                file: ws.file(id).rel.clone(),
                line: site.line,
                func: f.qual(),
                msg: "restart() restores checkpoint data but nothing here protect()s a \
                      region; restore into unregistered regions fails at runtime \
                      (UnknownRegion)"
                    .into(),
            });
        }
    }
    out
}
