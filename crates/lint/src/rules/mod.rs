//! The lint rules.
//!
//! Each rule here is one no runtime suite, compiler lint, type or run-time
//! witness replaces: its violation, seeded live, survives tier-1 and the
//! chaos smoke (DESIGN.md §10). The one rule is a CFG rule through the
//! [`crate::inline`] walk: [`collective_match`]. Panic sites, host time,
//! threads and blocking are clippy's (`clippy.toml`); lock order and
//! blocking under a held lock or in a no-blocking scope are the
//! parking_lot shim's lock-order witness.

pub mod collective_match;

use crate::callgraph::{GraphOpts, Resolver, Workspace};
use crate::cfg;
use crate::diag::Diagnostic;
use crate::parser::{Call, CallKind, ParsedFile};

/// The data and recovery collectives (`agree`, `shrink`, the rendezvous
/// and agreed-version calls, directly or through a layer above simmpi):
/// the method names `collective-match` holds rank-uniform.
const COLLECTIVES: &[&str] = &[
    "barrier",
    "allgather",
    "allreduce",
    "allreduce_scalar",
    "allreduce_with",
    "bcast",
    "bcast_bytes",
    "reduce",
    "reduce_with",
    "gather",
    "agree",
    "shrink",
    "rendezvous",
    "repair_rendezvous",
    "agree_intact_version",
    "latest_agreed_below",
    "possession",
];

/// The collective a method call names, if any. `Iterator::reduce` takes
/// one closure where `Comm::reduce` takes root + data, so `reduce` counts
/// only from two arguments up.
pub fn collective(file: &ParsedFile, call: &Call) -> Option<&'static str> {
    if call.kind != CallKind::Method {
        return None;
    }
    let &name = COLLECTIVES.iter().find(|&&n| call.name() == n)?;
    (name != "reduce" || cfg::call_arity(file, call) >= 2).then_some(name)
}

/// All rule identifiers, in report order.
pub const ALL_RULES: &[&str] = &["collective-match"];

/// Run every rule over the workspace.
pub fn run_all(ws: &Workspace, opts: GraphOpts) -> Vec<Diagnostic> {
    let mut diags = collective_match::check(ws, &Resolver::new(ws, opts), opts);
    // Stable order, then whole-value dedupe: a call that resolves to
    // several candidates can report one site twice (same rule, site, and
    // message) — one finding must survive, not two.
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.func, &a.msg).cmp(&(&b.file, b.line, b.rule, &b.func, &b.msg))
    });
    diags.dedup();
    diags
}
