//! The one interprocedural step the CFG rules share: a call whose
//! resolution names exactly one in-scope function is *inlined* — the rule
//! walks that function's [`cfg::Block`] in place of the call, so a
//! collective sequence or a lock acquisition hidden in a helper still
//! counts.
//!
//! The walk is depth-bounded and cycle-safe. A callee already on the
//! walk's stack, or one that would sit more than [`MAX_DEPTH`] functions
//! deep, is not entered: the rule treats that call as opaque, exactly like
//! a call that resolves to several candidates.

use std::collections::HashSet;

use crate::callgraph::{FnId, Resolver, Workspace};
use crate::cfg::{self, Block};
use crate::parser::{Call, CallKind};

/// How many functions deep one walk goes, the one it starts at included.
pub const MAX_DEPTH: usize = 6;

pub struct Inliner<'a> {
    pub ws: &'a Workspace,
    resolver: &'a Resolver<'a>,
    /// The functions a walk may enter.
    scope: HashSet<FnId>,
    /// The functions being walked, outermost first.
    stack: Vec<FnId>,
}

impl<'a> Inliner<'a> {
    pub fn new(ws: &'a Workspace, resolver: &'a Resolver<'a>, scope: HashSet<FnId>) -> Self {
        Inliner {
            ws,
            resolver,
            scope,
            stack: Vec::new(),
        }
    }

    /// The function `call` (made in `caller`) inlines: its one in-scope
    /// candidate, unless that one is already being walked or the walk is
    /// [`MAX_DEPTH`] deep.
    pub fn callee(&self, caller: FnId, call: &Call) -> Option<FnId> {
        if call.kind == CallKind::Macro || self.stack.len() >= MAX_DEPTH {
            return None;
        }
        let cands = self.resolver.resolve(caller, call).into_iter();
        let mut in_scope = cands.filter(|c| self.scope.contains(c));
        let only = in_scope.next()?;
        (in_scope.all(|c| c == only) && !self.stack.contains(&only)).then_some(only)
    }

    /// Run `visit` over `id`'s body with `id` on the walk's stack; `visit`
    /// gets the inliner back to descend into the calls it meets.
    pub fn walk<T>(&mut self, id: FnId, visit: impl FnOnce(&mut Self, &Block) -> T) -> T {
        let block = cfg::build(self.ws.file(id), self.ws.fn_item(id));
        self.stack.push(id);
        let out = visit(self, &block);
        self.stack.pop();
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::collective_match;

    #[test]
    fn walk_is_depth_bounded_and_cycle_safe() {
        // Three rank-dependent branches, each reaching a barrier through
        // helpers. `near`'s sits 4 functions deep, within the bound;
        // `far`'s 7, past it. `cyc`'s arms run the same `a ↔ b` recursion
        // from either end: entered once each, both arms issue one barrier,
        // and only unrolling the cycle (a, b, a, …) would tell them apart.
        let mut src = String::from(
            "pub fn near(comm: &Comm, rank: usize) { if rank == 0 { h1(comm); } }\n\
             fn h1(comm: &Comm) { h2(comm); }\n\
             fn h2(comm: &Comm) { h3(comm); }\n\
             fn h3(comm: &Comm) { comm.barrier(); }\n\
             pub fn far(comm: &Comm, rank: usize) { if rank == 0 { d1(comm); } }\n\
             pub fn cyc(comm: &Comm, rank: usize) { if rank == 0 { a(comm); } else { b(comm); } }\n\
             fn a(comm: &Comm) { comm.barrier(); b(comm); }\n\
             fn b(comm: &Comm) { a(comm); }\n",
        );
        for i in 1..6 {
            src += &format!("fn d{i}(comm: &Comm) {{ d{}(comm); }}\n", i + 1);
        }
        src += "fn d6(comm: &Comm) { comm.barrier(); }\n";
        let d = crate::testutil::run(collective_match::check, &[("crates/fenix/src/f.rs", &src)]);
        let funcs: Vec<&str> = d.iter().map(|d| d.func.as_str()).collect();
        assert_eq!(funcs, ["near"], "{d:?}");
    }
}
