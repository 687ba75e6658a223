//! Workspace-wide call resolution over the parsed files.
//!
//! Name resolution is heuristic — there is no type information — but tuned
//! to err toward *over*-approximation (a call may resolve to several
//! same-named candidates) while avoiding the classic false-positive traps:
//!
//! - qualified calls (`Type::new`, `module::helper`) only resolve to
//!   functions whose impl type / crate / module actually matches the
//!   qualifier, so `CaptureSession::new` never resolves to an unrelated
//!   `Foo::new`;
//! - method and free calls (`.restore(…)`, `helper(…)`) resolve to
//!   same-named candidates workspace-wide: the recovery path genuinely
//!   crosses crates (`router.send → network.transfer → governor.reserve`);
//! - only *live* functions ([`Workspace::live`]) are candidates: test code
//!   and `lint-mutants`-gated functions without the opt-in are never
//!   resolved to.

use std::collections::HashMap;

use crate::parser::{Call, CallKind, FnItem, ParsedFile};

/// Stable identifier of a function: (file index, fn index within file).
pub type FnId = (usize, usize);

/// The parsed workspace: every `.rs` file the analyzer looked at.
pub struct Workspace {
    pub files: Vec<ParsedFile>,
}

impl Workspace {
    pub fn fns(&self) -> impl Iterator<Item = (FnId, &FnItem)> {
        self.files
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| f.fns.iter().enumerate().map(move |(gi, g)| ((fi, gi), g)))
    }

    /// The functions a scan analyzes: no test code, and no seeded mutant
    /// without the opt-in. Every rule iterates this, never [`Self::fns`].
    pub fn live(&self, opts: GraphOpts) -> impl Iterator<Item = (FnId, &FnItem)> {
        self.fns().filter(move |(_, f)| opts.is_live(f))
    }

    pub fn fn_item(&self, id: FnId) -> &FnItem {
        &self.files[id.0].fns[id.1]
    }

    pub fn file(&self, id: FnId) -> &ParsedFile {
        &self.files[id.0]
    }
}

/// Name-resolution / traversal options.
#[derive(Clone, Copy, Default)]
pub struct GraphOpts {
    /// Include `#[cfg(feature = "lint-mutants")]` functions (the seeded
    /// violations used by the mutant self-test).
    pub include_mutants: bool,
}

impl GraphOpts {
    /// `f` is neither test code nor a seeded mutant this scan did not opt
    /// into.
    pub fn is_live(self, f: &FnItem) -> bool {
        !f.is_test && (self.include_mutants || !f.mutant_gated)
    }
}

/// Per-call name resolution against the workspace's candidate index.
pub struct Resolver<'a> {
    ws: &'a Workspace,
    by_name: HashMap<&'a str, Vec<FnId>>,
}

impl<'a> Resolver<'a> {
    pub fn new(ws: &'a Workspace, opts: GraphOpts) -> Resolver<'a> {
        let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        for (id, f) in ws.live(opts) {
            by_name.entry(f.name.as_str()).or_default().push(id);
        }
        Resolver { ws, by_name }
    }

    /// Candidate callees of `call` as made from function `caller`.
    pub fn resolve(&self, caller: FnId, call: &Call) -> Vec<FnId> {
        let caller_crate = self.ws.file(caller).crate_name.as_str();
        let mut out = Vec::new();
        resolve(
            self.ws,
            &self.by_name,
            caller_crate,
            caller.0,
            call,
            &mut out,
        );
        out
    }
}

fn resolve(
    ws: &Workspace,
    by_name: &HashMap<&str, Vec<FnId>>,
    caller_crate: &str,
    caller_file: usize,
    call: &Call,
    out: &mut Vec<FnId>,
) {
    let name = call.name();
    let Some(cands) = by_name.get(name) else {
        return;
    };
    match call.kind {
        CallKind::Macro => {}
        CallKind::Method => {
            // `.name(…)`: same-named `self`-taking methods.
            out.extend(cands.iter().filter(|&&c| ws.fn_item(c).has_self));
        }
        CallKind::Free => {
            // `name(…)`: free functions; the same file's shadow the rest of
            // the workspace.
            let same_file: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|&c| !ws.fn_item(c).has_self && c.0 == caller_file)
                .collect();
            if !same_file.is_empty() {
                out.extend(same_file);
                return;
            }
            out.extend(cands.iter().filter(|&&c| !ws.fn_item(c).has_self));
        }
        CallKind::Path => {
            // `a::b::name(…)`: the qualifier just before the name must
            // match the callee's impl type, crate, or module. `self`,
            // `crate`, and `super` qualify within the caller's crate.
            let qual = &call.segs[call.segs.len() - 2];
            for &c in cands {
                let g = ws.fn_item(c);
                let callee_crate = ws.file(c).crate_name.as_str();
                let matches = if qual == "self" || qual == "crate" || qual == "super" {
                    callee_crate == caller_crate
                } else if qual
                    .chars()
                    .next()
                    .is_some_and(|ch| ch.is_ascii_uppercase())
                {
                    // `Type::name` — impl type must match exactly.
                    g.impl_type.as_deref() == Some(qual.as_str())
                } else {
                    // `module::name` / `crate_name::name`.
                    let norm = qual.replace('-', "_");
                    callee_crate.replace('-', "_") == norm
                        || g.module.contains(&norm)
                        || ws.file(c).rel.contains(&format!("/{norm}"))
                };
                if matches {
                    out.push(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{id_of, ws};

    /// Every function `id`'s calls resolve to, sorted and deduplicated.
    fn callees(ws: &Workspace, opts: GraphOpts, id: FnId) -> Vec<FnId> {
        let resolver = Resolver::new(ws, opts);
        let calls = ws.fn_item(id).calls.iter();
        let mut out: Vec<FnId> = calls.flat_map(|c| resolver.resolve(id, c)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn free_call_prefers_same_file() {
        let ws = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/a/src/other.rs", "fn helper() {}\n"),
        ]);
        let top = id_of(&ws, "top");
        assert_eq!(callees(&ws, GraphOpts::default(), top), vec![(0, 1)]);
    }

    #[test]
    fn qualified_call_requires_matching_impl_type() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "struct S; struct T;\n\
             impl S { fn new() -> S { S } }\n\
             impl T { fn new() -> T { T } }\n\
             fn top() { let _s = S::new(); }\n",
        )]);
        let top = id_of(&ws, "top");
        let callees = callees(&ws, GraphOpts::default(), top);
        assert_eq!(callees.len(), 1);
        assert_eq!(ws.fn_item(callees[0]).qual(), "S::new");
    }

    #[test]
    fn method_calls_resolve_across_crates() {
        let files = [
            (
                "crates/a/src/lib.rs",
                "struct S;\nimpl S { fn go(&self) {} }\nfn top(s: &S) { s.go(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "struct R;\nimpl R { fn go(&self) {} }\n",
            ),
        ];
        let ws = ws(&files);
        let top = id_of(&ws, "top");
        let callee_crates: Vec<&str> = callees(&ws, GraphOpts::default(), top)
            .into_iter()
            .map(|c| ws.file(c).crate_name.as_str())
            .collect();
        assert_eq!(callee_crates, ["a", "b"], "no type info: both `go`s");
    }

    #[test]
    fn crate_qualified_calls_cross_crates() {
        let ws = ws(&[
            ("crates/app/src/lib.rs", "fn top() { fenix::run(); }\n"),
            ("crates/fenix/src/lib.rs", "pub fn run() {}\n"),
        ]);
        let top = id_of(&ws, "top");
        assert_eq!(callees(&ws, GraphOpts::default(), top), vec![(1, 0)]);
    }

    #[test]
    fn cross_module_and_trait_method_calls() {
        // A call into a sibling module plus a trait method dispatched
        // through `&self`.
        let ws = ws(&[(
            "crates/fixture/src/main.rs",
            "mod util { pub fn helper() {} }\n\
                 fn main() { util::helper(); run_trait(); }\n\
                 trait Runner { fn exec(&self); }\n\
                 struct R;\n\
                 impl Runner for R { fn exec(&self) { leaf(); } }\n\
                 fn run_trait() { let r = R; r.exec(); }\n\
                 fn leaf() {}\n",
        )]);
        let opts = GraphOpts::default();
        let exec = ws
            .fns()
            .find(|(_, f)| f.name == "exec" && f.body.is_some())
            .map(|(id, _)| id)
            .unwrap();
        let main = callees(&ws, opts, id_of(&ws, "main"));
        assert!(main.contains(&id_of(&ws, "helper")), "cross-module call");
        let run_trait = callees(&ws, opts, id_of(&ws, "run_trait"));
        assert!(run_trait.contains(&exec), "trait method call");
        assert_eq!(callees(&ws, opts, exec), vec![id_of(&ws, "leaf")]);
    }

    #[test]
    fn tests_and_mutants_are_excluded_by_default() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "fn top() { seeded(); }\n\
             #[cfg(feature = \"lint-mutants\")]\nfn seeded() { boom(); }\n\
             fn boom() {}\n\
             #[cfg(test)]\nmod tests { fn top() {} }\n",
        )]);
        let top = id_of(&ws, "top");
        assert!(
            callees(&ws, GraphOpts::default(), top).is_empty(),
            "mutant excluded"
        );
        let with = GraphOpts {
            include_mutants: true,
        };
        assert_eq!(callees(&ws, with, top), vec![id_of(&ws, "seeded")]);
        assert!(
            ws.live(with).all(|(_, f)| !f.is_test),
            "test code is never live"
        );
    }
}
