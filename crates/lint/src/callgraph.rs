//! Workspace call graph over the parsed files.
//!
//! Name resolution is heuristic — there is no type information — but tuned
//! to err toward *over*-approximation for reachability lints (a call may
//! resolve to several same-named candidates) while avoiding the classic
//! false-positive traps:
//!
//! - qualified calls (`Type::new`, `module::helper`) only resolve to
//!   functions whose impl type / crate / module actually matches the
//!   qualifier, so `CaptureSession::new` never resolves to an unrelated
//!   `Foo::new`;
//! - method and free calls (`.restore(…)`, `helper(…)`) resolve to
//!   same-named candidates workspace-wide: the recovery path genuinely
//!   crosses crates (`router.send → network.transfer → governor.reserve`);
//! - only *live* functions ([`Workspace::live`]) are nodes: test code and
//!   `lint-mutants`-gated functions without the opt-in are neither callers
//!   nor callees.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

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
    /// `f` is a seeded mutant this scan did not opt into.
    pub fn hides(self, f: &FnItem) -> bool {
        f.mutant_gated && !self.include_mutants
    }

    /// `f` is neither test code nor hidden.
    pub fn is_live(self, f: &FnItem) -> bool {
        !f.is_test && !self.hides(f)
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

pub struct CallGraph {
    /// Adjacency: caller → resolved callees.
    pub edges: HashMap<FnId, Vec<FnId>>,
}

impl CallGraph {
    pub fn build(ws: &Workspace, opts: GraphOpts) -> CallGraph {
        let resolver = Resolver::new(ws, opts);
        let mut edges: HashMap<FnId, Vec<FnId>> = HashMap::new();
        for (id, f) in ws.live(opts) {
            let mut out: Vec<FnId> = Vec::new();
            for call in &f.calls {
                out.extend(resolver.resolve(id, call));
            }
            out.sort_unstable();
            out.dedup();
            edges.insert(id, out);
        }
        CallGraph { edges }
    }

    /// The one traversal every reachability rule shares: BFS from `roots`,
    /// returning the parent forest (`None` for a root). Its key set is the
    /// reachable set, roots included; following parents from any key gives
    /// a shortest root → function call chain.
    pub fn reach(&self, roots: &[FnId]) -> HashMap<FnId, Option<FnId>> {
        let mut parent: HashMap<FnId, Option<FnId>> = HashMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &r in roots {
            if let Entry::Vacant(slot) = parent.entry(r) {
                slot.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(v) = queue.pop_front() {
            for &w in self.edges.get(&v).into_iter().flatten() {
                if let Entry::Vacant(slot) = parent.entry(w) {
                    slot.insert(Some(v));
                    queue.push_back(w);
                }
            }
        }
        parent
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

    #[test]
    fn free_call_prefers_same_file() {
        let ws = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/a/src/other.rs", "fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&ws, GraphOpts::default());
        let top = id_of(&ws, "top");
        assert_eq!(g.edges[&top], vec![(0, 1)]);
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
        let g = CallGraph::build(&ws, GraphOpts::default());
        let top = id_of(&ws, "top");
        let callees = &g.edges[&top];
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
        let g = CallGraph::build(&ws, GraphOpts::default());
        let callee_crates: Vec<&str> = g.edges[&top]
            .iter()
            .map(|&c| ws.file(c).crate_name.as_str())
            .collect();
        assert_eq!(callee_crates, ["a", "b"], "no type info: both `go`s");
    }

    #[test]
    fn crate_qualified_calls_cross_crates() {
        let ws = ws(&[
            ("crates/app/src/lib.rs", "fn top() { fenix::run(); }\n"),
            ("crates/fenix/src/lib.rs", "pub fn run() {}\n"),
        ]);
        let g = CallGraph::build(&ws, GraphOpts::default());
        let top = id_of(&ws, "top");
        assert_eq!(g.edges[&top], vec![(1, 0)]);
    }

    #[test]
    fn cross_module_and_trait_method_calls() {
        // The fixture-crate shape the satellite task asks for: a call into a
        // sibling module plus a trait method dispatched through `&self`.
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
        let g = CallGraph::build(&ws, GraphOpts::default());
        let main = id_of(&ws, "main");
        let helper = id_of(&ws, "helper");
        let exec = ws
            .fns()
            .find(|(_, f)| f.name == "exec" && f.body.is_some())
            .map(|(id, _)| id)
            .unwrap();
        let leaf = id_of(&ws, "leaf");
        let reach = g.reach(&[main]);
        assert!(reach.contains_key(&helper), "cross-module call resolved");
        assert!(reach.contains_key(&exec), "trait method call resolved");
        assert_eq!(reach[&leaf], Some(exec), "transitive through trait impl");
        assert_eq!(reach[&main], None, "a root has no parent");
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
        let without = CallGraph::build(&ws, GraphOpts::default());
        assert!(without.edges[&top].is_empty(), "mutant excluded");
        let with = CallGraph::build(
            &ws,
            GraphOpts {
                include_mutants: true,
            },
        );
        assert_eq!(with.edges[&top].len(), 1, "mutant included on request");
        let reach = with.reach(&[top]);
        assert!(reach.contains_key(&id_of(&ws, "boom")));
    }
}
