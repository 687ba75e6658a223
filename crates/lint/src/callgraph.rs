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
//! - test functions and `lint-mutants`-gated functions are excluded from
//!   the graph unless explicitly requested.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::parser::{Call, CallKind, FnItem, ParsedFile};

/// Stable identifier of a function: (file index, fn index within file).
pub type FnId = (usize, usize);

/// The parsed workspace: every `.rs` file the analyzer looked at.
pub struct Workspace {
    /// Filesystem root the workspace was loaded from (`None` for
    /// synthetic workspaces — fixtures and unit tests). `effect-drift`
    /// reads the committed `effects-inventory.json` relative to it.
    pub root: Option<std::path::PathBuf>,
    pub files: Vec<ParsedFile>,
}

impl Workspace {
    pub fn fns(&self) -> impl Iterator<Item = (FnId, &FnItem)> {
        self.files
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| f.fns.iter().enumerate().map(move |(gi, g)| ((fi, gi), g)))
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

/// Per-call name resolution against the workspace's candidate index.
pub struct Resolver<'a> {
    ws: &'a Workspace,
    by_name: HashMap<&'a str, Vec<FnId>>,
}

impl<'a> Resolver<'a> {
    pub fn new(ws: &'a Workspace, opts: GraphOpts) -> Resolver<'a> {
        let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        for (id, f) in ws.fns() {
            if f.is_test {
                continue;
            }
            if f.mutant_gated && !opts.include_mutants {
                continue;
            }
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
        for (id, f) in ws.fns() {
            if f.mutant_gated && !opts.include_mutants {
                continue;
            }
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

    /// All functions reachable from `roots` (inclusive).
    pub fn reachable(&self, roots: &[FnId]) -> HashSet<FnId> {
        let mut seen: HashSet<FnId> = roots.iter().copied().collect();
        let mut queue: VecDeque<FnId> = roots.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if let Some(next) = self.edges.get(&id) {
                for &n in next {
                    if seen.insert(n) {
                        queue.push_back(n);
                    }
                }
            }
        }
        seen
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

    fn ws(files: &[(&str, &str, &str)]) -> Workspace {
        Workspace {
            root: None,
            files: files
                .iter()
                .map(|(rel, krate, src)| ParsedFile::parse(rel, krate, src, false))
                .collect(),
        }
    }

    fn id_of(ws: &Workspace, name: &str) -> FnId {
        ws.fns()
            .find(|(_, f)| f.name == name)
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("no fn named {name}"))
    }

    #[test]
    fn free_call_prefers_same_file() {
        let ws = ws(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "fn top() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/a/src/other.rs", "a", "fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&ws, GraphOpts::default());
        let top = id_of(&ws, "top");
        assert_eq!(g.edges[&top], vec![(0, 1)]);
    }

    #[test]
    fn qualified_call_requires_matching_impl_type() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "a",
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
                "a",
                "struct S;\nimpl S { fn go(&self) {} }\nfn top(s: &S) { s.go(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "b",
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
            (
                "crates/app/src/lib.rs",
                "app",
                "fn top() { fenix::run(); }\n",
            ),
            ("crates/fenix/src/lib.rs", "fenix", "pub fn run() {}\n"),
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
            "fixture",
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
        let reach = g.reachable(&[main]);
        assert!(reach.contains(&helper), "cross-module call resolved");
        assert!(reach.contains(&exec), "trait method call resolved");
        assert!(reach.contains(&leaf), "transitive through trait impl");
    }

    #[test]
    fn tests_and_mutants_are_excluded_by_default() {
        let ws = ws(&[(
            "crates/a/src/lib.rs",
            "a",
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
        let reach = with.reachable(&[top]);
        assert!(reach.contains(&id_of(&ws, "boom")));
    }
}
