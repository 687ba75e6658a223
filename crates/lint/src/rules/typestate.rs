//! `protocol-typestate` — declarative protocol automata checked over the
//! interprocedural control-flow tree.
//!
//! Each [`Automaton`] names a protocol the paper's layers must follow:
//!
//! - **checkpoint-lifecycle** — `protect`/`protect_exact` must precede the
//!   2-argument `checkpoint`/`restart` client calls, and `clear_protected`
//!   un-protects (a later checkpoint without re-protect is a violation);
//! - **region-lifecycle** — `CaptureSession::new` → `record` →
//!   `unique_views`, the kokkos-resilience capture order;
//! - **ulfm-recovery** — detection (`is_recoverable`/`failed_ranks`) must
//!   precede `revoke`; `agree`/`repair_rendezvous`/`shrink` repair the
//!   communicator; a plain collective issued while revoked-and-unrepaired
//!   is a static deadlock/error.
//!
//! The check is a state-**set** abstract interpretation of each function's
//! [`cfg`] tree: branches are explored per-arm (path sensitivity) and
//! joined by union; loops run to a small fixpoint; calls that resolve to
//! exactly one in-scope function are inlined (depth-bounded, cycle-safe),
//! so a protocol split across helpers is still checked end to end.
//!
//! Roots are in-scope functions with no in-scope caller; they start in the
//! automaton's designated start state. Functions that are never inlined
//! anywhere (their call sites resolve ambiguously, or only tests call
//! them) are re-checked from a *permissive* all-states start, so only
//! locally infeasible sequences are flagged — interprocedural context can
//! never be invented against them.

use std::collections::{HashMap, HashSet};

use crate::callgraph::{FnId, GraphOpts, Resolver, Workspace};
use crate::cfg::{self, Block, Step};
use crate::diag::Diagnostic;
use crate::parser::CallKind;
use crate::rules::{comm_call, Comm};

pub const RULE: &str = "protocol-typestate";

/// How a call site produces a protocol symbol.
enum Matcher {
    /// `.name(…)` method call; `Some(n)` restricts to exactly `n` args
    /// (disambiguating the overloaded `checkpoint`/`restart` names).
    Method(&'static str, Option<usize>),
    /// `Qual::name(…)` path call.
    PathCall(&'static str, &'static str),
    /// Any data collective of [`crate::rules::comm_call`].
    Collective,
}

/// One protocol symbol with its transition relation over state indices.
struct Sym {
    label: &'static str,
    matchers: &'static [Matcher],
    delta: &'static [(u8, u8)],
}

struct Automaton {
    name: &'static str,
    /// Crates whose non-test functions this automaton applies to.
    scope: &'static [&'static str],
    states: &'static [&'static str],
    /// Start states for root functions.
    start: &'static [u8],
    syms: &'static [Sym],
    hint: &'static str,
}

const CHECKPOINT_LIFECYCLE: Automaton = Automaton {
    name: "checkpoint-lifecycle",
    // The crates that can name a `veloc::Client`: `resilience` reaches the
    // tier through `DataBackend` only, `harness` not at all.
    scope: &["veloc", "kokkos-resilience"],
    states: &["unprotected", "protected"],
    start: &[0],
    syms: &[
        Sym {
            label: "protect",
            matchers: &[
                Matcher::Method("protect", None),
                Matcher::Method("protect_exact", None),
            ],
            delta: &[(0, 1), (1, 1)],
        },
        Sym {
            label: "clear_protected",
            matchers: &[Matcher::Method("clear_protected", None)],
            delta: &[(0, 0), (1, 0)],
        },
        Sym {
            label: "checkpoint",
            matchers: &[Matcher::Method("checkpoint", Some(2))],
            delta: &[(1, 1)],
        },
        Sym {
            label: "restart",
            matchers: &[Matcher::Method("restart", Some(2))],
            delta: &[(1, 1)],
        },
    ],
    hint: "the 2-argument client checkpoint/restart requires protected \
           regions: call protect()/protect_exact() first (and re-protect \
           after clear_protected())",
};

const REGION_LIFECYCLE: Automaton = Automaton {
    name: "region-lifecycle",
    scope: &["kokkos", "kokkos-resilience"],
    states: &["idle", "entered", "captured"],
    start: &[0],
    syms: &[
        Sym {
            label: "enter",
            matchers: &[Matcher::PathCall("CaptureSession", "new")],
            delta: &[(0, 1), (1, 1), (2, 1)],
        },
        Sym {
            label: "record",
            matchers: &[Matcher::Method("record", None)],
            delta: &[(1, 2), (2, 2)],
        },
        Sym {
            label: "unique_views",
            matchers: &[Matcher::Method("unique_views", None)],
            delta: &[(2, 2)],
        },
    ],
    hint: "region capture order is CaptureSession::new -> record -> \
           unique_views",
};

const ULFM_RECOVERY: Automaton = Automaton {
    name: "ulfm-recovery",
    scope: &["fenix", "resilience"],
    states: &["live", "detected", "revoked"],
    start: &[0],
    syms: &[
        Sym {
            label: "detect",
            matchers: &[
                Matcher::Method("is_recoverable", None),
                Matcher::Method("failed_ranks", None),
            ],
            delta: &[(0, 1), (1, 1), (2, 2)],
        },
        Sym {
            label: "revoke",
            matchers: &[Matcher::Method("revoke", None)],
            delta: &[(1, 2), (2, 2)],
        },
        Sym {
            label: "agree",
            matchers: &[
                Matcher::Method("agree", None),
                Matcher::Method("repair_rendezvous", None),
                Matcher::Method("agree_intact_version", None),
            ],
            delta: &[(0, 0), (1, 1), (2, 0)],
        },
        Sym {
            label: "shrink",
            matchers: &[Matcher::Method("shrink", None)],
            delta: &[(0, 0), (1, 0), (2, 0)],
        },
        Sym {
            label: "collective",
            matchers: &[Matcher::Collective],
            delta: &[(0, 0), (1, 1)],
        },
    ],
    hint: "recovery order is detect (is_recoverable/failed_ranks) -> \
           revoke -> agree/shrink; plain collectives are illegal on a \
           revoked, unrepaired communicator",
};

const AUTOMATA: &[&Automaton] = &[&CHECKPOINT_LIFECYCLE, &REGION_LIFECYCLE, &ULFM_RECOVERY];

/// Maximum call-inlining depth.
const MAX_DEPTH: usize = 10;

type StateSet = u32;

fn all_states(a: &Automaton) -> StateSet {
    (1u32 << a.states.len()) - 1
}

fn start_set(a: &Automaton) -> StateSet {
    a.start.iter().fold(0, |s, &b| s | (1 << b))
}

fn set_names(a: &Automaton, s: StateSet) -> String {
    a.states
        .iter()
        .enumerate()
        .filter(|(i, _)| s & (1 << i) != 0)
        .map(|(_, n)| *n)
        .collect::<Vec<_>>()
        .join("|")
}

pub fn check(ws: &Workspace, resolver: &Resolver, opts: GraphOpts) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for a in AUTOMATA {
        run_automaton(ws, resolver, opts, a, &mut diags);
    }
    diags
}

fn run_automaton(
    ws: &Workspace,
    resolver: &Resolver,
    opts: GraphOpts,
    a: &Automaton,
    diags: &mut Vec<Diagnostic>,
) {
    let mut in_scope: Vec<FnId> = Vec::new();
    for (id, f) in ws.live(opts) {
        if f.body.is_some() && a.scope.contains(&ws.file(id).crate_name.as_str()) {
            in_scope.push(id);
        }
    }
    let scope_set: HashSet<FnId> = in_scope.iter().copied().collect();

    // Fast relevance filter: skip the whole automaton when no in-scope
    // function mentions any of its symbols.
    let relevant = in_scope.iter().any(|&id| {
        ws.fn_item(id)
            .calls
            .iter()
            .any(|c| a.syms.iter().any(|s| matches(ws.file(id), c, s)))
    });
    if !relevant {
        return;
    }

    // Functions with at least one in-scope caller (over-approximate: any
    // resolution candidate counts).
    let mut called: HashSet<FnId> = HashSet::new();
    for &id in &in_scope {
        for call in &ws.fn_item(id).calls {
            for cand in resolver.resolve(id, call) {
                if cand != id && scope_set.contains(&cand) {
                    called.insert(cand);
                }
            }
        }
    }

    let mut eval = Eval {
        ws,
        resolver,
        a,
        scope_set: &scope_set,
        cfgs: HashMap::new(),
        covered: HashSet::new(),
        stack: Vec::new(),
        diags,
    };
    for &id in &in_scope {
        if !called.contains(&id) {
            eval.eval_fn(id, start_set(a), true);
        }
    }
    // Functions never reached from a root (ambiguous call sites, trait
    // dispatch, test-only callers): permissive start, so only locally
    // impossible sequences are flagged.
    let uncovered: Vec<FnId> = in_scope
        .iter()
        .copied()
        .filter(|id| !eval.covered.contains(id))
        .collect();
    for id in uncovered {
        if !eval.covered.contains(&id) {
            eval.eval_fn(id, all_states(a), true);
        }
    }
}

fn matches(file: &crate::parser::ParsedFile, call: &crate::parser::Call, sym: &Sym) -> bool {
    sym.matchers.iter().any(|m| match m {
        Matcher::Method(name, arity) => {
            call.kind == CallKind::Method
                && call.name() == *name
                && arity.is_none_or(|n| cfg::call_arity(file, call) == n)
        }
        Matcher::PathCall(qual, name) => {
            call.kind == CallKind::Path
                && call.name() == *name
                && call.segs.len() >= 2
                && call.segs[call.segs.len() - 2] == *qual
        }
        Matcher::Collective => {
            matches!(comm_call(file, call), Some((_, Comm::Collective)))
        }
    })
}

struct Eval<'a, 'd> {
    ws: &'a Workspace,
    resolver: &'a Resolver<'a>,
    a: &'a Automaton,
    scope_set: &'a HashSet<FnId>,
    cfgs: HashMap<FnId, Block>,
    covered: HashSet<FnId>,
    stack: Vec<FnId>,
    diags: &'d mut Vec<Diagnostic>,
}

impl Eval<'_, '_> {
    /// Evaluate `id` from state set `s`. `None` means every path through
    /// the function diverges.
    fn eval_fn(&mut self, id: FnId, s: StateSet, report: bool) -> Option<StateSet> {
        if self.stack.contains(&id) || self.stack.len() >= MAX_DEPTH {
            // Cycle or depth cap: the callee's effect is unknown, so the
            // caller continues from every state — never from a guess that
            // could flag a legal downstream transition. The fn stays
            // uncovered here so the permissive fallback pass still checks
            // its own body.
            return Some(all_states(self.a));
        }
        self.covered.insert(id);
        let block = match self.cfgs.get(&id) {
            Some(b) => b.clone(),
            None => {
                let b = cfg::build(self.ws.file(id), self.ws.fn_item(id));
                self.cfgs.insert(id, b.clone());
                b
            }
        };
        self.stack.push(id);
        let out = self.eval_block(id, &block, s, report);
        self.stack.pop();
        out
    }

    fn eval_block(
        &mut self,
        id: FnId,
        block: &Block,
        mut s: StateSet,
        report: bool,
    ) -> Option<StateSet> {
        for step in &block.steps {
            match step {
                Step::Call(idx) => {
                    let file = self.ws.file(id);
                    let f = self.ws.fn_item(id);
                    let call = &f.calls[*idx];
                    if let Some(sym) = self.a.syms.iter().find(|sym| matches(file, call, sym)) {
                        let mut next: StateSet = 0;
                        for &(from, to) in sym.delta {
                            if s & (1 << from) != 0 {
                                next |= 1 << to;
                            }
                        }
                        if next == 0 {
                            if report {
                                self.diags.push(Diagnostic {
                                    rule: RULE,
                                    file: file.rel.clone(),
                                    line: call.line,
                                    func: f.qual(),
                                    msg: format!(
                                        "protocol {}: `{}` has no legal transition from \
                                         state(s) [{}]; {}",
                                        self.a.name,
                                        sym.label,
                                        set_names(self.a, s),
                                        self.a.hint
                                    ),
                                });
                            }
                            // Error recovery: continue from any state so one
                            // violation does not cascade.
                            s = all_states(self.a);
                        } else {
                            s = next;
                        }
                        continue;
                    }
                    // Not a symbol: inline when the call resolves to exactly
                    // one in-scope function.
                    if call.kind == CallKind::Macro {
                        continue;
                    }
                    let cands: Vec<FnId> = self
                        .resolver
                        .resolve(id, call)
                        .into_iter()
                        .filter(|c| self.scope_set.contains(c))
                        .collect();
                    if cands.len() == 1 && cands[0] != id {
                        match self.eval_fn(cands[0], s, report) {
                            Some(out) => s = out,
                            None => return None, // callee never returns
                        }
                    }
                }
                Step::Branch(b) => {
                    let mut out: Option<StateSet> = None;
                    for arm in &b.arms {
                        if let Some(arm_out) = self.eval_block(id, arm, s, report) {
                            out = Some(out.unwrap_or(0) | arm_out);
                        }
                    }
                    if !b.exhaustive {
                        out = Some(out.unwrap_or(0) | s);
                    }
                    match out {
                        Some(o) => s = o,
                        None => return None, // all arms diverge
                    }
                }
                Step::Loop { body, .. } => {
                    // Fixpoint over the loop body; diagnostics only on the
                    // first pass so widening does not re-report.
                    let mut fix = s;
                    for pass in 0..self.a.states.len() + 1 {
                        let out = self.eval_block(id, body, fix, report && pass == 0);
                        let merged = fix | out.unwrap_or(0);
                        if merged == fix {
                            break;
                        }
                        fix = merged;
                    }
                    s = fix;
                }
                Step::Diverge { .. } => return None,
            }
        }
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        crate::testutil::run(check, files)
    }

    #[test]
    fn revoke_without_detect_is_flagged() {
        let d = run(&[(
            "crates/fenix/src/r.rs",
            "pub fn recover(comm: &Comm) {\n    comm.revoke();\n}\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("ulfm-recovery"));
        assert!(d[0].msg.contains("`revoke`"));
    }

    #[test]
    fn detect_revoke_agree_is_clean() {
        let d = run(&[(
            "crates/fenix/src/r.rs",
            "pub fn recover(comm: &Comm, e: &E) -> Result<(), E> {\n    \
             if e.is_recoverable() {\n        comm.revoke();\n        \
             comm.agree(1, 0)?;\n        comm.barrier()?;\n    }\n    Ok(())\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn collective_on_revoked_comm_is_flagged() {
        let d = run(&[(
            "crates/fenix/src/r.rs",
            "pub fn recover(comm: &Comm, e: &E) {\n    if e.is_recoverable() {\n        \
             comm.revoke();\n        comm.barrier();\n    }\n}\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("`collective`"), "{}", d[0].msg);
    }

    #[test]
    fn match_guard_detection_precedes_arm_body() {
        // The fenix runtime shape: the guard call is the detection.
        let d = run(&[(
            "crates/fenix/src/r.rs",
            "pub fn run(comm: &Comm, r: Result<(), E>) {\n    match r {\n        \
             Err(e) if e.is_recoverable() => {\n            comm.revoke();\n            \
             comm.agree(1, 0);\n        }\n        _ => {}\n    }\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn interprocedural_detection_covers_helper() {
        let d = run(&[(
            "crates/fenix/src/r.rs",
            "pub fn entry(comm: &Comm, e: &E) {\n    if e.is_recoverable() {\n        \
             poison(comm);\n    }\n}\n\
             fn poison(comm: &Comm) {\n    comm.revoke();\n}\n",
        )]);
        assert!(d.is_empty(), "helper inherits the detected state: {d:?}");
    }

    #[test]
    fn checkpoint_without_protect_is_flagged() {
        let d = run(&[(
            "crates/veloc/src/b.rs",
            "pub fn save(client: &Client) {\n    client.checkpoint(\"ckpt\", 3);\n}\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("checkpoint-lifecycle"));
    }

    #[test]
    fn protect_then_checkpoint_is_clean_and_region_call_is_ignored() {
        let d = run(&[(
            "crates/veloc/src/b.rs",
            "pub fn save(client: &Client, kr: &Ctx) {\n    client.protect(1, views);\n    \
             client.checkpoint(\"ckpt\", 3);\n    kr.checkpoint(\"loop\", i, body);\n}\n",
        )]);
        assert!(
            d.is_empty(),
            "3-arg region checkpoint is out of scope: {d:?}"
        );
    }

    #[test]
    fn clear_then_checkpoint_without_reprotect_is_flagged() {
        let d = run(&[(
            "crates/veloc/src/b.rs",
            "pub fn save(client: &Client) {\n    client.protect(1, views);\n    \
             client.clear_protected();\n    client.checkpoint(\"ckpt\", 3);\n}\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("unprotected"), "{}", d[0].msg);
    }

    #[test]
    fn region_capture_order_is_enforced() {
        let fire = run(&[(
            "crates/kokkos-resilience/src/c.rs",
            "pub fn go(s: &Session) {\n    s.unique_views();\n}\n",
        )]);
        assert_eq!(fire.len(), 1, "{fire:?}");
        assert!(fire[0].msg.contains("region-lifecycle"));
        let clean = run(&[(
            "crates/kokkos-resilience/src/c.rs",
            "pub fn go(views: &V) {\n    let s = CaptureSession::new(1);\n    \
             s.record(\"v\", views);\n    s.unique_views();\n}\n",
        )]);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn loop_fixpoint_does_not_reflag_protect_in_loop() {
        let d = run(&[(
            "crates/veloc/src/b.rs",
            "pub fn save(client: &Client) {\n    for v in views() {\n        \
             client.protect(v, 1);\n    }\n    client.checkpoint(\"ckpt\", 3);\n}\n",
        )]);
        // The zero-iteration path leaves the state unprotected, but the
        // union with the protected loop exit keeps checkpoint legal.
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let d = run(&[(
            "crates/telemetry/src/r.rs",
            "pub fn f(c: &C) {\n    c.revoke();\n    c.checkpoint(\"x\", 1);\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}
