//! `collective-match` — static deadlock detection for divergent collective
//! sequences.
//!
//! Every rank must issue the *same* sequence of simmpi collectives
//! (`barrier`/`allgather`/`agree`/rendezvous/two-phase commit …). A branch
//! whose condition depends on the rank's identity (`rank == 0`, a
//! root/leader role) and whose arms issue different collective sequences
//! is a deadlock waiting for a schedule: the root enters `allgather`, the
//! others never do.
//!
//! For each in-scope function the rule computes, per branch arm, the
//! bounded *set of possible collective sequences* (loops appear as one
//! canonical element, single-candidate callees are inlined so sequences
//! hidden in helpers still count). Arms that diverge (`return`/`?`-free
//! error paths, panics) are exempt — an erroring rank abandons the
//! protocol by design. Mismatched fall-through arms under a
//! rank-dependent condition are reported; conditions that cannot be
//! rank-dependent (iteration counters, config flags) are skipped, as is
//! the simmpi implementation itself, whose root-vs-peer branches are the
//! collectives' own implementation technique.

use crate::callgraph::{FnId, GraphOpts, Resolver, Workspace};
use crate::cfg::{Block, BranchNode, Step};
use crate::diag::Diagnostic;
use crate::inline::Inliner;
use crate::parser::contains_word;
use crate::rules::collective;

pub const RULE: &str = "collective-match";

/// Crates whose functions must keep collective sequences rank-uniform.
/// simmpi itself is excluded: a collective's *implementation* legitimately
/// branches root-vs-peer.
const SCOPE: &[&str] = &[
    "fenix",
    "veloc",
    "kokkos-resilience",
    "resilience",
    "redstore",
    "harness",
];

/// Identifier words in a condition that make it rank-dependent.
const RANK_WORDS: &[&str] = &[
    "rank",
    "my_rank",
    "comm_rank",
    "world_rank",
    "my_global",
    "root",
    "is_root",
    "leader",
    "role",
    "coordinator",
    "primary",
];

/// Bounds on the sequence-set computation; an arm past the bound is
/// treated as unanalyzable and never flagged.
const MAX_SEQS: usize = 8;
const MAX_LEN: usize = 12;

/// A bounded set of possible collective sequences along fall-through
/// paths. `set` is empty when every path diverges.
#[derive(Clone, Debug)]
struct Seqs {
    set: Vec<Vec<String>>,
    overflow: bool,
}

impl Seqs {
    fn unit() -> Seqs {
        Seqs {
            set: vec![Vec::new()],
            overflow: false,
        }
    }

    fn diverged() -> Seqs {
        Seqs {
            set: Vec::new(),
            overflow: false,
        }
    }

    fn push_elem(&mut self, e: &str) {
        for seq in &mut self.set {
            if seq.len() >= MAX_LEN {
                self.overflow = true;
            } else {
                seq.push(e.to_owned());
            }
        }
    }

    /// Sequential composition: every sequence continues with every
    /// continuation in `next`.
    fn then(&mut self, next: &Seqs) {
        self.overflow |= next.overflow;
        let mut out = Vec::new();
        'outer: for a in &self.set {
            for b in &next.set {
                if out.len() >= MAX_SEQS {
                    self.overflow = true;
                    break 'outer;
                }
                let mut seq = a.clone();
                if seq.len() + b.len() > MAX_LEN {
                    self.overflow = true;
                }
                seq.extend(b.iter().take(MAX_LEN.saturating_sub(a.len())).cloned());
                out.push(seq);
            }
        }
        out.sort();
        out.dedup();
        self.set = out;
    }

    fn union(&mut self, other: &Seqs) {
        self.overflow |= other.overflow;
        self.set.extend(other.set.iter().cloned());
        self.set.sort();
        self.set.dedup();
        if self.set.len() > MAX_SEQS {
            self.set.truncate(MAX_SEQS);
            self.overflow = true;
        }
    }

    /// Canonical rendering for comparison and messages.
    fn canon(&self) -> String {
        let mut alts: Vec<String> = self
            .set
            .iter()
            .map(|s| {
                if s.is_empty() {
                    "(none)".to_owned()
                } else {
                    s.join("->")
                }
            })
            .collect();
        alts.sort();
        alts.dedup();
        alts.join(" | ")
    }
}

fn rank_dependent(cond: &str) -> bool {
    RANK_WORDS.iter().any(|w| contains_word(cond, w))
}

pub fn check(ws: &Workspace, resolver: &Resolver, opts: GraphOpts) -> Vec<Diagnostic> {
    let in_scope: Vec<FnId> = ws
        .live(opts)
        .filter(|(id, f)| f.body.is_some() && SCOPE.contains(&ws.file(*id).crate_name.as_str()))
        .map(|(id, _)| id)
        .collect();
    let mut inl = Inliner::new(ws, resolver, in_scope.iter().copied().collect());
    let mut diags = Vec::new();
    for &id in &in_scope {
        inl.walk(id, |inl, block| {
            block_seqs(inl, id, block, Some(&mut diags))
        });
    }
    diags
}

/// Sequence set of `block` in function `id`. With `report`, branch nodes in
/// this block belong to the function under report and are compared.
/// Returns `(seqs, flagged)` — `flagged` suppresses enclosing reports so
/// one root cause yields one diagnostic.
fn block_seqs(
    inl: &mut Inliner,
    id: FnId,
    block: &Block,
    mut report: Option<&mut Vec<Diagnostic>>,
) -> (Seqs, bool) {
    let mut seqs = Seqs::unit();
    let mut flagged = false;
    for step in &block.steps {
        match step {
            Step::Call(idx) => {
                let call = &inl.ws.fn_item(id).calls[*idx];
                if let Some(name) = collective(inl.ws.file(id), call) {
                    seqs.push_elem(name);
                } else if let Some(callee) = inl.callee(id, call) {
                    let (callee_seqs, _) =
                        inl.walk(callee, |inl, b| block_seqs(inl, callee, b, None));
                    seqs.then(&callee_seqs);
                }
            }
            Step::Branch(b) => {
                let arm_results: Vec<(Seqs, bool)> = b
                    .arms
                    .iter()
                    .map(|arm| block_seqs(inl, id, arm, report.as_deref_mut()))
                    .collect();
                let arm_flagged = arm_results.iter().any(|(_, fl)| *fl);
                flagged |= arm_flagged;
                if let Some(diags) = report.as_deref_mut().filter(|_| !arm_flagged) {
                    flagged |= check_branch(inl.ws, id, b, &arm_results, diags);
                }
                let mut joined = Seqs::diverged();
                for (s, _) in &arm_results {
                    joined.union(s);
                }
                if !b.exhaustive {
                    joined.union(&Seqs::unit());
                }
                if joined.set.is_empty() {
                    return (Seqs::diverged(), flagged);
                }
                seqs.then(&joined);
            }
            Step::Loop(body) => {
                let (body_seqs, fl) = block_seqs(inl, id, body, report.as_deref_mut());
                flagged |= fl;
                if body_seqs.overflow {
                    seqs.overflow = true;
                }
                if body_seqs.set.iter().any(|s| !s.is_empty()) {
                    seqs.push_elem(&format!("loop{{{}}}", body_seqs.canon()));
                }
            }
            Step::Diverge => return (Seqs::diverged(), flagged),
        }
    }
    (seqs, flagged)
}

/// Compare the fall-through collective sequences across `b`'s arms;
/// returns whether a diagnostic was emitted.
fn check_branch(
    ws: &Workspace,
    id: FnId,
    b: &BranchNode,
    arms: &[(Seqs, bool)],
    diags: &mut Vec<Diagnostic>,
) -> bool {
    if !rank_dependent(&b.cond) {
        return false;
    }
    if arms.iter().any(|(s, _)| s.overflow) {
        return false;
    }
    // Fall-through arms only: a diverging arm (empty set) abandons the
    // protocol and is exempt.
    let mut canon: Vec<String> = arms
        .iter()
        .filter(|(s, _)| !s.set.is_empty())
        .map(|(s, _)| s.canon())
        .collect();
    if !b.exhaustive {
        canon.push("(none)".to_owned());
    }
    if canon.len() < 2 {
        return false;
    }
    // Every arm silent → nothing to deadlock on.
    if canon.iter().all(|c| c == "(none)") {
        return false;
    }
    let mut distinct = canon.clone();
    distinct.sort();
    distinct.dedup();
    if distinct.len() < 2 {
        return false;
    }
    let mut cond = b.cond.clone();
    if cond.len() > 48 {
        cond.truncate(48);
        cond.push('…');
    }
    let detail: Vec<String> = canon
        .iter()
        .enumerate()
        .map(|(i, c)| format!("arm {} issues [{}]", i + 1, c))
        .collect();
    diags.push(Diagnostic {
        rule: RULE,
        file: ws.file(id).rel.clone(),
        line: b.line,
        func: ws.fn_item(id).qual(),
        msg: format!(
            "collective sequences diverge across rank-dependent branch \
             (`{cond}`): {}; ranks taking different arms deadlock in the \
             unmatched collective",
            detail.join(", ")
        ),
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        crate::testutil::run(check, files)
    }

    #[test]
    fn lone_if_with_collective_on_rank_flags() {
        let d = run(&[(
            "crates/fenix/src/f.rs",
            "pub fn go(comm: &Comm, rank: usize) {\n    if rank == 0 {\n        \
             comm.barrier();\n    }\n}\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("barrier"), "{}", d[0].msg);
    }

    #[test]
    fn matching_sequences_are_clean() {
        let d = run(&[(
            "crates/fenix/src/f.rs",
            "pub fn go(comm: &Comm, rank: usize) {\n    if rank == 0 {\n        \
             prep_root();\n        comm.barrier();\n    } else {\n        \
             comm.barrier();\n    }\n}\nfn prep_root() {}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn non_rank_conditions_are_skipped() {
        let d = run(&[(
            "crates/fenix/src/f.rs",
            "pub fn go(comm: &Comm, iter: usize) {\n    if iter % 10 == 0 {\n        \
             comm.barrier();\n    }\n}\n",
        )]);
        assert!(
            d.is_empty(),
            "interval checkpointing is rank-uniform: {d:?}"
        );
    }

    #[test]
    fn match_on_role_with_mismatched_arms_flags() {
        let d = run(&[(
            "crates/redstore/src/s.rs",
            "pub fn commit(comm: &Comm, role: Role) {\n    match role {\n        \
             Role::Leader => {\n            comm.agree(1, 0);\n            \
             comm.allgather(&x);\n        }\n        Role::Member => {\n            \
             comm.agree(1, 0);\n        }\n    }\n}\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].msg.contains("allgather"), "{}", d[0].msg);
    }

    #[test]
    fn diverging_error_arm_is_exempt() {
        let d = run(&[(
            "crates/fenix/src/f.rs",
            "pub fn go(comm: &Comm, rank: usize) -> Result<(), E> {\n    \
             if rank == 0 {\n        comm.barrier()?;\n    } else {\n        \
             return Err(E::NotRoot);\n    }\n    Ok(())\n}\n",
        )]);
        assert!(
            d.is_empty(),
            "the erroring rank abandons the protocol: {d:?}"
        );
    }

    #[test]
    fn collectives_hidden_in_helpers_are_found() {
        let d = run(&[(
            "crates/fenix/src/f.rs",
            "pub fn go(comm: &Comm, rank: usize) {\n    if rank == 0 {\n        \
             sync_root(comm);\n    }\n}\n\
             fn sync_root(comm: &Comm) {\n    comm.barrier();\n}\n",
        )]);
        assert_eq!(d.len(), 1, "helper collectives count: {d:?}");
    }

    #[test]
    fn helper_is_reported_once_not_per_caller() {
        let d = run(&[(
            "crates/fenix/src/f.rs",
            "pub fn a(comm: &Comm, rank: usize) {\n    helper(comm, rank);\n}\n\
             pub fn b(comm: &Comm, rank: usize) {\n    helper(comm, rank);\n}\n\
             fn helper(comm: &Comm, rank: usize) {\n    if rank == 0 {\n        \
             comm.barrier();\n    }\n}\n",
        )]);
        assert_eq!(d.len(), 1, "own-function analysis only: {d:?}");
        assert!(d[0].func.contains("helper"));
    }

    #[test]
    fn simmpi_implementation_is_out_of_scope() {
        let d = run(&[(
            "crates/simmpi/src/comm.rs",
            "pub fn bcast(comm: &Comm, root: usize) {\n    if comm.rank() == root {\n        \
             comm.bcast_bytes(&[1]);\n    }\n}\n",
        )]);
        assert!(d.is_empty(), "root-vs-peer impl branches are legal: {d:?}");
    }

    #[test]
    fn loops_compare_structurally() {
        let d = run(&[(
            "crates/fenix/src/f.rs",
            "pub fn go(comm: &Comm, rank: usize, n: usize) {\n    if rank == 0 {\n        \
             for _ in 0..n {\n            comm.barrier();\n        }\n    } else {\n        \
             for _ in 0..n {\n            comm.barrier();\n        }\n    }\n}\n",
        )]);
        assert!(d.is_empty(), "identical loop bodies match: {d:?}");
    }
}
