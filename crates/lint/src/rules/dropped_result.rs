//! `dropped-result`: a `Result` produced on a recovery path and bound
//! without ever being matched, propagated, or read is a swallowed failure
//! — the error class Rocco et al. identify as the dominant fault-tolerance
//! bug (misuse of the recovery API, not the runtime). `let _ = fallible()`
//! on a recovery path silently converts a failure into success.
//!
//! Dataflow, intra-procedural: for each `let` in a non-test function of
//! the strict-failure crates, if the pattern is `_` (or a binding never
//! used later in the body), the initializer has no `?`, and some call in
//! the initializer resolves — via the workspace call graph's name
//! resolution — to a function whose return type mentions `Result`, the
//! binding is flagged.

use crate::callgraph::{GraphOpts, Resolver, Workspace};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::parser::LetPat;
use crate::rules::{in_crates, STRICT_FAILURE_CRATES};

pub fn check(ws: &Workspace, resolver: &Resolver<'_>, opts: GraphOpts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, f) in ws.live(opts) {
        let file = ws.file(id);
        if !in_crates(&file.crate_name, STRICT_FAILURE_CRATES) {
            continue;
        }
        let Some((_, body_end)) = f.body else {
            continue;
        };
        for stmt in &f.lets {
            if stmt.question {
                continue;
            }
            match &stmt.pat {
                LetPat::Wild => {}
                LetPat::Ident(name) => {
                    // Used anywhere later in the body → not dropped.
                    let used = (stmt.stmt_end..body_end)
                        .any(|si| file.tok(si).kind == TokKind::Ident && file.text(si) == name);
                    if used {
                        continue;
                    }
                }
                LetPat::Other => continue,
            }
            let result_call = f.calls_in(stmt.init).find(|call| {
                resolver
                    .resolve(id, call)
                    .iter()
                    .any(|&callee| ws.fn_item(callee).ret.contains("Result"))
            });
            if let Some(call) = result_call {
                out.push(Diagnostic {
                    rule: "dropped-result",
                    file: file.rel.clone(),
                    line: stmt.line,
                    func: f.qual(),
                    msg: format!(
                        "`Result` from `{}(…)` is bound and never matched or propagated; \
                         on a recovery path a swallowed error becomes silent data loss",
                        call.name()
                    ),
                });
            }
        }
    }
    out
}
