//! Token-stream ports of the PR 2 regex rules. Same policy, better
//! substrate: string literals and comments can no longer fool the scan,
//! and `relaxed-sync` reasons over the enclosing *statement* instead of a
//! single source line.
//!
//! - `relaxed-sync`: `Ordering::Relaxed` in a statement that touches a
//!   synchronization-carrying atomic (`seq`, `head`, `stop`, …) outside
//!   the audited seqlock file;
//! - `thread-spawn`: raw `std::thread::{spawn, Builder}` in the
//!   model-checked crates — threads there must go through the loom-aware
//!   shims so the model checker can interleave them.

use crate::callgraph::{GraphOpts, Workspace};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::parser::ParsedFile;
use crate::rules::{in_crates, AUDITED_RELAXED, MODEL_CHECKED_CRATES, SYNC_ATOMIC_NAMES};

pub fn check(ws: &Workspace, opts: GraphOpts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        relaxed_sync(file, opts, &mut out);
        thread_spawn(file, opts, &mut out);
    }
    out
}

fn relaxed_sync(file: &ParsedFile, opts: GraphOpts, out: &mut Vec<Diagnostic>) {
    if AUDITED_RELAXED.contains(&file.rel.as_str()) {
        return;
    }
    for si in file.find_path_refs(&["Ordering", "Relaxed"]) {
        // Test code is audited too; only unopted seeded mutants are skipped.
        if file.fn_at(si).is_some_and(|f| opts.hides(f)) {
            continue;
        }
        // Statement extent: nearest `;`/`{`/`}` on each side.
        let boundary = |t: &str| matches!(t, ";" | "{" | "}");
        let mut lo = si;
        while lo > 0 && !boundary(file.text(lo - 1)) {
            lo -= 1;
        }
        let mut hi = si;
        while hi + 1 < file.sig.len() && !boundary(file.text(hi)) {
            hi += 1;
        }
        let sync_ident = (lo..hi).find_map(|k| {
            let t = file.text(k);
            (file.tok(k).kind == TokKind::Ident && SYNC_ATOMIC_NAMES.contains(&t))
                .then(|| t.to_owned())
        });
        if let Some(name) = sync_ident {
            let func = file.fn_at(si).map(|f| f.qual()).unwrap_or_default();
            out.push(Diagnostic {
                rule: "relaxed-sync",
                file: file.rel.clone(),
                line: file.line(si),
                func,
                msg: format!(
                    "Ordering::Relaxed on synchronization-carrying atomic `{name}`; \
                     use Acquire/Release (or audit the file in AUDITED_RELAXED)"
                ),
            });
        }
    }
}

fn thread_spawn(file: &ParsedFile, opts: GraphOpts, out: &mut Vec<Diagnostic>) {
    if !in_crates(&file.crate_name, MODEL_CHECKED_CRATES) || file.file_is_test {
        return;
    }
    for segs in [
        &["std", "thread", "spawn"][..],
        &["std", "thread", "Builder"][..],
    ] {
        for si in file.find_path_refs(segs) {
            if file.fn_at(si).is_some_and(|f| !opts.is_live(f)) {
                continue;
            }
            let func = file.fn_at(si).map(|f| f.qual()).unwrap_or_default();
            out.push(Diagnostic {
                rule: "thread-spawn",
                file: file.rel.clone(),
                line: file.line(si),
                func,
                msg: format!(
                    "raw `{}` in a model-checked crate; use the loom-aware shim so the \
                     model checker can explore this thread",
                    segs.join("::")
                ),
            });
        }
    }
}
