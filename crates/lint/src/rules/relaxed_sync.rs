//! `relaxed-sync`: `Ordering::Relaxed` in a statement that touches a
//! synchronization-carrying atomic (`seq`, `aborted`). Checked on the
//! lossless token stream, so string literals and comments cannot fool it,
//! and over the enclosing *statement* rather than a single source line.
//! No runtime suite can
//! catch this class on x86-64 (loads and stores are ordered there anyway)
//! or under the model checker, which explores sequentially consistent
//! interleavings only.

use crate::callgraph::{GraphOpts, Workspace};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::rules::SYNC_ATOMIC_NAMES;

pub fn check(ws: &Workspace, opts: GraphOpts) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
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
                         use Acquire/Release"
                    ),
                });
            }
        }
    }
    out
}
