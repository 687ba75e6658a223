//! `lock-order` + `blocking-context` — workspace-wide lock-acquisition
//! graph with cycle detection, and blocking calls under a held lock (the
//! lock half of `blocking-context`; its governor half is a row of
//! [`crate::effects::QUERIES`]).
//!
//! The lock universe is harvested from declarations (`name: Mutex<…>`,
//! `name: RwLock<…>`, including `Arc<Mutex<…>>` wrappings and statics); an
//! acquisition is a 0-argument `.lock()`/`.read()`/`.write()` whose
//! receiver's final identifier names a harvested lock. Guard lifetimes
//! follow Rust scoping: a `let`-bound guard lives to the end of its
//! enclosing block (or an explicit `drop(guard)`), `let _ =` and inline
//! temporaries die at the end of the statement.
//!
//! Within a guard's extent, further acquisitions add `held → acquired`
//! edges — directly, or transitively through the callees the shared walk
//! ([`crate::inline`]) inlines. An edge participating in a cycle is
//! reported as `lock-order`. A blocking operation (mailbox `recv`,
//! `rendezvous`, collectives, `checkpoint_wait`) inside a guard's extent
//! is reported as `blocking-context` — the classic
//! router-stall shape: a receive that can only be satisfied by a peer who
//! needs the held lock. Condvar `wait` is exempt (it releases the lock by
//! design), and same-lock self-edges are skipped: distinct instances share
//! a field name (`mailboxes[a].queue` vs `mailboxes[b].queue`), which the
//! name-level graph cannot tell apart.

use std::collections::{HashMap, HashSet};

use crate::callgraph::{FnId, GraphOpts, Resolver, Workspace};
use crate::cfg;
use crate::diag::Diagnostic;
use crate::inline::Inliner;
use crate::parser::{Call, CallKind, FnItem, LetPat, ParsedFile};
use crate::rules::comm_call;

pub const RULE_ORDER: &str = "lock-order";
pub const RULE_BLOCKING: &str = "blocking-context";

/// Lock identity: (declaring crate, declared name).
type LockId = (String, String);

fn lock_label(l: &LockId) -> String {
    format!("{}::{}", l.0, l.1)
}

/// `name: …Mutex<…>` / `name: …RwLock<…>` declarations per crate. The
/// lookahead tolerates `Arc<…>`/`Box<…>`/`&` wrappings.
fn harvest_universe(ws: &Workspace) -> HashMap<String, Vec<String>> {
    let mut by_name: HashMap<String, Vec<String>> = HashMap::new();
    for file in &ws.files {
        if !file.rel.starts_with("crates/") {
            continue;
        }
        for si in 0..file.sig.len().saturating_sub(2) {
            if file.tok(si).kind != crate::lexer::TokKind::Ident {
                continue;
            }
            if file.text(si + 1) != ":" || file.is_colcol(si + 1) {
                continue;
            }
            // `:` of a path (`a::b`) — the previous check; also skip when
            // the colon closes a ternary-ish construct (none in Rust).
            let mut k = si + 2;
            let mut found = false;
            for _ in 0..10 {
                if k + 1 >= file.sig.len() {
                    break;
                }
                match file.text(k) {
                    "Mutex" | "RwLock" if file.text(k + 1) == "<" => {
                        found = true;
                        break;
                    }
                    "," | ";" | ")" | "}" | "{" | "=" | ">" => break,
                    _ => k += 1,
                }
            }
            if found {
                let name = file.text(si).to_owned();
                by_name
                    .entry(name)
                    .or_default()
                    .push(file.crate_name.clone());
            }
        }
    }
    for crates in by_name.values_mut() {
        crates.sort();
        crates.dedup();
    }
    by_name
}

/// An acquisition site with the guard's held extent `[start, end)` in
/// significant-token indices.
struct Acq {
    lock: LockId,
    si: usize,
    line: u32,
    range: (usize, usize),
}

/// Brace pairs `{open → close}` within a function body.
fn brace_pairs(file: &ParsedFile, body: (usize, usize)) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut stack = Vec::new();
    for si in body.0..=body.1.min(file.sig.len() - 1) {
        match file.text(si) {
            "{" => stack.push(si),
            "}" => {
                if let Some(open) = stack.pop() {
                    pairs.push((open, si));
                }
            }
            _ => {}
        }
    }
    pairs
}

/// Innermost brace close enclosing `si`.
fn enclosing_close(pairs: &[(usize, usize)], si: usize) -> Option<usize> {
    pairs
        .iter()
        .filter(|(o, c)| *o < si && si < *c)
        .min_by_key(|(o, c)| c - o)
        .map(|(_, c)| *c)
}

/// End of the statement containing `si` (the `;`/`,`/closing brace at
/// relative depth 0).
fn stmt_end(file: &ParsedFile, mut si: usize, body_end: usize) -> usize {
    let mut depth = 0i64;
    let end = body_end.min(file.sig.len());
    while si < end {
        match file.text(si) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return si;
                }
                depth -= 1;
            }
            ";" | "," if depth == 0 => return si + 1,
            _ => {}
        }
        si += 1;
    }
    si
}

/// Collect the lock acquisitions of `f` with their held extents.
fn acquisitions(
    file: &ParsedFile,
    f: &FnItem,
    universe: &HashMap<String, Vec<String>>,
) -> Vec<Acq> {
    let Some(body) = f.body else {
        return Vec::new();
    };
    let pairs = brace_pairs(file, body);
    let mut out = Vec::new();
    for call in &f.calls {
        if call.kind != CallKind::Method
            || !matches!(call.name(), "lock" | "read" | "write")
            || cfg::call_arity(file, call) != 0
        {
            continue;
        }
        let Some(recv) = cfg::receiver_ident(file, call) else {
            continue;
        };
        let Some(crates) = universe.get(&recv) else {
            continue;
        };
        let krate = if crates.contains(&file.crate_name) {
            file.crate_name.clone()
        } else if crates.len() == 1 {
            crates[0].clone()
        } else {
            continue; // ambiguous cross-crate name
        };
        let lock: LockId = (krate, recv);

        // Guard extent. A chained acquisition (`x.lock().get(…)`) is a
        // temporary even inside a `let` init: the binding holds the
        // projected value, not the guard, so the guard dies with the
        // statement (Rust temporary-scope rules).
        let chained = call.si + 3 < file.sig.len() && file.text(call.si + 3) == ".";
        // Innermost covering `let`: an enclosing `if let`/outer statement
        // can also span this token range, and its extent would be wrong.
        let stmt = f
            .lets
            .iter()
            .filter(|l| l.init.0 <= call.si && call.si < l.init.1)
            .max_by_key(|l| l.init.0);
        let range = match stmt {
            Some(l) if chained || l.pat == LetPat::Wild => (call.si, l.stmt_end),
            Some(l) => {
                let start = l.stmt_end;
                let mut end =
                    enclosing_close(&pairs, l.stmt_end.saturating_sub(1)).unwrap_or(body.1);
                if let LetPat::Ident(name) = &l.pat {
                    // Explicit `drop(guard)` truncates the extent.
                    for c in f.calls.iter() {
                        if c.si >= start
                            && c.si < end
                            && c.name() == "drop"
                            && c.kind != CallKind::Method
                            && file.text(c.si + 1 + 3 * (c.segs.len() - 1)) == "("
                            && file.text(c.si + 2 + 3 * (c.segs.len() - 1)) == *name
                        {
                            end = c.si;
                            break;
                        }
                    }
                }
                (start, end)
            }
            None => (call.si, stmt_end(file, call.si + 1, body.1)),
        };
        out.push(Acq {
            lock,
            si: call.si,
            line: call.line,
            range,
        });
    }
    out
}

/// Transitive per-function summary: locks acquired anywhere inside, and
/// the first blocking call name (if any).
#[derive(Clone, Default)]
struct Summary {
    acquires: HashSet<LockId>,
    blocking: Option<String>,
}

/// `id`'s [`Summary`], through the callees the shared walk inlines.
fn summary(
    inl: &mut Inliner,
    universe: &HashMap<String, Vec<String>>,
    memo: &mut HashMap<FnId, Summary>,
    id: FnId,
) -> Summary {
    if let Some(s) = memo.get(&id) {
        return s.clone();
    }
    let sum = inl.walk(id, |inl, block| {
        let (file, f) = (inl.ws.file(id), inl.ws.fn_item(id));
        let mut sum = Summary::default();
        sum.acquires
            .extend(acquisitions(file, f, universe).into_iter().map(|a| a.lock));
        for k in block.calls() {
            let call = &f.calls[k];
            // Every collective and wait blocks on a peer.
            if comm_call(file, call).is_some() {
                sum.blocking.get_or_insert_with(|| call.name().to_owned());
                continue;
            }
            let Some(callee) = followed(inl, id, call) else {
                continue;
            };
            let inner = summary(inl, universe, memo, callee);
            sum.acquires.extend(inner.acquires);
            if sum.blocking.is_none() {
                sum.blocking = inner.blocking;
            }
        }
        sum
    });
    memo.insert(id, sum.clone());
    sum
}

/// The function a lock summary follows `call` into: the one the shared
/// walk inlines, and for a method call only when its receiver is literally
/// `self` — the name-based resolver would otherwise misattribute methods
/// invoked on a guard's payload (`self.own.lock().clear()` resolving to
/// `Store::clear`) and fabricate edges.
fn followed(inl: &Inliner, id: FnId, call: &Call) -> Option<FnId> {
    let on_self = call.kind != CallKind::Method
        || cfg::receiver_ident(inl.ws.file(id), call).as_deref() == Some("self");
    on_self.then(|| inl.callee(id, call)).flatten()
}

/// One `held → acquired` edge with its best reporting site.
struct Edge {
    held: LockId,
    acquired: LockId,
    file: String,
    line: u32,
    func: String,
    via: Option<String>,
}

pub fn check(ws: &Workspace, resolver: &Resolver, opts: GraphOpts) -> Vec<Diagnostic> {
    let universe = harvest_universe(ws);
    if universe.is_empty() {
        return Vec::new();
    }
    let ids: Vec<FnId> = ws
        .live(opts)
        .filter(|(id, f)| f.body.is_some() && ws.file(*id).rel.starts_with("crates/"))
        .map(|(id, _)| id)
        .collect();
    let mut inl = Inliner::new(ws, resolver, ids.iter().copied().collect());
    let mut memo = HashMap::new();

    let mut edges: Vec<Edge> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for &id in &ids {
        let file = ws.file(id);
        let f = ws.fn_item(id);
        let acqs = acquisitions(file, f, &universe);
        if acqs.is_empty() {
            continue;
        }
        for a in &acqs {
            // Direct nested acquisitions.
            for b in &acqs {
                if b.si > a.si && b.si >= a.range.0 && b.si < a.range.1 && b.lock != a.lock {
                    edges.push(Edge {
                        held: a.lock.clone(),
                        acquired: b.lock.clone(),
                        file: file.rel.clone(),
                        line: b.line,
                        func: f.qual(),
                        via: None,
                    });
                }
            }
            // Calls made while the guard is held.
            for call in &f.calls {
                if call.si < a.range.0.max(a.si + 1) || call.si >= a.range.1 {
                    continue;
                }
                if comm_call(file, call).is_some() {
                    diags.push(Diagnostic {
                        rule: RULE_BLOCKING,
                        file: file.rel.clone(),
                        line: call.line,
                        func: f.qual(),
                        msg: format!(
                            "blocking `{}` while holding lock `{}` (acquired line {}); \
                             the peer that would complete it may need the same lock",
                            call.name(),
                            lock_label(&a.lock),
                            a.line
                        ),
                    });
                    continue;
                }
                let Some(callee) = followed(&inl, id, call) else {
                    continue;
                };
                let sum = summary(&mut inl, &universe, &mut memo, callee);
                for l in &sum.acquires {
                    if *l != a.lock {
                        edges.push(Edge {
                            held: a.lock.clone(),
                            acquired: l.clone(),
                            file: file.rel.clone(),
                            line: call.line,
                            func: f.qual(),
                            via: Some(call.name().to_owned()),
                        });
                    }
                }
                if let Some(b) = &sum.blocking {
                    diags.push(Diagnostic {
                        rule: RULE_BLOCKING,
                        file: file.rel.clone(),
                        line: call.line,
                        func: f.qual(),
                        msg: format!(
                            "call `{}` blocks (transitively reaches `{b}`) while \
                             holding lock `{}` (acquired line {})",
                            call.name(),
                            lock_label(&a.lock),
                            a.line
                        ),
                    });
                }
            }
        }
    }

    // Cycle detection: an edge is reported when its target can reach its
    // source through the graph.
    let mut adj: HashMap<&LockId, HashSet<&LockId>> = HashMap::new();
    for e in &edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
    }
    let reaches = |from: &LockId, to: &LockId| -> bool {
        let mut seen: HashSet<&LockId> = HashSet::new();
        let mut stack: Vec<&LockId> = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if let Some(next) = adj.get(n) {
                for m in next {
                    if seen.insert(m) {
                        stack.push(m);
                    }
                }
            }
        }
        false
    };
    let mut reported: HashSet<(String, String, String)> = HashSet::new();
    for e in &edges {
        if !reaches(&e.acquired, &e.held) {
            continue;
        }
        let key = (lock_label(&e.held), lock_label(&e.acquired), e.func.clone());
        if !reported.insert(key) {
            continue;
        }
        let via = match &e.via {
            Some(v) => format!(" (via call `{v}`)"),
            None => String::new(),
        };
        diags.push(Diagnostic {
            rule: RULE_ORDER,
            file: e.file.clone(),
            line: e.line,
            func: e.func.clone(),
            msg: format!(
                "lock `{}` acquired while holding `{}`{via}, and the reverse \
                 order also occurs — cyclic lock order, potential deadlock; \
                 pick one global acquisition order",
                lock_label(&e.acquired),
                lock_label(&e.held),
            ),
        });
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        crate::testutil::run(check, files)
    }

    const DECLS: &str = "pub struct S {\n    alpha: Mutex<u64>,\n    beta: Mutex<u64>,\n}\n";

    #[test]
    fn opposite_acquisition_orders_form_a_cycle() {
        let d = run(&[(
            "crates/simmpi/src/l.rs",
            &format!(
                "{DECLS}impl S {{\n    fn ab(&self) {{\n        let a = self.alpha.lock();\n        \
                 let b = self.beta.lock();\n        *a += *b;\n    }}\n    \
                 fn ba(&self) {{\n        let b = self.beta.lock();\n        \
                 let a = self.alpha.lock();\n        *b += *a;\n    }}\n}}\n"
            ),
        )]);
        let order: Vec<_> = d.iter().filter(|d| d.rule == RULE_ORDER).collect();
        assert_eq!(order.len(), 2, "one report per edge in the cycle: {d:?}");
        assert!(order[0].msg.contains("cyclic lock order"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let d = run(&[(
            "crates/simmpi/src/l.rs",
            &format!(
                "{DECLS}impl S {{\n    fn ab(&self) {{\n        let a = self.alpha.lock();\n        \
                 let b = self.beta.lock();\n        *a += *b;\n    }}\n    \
                 fn ab2(&self) {{\n        let a = self.alpha.lock();\n        \
                 let b = self.beta.lock();\n        *b += *a;\n    }}\n}}\n"
            ),
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn transitive_cycle_through_helpers() {
        let d = run(&[(
            "crates/simmpi/src/l.rs",
            &format!(
                "{DECLS}impl S {{\n    fn ab(&self) {{\n        let a = self.alpha.lock();\n        \
                 self.grab_beta();\n        *a += 1;\n    }}\n    \
                 fn grab_beta(&self) {{\n        let b = self.beta.lock();\n        *b += 1;\n    }}\n    \
                 fn ba(&self) {{\n        let b = self.beta.lock();\n        \
                 self.grab_alpha();\n        *b += 1;\n    }}\n    \
                 fn grab_alpha(&self) {{\n        let a = self.alpha.lock();\n        *a += 1;\n    }}\n}}\n"
            ),
        )]);
        let order: Vec<_> = d.iter().filter(|d| d.rule == RULE_ORDER).collect();
        assert_eq!(order.len(), 2, "transitive edges complete the cycle: {d:?}");
        assert!(order.iter().any(|d| d.msg.contains("via call")));
    }

    #[test]
    fn blocking_recv_under_lock_is_flagged_and_drop_clears_it() {
        let d = run(&[(
            "crates/simmpi/src/l.rs",
            "pub struct M {\n    queue: Mutex<Vec<u8>>,\n}\n\
             impl M {\n    fn bad(&self, rx: &Receiver) {\n        let q = self.queue.lock();\n        \
             let v = rx.recv();\n        q.push(v);\n    }\n    \
             fn good(&self, rx: &Receiver) {\n        let q = self.queue.lock();\n        \
             drop(q);\n        let _v = rx.recv();\n    }\n}\n",
        )]);
        let bwl: Vec<_> = d.iter().filter(|d| d.rule == RULE_BLOCKING).collect();
        assert_eq!(bwl.len(), 1, "{d:?}");
        assert!(bwl[0].func.contains("bad"));
        assert!(bwl[0].msg.contains("recv"));
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let d = run(&[(
            "crates/simmpi/src/l.rs",
            "pub struct M {\n    queue: Mutex<Vec<u8>>,\n}\n\
             impl M {\n    fn ok(&self, rx: &Receiver) {\n        \
             self.queue.lock().clear();\n        let _v = rx.recv();\n    }\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn wild_let_guard_dies_at_statement_end() {
        let d = run(&[(
            "crates/simmpi/src/l.rs",
            "pub struct M {\n    queue: Mutex<Vec<u8>>,\n}\n\
             impl M {\n    fn ok(&self, rx: &Receiver) {\n        \
             let _ = self.queue.lock();\n        let _v = rx.recv();\n    }\n}\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn condvar_wait_is_not_blocking() {
        let d = run(&[(
            "crates/simmpi/src/l.rs",
            "pub struct M {\n    queue: Mutex<Vec<u8>>,\n}\n\
             impl M {\n    fn ok(&self, cv: &Condvar) {\n        \
             let mut q = self.queue.lock();\n        cv.wait(&mut q);\n    }\n}\n",
        )]);
        assert!(d.is_empty(), "condvar wait releases the lock: {d:?}");
    }

    #[test]
    fn transitive_blocking_is_reported() {
        let d = run(&[(
            "crates/veloc/src/l.rs",
            "pub struct P {\n    state: Mutex<u64>,\n}\n\
             impl P {\n    fn outer(&self, rx: &Receiver) {\n        \
             let s = self.state.lock();\n        self.drain(rx);\n        *s;\n    }\n    \
             fn drain(&self, rx: &Receiver) {\n        rx.recv();\n    }\n}\n",
        )]);
        let bwl: Vec<_> = d.iter().filter(|d| d.rule == RULE_BLOCKING).collect();
        assert_eq!(bwl.len(), 1, "{d:?}");
        assert!(bwl[0].msg.contains("transitively"), "{}", bwl[0].msg);
    }

    #[test]
    fn io_write_and_reader_read_are_not_acquisitions() {
        let d = run(&[(
            "crates/veloc/src/l.rs",
            "pub struct P {\n    state: Mutex<u64>,\n}\n\
             impl P {\n    fn ok(&self, f: &mut File, buf: &mut [u8]) {\n        \
             let s = self.state.lock();\n        f.write(buf);\n        f.read(buf);\n        *s;\n    }\n}\n",
        )]);
        assert!(d.is_empty(), "1-arg read/write are io, not locks: {d:?}");
    }

    #[test]
    fn rwlock_read_then_other_lock_is_an_edge_but_not_a_cycle_alone() {
        let d = run(&[(
            "crates/telemetry/src/l.rs",
            "pub struct R {\n    dead: RwLock<u64>,\n    recorders: RwLock<u64>,\n}\n\
             impl R {\n    fn f(&self) {\n        let d = self.dead.read();\n        \
             let r = self.recorders.read();\n        *d + *r;\n    }\n}\n",
        )]);
        assert!(
            d.is_empty(),
            "an edge without a reverse edge is fine: {d:?}"
        );
    }
}
