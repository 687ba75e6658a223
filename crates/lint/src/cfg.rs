//! Structured control flow per function, built over the significant-token
//! stream the parser already indexed.
//!
//! The parser ([`crate::parser`]) records *facts* (calls, lets, panic
//! sites) in token order but deliberately flattens structure: a call inside
//! a match arm and a call after the match are indistinguishable. The path-sensitive
//! analysis (collective matching) needs the structure back, so this module
//! re-walks each function body and produces a tree:
//!
//! - [`Step::Call`] — one call expression (an index into `FnItem::calls`);
//! - [`Step::Branch`] — `if`/`else if`/`else` chains and `match`
//!   expressions, each arm its own [`Block`], with exhaustiveness recorded
//!   (an `if` without `else` has an implicit empty fall-through arm);
//! - [`Step::Loop`] — `loop`/`while`/`for` bodies (condition calls are
//!   folded into the body, iterator expressions precede it);
//! - [`Step::Diverge`] — `return`/`break`/`continue`/`panic!`-family/
//!   `process::exit`: control leaves this block here.
//!
//! Anything unrecognized is walked *transparently* (closures, bare blocks,
//! struct literals), consistent with the parser's attribution of closure
//! bodies to the enclosing function: degraded precision, never lost calls.

use std::collections::HashMap;

use crate::lexer::TokKind;
use crate::parser::{Call, CallKind, FnItem, ParsedFile};

/// A straight-line sequence of steps.
#[derive(Clone, Debug, Default)]
pub struct Block {
    pub steps: Vec<Step>,
}

/// One structured step inside a [`Block`].
#[derive(Clone, Debug)]
pub enum Step {
    /// Index into the owning `FnItem::calls`.
    Call(usize),
    Branch(BranchNode),
    Loop(Block),
    /// `return` / `break` / `continue` / `panic!` / `process::exit`.
    Diverge,
}

/// An `if` chain or `match`: divergent arms of control flow.
#[derive(Clone, Debug)]
pub struct BranchNode {
    pub line: u32,
    /// Condition / scrutinee text (significant tokens joined by spaces);
    /// used by heuristics such as rank-dependence detection.
    pub cond: String,
    pub arms: Vec<Block>,
    /// `match` and `if`/`else` cover all paths; a lone `if` does not (its
    /// implicit fall-through arm is *not* materialized in `arms`).
    pub exhaustive: bool,
}

/// Macro names whose invocation ends the enclosing path.
const DIVERGING_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Build the control-flow tree for `f`'s body (empty when bodyless).
pub fn build(file: &ParsedFile, f: &FnItem) -> Block {
    let Some((open, close)) = f.body else {
        return Block::default();
    };
    let call_at: HashMap<usize, usize> =
        f.calls.iter().enumerate().map(|(k, c)| (c.si, k)).collect();
    let b = Builder { file, f, call_at };
    let mut steps = Vec::new();
    b.seq(open + 1, close, &mut steps);
    Block { steps }
}

struct Builder<'a> {
    file: &'a ParsedFile,
    f: &'a FnItem,
    /// Significant-token index of a callee's first segment → call index.
    call_at: HashMap<usize, usize>,
}

impl<'a> Builder<'a> {
    fn is(&self, si: usize, s: &str) -> bool {
        si < self.file.sig.len() && self.file.text(si) == s
    }

    fn text_range(&self, range: (usize, usize)) -> String {
        (range.0..range.1.min(self.file.sig.len()))
            .map(|k| self.file.text(k))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Emit every call recorded inside `range` as flat [`Step::Call`]s
    /// (used for conditions/scrutinees/guards, where nested branching is
    /// not worth recovering).
    fn calls_as_steps(&self, range: (usize, usize), out: &mut Vec<Step>) {
        for c in self.f.calls_in(range) {
            if let Some(&idx) = self.call_at.get(&c.si) {
                out.push(Step::Call(idx));
            }
        }
    }

    /// Walk `[i, end)` appending steps; nested groups are transparent
    /// except the control-flow keywords handled structurally.
    fn seq(&self, mut i: usize, end: usize, out: &mut Vec<Step>) {
        let end = end.min(self.file.sig.len());
        while i < end {
            if self.is(i, "#") && self.is(i + 1, "[") {
                i = skip_group(self.file, i + 1);
                continue;
            }
            let kind = self.file.tok(i).kind;
            let text = self.file.text(i);
            if kind == TokKind::Ident {
                match text {
                    "if" => {
                        i = self.if_chain(i, end, out);
                        continue;
                    }
                    "match" => {
                        i = self.match_expr(i, end, out);
                        continue;
                    }
                    "loop" => {
                        if self.is(i + 1, "{") {
                            let close = skip_group(self.file, i + 1);
                            let mut body = Vec::new();
                            self.seq(i + 2, close - 1, &mut body);
                            out.push(Step::Loop(Block { steps: body }));
                            i = close;
                            continue;
                        }
                    }
                    "while" => {
                        // `while cond { … }` / `while let pat = expr { … }`:
                        // the condition runs each iteration, so its calls
                        // fold into the loop body's head.
                        let brace = scan_to_brace(self.file, i + 1, end);
                        if self.is(brace, "{") {
                            let close = skip_group(self.file, brace);
                            let mut body = Vec::new();
                            self.calls_as_steps((i + 1, brace), &mut body);
                            self.seq(brace + 1, close - 1, &mut body);
                            out.push(Step::Loop(Block { steps: body }));
                            i = close;
                            continue;
                        }
                    }
                    "for" => {
                        // `for pat in iter { … }`: the iterator expression
                        // evaluates once, before the loop.
                        let brace = scan_to_brace(self.file, i + 1, end);
                        if self.is(brace, "{") {
                            let close = skip_group(self.file, brace);
                            self.calls_as_steps((i + 1, brace), out);
                            let mut body = Vec::new();
                            self.seq(brace + 1, close - 1, &mut body);
                            out.push(Step::Loop(Block { steps: body }));
                            i = close;
                            continue;
                        }
                    }
                    "return" | "break" | "continue" => {
                        let stop = scan_to_stmt_end(self.file, i + 1, end);
                        self.calls_as_steps((i + 1, stop), out);
                        out.push(Step::Diverge);
                        i = stop;
                        continue;
                    }
                    "else" => {
                        // A bare `else {` here is a `let … else` block: it
                        // either falls through (pattern matched) or runs
                        // the block, which must diverge.
                        if self.is(i + 1, "{") {
                            let close = skip_group(self.file, i + 1);
                            let mut alt = Vec::new();
                            self.seq(i + 2, close - 1, &mut alt);
                            out.push(Step::Branch(BranchNode {
                                line: self.file.line(i),
                                cond: String::from("let-else"),
                                arms: vec![Block::default(), Block { steps: alt }],
                                exhaustive: true,
                            }));
                            i = close;
                            continue;
                        }
                    }
                    _ => {
                        if let Some(&idx) = self.call_at.get(&i) {
                            out.push(Step::Call(idx));
                            let call = &self.f.calls[idx];
                            if diverging_call(call) {
                                out.push(Step::Diverge);
                            }
                            i += 1;
                            continue;
                        }
                    }
                }
            }
            i += 1;
        }
    }

    /// Parse an `if`/`else if`/`else` chain starting at the `if` token.
    /// Returns the index just past the chain.
    fn if_chain(&self, i: usize, end: usize, out: &mut Vec<Step>) -> usize {
        let brace = scan_to_brace(self.file, i + 1, end);
        if !self.is(brace, "{") {
            return i + 1;
        }
        let cond = self.text_range((i + 1, brace));
        self.calls_as_steps((i + 1, brace), out);
        let close = skip_group(self.file, brace);
        let mut then = Vec::new();
        self.seq(brace + 1, close - 1, &mut then);
        let line = self.file.line(i);

        let mut arms = vec![Block { steps: then }];
        let mut exhaustive = false;
        let mut next = close;
        if self.is(close, "else") {
            if self.is(close + 1, "if") {
                let mut tail = Vec::new();
                next = self.if_chain(close + 1, end, &mut tail);
                arms.push(Block { steps: tail });
                exhaustive = true;
            } else if self.is(close + 1, "{") {
                let else_close = skip_group(self.file, close + 1);
                let mut alt = Vec::new();
                self.seq(close + 2, else_close - 1, &mut alt);
                arms.push(Block { steps: alt });
                exhaustive = true;
                next = else_close;
            }
        }
        out.push(Step::Branch(BranchNode {
            line,
            cond,
            arms,
            exhaustive,
        }));
        next
    }

    /// Parse a `match` expression starting at the `match` token. Returns
    /// the index just past it, or `i + 1` when it is not a match
    /// expression after all.
    fn match_expr(&self, i: usize, end: usize, out: &mut Vec<Step>) -> usize {
        let mut j = i + 1;
        let mut depth = 0i64;
        while j < end {
            match self.file.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                ";" if depth == 0 => return i + 1,
                _ => {}
            }
            j += 1;
        }
        if !self.is(j, "{") {
            return i + 1;
        }
        let cond = self.text_range((i + 1, j));
        self.calls_as_steps((i + 1, j), out);
        let line = self.file.line(i);
        let close = skip_group(self.file, j);
        let mut arms: Vec<Block> = Vec::new();
        let mut k = j + 1;
        while k < close - 1 {
            if self.is(k, ",") {
                k += 1;
                continue;
            }
            if self.is(k, "#") && self.is(k + 1, "[") {
                k = skip_group(self.file, k + 1);
                continue;
            }
            // Pattern (and optional guard) up to `=>` at depth 0.
            let mut depth = 0i64;
            let mut guard_at: Option<usize> = None;
            while k < close - 1 {
                match self.file.text(k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" if depth == 0 && self.is(k + 1, ">") => break,
                    "if" if depth == 0 && guard_at.is_none() => guard_at = Some(k),
                    _ => {}
                }
                k += 1;
            }
            if k >= close - 1 {
                break;
            }
            let arrow = k;
            let mut steps = Vec::new();
            // Guard calls run before the arm body on the path that takes
            // this arm (and patterns cannot contain calls, so restricting
            // to the guard range skips tuple-struct patterns).
            if let Some(g) = guard_at {
                self.calls_as_steps((g, arrow), &mut steps);
            }
            k = arrow + 2;
            if self.is(k, "{") {
                let body_close = skip_group(self.file, k);
                self.seq(k + 1, body_close - 1, &mut steps);
                k = body_close;
            } else {
                let start = k;
                let mut depth = 0i64;
                while k < close - 1 {
                    match self.file.text(k) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                self.seq(start, k, &mut steps);
            }
            arms.push(Block { steps });
        }
        out.push(Step::Branch(BranchNode {
            line,
            cond,
            arms,
            exhaustive: true,
        }));
        close
    }
}

/// `panic!`-family macros and `process::exit`/`process::abort` end the path.
fn diverging_call(call: &Call) -> bool {
    match call.kind {
        CallKind::Macro => DIVERGING_MACROS.contains(&call.name()),
        CallKind::Path => {
            matches!(call.name(), "exit" | "abort")
                && call.segs.len() >= 2
                && call.segs[call.segs.len() - 2] == "process"
        }
        _ => false,
    }
}

/// Skip a balanced `(…)`, `[…]`, or `{…}` group starting at an opener;
/// returns the index just past the closer.
pub(crate) fn skip_group(file: &ParsedFile, si: usize) -> usize {
    let mut depth = 0i64;
    let mut i = si;
    while i < file.sig.len() {
        match file.text(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Scan forward to the `{` at paren/bracket depth 0 (condition/iterator
/// extents; struct literals are not legal there without parens).
fn scan_to_brace(file: &ParsedFile, mut i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let end = end.min(file.sig.len());
    while i < end {
        match file.text(i) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return i,
            ";" if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Scan forward to just past the expression ending at `;` (or the `}` /
/// `,` closing the surrounding block) at depth 0.
fn scan_to_stmt_end(file: &ParsedFile, mut i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let end = end.min(file.sig.len());
    while i < end {
        match file.text(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            ";" | "," if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Number of top-level arguments in `call`'s argument list (0 when the
/// list is empty or malformed). Distinguishes `client.checkpoint(name, v)`
/// from the 3-argument region form.
pub fn call_arity(file: &ParsedFile, call: &Call) -> usize {
    // Find the opening `(` (or macro delimiter) after the callee path:
    // `a :: b :: name` spans 3 significant tokens per extra segment.
    let mut after = call.si + 1 + 3 * (call.segs.len() - 1);
    if call.kind == CallKind::Macro {
        after += 1; // past `!`
    } else if file.is_colcol(after) && after + 2 < file.sig.len() && file.text(after + 2) == "<" {
        // Turbofish.
        let mut depth = 0i64;
        let mut k = after + 2;
        after = loop {
            if k >= file.sig.len() {
                break k;
            }
            match file.text(k) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        break k + 1;
                    }
                }
                "(" | "[" | "{" => {
                    k = skip_group(file, k);
                    continue;
                }
                _ => {}
            }
            k += 1;
        };
    }
    if after >= file.sig.len() || !matches!(file.text(after), "(" | "[" | "{") {
        return 0;
    }
    let close = skip_group(file, after);
    if close <= after + 2 {
        return 0; // `()` or ran off the file
    }
    let mut depth = 0i64;
    let mut commas = 0usize;
    for k in after + 1..close - 1 {
        match file.text(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => commas += 1,
            _ => {}
        }
    }
    let trailing = file.text(close - 2) == ",";
    commas + 1 - usize::from(trailing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse("crates/x/src/lib.rs", "x", src, false)
    }

    fn names(f: &FnItem, block: &Block) -> Vec<String> {
        block
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Call(i) => Some(f.calls[*i].name().to_owned()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn straight_line_calls_in_order() {
        let p = parse("fn f() { a(); b(); c.d(); }\n");
        let f = &p.fns[0];
        let b = build(&p, f);
        assert_eq!(names(f, &b), vec!["a", "b", "d"]);
    }

    #[test]
    fn if_else_chain_becomes_one_branch() {
        let p = parse(
            "fn f(x: u32) {\n    pre();\n    if x > 0 { a(); } else if x < 5 { b(); } else { c(); }\n    post();\n}\n",
        );
        let f = &p.fns[0];
        let b = build(&p, f);
        assert_eq!(b.steps.len(), 3);
        let Step::Branch(br) = &b.steps[1] else {
            panic!("expected branch, got {:?}", b.steps[1]);
        };
        assert!(br.exhaustive);
        assert_eq!(br.arms.len(), 2);
        assert_eq!(names(f, &br.arms[0]), vec!["a"]);
        // The else-if chain nests: arm 1 is itself a branch of b/c.
        let Step::Branch(inner) = &br.arms[1].steps[0] else {
            panic!("expected nested branch");
        };
        assert_eq!(names(f, &inner.arms[0]), vec!["b"]);
        assert_eq!(names(f, &inner.arms[1]), vec!["c"]);
    }

    #[test]
    fn lone_if_is_not_exhaustive() {
        let p = parse("fn f(x: bool) { if x { a(); } }\n");
        let f = &p.fns[0];
        let b = build(&p, f);
        let Step::Branch(br) = &b.steps[0] else {
            panic!()
        };
        assert!(!br.exhaustive);
        assert_eq!(br.arms.len(), 1);
        assert!(br.cond.contains('x'));
    }

    #[test]
    fn match_arms_with_guard_calls() {
        let p = parse(
            "fn f(e: E) {\n    match scrut(e) {\n        E::A => a(),\n        E::B if check(e) => { b(); }\n        _ => {}\n    }\n}\n",
        );
        let f = &p.fns[0];
        let b = build(&p, f);
        // Scrutinee call hoisted before the branch.
        assert!(matches!(&b.steps[0], Step::Call(i) if f.calls[*i].name() == "scrut"));
        let Step::Branch(br) = &b.steps[1] else {
            panic!()
        };
        assert!(br.exhaustive);
        assert_eq!(br.arms.len(), 3);
        assert_eq!(names(f, &br.arms[0]), vec!["a"]);
        assert_eq!(names(f, &br.arms[1]), vec!["check", "b"]);
        assert!(br.arms[2].steps.is_empty());
    }

    #[test]
    fn loops_and_while_conditions() {
        let p = parse(
            "fn f() {\n    for x in make_iter() { body(x); }\n    while more() { step(); }\n    loop { tick(); break; }\n}\n",
        );
        let f = &p.fns[0];
        let b = build(&p, f);
        assert!(matches!(&b.steps[0], Step::Call(i) if f.calls[*i].name() == "make_iter"));
        let Step::Loop(body) = &b.steps[1] else {
            panic!()
        };
        assert_eq!(names(f, body), vec!["body"]);
        let Step::Loop(body) = &b.steps[2] else {
            panic!()
        };
        assert_eq!(names(f, body), vec!["more", "step"]);
        let Step::Loop(body) = &b.steps[3] else {
            panic!()
        };
        assert!(matches!(body.steps[1], Step::Diverge));
    }

    fn ends_in_diverge(b: &Block) -> bool {
        matches!(b.steps.last(), Some(Step::Diverge))
    }

    #[test]
    fn diverging_arms_end_in_a_diverge_step() {
        let p = parse("fn f(x: bool) {\n    if x { return; } else { panic!(\"no\"); }\n}\n");
        let b = build(&p, &p.fns[0]);
        let Step::Branch(br) = &b.steps[0] else {
            panic!("expected branch, got {:?}", b.steps[0]);
        };
        assert!(br.exhaustive && br.arms.iter().all(ends_in_diverge));
    }

    #[test]
    fn return_collects_tail_calls_then_diverges() {
        let p = parse("fn f() -> u32 { return compute(1); }\n");
        let f = &p.fns[0];
        let b = build(&p, f);
        assert!(matches!(&b.steps[0], Step::Call(i) if f.calls[*i].name() == "compute"));
        assert!(matches!(b.steps[1], Step::Diverge));
    }

    #[test]
    fn call_arity_counts_top_level_args() {
        let p = parse(
            "fn f() {\n    zero();\n    one(a);\n    two(a, b);\n    nested(g(x, y), b);\n    \
             trail(a, b,);\n    region(l, i, |s| { s.go(1, 2); });\n}\n",
        );
        let f = &p.fns[0];
        let by_name = |n: &str| f.calls.iter().find(|c| c.name() == n).unwrap();
        assert_eq!(call_arity(&p, by_name("zero")), 0);
        assert_eq!(call_arity(&p, by_name("one")), 1);
        assert_eq!(call_arity(&p, by_name("two")), 2);
        assert_eq!(call_arity(&p, by_name("nested")), 2);
        assert_eq!(call_arity(&p, by_name("trail")), 2);
        assert_eq!(call_arity(&p, by_name("region")), 3);
        assert_eq!(call_arity(&p, by_name("go")), 2);
    }

    #[test]
    fn let_else_models_diverging_alternative() {
        let p = parse(
            "fn f(o: Option<u32>) {\n    let Some(x) = o else { return; };\n    use_it(x);\n}\n",
        );
        let f = &p.fns[0];
        let b = build(&p, f);
        let br = b
            .steps
            .iter()
            .find_map(|s| match s {
                Step::Branch(b) => Some(b),
                _ => None,
            })
            .expect("let-else branch");
        assert_eq!(br.arms.len(), 2);
        assert!(ends_in_diverge(&br.arms[1]));
        assert!(!ends_in_diverge(&b), "fall-through arm continues");
    }
}
