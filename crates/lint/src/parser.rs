//! A lightweight item/expression parser over the lossless token stream.
//!
//! This is not a full Rust grammar — it recovers exactly the structure the
//! protocol lints need:
//!
//! - **items**: functions (free and associated), with their module path,
//!   enclosing `impl`/`trait` type, attributes (`#[cfg(test)]`, `#[test]`,
//!   `#[cfg(feature = "lint-mutants")]`), signature (`self` parameter,
//!   return type text), and body extent;
//! - **body facts** per function: every call expression (free, path,
//!   method, macro).
//!
//! The parser is resilient: anything it does not recognize is skipped
//! token-by-token, so unusual constructs degrade to "no facts" rather than
//! errors.

use crate::lexer::{Lexed, Tok, TokKind};

/// How a call expression names its callee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)` — a single-segment call.
    Free,
    /// `a::b::foo(…)` — a multi-segment path call.
    Path,
    /// `.foo(…)` — a method call.
    Method,
    /// `foo!(…)` / `foo![…]` / `foo!{…}` — a macro invocation.
    Macro,
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    pub kind: CallKind,
    /// Path segments; for `Free`/`Method`/`Macro` this is one segment.
    pub segs: Vec<String>,
    pub line: u32,
    /// Significant-token index of the callee's first segment.
    pub si: usize,
}

impl Call {
    pub fn name(&self) -> &str {
        self.segs.last().map(String::as_str).unwrap_or("")
    }
}

/// A parsed function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// Inline module path from the file root (not the file's own path).
    pub module: Vec<String>,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    pub line: u32,
    /// In a `#[cfg(test)]` region, `#[test]`-annotated, or in a test file.
    pub is_test: bool,
    /// Behind `#[cfg(feature = "lint-mutants")]` (directly or inherited).
    pub mutant_gated: bool,
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Return-type text (`""` when the function returns unit).
    pub ret: String,
    /// Significant-token range `[start, end]` of the body braces, if any.
    pub body: Option<(usize, usize)>,
    pub calls: Vec<Call>,
}

impl FnItem {
    /// `Type::name` when the function is associated, else `name`.
    pub fn qual(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Calls whose significant-token index lies inside `range`.
    pub fn calls_in(&self, range: (usize, usize)) -> impl Iterator<Item = &Call> {
        self.calls
            .iter()
            .filter(move |c| c.si >= range.0 && c.si < range.1)
    }
}

/// A fully parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Owning crate (derived from the path by the workspace loader).
    pub crate_name: String,
    /// Whole file is test code (integration tests, benches).
    pub file_is_test: bool,
    pub lexed: Lexed,
    /// Indexes of significant tokens into `lexed.toks`.
    pub sig: Vec<usize>,
    pub fns: Vec<FnItem>,
}

impl ParsedFile {
    pub fn parse(rel: &str, crate_name: &str, src: &str, file_is_test: bool) -> ParsedFile {
        let lexed = Lexed::new(src);
        let sig = lexed.significant();
        let fns = {
            let mut p = Parser {
                lexed: &lexed,
                sig: &sig,
                file_is_test,
                fns: Vec::new(),
            };
            p.items(0, sig.len(), &ItemCtx::default());
            p.fns
        };
        ParsedFile {
            rel: rel.to_owned(),
            crate_name: crate_name.to_owned(),
            file_is_test,
            lexed,
            sig,
            fns,
        }
    }

    /// Text of significant token `si`.
    pub fn text(&self, si: usize) -> &str {
        self.lexed.text(self.sig[si])
    }

    pub fn tok(&self, si: usize) -> &Tok {
        &self.lexed.toks[self.sig[si]]
    }

    pub fn line(&self, si: usize) -> u32 {
        self.tok(si).line
    }

    /// The function whose body contains significant token `si`.
    pub fn fn_at(&self, si: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| si >= s && si <= e))
            .min_by_key(|f| {
                let (s, e) = f.body.expect("filtered on body presence");
                e - s
            })
    }

    /// `sig[si]` and `sig[si+1]` are the two colons of a `::`.
    pub fn is_colcol(&self, si: usize) -> bool {
        si + 1 < self.sig.len() && self.text(si) == ":" && self.text(si + 1) == ":"
    }
}

/// Inherited item context while walking nested modules/impls.
#[derive(Clone, Default)]
struct ItemCtx {
    module: Vec<String>,
    impl_type: Option<String>,
    in_test: bool,
    mutant_gated: bool,
}

struct Parser<'a> {
    lexed: &'a Lexed,
    sig: &'a [usize],
    file_is_test: bool,
    fns: Vec<FnItem>,
}

const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "break", "continue", "in", "as",
    "move", "let", "fn", "unsafe", "ref", "mut", "dyn", "where", "impl", "use", "pub", "mod",
    "struct", "enum", "trait", "const", "static", "type", "await", "async", "true", "false",
];

impl<'a> Parser<'a> {
    fn text(&self, si: usize) -> &str {
        self.lexed.text(self.sig[si])
    }

    fn kind(&self, si: usize) -> TokKind {
        self.lexed.toks[self.sig[si]].kind
    }

    fn line(&self, si: usize) -> u32 {
        self.lexed.toks[self.sig[si]].line
    }

    fn is(&self, si: usize, s: &str) -> bool {
        si < self.sig.len() && self.text(si) == s
    }

    fn is_colcol(&self, si: usize) -> bool {
        si + 1 < self.sig.len() && self.is(si, ":") && self.is(si + 1, ":")
    }

    /// Skip a balanced `(…)`, `[…]`, or `{…}` group starting at `si`
    /// (which must be an opener). Returns the index just past the closer.
    fn skip_group(&self, si: usize) -> usize {
        let mut depth = 0i64;
        let mut i = si;
        while i < self.sig.len() {
            match self.text(i) {
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

    /// Skip a balanced `<…>` generic group starting at `si` (on the `<`).
    /// Bracket groups inside are skipped wholesale.
    fn skip_angles(&self, si: usize) -> usize {
        let mut depth = 0i64;
        let mut i = si;
        while i < self.sig.len() {
            match self.text(i) {
                "<" => {
                    depth += 1;
                    i += 1;
                }
                ">" => {
                    depth -= 1;
                    i += 1;
                    if depth <= 0 {
                        return i;
                    }
                }
                "(" | "[" | "{" => i = self.skip_group(i),
                "-" if self.is(i + 1, ">") => i += 2, // `->` in fn types
                _ => i += 1,
            }
        }
        i
    }

    /// Parse the items in `[start, end)` under `ctx`.
    fn items(&mut self, start: usize, end: usize, ctx: &ItemCtx) {
        let mut i = start;
        while i < end {
            // Attributes: accumulate until a non-attribute token.
            let mut attr_test = false;
            let mut attr_mutant = false;
            while self.is(i, "#") {
                let open = if self.is(i + 1, "!") { i + 2 } else { i + 1 };
                if !self.is(open, "[") {
                    break;
                }
                let close = self.skip_group(open);
                let attr: String =
                    (open..close).map(|k| self.text(k)).collect::<Vec<_>>()[..].join(" ");
                if attr.contains("cfg") && contains_word(&attr, "test") {
                    attr_test = true;
                }
                if contains_word(&attr, "test") && !attr.contains("cfg") {
                    // #[test], #[tokio::test]-style.
                    attr_test = true;
                }
                if attr.contains("lint-mutants") {
                    attr_mutant = true;
                }
                i = close;
            }

            if i >= end {
                break;
            }
            let t = self.text(i).to_owned();
            match t.as_str() {
                "pub" => {
                    i += 1;
                    if self.is(i, "(") {
                        i = self.skip_group(i);
                    }
                    // Re-loop without consuming the accumulated attrs: push
                    // them forward by handling the item inline.
                    i = self.item_after_modifiers(i, end, ctx, attr_test, attr_mutant);
                }
                "fn" | "const" | "static" | "async" | "unsafe" | "extern" | "default" => {
                    i = self.item_after_modifiers(i, end, ctx, attr_test, attr_mutant);
                }
                "mod" => {
                    i = self.parse_mod(i, ctx, attr_test, attr_mutant);
                }
                "impl" | "trait" => {
                    i = self.parse_impl_or_trait(i, ctx, attr_test, attr_mutant);
                }
                "struct" | "enum" | "union" | "type" | "use" => {
                    i = self.skip_to_semi_or_block(i + 1);
                }
                "macro_rules" => {
                    // macro_rules! name { … }
                    let mut j = i + 1;
                    while j < end && !self.is(j, "{") && !self.is(j, "(") {
                        j += 1;
                    }
                    i = if j < end { self.skip_group(j) } else { end };
                }
                "{" | "(" | "[" => i = self.skip_group(i),
                _ => i += 1,
            }
        }
    }

    /// Handle an item that may start with `pub`/`const`/`async`/`unsafe`/
    /// `extern "C"` modifiers before the defining keyword.
    fn item_after_modifiers(
        &mut self,
        mut i: usize,
        end: usize,
        ctx: &ItemCtx,
        attr_test: bool,
        attr_mutant: bool,
    ) -> usize {
        // Consume modifier keywords until the defining keyword.
        loop {
            if i >= end {
                return i;
            }
            match self.text(i) {
                "const" | "async" | "unsafe" | "default" => i += 1,
                "extern" => {
                    i += 1;
                    if i < end && self.kind(i) == TokKind::Str {
                        i += 1;
                    }
                    // `extern "C" { … }` foreign block (no fn bodies inside).
                    if self.is(i, "{") {
                        return self.skip_group(i);
                    }
                    // `extern crate name;`
                    if self.is(i, "crate") {
                        return self.skip_to_semi_or_block(i);
                    }
                }
                "fn" => return self.parse_fn(i, ctx, attr_test, attr_mutant),
                "mod" => return self.parse_mod(i, ctx, attr_test, attr_mutant),
                "impl" | "trait" => {
                    return self.parse_impl_or_trait(i, ctx, attr_test, attr_mutant)
                }
                "struct" | "enum" | "union" | "type" | "use" => {
                    return self.skip_to_semi_or_block(i + 1)
                }
                // `pub const NAME: … = …;` / `pub static …;`
                "static" => return self.skip_to_semi_or_block(i + 1),
                _ => return self.skip_to_semi_or_block(i),
            }
        }
    }

    /// Skip to the `;` ending a simple item, treating a `{…}` body (e.g.
    /// `struct S { … }`) as the terminator when it comes first.
    fn skip_to_semi_or_block(&self, mut i: usize) -> usize {
        while i < self.sig.len() {
            match self.text(i) {
                ";" => return i + 1,
                "{" => {
                    let past = self.skip_group(i);
                    // `struct S { … }` ends here; `const X: T = { … };`
                    // continues to the `;`.
                    if self.is(past, ";") {
                        return past + 1;
                    }
                    return past;
                }
                "(" | "[" => i = self.skip_group(i),
                "<" => i = self.skip_angles(i),
                _ => i += 1,
            }
        }
        i
    }

    fn parse_mod(&mut self, i: usize, ctx: &ItemCtx, attr_test: bool, attr_mutant: bool) -> usize {
        // `mod name { … }` or `mod name;`
        let name_at = i + 1;
        if name_at >= self.sig.len() || self.kind(name_at) != TokKind::Ident {
            return i + 1;
        }
        let name = self.text(name_at).to_owned();
        let mut j = name_at + 1;
        if self.is(j, ";") {
            return j + 1;
        }
        if self.is(j, "{") {
            let close = self.skip_group(j);
            let mut inner = ctx.clone();
            inner.module.push(name);
            inner.in_test |= attr_test;
            inner.mutant_gated |= attr_mutant;
            self.items(j + 1, close - 1, &inner);
            return close;
        }
        j += 1;
        j
    }

    fn parse_impl_or_trait(
        &mut self,
        i: usize,
        ctx: &ItemCtx,
        attr_test: bool,
        attr_mutant: bool,
    ) -> usize {
        // Header: from the keyword to the opening `{` (or `;` for a
        // declaration-only form).
        let mut j = i + 1;
        let mut header: Vec<usize> = Vec::new();
        while j < self.sig.len() {
            match self.text(j) {
                "{" => break,
                ";" => return j + 1,
                "<" => {
                    let past = self.skip_angles(j);
                    j = past;
                }
                "(" | "[" => j = self.skip_group(j),
                _ => {
                    header.push(j);
                    j += 1;
                }
            }
        }
        if j >= self.sig.len() {
            return j;
        }
        // Self type: for `impl Trait for Type` take the first ident after
        // `for`; otherwise the first ident of the header (generics were
        // skipped above and are absent from `header`).
        let type_name = {
            let for_pos = header.iter().position(|&k| self.is(k, "for"));
            let tail: &[usize] = match for_pos {
                Some(p) => &header[p + 1..],
                None => &header[..],
            };
            tail.iter()
                .find(|&&k| self.kind(k) == TokKind::Ident && !self.is(k, "dyn"))
                .map(|&k| self.text(k).to_owned())
        };
        let close = self.skip_group(j);
        let mut inner = ctx.clone();
        inner.impl_type = type_name;
        inner.in_test |= attr_test;
        inner.mutant_gated |= attr_mutant;
        self.items(j + 1, close - 1, &inner);
        close
    }

    fn parse_fn(&mut self, i: usize, ctx: &ItemCtx, attr_test: bool, attr_mutant: bool) -> usize {
        let name_at = i + 1;
        if name_at >= self.sig.len() || self.kind(name_at) != TokKind::Ident {
            return i + 1;
        }
        let name = self.text(name_at).to_owned();
        let line = self.line(name_at);
        let mut j = name_at + 1;
        if self.is(j, "<") {
            j = self.skip_angles(j);
        }
        if !self.is(j, "(") {
            return j;
        }
        let params_close = self.skip_group(j);
        // `self` receiver: first non-`&`/lifetime/`mut` token is `self`.
        let has_self = {
            let mut k = j + 1;
            while k < params_close
                && (self.is(k, "&") || self.is(k, "mut") || self.kind(k) == TokKind::Lifetime)
            {
                k += 1;
            }
            self.is(k, "self")
        };
        // Return type: `-> …` until `{`, `;`, or `where`.
        let mut ret = String::new();
        let mut k = params_close;
        if self.is(k, "-") && self.is(k + 1, ">") {
            k += 2;
            let mut parts: Vec<String> = Vec::new();
            while k < self.sig.len() {
                match self.text(k) {
                    "{" | ";" | "where" => break,
                    "<" => {
                        let past = self.skip_angles(k);
                        for m in k..past {
                            parts.push(self.text(m).to_owned());
                        }
                        k = past;
                    }
                    "(" | "[" => {
                        let past = self.skip_group(k);
                        for m in k..past {
                            parts.push(self.text(m).to_owned());
                        }
                        k = past;
                    }
                    _ => {
                        parts.push(self.text(k).to_owned());
                        k += 1;
                    }
                }
            }
            ret = parts.join(" ");
        }
        // `where` clause.
        while k < self.sig.len() && !self.is(k, "{") && !self.is(k, ";") {
            match self.text(k) {
                "<" => k = self.skip_angles(k),
                "(" | "[" => k = self.skip_group(k),
                _ => k += 1,
            }
        }
        let mut item = FnItem {
            name,
            module: ctx.module.clone(),
            impl_type: ctx.impl_type.clone(),
            line,
            is_test: self.file_is_test || ctx.in_test || attr_test,
            mutant_gated: ctx.mutant_gated || attr_mutant,
            has_self,
            ret,
            body: None,
            calls: Vec::new(),
        };
        if self.is(k, ";") {
            self.fns.push(item);
            return k + 1;
        }
        if self.is(k, "{") {
            let close = self.skip_group(k);
            item.body = Some((k, close - 1));
            self.scan_body(&mut item, k + 1, close - 1);
            self.fns.push(item);
            return close;
        }
        self.fns.push(item);
        k
    }

    /// Linear scan of a function body `[start, end)` collecting calls.
    /// Nested groups are *not* skipped — every token is visited once, so
    /// calls inside closures, blocks, and match arms are attributed to the
    /// enclosing function.
    fn scan_body(&self, item: &mut FnItem, start: usize, end: usize) {
        let mut i = start;
        while i < end {
            // Statement-level attributes.
            if self.is(i, "#") && self.is(i + 1, "[") {
                i = self.skip_group(i + 1);
                continue;
            }
            let text = self.text(i);
            if self.kind(i) == TokKind::Ident && !EXPR_KEYWORDS.contains(&text) {
                if let Some((call, next)) = self.parse_callish(i) {
                    item.calls.push(call);
                    i = next;
                    continue;
                }
            }
            i += 1;
        }
    }

    /// At an identifier: try to read a (possibly pathed, possibly turbofish)
    /// call or macro invocation. Returns the call and the index to resume at
    /// (just past the callee name — arguments are scanned by the caller).
    fn parse_callish(&self, i: usize) -> Option<(Call, usize)> {
        let is_method = i > 0 && self.is(i - 1, ".");
        let mut segs = vec![self.text(i).to_owned()];
        let mut j = i;
        if !is_method {
            while self.is_colcol(j + 1)
                && j + 3 < self.sig.len()
                && self.kind(j + 3) == TokKind::Ident
            {
                segs.push(self.text(j + 3).to_owned());
                j += 3;
            }
        }
        let mut after = j + 1;
        // Turbofish: `name::<…>(…)`.
        if self.is_colcol(after) && self.is(after + 2, "<") {
            after = self.skip_angles(after + 2);
        }
        // Macro: `name!(…)` / `name![…]` / `name!{…}`.
        if segs.len() == 1 && self.is(after, "!") {
            let opener = after + 1;
            if self.is(opener, "(") || self.is(opener, "[") || self.is(opener, "{") {
                return Some((
                    Call {
                        kind: CallKind::Macro,
                        segs,
                        line: self.line(i),
                        si: i,
                    },
                    after + 1,
                ));
            }
            return None;
        }
        if !self.is(after, "(") {
            return None;
        }
        let kind = if is_method {
            CallKind::Method
        } else if segs.len() > 1 {
            CallKind::Path
        } else {
            CallKind::Free
        };
        Some((
            Call {
                kind,
                segs,
                line: self.line(i),
                si: i,
            },
            after,
        ))
    }
}

/// `hay` contains `word` delimited by non-identifier characters.
pub fn contains_word(hay: &str, word: &str) -> bool {
    let bytes = hay.as_bytes();
    let is_ident = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    let mut start = 0;
    while let Some(pos) = hay[start..].find(word) {
        let i = start + pos;
        let j = i + word.len();
        let before_ok = i == 0 || !is_ident(bytes[i - 1]);
        let after_ok = j >= bytes.len() || !is_ident(bytes[j]);
        if before_ok && after_ok {
            return true;
        }
        start = i + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse("crates/x/src/lib.rs", "x", src, false)
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let p = parse(
            "fn alpha() {}\n\
             struct S;\n\
             impl S {\n    pub fn beta(&self) -> u32 { 1 }\n}\n\
             impl Clone for S {\n    fn clone(&self) -> S { S }\n}\n",
        );
        let names: Vec<String> = p.fns.iter().map(|f| f.qual()).collect();
        assert_eq!(names, vec!["alpha", "S::beta", "S::clone"]);
        assert!(p.fns[1].has_self);
        assert_eq!(p.fns[1].ret, "u32");
        assert!(!p.fns[0].has_self);
    }

    #[test]
    fn cfg_test_modules_mark_fns_as_test() {
        let p = parse(
            "fn prod() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { prod(); }\n}\n",
        );
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }

    #[test]
    fn mutant_gate_attribute_is_inherited() {
        let p = parse(
            "#[cfg(feature = \"lint-mutants\")]\nmod m {\n    pub fn seeded() {}\n}\n\
             fn normal() {}\n",
        );
        assert!(p.fns[0].mutant_gated);
        assert!(!p.fns[1].mutant_gated);
    }

    #[test]
    fn calls_are_classified() {
        let p = parse(
            "fn f() {\n    helper();\n    veloc::Client::init(c, 0, cfg);\n    \
             x.method(1);\n    writeln!(out, \"x\");\n    v.collect::<Vec<_>>();\n}\n",
        );
        let f = &p.fns[0];
        let kinds: Vec<(CallKind, &str)> = f.calls.iter().map(|c| (c.kind, c.name())).collect();
        assert!(kinds.contains(&(CallKind::Free, "helper")));
        assert!(kinds.contains(&(CallKind::Path, "init")));
        assert!(kinds.contains(&(CallKind::Method, "method")));
        assert!(kinds.contains(&(CallKind::Macro, "writeln")));
        assert!(kinds.contains(&(CallKind::Method, "collect")));
        let path = f.calls.iter().find(|c| c.kind == CallKind::Path).unwrap();
        assert_eq!(path.segs, vec!["veloc", "Client", "init"]);
    }

    #[test]
    fn closures_attribute_to_enclosing_fn() {
        let p =
            parse("fn f() {\n    run(|x| {\n        inner(x);\n        y.unwrap();\n    });\n}\n");
        let f = &p.fns[0];
        assert!(f.calls.iter().any(|c| c.name() == "inner"));
        assert!(f.calls.iter().any(|c| c.name() == "unwrap"));
    }

    #[test]
    fn fn_at_maps_sites_to_functions() {
        let p = parse("fn a() { one(); }\nfn b() { two(); }\n");
        let call_b = p.fns[1].calls[0].si;
        assert_eq!(p.fn_at(call_b).map(|f| f.name.as_str()), Some("b"));
    }
}
