//! Property tests for the item/body parser (ISSUE satellite): the parser
//! is fed every workspace file on every scan, so it must never panic on
//! malformed input — truncated items, unbalanced delimiters, stray
//! attribute soup — and every span it reports (function bodies, call
//! sites) must stay inside the significant-token stream, because downstream rules index `file.sig`
//! with them unchecked.

use lint::parser::ParsedFile;
use proptest::prelude::*;

/// Token-level fragments the generator splices into pseudo-Rust. The
/// pool is biased toward the constructs the parser actually tracks
/// (fns, impls, attributes, lets, calls, match) plus raw delimiter noise
/// so truncation and imbalance are common.
const FRAGMENTS: &[&str] = &[
    "fn",
    "pub",
    "impl",
    "mod",
    "trait",
    "struct",
    "name",
    "Type",
    "self",
    "let",
    "match",
    "if",
    "else",
    "for",
    "loop",
    "return",
    "#[cfg(test)]",
    "#[test]",
    "#[cfg(feature = \"lint-mutants\")]",
    "-> Result<(), E>",
    "x.unwrap()",
    "arr[i]",
    "panic!(\"boom\")",
    "a::b::c()",
    "obj.call(1, 2)",
    "let x = f()?;",
    "let _ = g();",
    "'a",
    "'x'",
    "\"str\"",
    "r#\"raw\"#",
    "// comment\n",
    "/* block */",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "<",
    ">",
    ";",
    ",",
    ":",
    "::",
    "=",
    "=>",
    "?",
    ".",
    "&",
    "!",
];

/// Parse `src` and check every reported span indexes `sig` in bounds.
/// Panics (the property failure) if the parser itself panics or any span
/// escapes the token stream.
fn assert_spans_in_bounds(src: &str) {
    let file = ParsedFile::parse("crates/fenix/src/p.rs", "fenix", src, false);
    let n = file.sig.len();
    for f in &file.fns {
        assert!(f.line >= 1, "fn line must be 1-based in {src:?}");
        if let Some((s, e)) = f.body {
            assert!(s <= e && e < n, "body span {s}..={e} out of {n} in {src:?}");
        }
        for c in &f.calls {
            assert!(c.si < n, "call si {} out of {n} in {src:?}", c.si);
            assert!(!c.segs.is_empty(), "call with no segments in {src:?}");
            // The recorded index must actually name the first segment.
            assert_eq!(file.text(c.si), c.segs[0], "call si mislabeled in {src:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random fragment splices — mostly ill-formed programs — never panic
    /// the parser, and every span stays in bounds.
    #[test]
    fn spliced_fragments_parse_with_spans_in_bounds(
        picks in proptest::collection::vec((0usize..FRAGMENTS.len(), any::<bool>()), 0..48)
    ) {
        let mut src = String::new();
        for (i, spaced) in picks {
            src.push_str(FRAGMENTS[i]);
            if spaced {
                src.push(' ');
            }
        }
        assert_spans_in_bounds(&src);
    }

    /// Arbitrary ASCII noise is likewise safe.
    #[test]
    fn ascii_noise_is_safe(bytes in proptest::collection::vec(0x20u8..0x7f, 0..96)) {
        let src = String::from_utf8(bytes).unwrap();
        assert_spans_in_bounds(&src);
    }

    /// Well-formed programs truncated at an arbitrary byte — the common
    /// shape of a half-saved editor buffer — parse without panicking.
    #[test]
    fn truncated_programs_are_safe(cut in 0usize..400) {
        let src = "#[cfg(test)]\nmod t {\n    fn helper(x: &[u8]) -> Result<u8, E> {\n        \
                   let v = x.first().copied().ok_or(E::Empty)?;\n        Ok(v)\n    }\n}\n\
                   impl Store {\n    pub fn put(&self, k: u64) {\n        \
                   let mut g = self.inner.lock();\n        g.insert(k, k);\n        \
                   match k {\n            0 => panic!(\"zero\"),\n            _ => {}\n        }\n    }\n}\n";
        let cut = cut.min(src.len());
        if src.is_char_boundary(cut) {
            assert_spans_in_bounds(&src[..cut]);
        }
    }
}
