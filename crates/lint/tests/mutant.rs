//! Negative control for the analyzer, mirroring `modelcheck/tests/mutant.rs`:
//! the seeded `lint-mutants` violations (`crates/{fenix,cluster}/src/
//! mutant.rs`, one or more per surviving rule) must stay invisible to
//! the default scan, and a scan with them opted in must report exactly the
//! set below — no more, no less.
//!
//! A finding is `(rule, file, function)`, without its line, so editing a
//! mutant file does not churn the expectation. Each seeded violation sits
//! where a per-file text rule could not see it: the panic and the sleep
//! two calls below their entry points, the collective under a
//! rank-dependent branch.

use std::collections::BTreeSet;
use std::path::Path;

use lint::{analyze, load_workspace, GraphOpts};

/// `(crate, rule, function)`: the finding sits in `crates/{crate}/src/mutant.rs`.
const EXPECTED: &[(&str, &str, &str)] = &[
    ("cluster", "blocking-context", "Governor::warmup_backoff"),
    ("cluster", "rank-path-effects", "Governor::warmup_backoff"),
    ("fenix", "collective-match", "lopsided_barrier"),
    ("fenix", "panic-reach", "rebuild_group"),
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the workspace root")
}

#[test]
fn seeded_mutant_is_caught_only_with_opt_in() {
    let ws = load_workspace(repo_root()).expect("workspace sources readable");

    let (without, _) = analyze(&ws, GraphOpts::default());
    assert!(
        !without.iter().any(|d| d.file.ends_with("/mutant.rs")),
        "default scan must not see the gated mutants: {without:?}"
    );

    let (with, _) = analyze(
        &ws,
        GraphOpts {
            include_mutants: true,
        },
    );
    let found: BTreeSet<(&str, String, &str)> = with
        .iter()
        .map(|d| (d.rule, d.file.clone(), d.func.as_str()))
        .collect();
    let expected: BTreeSet<(&str, String, &str)> = EXPECTED
        .iter()
        .map(|&(krate, rule, func)| (rule, format!("crates/{krate}/src/mutant.rs"), func))
        .collect();
    assert_eq!(
        found, expected,
        "the opted-in scan reports exactly the seeded set"
    );
}
