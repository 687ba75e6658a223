//! Negative control for the analyzer, mirroring `modelcheck/tests/mutant.rs`:
//! the seeded `lint-mutants` violation (`crates/fenix/src/mutant.rs`, one
//! per rule) must stay invisible to the default scan, and a scan with it
//! opted in must report exactly the set below — no more, no less.
//!
//! A finding is `(rule, file, function)`, without its line, so editing the
//! mutant file does not churn the expectation. The seeded collective sits
//! under a rank-dependent branch.

use std::collections::BTreeSet;
use std::path::Path;

use lint::{analyze, load_workspace, GraphOpts};

/// `(crate, rule, function)`: the finding sits in `crates/{crate}/src/mutant.rs`.
const EXPECTED: &[(&str, &str, &str)] = &[("fenix", "collective-match", "lopsided_barrier")];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the workspace root")
}

#[test]
fn seeded_mutant_is_caught_only_with_opt_in() {
    let ws = load_workspace(repo_root()).expect("workspace sources readable");

    let without = analyze(&ws, GraphOpts::default());
    assert!(
        !without.iter().any(|d| d.file.ends_with("/mutant.rs")),
        "default scan must not see the gated mutants: {without:?}"
    );

    let with = analyze(
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
