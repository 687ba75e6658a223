//! Negative control for the analyzer, mirroring `modelcheck/tests/mutant.rs`:
//! the seeded `lint-mutants` violation in `crates/fenix/src/mutant.rs` must
//! be caught by `panic-reach` exactly when mutants are opted in — and must
//! stay invisible to the default scan, which is required to be clean.
//!
//! The violation is deliberately *transitive*: the entry point is clean and
//! only its helper panics, so a per-file text rule could never catch it.

use std::path::Path;

use lint::{analyze, load_workspace, GraphOpts};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the workspace root")
}

#[test]
fn seeded_mutant_is_caught_only_with_opt_in() {
    let ws = load_workspace(repo_root()).expect("workspace sources readable");

    let (without, _) = analyze(
        &ws,
        GraphOpts {
            include_mutants: false,
        },
    );
    assert!(
        !without.iter().any(|d| d.file.contains("mutant.rs")),
        "default scan must not see the gated mutant: {without:?}"
    );

    let (with, _) = analyze(
        &ws,
        GraphOpts {
            include_mutants: true,
        },
    );
    let hit = with
        .iter()
        .find(|d| d.rule == "panic-reach" && d.file == "crates/fenix/src/mutant.rs")
        .expect("panic-reach must flag the seeded mutant transitively");
    assert!(
        hit.func.contains("rebuild_group"),
        "the finding must land on the helper holding the panic site, got {}",
        hit.func
    );
    assert!(
        hit.msg.contains("unwrap") && hit.msg.contains("witness: apply_repair -> rebuild_group;"),
        "the witness chain must walk entry -> helper: {}",
        hit.msg
    );

    // One seeded violation per protocol analysis, each caught only with
    // the opt-in (the `without` assertion above covers both mutant files).
    let typestate = with
        .iter()
        .find(|d| d.rule == "protocol-typestate" && d.file == "crates/fenix/src/mutant.rs")
        .expect("protocol-typestate must flag the undetected revoke");
    assert!(
        typestate.func.contains("revoke_without_detect"),
        "got {}",
        typestate.func
    );
    assert!(typestate.msg.contains("ulfm-recovery"), "{}", typestate.msg);

    let collective = with
        .iter()
        .find(|d| d.rule == "collective-match" && d.file == "crates/fenix/src/mutant.rs")
        .expect("collective-match must flag the root-only barrier");
    assert!(
        collective.func.contains("lopsided_barrier"),
        "got {}",
        collective.func
    );
    assert!(collective.msg.contains("barrier"), "{}", collective.msg);

    let order = with
        .iter()
        .find(|d| d.rule == "lock-order" && d.file == "crates/simmpi/src/mutant.rs")
        .expect("lock-order must flag the ABBA cycle");
    assert!(
        order.msg.contains("mu_alpha") && order.msg.contains("mu_beta"),
        "{}",
        order.msg
    );

    let blocking = with
        .iter()
        .find(|d| d.rule == "blocking-while-locked" && d.file == "crates/simmpi/src/mutant.rs")
        .expect("blocking-while-locked must flag the receive under mu_alpha");
    assert!(
        blocking.func.contains("recv_under_lock"),
        "got {}",
        blocking.func
    );
    assert!(blocking.msg.contains("recv_bytes"), "{}", blocking.msg);

    // The effect engine must trace the wall-clock sleep two helper hops
    // below the `Governor::transfer` rank entry point, witness chain and
    // all — and the `without` assertion above proves the gated mutant
    // stays invisible to the default scan.
    let effects = with
        .iter()
        .find(|d| d.rule == "rank-path-effects" && d.file == "crates/cluster/src/mutant.rs")
        .expect("rank-path-effects must flag the seeded wall-clock sleep");
    assert!(
        effects.func.contains("warmup_backoff"),
        "the finding must land on the helper holding the sleep, got {}",
        effects.func
    );
    assert!(
        effects.msg.contains("Governor::transfer")
            && effects.msg.contains("warmup_settle")
            && effects.msg.contains("warmup_backoff"),
        "the witness chain must walk entry -> helper -> site: {}",
        effects.msg
    );
}
