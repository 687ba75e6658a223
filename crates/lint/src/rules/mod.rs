//! The lint rules and their shared scope policy.
//!
//! Rules come in two generations:
//!
//! - **token rules** ([`tokens`]): `relaxed-sync` and `thread-spawn`,
//!   ported from the PR 2 regex scanner onto the lossless token stream;
//! - **protocol rules**: the paper's resilience invariants, checked over
//!   the parsed items, the workspace call graph, and an intra-procedural
//!   dataflow pass — [`single_exit`], [`pairing`], [`reset_order`],
//!   [`delta_base_reset`], [`dropped_result`], [`panic_reach`],
//!   [`wildcard`].
//!
//! The old `unwrap-on-recovery-path` regex rule is gone: `panic-reach`
//! (transitive, call-graph-precise) and `dropped-result` supersede it.

pub mod collective_match;
pub mod delta_base_reset;
pub mod dropped_result;
pub mod lockorder;
pub mod pairing;
pub mod panic_reach;
pub mod reset_order;
pub mod single_exit;
pub mod tokens;
pub mod typestate;
pub mod wildcard;

use crate::callgraph::{GraphOpts, Resolver, Workspace};
use crate::diag::Diagnostic;

/// Crates where failure-enum matches must be exhaustive and `Result`s on
/// recovery paths must not be silently dropped (the recovery crates, the
/// integration layer that routes their errors, and the peer-memory store
/// behind the IMR strategies).
pub const STRICT_FAILURE_CRATES: &[&str] = &[
    "fenix",
    "veloc",
    "kokkos-resilience",
    "resilience",
    "redstore",
];

/// The workspace's failure enums. The paper's `FenixEvent` maps to
/// `MpiError` here: Fenix surfaces process failure as ULFM error classes
/// (`ProcFailed`/`Revoked`), not a separate event enum.
pub const FAILURE_ENUMS: &[&str] = &["MpiError", "VelocError", "RedError"];

/// Recovery entry points per crate: the functions a rank executes on the
/// re-entry path after a failure (paper Fig. 4). `panic-reach` roots its
/// traversal here.
pub const RECOVERY_ENTRY_FNS: &[(&str, &[&str])] = &[
    (
        "fenix",
        &["run", "apply_repair", "repair_rendezvous", "fire_callbacks"],
    ),
    (
        "veloc",
        &["restart", "restart_inner", "restart_test", "latest_version"],
    ),
    (
        "kokkos-resilience",
        &[
            "reset",
            "latest_version",
            "latest_agreed",
            "checkpoint",
            "restore",
        ],
    ),
    ("redstore", &["restore"]),
];

/// Crates whose panic sites `panic-reach` may report. The traversal
/// follows calls anywhere (including vendored shims), but a diagnostic is
/// only actionable where the code participates in the recovery protocol:
/// the recovery crates, the ULFM transport whose `revoke`/`agree`/`shrink`
/// *are* the recovery protocol, and the integration layer. Infrastructure
/// crates (telemetry, cluster, modelcheck) and vendored shims stay out —
/// a panic there is an internal bug, not a resilience-protocol violation.
pub const PANIC_SITE_CRATES: &[&str] = &[
    "fenix",
    "veloc",
    "kokkos-resilience",
    "simmpi",
    "resilience",
    "redstore",
];

/// Crates whose threading must go through the loom-aware shims so the
/// model checker can explore it (`thread-spawn` scope, from PR 2).
pub const MODEL_CHECKED_CRATES: &[&str] = &["telemetry", "veloc", "simmpi"];

/// Files audited for `Ordering::Relaxed` on synchronization-adjacent
/// atomics (`relaxed-sync` rule): the seqlock ring orders via `seq`'s
/// Acquire/Release pair and uses Relaxed only where the protocol proves it.
pub const AUDITED_RELAXED: &[&str] = &["crates/telemetry/src/ring.rs"];

/// Identifier fragments that mark an atomic as synchronization-carrying.
pub const SYNC_ATOMIC_NAMES: &[&str] =
    &["seq", "head", "stop", "abort", "pending", "dead", "revoked"];

/// Metadata reads that go stale across `Context::reset(new_comm)`.
pub const STALE_METADATA_READS: &[&str] = &[
    "latest_version",
    "restart_version",
    "latest_agreed",
    "region_stats",
    "checkpoint_bytes",
];

/// Rank entry points: the code a simulated rank executes — the simmpi
/// mailbox loop, the Fenix recovery handlers, the KR region machinery,
/// and the modeled transfers they ride on. `rank-path-effects` and the
/// effects inventory root their traversal here. Patterns with `::` match
/// the qualified name exactly; bare names match only free functions.
pub const RANK_ENTRY_FNS: &[(&str, &[&str])] = &[
    ("simmpi", &["Router::send", "Router::recv"]),
    (
        "fenix",
        &[
            "run",
            "Fenix::fire_callbacks",
            "Fenix::apply_repair",
            "Fenix::repair_rendezvous",
        ],
    ),
    (
        "kokkos-resilience",
        &[
            "Context::checkpoint",
            "Context::checkpoint_wait",
            "Context::reset",
        ],
    ),
    (
        "cluster",
        &["Network::transfer", "Network::egress", "Governor::transfer"],
    ),
];

/// Reservation math and export callbacks that must never park the
/// thread: bandwidth-governor bookkeeping runs under the governor lock,
/// and the telemetry exporters run on live failure-timeline paths.
/// `blocking-in-governor` roots here.
pub const GOVERNOR_FNS: &[(&str, &[&str])] = &[
    (
        "cluster",
        &[
            "Governor::reserve",
            "Governor::service_time",
            "Network::reserve_transfer",
        ],
    ),
    (
        "telemetry",
        &[
            "event_fields",
            "to_jsonl",
            "to_chrome_trace",
            "failure_timeline",
        ],
    ),
];

/// All rule identifiers, in report order.
pub const ALL_RULES: &[&str] = &[
    "single-exit",
    "protect-pairing",
    "reset-order",
    "delta-base-reset",
    "dropped-result",
    "panic-reach",
    "wildcard-match",
    "relaxed-sync",
    "thread-spawn",
    "protocol-typestate",
    "collective-match",
    "lock-order",
    "blocking-while-locked",
    "rank-path-effects",
    "blocking-in-governor",
    "effect-drift",
];

pub fn in_crates(krate: &str, list: &[&str]) -> bool {
    list.contains(&krate)
}

/// Run every rule over the workspace. `include_mutants` lets the seeded
/// `lint-mutants` violations into the call graph.
pub fn run_all(ws: &Workspace, opts: GraphOpts) -> Vec<Diagnostic> {
    let resolver = Resolver::new(ws, opts);
    // The call graph and the effect summaries over it are shared by the
    // reachability and effect rules.
    let fx = crate::effects::EffectAnalysis::run(ws, opts);
    let graph = &fx.graph;
    let mut diags: Vec<Diagnostic> = [
        single_exit::check(ws, graph),
        pairing::check(ws, graph),
        reset_order::check(ws),
        delta_base_reset::check(ws, graph, opts),
        dropped_result::check(ws, &resolver),
        panic_reach::check(ws, graph, opts),
        wildcard::check(ws),
        tokens::check(ws),
        typestate::check(ws, &resolver, opts),
        collective_match::check(ws, &resolver, opts),
        lockorder::check(ws, &resolver, opts),
        crate::effects::check_rank_path(ws, &fx, opts),
        crate::effects::check_governor(ws, &fx, opts),
        crate::effects::check_drift(ws, &fx, opts),
    ]
    .into_iter()
    .flatten()
    .collect();
    // Stable order, then full-tuple dedupe: a call that resolves to several
    // candidates can report one site twice (same rule, site, and message) —
    // one finding must survive, not two. The key() tuple is not enough
    // here: it drops the line, and two distinct findings in one function
    // would collapse.
    diags.sort_by(|a, b| {
        (
            a.file.as_str(),
            a.line,
            a.rule,
            a.func.as_str(),
            a.msg.as_str(),
        )
            .cmp(&(
                b.file.as_str(),
                b.line,
                b.rule,
                b.func.as_str(),
                b.msg.as_str(),
            ))
    });
    diags.dedup_by(|a, b| {
        a.rule == b.rule
            && a.file == b.file
            && a.line == b.line
            && a.func == b.func
            && a.msg == b.msg
    });
    diags
}
