//! The lint rules and their shared scope policy.
//!
//! Rules come in two generations:
//!
//! - **token rules** ([`tokens`]): `unsafe-comment`, `relaxed-sync`, and
//!   `thread-spawn`, ported from the PR 2 regex scanner onto the lossless
//!   token stream;
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
    "unsafe-comment",
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

/// One-line rule descriptions, rendered as SARIF `shortDescription` and
/// kept in lockstep with [`ALL_RULES`] (a unit test enforces the pairing).
pub const RULE_META: &[(&str, &str)] = &[
    (
        "single-exit",
        "A protected region must leave through exactly one success exit",
    ),
    (
        "protect-pairing",
        "Every protect() needs its matching unprotect() on all paths",
    ),
    (
        "reset-order",
        "Context::reset must precede metadata reads after a failure",
    ),
    (
        "delta-base-reset",
        "Delta chains must re-base after a restore or membership change",
    ),
    (
        "dropped-result",
        "A Result on a recovery path must be consumed, not dropped",
    ),
    (
        "panic-reach",
        "No panic site may be reachable from a recovery entry point",
    ),
    (
        "wildcard-match",
        "Failure-enum matches must be exhaustive, no catch-all arms",
    ),
    (
        "unsafe-comment",
        "Every unsafe needs a SAFETY comment within ten lines",
    ),
    (
        "relaxed-sync",
        "Ordering::Relaxed is forbidden on synchronization-carrying atomics",
    ),
    (
        "thread-spawn",
        "Model-checked crates must spawn through the loom-aware shims",
    ),
    (
        "protocol-typestate",
        "Checkpoint/capture/ULFM call sequences must follow their automata",
    ),
    (
        "collective-match",
        "Collectives must be invoked uniformly across rank-dependent branches",
    ),
    (
        "lock-order",
        "Workspace lock acquisition order must stay acyclic",
    ),
    (
        "blocking-while-locked",
        "No blocking call while holding a lock guard",
    ),
    (
        "rank-path-effects",
        "No wall-clock, nondeterminism, or thread spawns reachable from rank entry points",
    ),
    (
        "blocking-in-governor",
        "No blocking inside bandwidth-governor math or telemetry export callbacks",
    ),
    (
        "effect-drift",
        "Unsanctioned effect sites on the rank path must match the committed inventory",
    ),
];

/// The one-line description for a rule id (`""` for unknown ids).
pub fn rule_short(id: &str) -> &'static str {
    RULE_META
        .iter()
        .find(|(r, _)| *r == id)
        .map(|(_, d)| *d)
        .unwrap_or("")
}

pub fn in_crates(krate: &str, list: &[&str]) -> bool {
    list.contains(&krate)
}

/// Run every rule over the workspace. `include_mutants` lets the seeded
/// `lint-mutants` violations into the call graph.
pub fn run_all(ws: &Workspace, opts: GraphOpts) -> Vec<Diagnostic> {
    run_all_timed(ws, opts).0
}

/// Like [`run_all`], but also returns per-pass wall-clock timings (one
/// entry per analysis pass; the token pass covers its three rule ids and
/// the lock pass covers `lock-order` + `blocking-while-locked`).
pub fn run_all_timed(
    ws: &Workspace,
    opts: GraphOpts,
) -> (Vec<Diagnostic>, Vec<(&'static str, std::time::Duration)>) {
    let resolver = Resolver::new(ws, opts);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut timings: Vec<(&'static str, std::time::Duration)> = Vec::new();
    // The call graph and the effect summaries over it are shared by the
    // reachability and effect rules; building them gets its own timing
    // entry so the per-rule numbers stay honest.
    let t0 = std::time::Instant::now();
    let fx = crate::effects::EffectAnalysis::run(ws, opts);
    let graph = &fx.graph;
    timings.push(("effects-infer", t0.elapsed()));
    {
        let mut pass = |name: &'static str, f: &mut dyn FnMut() -> Vec<Diagnostic>| {
            let t0 = std::time::Instant::now();
            let out = f();
            timings.push((name, t0.elapsed()));
            diags.extend(out);
        };
        pass("single-exit", &mut || single_exit::check(ws, graph));
        pass("protect-pairing", &mut || pairing::check(ws, graph));
        pass("reset-order", &mut || reset_order::check(ws));
        pass("delta-base-reset", &mut || {
            delta_base_reset::check(ws, graph, opts)
        });
        pass("dropped-result", &mut || {
            dropped_result::check(ws, &resolver)
        });
        pass("panic-reach", &mut || panic_reach::check(ws, graph, opts));
        pass("wildcard-match", &mut || wildcard::check(ws));
        pass("tokens", &mut || tokens::check(ws));
        pass("protocol-typestate", &mut || {
            typestate::check(ws, &resolver, opts)
        });
        pass("collective-match", &mut || {
            collective_match::check(ws, &resolver, opts)
        });
        pass("lock-order", &mut || lockorder::check(ws, &resolver, opts));
        pass("rank-path-effects", &mut || {
            crate::effects::check_rank_path(ws, &fx, opts)
        });
        pass("blocking-in-governor", &mut || {
            crate::effects::check_governor(ws, &fx, opts)
        });
        pass("effect-drift", &mut || {
            crate::effects::check_drift(ws, &fx, opts)
        });
    }
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
    (diags, timings)
}
