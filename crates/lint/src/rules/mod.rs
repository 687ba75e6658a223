//! The lint rules and their shared scope policy.
//!
//! Rules come in two generations:
//!
//! - **token rules** ([`tokens`]): `relaxed-sync` and `thread-spawn`,
//!   ported from the PR 2 regex scanner onto the lossless token stream;
//! - **protocol rules**: the paper's resilience invariants, checked over
//!   the parsed items, the workspace call graph, and an intra-procedural
//!   dataflow pass — [`pairing`], [`reset_order`], [`delta_base_reset`],
//!   [`dropped_result`], [`wildcard`], and the CFG-side analyses
//!   [`typestate`], [`collective_match`] and [`lockorder`].
//!
//! The four reachability rules (`single-exit`, `panic-reach`,
//! `rank-path-effects`, `blocking-in-governor`) have no module here: they
//! are rows of [`crate::effects::QUERIES`], over the root tables below.

pub mod collective_match;
pub mod delta_base_reset;
pub mod dropped_result;
pub mod lockorder;
pub mod pairing;
pub mod reset_order;
pub mod tokens;
pub mod typestate;
pub mod wildcard;

use crate::callgraph::{GraphOpts, Resolver, Workspace};
use crate::cfg;
use crate::diag::Diagnostic;
use crate::effects::EffectAnalysis;
use crate::parser::{Call, CallKind, ParsedFile};

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

/// An entry-point table: `(crate, patterns)`. A pattern with `::` matches
/// the qualified name exactly; a bare name matches only free functions.
/// Resolved by [`crate::effects::collect_entries`].
pub type EntryTable = &'static [(&'static str, &'static [&'static str])];

/// The Fenix recovery handlers — the code a rank runs between detecting a
/// failure and re-entering the body (paper Fig. 4). Both entry tables
/// below root here. The free `apply_repair` is the seeded mutant's and the
/// `panic-reach` fixture's stand-in for the method.
const FENIX_HANDLERS: &[&str] = &[
    "run",
    "apply_repair",
    "Fenix::fire_callbacks",
    "Fenix::apply_repair",
    "Fenix::repair_rendezvous",
];

/// Recovery entry points: the functions a rank executes on the re-entry
/// path after a failure (paper Fig. 4). `panic-reach` roots here.
pub const RECOVERY_ENTRY_FNS: EntryTable = &[
    ("fenix", FENIX_HANDLERS),
    (
        "veloc",
        &[
            "Client::restart",
            "Client::restart_inner",
            "Client::agree_intact_version",
            "Client::latest_version",
        ],
    ),
    (
        "kokkos-resilience",
        &[
            "Context::reset",
            "Context::latest_version",
            "Context::restart_version",
            "Context::checkpoint",
            "DataBackend::latest_agreed_below",
            "DataBackend::checkpoint",
            "DataBackend::restore",
            "VelocBackend::checkpoint",
            "VelocBackend::restore",
            "ViewRegion::restore",
        ],
    ),
    (
        "redstore",
        &["RedundancyGroup::possession", "RedundancyGroup::restore"],
    ),
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
    "latest_agreed_below",
    "region_stats",
    "checkpoint_bytes",
];

/// Rank entry points: the code a simulated rank executes — the simmpi
/// mailbox loop, the Fenix recovery handlers, the KR region machinery,
/// and the modeled transfers they ride on. `rank-path-effects` and the
/// effects inventory root here.
pub const RANK_ENTRY_FNS: EntryTable = &[
    ("simmpi", &["Router::send", "Router::recv"]),
    ("fenix", FENIX_HANDLERS),
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
pub const GOVERNOR_FNS: EntryTable = &[
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

/// What a communication call is to the three rules that care.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Comm {
    /// A data collective: illegal on a revoked, unrepaired communicator
    /// (`protocol-typestate`), rank-uniform (`collective-match`), blocking
    /// (`blocking-while-locked`).
    Collective,
    /// Repairs or agrees on the communicator, directly or through a layer
    /// above simmpi: rank-uniform and blocking; the typestate automaton
    /// gives these their own symbols.
    Recovery,
    /// The receive family and `checkpoint_wait`: blocking only.
    Wait,
}

/// The collectives (and, for the lock rules, the waits): the one list of
/// method names the communication-aware rules recognise.
const COLLECTIVES: &[(&str, Comm)] = &[
    ("barrier", Comm::Collective),
    ("allgather", Comm::Collective),
    ("allreduce", Comm::Collective),
    ("allreduce_scalar", Comm::Collective),
    ("allreduce_with", Comm::Collective),
    ("bcast", Comm::Collective),
    ("bcast_bytes", Comm::Collective),
    ("reduce", Comm::Collective),
    ("reduce_with", Comm::Collective),
    ("gather", Comm::Collective),
    ("agree", Comm::Recovery),
    ("shrink", Comm::Recovery),
    ("rendezvous", Comm::Recovery),
    ("repair_rendezvous", Comm::Recovery),
    ("agree_intact_version", Comm::Recovery),
    ("latest_agreed_below", Comm::Recovery),
    ("possession", Comm::Recovery),
    ("recv", Comm::Wait),
    ("recv_bytes", Comm::Wait),
    ("recv_into", Comm::Wait),
    ("recv_vec", Comm::Wait),
    ("recv_timeout", Comm::Wait),
    ("sendrecv", Comm::Wait),
    ("checkpoint_wait", Comm::Wait),
];

/// Classify a method call against [`COLLECTIVES`]. `Iterator::reduce`
/// takes one closure where `Comm::reduce` takes root + data, so `reduce`
/// counts only from two arguments up.
pub fn comm_call(file: &ParsedFile, call: &Call) -> Option<(&'static str, Comm)> {
    if call.kind != CallKind::Method {
        return None;
    }
    let &(name, kind) = COLLECTIVES.iter().find(|(n, _)| call.name() == *n)?;
    (name != "reduce" || cfg::call_arity(file, call) >= 2).then_some((name, kind))
}

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
];

pub fn in_crates(krate: &str, list: &[&str]) -> bool {
    list.contains(&krate)
}

/// Run every rule over the workspace, handing back the call-graph
/// analysis the reachability rules ran on (one graph per scan: the CLI
/// writes the effects inventory from it).
pub fn run_all(ws: &Workspace, opts: GraphOpts) -> (Vec<Diagnostic>, EffectAnalysis) {
    let resolver = Resolver::new(ws, opts);
    let fx = EffectAnalysis::run(ws, opts);
    let mut diags: Vec<Diagnostic> = [
        fx.check(ws),
        pairing::check(ws, &fx.graph, opts),
        reset_order::check(ws, opts),
        delta_base_reset::check(ws, &fx.graph, opts),
        dropped_result::check(ws, &resolver, opts),
        wildcard::check(ws, opts),
        tokens::check(ws, opts),
        typestate::check(ws, &resolver, opts),
        collective_match::check(ws, &resolver, opts),
        lockorder::check(ws, &resolver, opts),
    ]
    .into_iter()
    .flatten()
    .collect();
    // Stable order, then whole-value dedupe: a call that resolves to
    // several candidates can report one site twice (same rule, site, and
    // message) — one finding must survive, not two. The key() tuple is not
    // enough here: it drops the line, and two distinct findings in one
    // function would collapse.
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.func, &a.msg).cmp(&(&b.file, b.line, b.rule, &b.func, &b.msg))
    });
    diags.dedup();
    (diags, fx)
}
