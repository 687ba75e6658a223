//! The lint rules and their shared scope policy.
//!
//! Each rule here is one no runtime suite replaces: its violation, seeded
//! live, survives tier-1 and the chaos smoke (DESIGN.md §10).
//!
//! - per-function rules over the parsed items: [`dropped_result`],
//!   [`wildcard`] and [`relaxed_sync`];
//! - CFG rules through the shared [`crate::inline`] walk:
//!   [`collective_match`] and [`lockorder`].
//!
//! The reachability rules (`panic-reach`, `rank-path-effects`, and the
//! governor half of `blocking-context`) have no module here: they are rows
//! of [`crate::effects::QUERIES`], over the root tables below.

pub mod collective_match;
pub mod dropped_result;
pub mod lockorder;
pub mod relaxed_sync;
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

/// Identifiers that mark an atomic as synchronization-carrying: the
/// router's abort flag (DESIGN.md §9) and the sequence word of the
/// `relaxed-sync` fixture's seqlock.
pub const SYNC_ATOMIC_NAMES: &[&str] = &["seq", "aborted"];

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
/// `blocking-context` roots its governor half here.
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

/// What a communication call is to the two CFG rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Comm {
    /// A data or recovery collective (`agree`, `shrink`, the rendezvous
    /// and agreed-version calls, directly or through a layer above
    /// simmpi): rank-uniform (`collective-match`) and blocking.
    Collective,
    /// The receive family and `checkpoint_wait`: blocking only.
    Wait,
}

/// The collectives (and, for the blocking rule, the waits): the one list
/// of method names the communication-aware rules recognise.
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
    ("agree", Comm::Collective),
    ("shrink", Comm::Collective),
    ("rendezvous", Comm::Collective),
    ("repair_rendezvous", Comm::Collective),
    ("agree_intact_version", Comm::Collective),
    ("latest_agreed_below", Comm::Collective),
    ("possession", Comm::Collective),
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
    "dropped-result",
    "panic-reach",
    "wildcard-match",
    "relaxed-sync",
    "collective-match",
    "lock-order",
    "blocking-context",
    "rank-path-effects",
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
        dropped_result::check(ws, &resolver, opts),
        wildcard::check(ws, opts),
        relaxed_sync::check(ws, opts),
        collective_match::check(ws, &resolver, opts),
        lockorder::check(ws, &resolver, opts),
    ]
    .into_iter()
    .flatten()
    .collect();
    // Stable order, then whole-value dedupe: a call that resolves to
    // several candidates can report one site twice (same rule, site, and
    // message) — one finding must survive, not two.
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.func, &a.msg).cmp(&(&b.file, b.line, b.rule, &b.func, &b.msg))
    });
    diags.dedup();
    (diags, fx)
}
