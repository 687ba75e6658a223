//! The lint rules and their shared scope policy.
//!
//! Each rule here is one no runtime suite, compiler lint or type replaces:
//! its violation, seeded live, survives tier-1 and the chaos smoke
//! (DESIGN.md §10). The one module here is a CFG rule through the
//! [`crate::inline`] walk: [`collective_match`].
//!
//! The reachability rules (`panic-reach`, `rank-path-effects` and
//! `blocking-context`) have no module here: they are rows of
//! [`crate::effects::QUERIES`], over the root tables below. Lock order and
//! blocking under a held lock are checked at run time, by the parking_lot
//! shim's lock-order witness.

pub mod collective_match;

use crate::callgraph::{GraphOpts, Resolver, Workspace};
use crate::cfg;
use crate::diag::Diagnostic;
use crate::effects::EffectAnalysis;
use crate::parser::{Call, CallKind, ParsedFile};

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
/// `blocking-context` roots here.
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

/// The data and recovery collectives (`agree`, `shrink`, the rendezvous
/// and agreed-version calls, directly or through a layer above simmpi):
/// the method names `collective-match` holds rank-uniform.
const COLLECTIVES: &[&str] = &[
    "barrier",
    "allgather",
    "allreduce",
    "allreduce_scalar",
    "allreduce_with",
    "bcast",
    "bcast_bytes",
    "reduce",
    "reduce_with",
    "gather",
    "agree",
    "shrink",
    "rendezvous",
    "repair_rendezvous",
    "agree_intact_version",
    "latest_agreed_below",
    "possession",
];

/// The collective a method call names, if any. `Iterator::reduce` takes
/// one closure where `Comm::reduce` takes root + data, so `reduce` counts
/// only from two arguments up.
pub fn collective(file: &ParsedFile, call: &Call) -> Option<&'static str> {
    if call.kind != CallKind::Method {
        return None;
    }
    let &name = COLLECTIVES.iter().find(|&&n| call.name() == n)?;
    (name != "reduce" || cfg::call_arity(file, call) >= 2).then_some(name)
}

/// All rule identifiers, in report order.
pub const ALL_RULES: &[&str] = &[
    "panic-reach",
    "collective-match",
    "blocking-context",
    "rank-path-effects",
];

/// Run every rule over the workspace, handing back the call-graph
/// analysis the reachability rules ran on (one graph per scan: the CLI
/// writes the effects inventory from it).
pub fn run_all(ws: &Workspace, opts: GraphOpts) -> (Vec<Diagnostic>, EffectAnalysis) {
    let fx = EffectAnalysis::run(ws, opts);
    let mut diags = fx.check(ws);
    diags.extend(collective_match::check(ws, &Resolver::new(ws, opts), opts));
    // Stable order, then whole-value dedupe: a call that resolves to
    // several candidates can report one site twice (same rule, site, and
    // message) — one finding must survive, not two.
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.func, &a.msg).cmp(&(&b.file, b.line, b.rule, &b.func, &b.msg))
    });
    diags.dedup();
    (diags, fx)
}
