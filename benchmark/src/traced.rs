//! Per-layer metrics read from one traced pass: virtual phase times from
//! event timestamps, counts from events and the metrics registry.

use telemetry::{Phase, TraceSnapshot};

use crate::metrics::LayerValues;
use crate::pass::PassOutput;
use crate::phases::{count_events, max_span_ns, recovery_hops};
use crate::workloads::{Role, Workload};

/// Registry counters summed over the runs of the pass.
const REGISTRY_COUNTERS: [(&str, &str); 5] = [
    (
        "veloc.bytes_protected",
        telemetry::names::VELOC_BYTES_PROTECTED,
    ),
    ("veloc.bytes_written", telemetry::names::VELOC_BYTES_WRITTEN),
    ("veloc.delta_frames", telemetry::names::VELOC_DELTA_FRAMES),
    ("redstore.exchange_bytes", "redstore.exchange_bytes"),
    ("redstore.store_commits", "redstore.store_commits"),
];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Application communication time of a run: Heatdis books it as `AppMpi`,
/// MiniMD as `Communicator`; a workload has one or the other.
fn app_mpi_ns(snap: &TraceSnapshot) -> u64 {
    max_span_ns(snap, Phase::AppMpi) + max_span_ns(snap, Phase::Communicator)
}

/// Set every metric that comes from the traced pass's telemetry. Returns
/// the events the rings dropped (non-zero fails the traced run).
pub fn analyse(w: &Workload, pass: &PassOutput, out: &mut LayerValues) -> u64 {
    let empty = TraceSnapshot::default();
    let snaps: Vec<(Role, TraceSnapshot)> = pass
        .runs
        .iter()
        .filter_map(|r| Some((r.role, r.telemetry.as_ref()?.snapshot())))
        .collect();
    let snap = |role: Role| {
        snaps
            .iter()
            .find(|(r, _)| *r == role)
            .map_or(&empty, |(_, s)| s)
    };

    out.set(
        "apps.virtual_app_mpi_ref_ms",
        ms(app_mpi_ns(snap(Role::Ref))),
    );
    out.set("apps.virtual_app_mpi_nf_ms", ms(app_mpi_ns(snap(Role::Nf))));
    out.set(
        "veloc.virtual_checkpoint_fn_ms",
        ms(max_span_ns(snap(Role::Nf), Phase::CheckpointFn)),
    );
    let fail = snap(Role::Fail);
    out.set(
        "veloc.virtual_data_recovery_ms",
        ms(max_span_ns(fail, Phase::DataRecovery)),
    );
    out.set(
        "fenix.virtual_recompute_ms",
        ms(max_span_ns(fail, Phase::Recompute)),
    );
    let hops = recovery_hops(fail);
    out.set("fenix.virtual_detect_us", us(hops.detect_ns));
    out.set("fenix.virtual_repair_us", us(hops.repair_ns));
    out.set("fenix.virtual_restore_us", us(hops.restore_ns));
    let fail_counts = count_events(fail);
    out.set("fenix.agree_rounds", fail_counts.agree_rounds as f64);
    out.set("fenix.revokes", fail_counts.revokes as f64);

    // Captures are the same in every run of a strategy; read the headline's.
    let nf_counts = count_events(snap(Role::Nf));
    out.set("kokkos.views_captured", nf_counts.views_captured as f64);
    out.set("kokkos.capture_bytes", nf_counts.capture_bytes as f64);

    // Work counts cover the whole pass, like `host_pass_s`.
    let (mut calls, mut bytes, mut flushes, mut entered, mut commits) = (0, 0, 0, 0, 0);
    let (mut pushed, mut dropped) = (0, 0);
    for (_, s) in &snaps {
        let c = count_events(s);
        calls += c.mpi_calls;
        bytes += c.mpi_bytes;
        flushes += c.flushes_done;
        entered += c.regions_entered;
        commits += c.commits;
        pushed += s.pushed;
        dropped += s.dropped;
    }
    out.set("simmpi.mpi_calls", calls as f64);
    out.set("simmpi.mpi_bytes", bytes as f64);
    out.set("veloc.flushes_done", flushes as f64);
    out.set("kokkos-resilience.regions_entered", entered as f64);
    out.set("kokkos-resilience.commits", commits as f64);
    out.set("telemetry.events_pushed", pushed as f64);
    out.set("telemetry.events_dropped", dropped as f64);

    for (metric, counter) in REGISTRY_COUNTERS {
        let total: u64 = pass
            .runs
            .iter()
            .filter_map(|r| r.telemetry.as_ref())
            .flat_map(|t| t.metrics().snapshot().counters)
            .filter(|(name, _)| name == counter)
            .map(|(_, v)| v)
            .sum();
        out.set(metric, total as f64);
    }

    let facts = |role| pass.run(role).and_then(|r| r.result.as_ref().ok());
    let sum = |f: fn(&crate::pass::RunFacts) -> u64| -> u64 {
        pass.runs
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .map(f)
            .sum()
    };
    out.set("resilience.repairs", sum(|r| r.repairs) as f64);
    out.set("resilience.relaunches", sum(|r| r.relaunches) as f64);
    out.set(
        "resilience.iterations_recomputed",
        w.iterations_recomputed() as f64,
    );
    let alt_cost = match (facts(Role::AltFail), facts(Role::AltNf)) {
        (Some(f), Some(n)) => (f.wall_ns as f64 - n.wall_ns as f64) / 1e9,
        _ => 0.0,
    };
    out.set("resilience.virtual_alt_failure_cost_s", alt_cost);
    dropped
}
