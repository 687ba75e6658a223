//! Layer probes: direct calls into one layer's public functions, at the
//! workload's own rank count and byte sizes. One module per layer; each
//! records a span around every call it times and sets that layer's
//! per-layer metrics.

pub mod cluster;
pub mod kokkos_resilience;
pub mod redstore;
pub mod simmpi;
pub mod veloc;

use std::sync::Arc;
use std::time::{Duration, Instant};

use ::simmpi::{Backend, FaultPlan, MpiResult, RankCtx, Universe, UniverseConfig};

use crate::metrics::LayerValues;
use crate::spans::SpanLog;
use crate::workloads::Workload;

const MIB: f64 = (1 << 20) as f64;

/// What every probe needs: the workload for sizes, the log and parent span
/// to record under, and where its metrics go.
pub struct Probe<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub log: &'a mut SpanLog,
    pub parent: usize,
    pub out: &'a mut LayerValues,
}

impl Probe<'_> {
    /// Time `f` as a span named `name`; returns the span's id with `f`'s
    /// result.
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (usize, T) {
        self.log.scope(name, Some(self.parent), |_, _| f())
    }

    /// Like [`Probe::span`], returning host seconds instead of the id.
    fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (f64, T) {
        let (id, out) = self.span(name, f);
        (self.log.duration_ns(id) as f64 / 1e9, out)
    }

    /// MiB/s of `reps` calls of `f`, each moving `bytes`, under one span.
    fn rate_mib_s(&mut self, name: &str, bytes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
        let (secs, ()) = self.timed(name, || (0..reps).for_each(|_| f()));
        (bytes * reps) as f64 / MIB / secs
    }
}

/// Repetitions that move about 32 MiB in total, so a 2 KiB payload is
/// timed over thousands of calls and an 8 MiB one over a handful.
fn reps_for(bytes: usize) -> usize {
    ((32 << 20) / bytes.max(1)).clamp(3, 4096)
}

/// Run all probes of one workload under `parent`. Errors name the probe
/// that could not run; its metrics stay unset.
pub fn run_all(
    w: &Workload,
    seed: u64,
    log: &mut SpanLog,
    parent: usize,
    out: &mut LayerValues,
) -> Result<(), String> {
    let mut p = Probe {
        w,
        seed,
        log,
        parent,
        out,
    };
    // The KR probe also measures what one rank protects; the data-layer
    // probes below use that size.
    let ckpt_bytes = kokkos_resilience::run(&mut p)?;
    simmpi::run(&mut p, ckpt_bytes)?;
    cluster::run(&mut p, ckpt_bytes);
    veloc::run(&mut p, ckpt_bytes)?;
    redstore::run(&mut p, ckpt_bytes)
}

/// One DES launch on a fresh virtual-time cluster of exactly `ranks` ranks,
/// laid out like the workload's where `ranks` fills whole nodes and one per
/// node otherwise; every rank must return `Ok`.
fn launch_des<F>(w: &Workload, ranks: usize, seed: u64, body: F) -> Result<(), String>
where
    F: Fn(&mut RankCtx) -> MpiResult<()> + Send + Sync,
{
    let per_node = if ranks.is_multiple_of(w.ranks_per_node) {
        w.ranks_per_node
    } else {
        1
    };
    let cluster = ::cluster::Cluster::new(::cluster::ClusterConfig {
        nodes: ranks / per_node,
        ranks_per_node: per_node,
        virtual_time: true,
        ..Default::default()
    });
    let report = Universe::launch(
        &cluster,
        UniverseConfig {
            backend: Backend::Des { seed },
            ..Default::default()
        },
        Arc::new(FaultPlan::none()),
        body,
    );
    if report.all_ok() {
        Ok(())
    } else {
        Err(format!("a rank of a {ranks}-rank probe launch failed"))
    }
}

/// Host nanoseconds of `at` since `epoch` (rank threads stamp intervals
/// against the span log's epoch).
fn ns_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
