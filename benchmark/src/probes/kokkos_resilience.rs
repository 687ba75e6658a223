//! `kokkos-resilience`: what a checkpoint region costs around the
//! application step it wraps, on one rank's real state.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use kokkos_resilience::{CheckpointFilter, Context, ContextConfig};
use resilience::Bookkeeper;

use super::{launch_des, ns_since, Probe};
use crate::stats::median;

const CALLS: u64 = 6;

/// One region call as the rank thread stamped it.
struct Call {
    call: (Instant, Instant),
    body: (Instant, Instant),
}

/// Sets the region metrics and returns the bytes one rank checkpoints.
pub fn run(p: &mut Probe) -> Result<usize, String> {
    let app = p.w.build_app();
    let calls: Mutex<Vec<Call>> = Mutex::new(Vec::new());
    let bytes: Mutex<usize> = Mutex::new(0);
    let (w, seed) = (p.w, p.seed);
    let (probe_span, launched) = p.span("kokkos-resilience.probe", || {
        launch_des(w, 1, seed, |ctx| {
            let comm = ctx.world().clone();
            let bk = Bookkeeper::new(Arc::clone(ctx.profile()));
            let mut state = app.init_rank(ctx, &comm);
            // Never checkpoint: the data layer has its own probe.
            let kr = Context::new(
                ctx.cluster(),
                comm.clone(),
                ContextConfig {
                    name: "probe".into(),
                    filter: CheckpointFilter::Never,
                    aliases: app.alias_labels(),
                    ..Default::default()
                },
            );
            for i in 0..CALLS {
                let t0 = Instant::now();
                let mut body = (t0, t0);
                kr.checkpoint("loop", i, || {
                    let b0 = Instant::now();
                    let stepped = state.step(&comm, i, &bk);
                    body = (b0, Instant::now());
                    stepped
                })?;
                calls.lock().expect("calls lock").push(Call {
                    call: (t0, Instant::now()),
                    body,
                });
            }
            *bytes.lock().expect("bytes lock") = kr.checkpoint_bytes("loop");
            Ok(())
        })
    });
    launched?;

    let epoch = p.log.epoch();
    let mut self_us = Vec::new();
    for c in calls.into_inner().expect("calls lock") {
        let call = p.log.record(
            "kokkos-resilience.region_call",
            Some(probe_span),
            ns_since(epoch, c.call.0),
            ns_since(epoch, c.call.1),
        );
        p.log.record(
            "apps.step",
            Some(call),
            ns_since(epoch, c.body.0),
            ns_since(epoch, c.body.1),
        );
        self_us.push(p.log.self_ns(call) as f64 / 1e3);
    }
    if self_us.len() != CALLS as usize {
        return Err("kokkos-resilience probe: a region call went missing".into());
    }
    // The first call detects and captures the region's views; the rest
    // only enter and leave it.
    p.out
        .set("kokkos-resilience.region_first_call_us", self_us[0]);
    p.out.set(
        "kokkos-resilience.region_steady_call_us",
        median(&self_us[1..]),
    );
    let bytes = bytes.into_inner().expect("bytes lock");
    if bytes == 0 {
        return Err("kokkos-resilience probe: the region captured no bytes".into());
    }
    Ok(bytes)
}
