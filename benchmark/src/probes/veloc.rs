//! `veloc`: one rank's checkpoint and restart of the workload's protected
//! bytes, and the CRC behind both.

use std::hint::black_box;
use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, TimeScale};
use veloc::{Client, Config, VecRegion};

use super::{reps_for, Probe, MIB};
use crate::stats::median;

const REPS: u64 = 5;
/// The verification fan-out `Client::restart` uses.
const RESTART_WORKERS: usize = 4;

pub fn run(p: &mut Probe, ckpt_bytes: usize) -> Result<(), String> {
    // A wall-clock cluster with an instant time scale: `RestartReport`
    // stages are then host durations, and no modelled transfer is slept.
    let cluster = Cluster::new(ClusterConfig {
        nodes: 1,
        time_scale: TimeScale::instant(),
        ..Default::default()
    });
    // Flush inline, as every client of a virtual-time run does.
    let client = Client::init(
        cluster,
        0,
        Config {
            async_flush: false,
            ..Default::default()
        },
    );
    let region = VecRegion::new(vec![1u8; ckpt_bytes]);
    client.protect(0, Arc::new(region.clone()));

    let mut ckpt_s = Vec::new();
    let mut restart_s = Vec::new();
    let mut read_ns = Vec::new();
    let mut verify_ns = Vec::new();
    let mut apply_ns = Vec::new();
    for version in 0..REPS {
        // Touching the region re-stamps it, so every frame is a full one.
        region.lock()[0] = version as u8;
        let (secs, result) = p.timed("veloc.checkpoint", || {
            let r = client.checkpoint("probe", version);
            client.checkpoint_wait();
            r
        });
        result.map_err(|e| format!("veloc probe checkpoint: {e}"))?;
        ckpt_s.push(secs);
        let (secs, report) = p.timed("veloc.restart", || {
            client.restart_with_workers("probe", version, RESTART_WORKERS)
        });
        let report = report.map_err(|e| format!("veloc probe restart: {e}"))?;
        if report.bytes_restored != ckpt_bytes as u64 || region.lock()[0] != version as u8 {
            return Err("veloc probe restart restored the wrong bytes".into());
        }
        restart_s.push(secs);
        read_ns.push(report.read_ns as f64);
        verify_ns.push(report.verify_ns as f64);
        apply_ns.push(report.apply_ns as f64);
    }
    let ckpt = median(&ckpt_s);
    p.out.set("veloc.checkpoint_host_ms", ckpt * 1e3);
    p.out.set(
        "veloc.checkpoint_host_mib_s",
        ckpt_bytes as f64 / MIB / ckpt,
    );
    p.out.set("veloc.restart_host_ms", median(&restart_s) * 1e3);
    p.out.set("veloc.restart_read_ns", median(&read_ns));
    p.out.set("veloc.restart_verify_ns", median(&verify_ns));
    p.out.set("veloc.restart_apply_ns", median(&apply_ns));

    let buf = vec![0xa5_u8; ckpt_bytes];
    let crc = p.rate_mib_s("veloc.crc32", ckpt_bytes, reps_for(ckpt_bytes), || {
        black_box(veloc::serial::crc32(black_box(&buf)));
    });
    p.out.set("veloc.crc_host_mib_s", crc);
    Ok(())
}
