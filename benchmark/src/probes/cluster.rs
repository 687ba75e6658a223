//! `cluster`: governor reservation cost and the host cost of a tier write.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use cluster::{Clock, Cluster, ClusterConfig, Governor, TimeScale};

use super::Probe;

const RESERVES: usize = 200_000;
const WRITES: usize = 2_000;

pub fn run(p: &mut Probe, ckpt_bytes: usize) {
    // A governor on a virtual clock, as every governor of a DES run is.
    let gov = Governor::with_clock(
        8.0e9,
        Duration::from_micros(2),
        TimeScale::realtime(),
        Arc::new(Clock::virtual_at(0)),
    );
    let (secs, ()) = p.timed("cluster.governor_reserve", || {
        for _ in 0..RESERVES {
            black_box(gov.reserve(black_box(4096)));
        }
    });
    p.out
        .set("cluster.governor_reserve_ns", secs * 1e9 / RESERVES as f64);

    // Host cost only: an instant time scale accounts modelled transfer time
    // without sleeping it. Both tiers keep a reference-counted handle to the
    // blob, so a write costs the same whatever the blob's size; a MiB/s here
    // would only restate that size. A tier that starts to copy shows as a
    // cost that grows with `ckpt_bytes` from workload to workload.
    let cluster = Cluster::new(ClusterConfig {
        nodes: 1,
        time_scale: TimeScale::instant(),
        ..Default::default()
    });
    let blob = Bytes::from(vec![0x5a_u8; ckpt_bytes]);
    let paths: Vec<String> = (0..WRITES).map(|v| format!("probe/v{v}/r0")).collect();
    let (secs, ()) = p.timed("cluster.pfs_write", || {
        for path in &paths {
            black_box(cluster.pfs().write(path, blob.clone()));
        }
    });
    p.out
        .set("cluster.pfs_write_ns", secs * 1e9 / WRITES as f64);
    let (secs, ()) = p.timed("cluster.scratch_write", || {
        for path in &paths {
            black_box(cluster.scratch().write(0, path, blob.clone()));
        }
    });
    p.out
        .set("cluster.scratch_write_ns", secs * 1e9 / WRITES as f64);
}
