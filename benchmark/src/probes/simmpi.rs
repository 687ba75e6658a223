//! `simmpi`: launch, collective, halo and bulk point-to-point cost on the
//! DES backend at the workload's rank count, and the two-rank hand-off.

use std::sync::Mutex;
use std::time::Instant;

use simmpi::{Comm, MpiResult, ReduceOp};

use super::{launch_des, micros, ns_since, Probe, MIB};
use crate::stats::median;

const LAUNCHES: usize = 3;
const ALLREDUCES: usize = 16;
const HALO_ROUNDS: usize = 16;
const BULK_ROUNDS: usize = 2;
const PINGPONGS: usize = 2000;

/// Launch `ranks` ranks that all run `work` between two barriers, and
/// return the host time from the first rank leaving the first barrier to the
/// last rank leaving the second. One rank runs at a time, so that interval
/// holds every rank's share of the work, whichever rank the scheduler lets
/// go first.
fn timed_section(
    p: &mut Probe,
    name: &str,
    ranks: usize,
    work: impl Fn(&Comm) -> MpiResult<()> + Send + Sync,
) -> Result<std::time::Duration, String> {
    let section: Mutex<Option<(Instant, Instant)>> = Mutex::new(None);
    let (w, seed) = (p.w, p.seed);
    let (launch_span, launched) = p.span(name, || {
        launch_des(w, ranks, seed, |ctx| {
            let comm = ctx.world();
            comm.barrier()?;
            let t0 = Instant::now();
            work(comm)?;
            comm.barrier()?;
            let t1 = Instant::now();
            let mut section = section.lock().expect("section lock");
            let (first, last) = section.unwrap_or((t0, t1));
            *section = Some((first.min(t0), last.max(t1)));
            Ok(())
        })
    });
    launched?;
    let (t0, t1) = section
        .into_inner()
        .expect("section lock")
        .ok_or_else(|| format!("{name}: no rank recorded an interval"))?;
    let epoch = p.log.epoch();
    p.log.record(
        &format!("{name}.section"),
        Some(launch_span),
        ns_since(epoch, t0),
        ns_since(epoch, t1),
    );
    Ok(t1 - t0)
}

/// Every rank sends `buf` to its right neighbour and receives from its
/// left, `rounds` times.
fn ring_exchange(comm: &Comm, buf: &[u8], rounds: usize) -> MpiResult<()> {
    let n = comm.size();
    let (right, left) = ((comm.rank() + 1) % n, (comm.rank() + n - 1) % n);
    let mut incoming = vec![0u8; buf.len()];
    for _ in 0..rounds {
        comm.sendrecv(right, 1, buf, left, 1, &mut incoming)?;
    }
    Ok(())
}

pub fn run(p: &mut Probe, ckpt_bytes: usize) -> Result<(), String> {
    let ranks = p.w.total_ranks(p.w.headline);
    let (w, seed) = (p.w, p.seed);

    let mut launches = Vec::new();
    for _ in 0..LAUNCHES {
        let (secs, launched) = p.timed("simmpi.launch_empty", || {
            launch_des(w, ranks, seed, |_| Ok(()))
        });
        launched?;
        launches.push(secs);
    }
    p.out.set(
        "simmpi.launch_us_per_rank",
        median(&launches) * 1e6 / ranks as f64,
    );

    let d = timed_section(p, "simmpi.allreduce", ranks, |comm| {
        for i in 0..ALLREDUCES {
            comm.allreduce_scalar(i as u64, ReduceOp::Sum)?;
        }
        Ok(())
    })?;
    p.out.set(
        "simmpi.allreduce_us_per_rank",
        micros(d) / (ALLREDUCES * ranks) as f64,
    );

    let halo = vec![7u8; p.w.halo_bytes()];
    let d = timed_section(p, "simmpi.sendrecv_halo", ranks, |comm| {
        ring_exchange(comm, &halo, HALO_ROUNDS)
    })?;
    p.out.set(
        "simmpi.sendrecv_us_per_msg",
        micros(d) / (HALO_ROUNDS * ranks) as f64,
    );

    let bulk = vec![9u8; ckpt_bytes];
    let d = timed_section(p, "simmpi.sendrecv_bulk", ranks, |comm| {
        ring_exchange(comm, &bulk, BULK_ROUNDS)
    })?;
    p.out.set(
        "simmpi.sendrecv_host_mib_s",
        (BULK_ROUNDS * ranks * ckpt_bytes) as f64 / MIB / d.as_secs_f64(),
    );

    // Two ranks, one small message each way per round: every message costs
    // two baton hand-offs (sender yields, receiver resumes).
    let d = timed_section(p, "simmpi.pingpong", 2, |comm| {
        let peer = 1 - comm.rank();
        let mut word = [0u64];
        for _ in 0..PINGPONGS {
            if comm.rank() == 0 {
                comm.send(peer, 2, &word)?;
                comm.recv_into(Some(peer), 2, &mut word)?;
            } else {
                comm.recv_into(Some(peer), 2, &mut word)?;
                comm.send(peer, 2, &word)?;
            }
        }
        Ok(())
    })?;
    p.out.set(
        "simmpi.pingpong_handoff_us",
        micros(d) / (4 * PINGPONGS) as f64,
    );
    Ok(())
}
