//! Slab-decomposition communication (MiniMD's "Communicator" phase):
//! atom migration, border/ghost setup, and per-step ghost position updates.
//!
//! Each function locks its views only to pack what it sends and to store
//! what it received, never across a receive: a rank must not block on a
//! neighbor while it holds a lock.

use kokkos::View;
use simmpi::{Comm, MpiResult, Tag};

use crate::minimd::atoms::Slab;

const TAG_MIGRATE_ID: u64 = 0x40;
const TAG_MIGRATE_DATA: u64 = 0x41;
const TAG_BORDER: u64 = 0x42;
const TAG_COMM: u64 = 0x44;

/// Ghost-exchange plan, rebuilt at every neighboring step and reused by
/// [`communicate`] on the steps between.
#[derive(Clone, Debug, Default)]
pub struct CommPlan {
    /// Owned-atom indices sent to the left neighbor (as its ghosts).
    pub send_left: Vec<u32>,
    /// Owned-atom indices sent to the right neighbor.
    pub send_right: Vec<u32>,
    /// Position shift applied to atoms sent left (± global Lx across the
    /// periodic boundary, else 0).
    pub shift_left: f64,
    pub shift_right: f64,
    /// Ghosts received from the left / right neighbor.
    pub nghost_left: usize,
    pub nghost_right: usize,
}

impl CommPlan {
    pub fn nghost(&self) -> usize {
        self.nghost_left + self.nghost_right
    }
}

fn left_of(comm: &Comm) -> usize {
    (comm.rank() + comm.size() - 1) % comm.size()
}

fn right_of(comm: &Comm) -> usize {
    (comm.rank() + 1) % comm.size()
}

/// Wrap all owned positions into the global periodic box.
pub fn pbc(slab: &Slab, x: &mut [f64], nlocal: usize) {
    for i in 0..nlocal {
        let mut p = [x[3 * i], x[3 * i + 1], x[3 * i + 2]];
        slab.wrap(&mut p);
        x[3 * i..3 * i + 3].copy_from_slice(&p);
    }
}

/// Migrate atoms that left this slab to the owning neighbor (assumes at
/// most one slab of travel per rebuild interval — asserted). Atom arrays
/// are then sorted by id so ownership changes never perturb float
/// summation order. Returns the new `nlocal`.
pub fn exchange_atoms(
    comm: &Comm,
    slab: &Slab,
    x: &View<f64>,
    v: &View<f64>,
    id: &View<u64>,
    nlocal: usize,
) -> MpiResult<usize> {
    let me = comm.rank();
    let n_ranks = comm.size();
    let width = slab.width();

    let (keep, (ids_l, data_l), (ids_r, data_r)) = {
        let (x, v, id) = (x.read(), v.read(), id.read());
        // Partition: keep / go-left / go-right.
        let mut keep: Vec<usize> = Vec::with_capacity(nlocal);
        let mut go_left: Vec<usize> = Vec::new();
        let mut go_right: Vec<usize> = Vec::new();
        for i in 0..nlocal {
            let target = ((x[3 * i] / width) as usize).min(n_ranks - 1);
            if target == me || n_ranks == 1 {
                keep.push(i);
            } else if target == left_of(comm) {
                go_left.push(i);
            } else if target == right_of(comm) {
                go_right.push(i);
            } else {
                panic!(
                    "atom {} moved more than one slab (x={}, target {target}, me {me})",
                    id[i],
                    x[3 * i]
                );
            }
        }

        let pack_atoms = |idxs: &[usize]| -> (Vec<u64>, Vec<f64>) {
            let ids: Vec<u64> = idxs.iter().map(|&i| id[i]).collect();
            let mut data = Vec::with_capacity(idxs.len() * 6);
            for &i in idxs {
                data.extend_from_slice(&x[3 * i..3 * i + 3]);
                data.extend_from_slice(&v[3 * i..3 * i + 3]);
            }
            (ids, data)
        };
        (keep, pack_atoms(&go_left), pack_atoms(&go_right))
    };
    comm.send(left_of(comm), TAG_MIGRATE_ID, &ids_l)?;
    comm.send(left_of(comm), TAG_MIGRATE_DATA, &data_l)?;
    comm.send(right_of(comm), TAG_MIGRATE_ID + 0x10, &ids_r)?;
    comm.send(right_of(comm), TAG_MIGRATE_DATA + 0x10, &data_r)?;

    // Receive: from right (their go-left) and from left (their go-right).
    let (in_ids_r, _) = comm.recv_vec::<u64>(Some(right_of(comm)), TAG_MIGRATE_ID)?;
    let (in_data_r, _) = comm.recv_vec::<f64>(Some(right_of(comm)), TAG_MIGRATE_DATA)?;
    let (in_ids_l, _) = comm.recv_vec::<u64>(Some(left_of(comm)), TAG_MIGRATE_ID + 0x10)?;
    let (in_data_l, _) = comm.recv_vec::<f64>(Some(left_of(comm)), TAG_MIGRATE_DATA + 0x10)?;

    // Rebuild owned arrays: kept atoms first, then arrivals.
    let (mut x, mut v, mut id) = (x.write(), v.write(), id.write());
    let mut new_ids: Vec<u64> = keep.iter().map(|&i| id[i]).collect();
    let mut new_x: Vec<f64> = Vec::with_capacity((keep.len() + 8) * 3);
    let mut new_v: Vec<f64> = Vec::with_capacity(new_x.capacity());
    for &i in &keep {
        new_x.extend_from_slice(&x[3 * i..3 * i + 3]);
        new_v.extend_from_slice(&v[3 * i..3 * i + 3]);
    }
    for (ids, data) in [(in_ids_r, in_data_r), (in_ids_l, in_data_l)] {
        for (k, aid) in ids.iter().enumerate() {
            new_ids.push(*aid);
            new_x.extend_from_slice(&data[6 * k..6 * k + 3]);
            new_v.extend_from_slice(&data[6 * k + 3..6 * k + 6]);
        }
    }

    // Deterministic order: sort by id.
    let n_new = new_ids.len();
    let mut order: Vec<usize> = (0..n_new).collect();
    order.sort_by_key(|&k| new_ids[k]);
    assert!(
        3 * n_new <= x.len(),
        "atom capacity exceeded after exchange"
    );
    for (slot, &k) in order.iter().enumerate() {
        id[slot] = new_ids[k];
        x[3 * slot..3 * slot + 3].copy_from_slice(&new_x[3 * k..3 * k + 3]);
        v[3 * slot..3 * slot + 3].copy_from_slice(&new_v[3 * k..3 * k + 3]);
    }
    Ok(n_new)
}

/// Select border atoms, exchange them as ghosts, and record the plan.
/// Ghost positions are appended at `x[3*nlocal..]` and ghost ids at
/// `id[nlocal..]` — left neighbor's ghosts first, then the right's.
pub fn setup_borders(
    comm: &Comm,
    slab: &Slab,
    cutneigh: f64,
    x: &View<f64>,
    id: &View<u64>,
    nlocal: usize,
) -> MpiResult<CommPlan> {
    let me = comm.rank();
    let n_ranks = comm.size();
    let lx = slab.global[0];

    let mut plan = CommPlan {
        // Crossing the global boundary requires an image shift.
        shift_left: if me == 0 { lx } else { 0.0 },
        shift_right: if me == n_ranks - 1 { -lx } else { 0.0 },
        ..CommPlan::default()
    };
    let (left, left_ids, right, right_ids) = {
        let (x, id) = (x.read(), id.read());
        for i in 0..nlocal {
            let px = x[3 * i];
            if px < slab.xlo + cutneigh {
                plan.send_left.push(i as u32);
            }
            if px >= slab.xhi - cutneigh {
                plan.send_right.push(i as u32);
            }
        }
        let ids_of = |idxs: &[u32]| -> Vec<u64> { idxs.iter().map(|&i| id[i as usize]).collect() };
        (
            pack(&x, &plan.send_left, plan.shift_left),
            ids_of(&plan.send_left),
            pack(&x, &plan.send_right, plan.shift_right),
            ids_of(&plan.send_right),
        )
    };

    comm.send(left_of(comm), TAG_BORDER, &left)?;
    comm.send(left_of(comm), TAG_BORDER + 1, &left_ids)?;
    comm.send(right_of(comm), TAG_BORDER + 0x10, &right)?;
    comm.send(right_of(comm), TAG_BORDER + 0x11, &right_ids)?;
    // My left ghosts come from my left neighbor's send_right.
    let (from_left, _) = comm.recv_vec::<f64>(Some(left_of(comm)), TAG_BORDER + 0x10)?;
    let (ids_left, _) = comm.recv_vec::<u64>(Some(left_of(comm)), TAG_BORDER + 0x11)?;
    let (from_right, _) = comm.recv_vec::<f64>(Some(right_of(comm)), TAG_BORDER)?;
    let (ids_right, _) = comm.recv_vec::<u64>(Some(right_of(comm)), TAG_BORDER + 1)?;
    plan.nghost_left = from_left.len() / 3;
    plan.nghost_right = from_right.len() / 3;

    let (mut x, mut id) = (x.write(), id.write());
    let base = 3 * nlocal;
    assert!(
        base + from_left.len() + from_right.len() <= x.len(),
        "ghost capacity exceeded"
    );
    assert!(nlocal + ids_left.len() + ids_right.len() <= id.len());
    x[base..base + from_left.len()].copy_from_slice(&from_left);
    x[base + from_left.len()..base + from_left.len() + from_right.len()]
        .copy_from_slice(&from_right);
    id[nlocal..nlocal + ids_left.len()].copy_from_slice(&ids_left);
    id[nlocal + ids_left.len()..nlocal + ids_left.len() + ids_right.len()]
        .copy_from_slice(&ids_right);
    Ok(plan)
}

/// Border atoms `idxs`' positions, shifted by `shift` in x.
fn pack(x: &[f64], idxs: &[u32], shift: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(idxs.len() * 3);
    for &i in idxs {
        let i = i as usize;
        out.push(x[3 * i] + shift);
        out.push(x[3 * i + 1]);
        out.push(x[3 * i + 2]);
    }
    out
}

/// Per-step ghost position refresh: resend the planned border atoms'
/// current positions and overwrite the ghost slots.
pub fn communicate(comm: &Comm, plan: &CommPlan, x: &View<f64>, nlocal: usize) -> MpiResult<()> {
    let (left, right) = {
        let x = x.read();
        (
            pack(&x, &plan.send_left, plan.shift_left),
            pack(&x, &plan.send_right, plan.shift_right),
        )
    };
    comm.send(left_of(comm), TAG_COMM, &left)?;
    comm.send(right_of(comm), TAG_COMM + 0x10, &right)?;
    let base = 3 * nlocal;
    let nl = 3 * plan.nghost_left;
    let nr = 3 * plan.nghost_right;
    recv_ghosts(comm, left_of(comm), TAG_COMM + 0x10, x, base..base + nl)?;
    recv_ghosts(comm, right_of(comm), TAG_COMM, x, base + nl..base + nl + nr)
}

/// Receive `src`'s ghost positions into `x[slots]`, locking `x` only once
/// they have arrived.
fn recv_ghosts(
    comm: &Comm,
    src: usize,
    tag: Tag,
    x: &View<f64>,
    slots: std::ops::Range<usize>,
) -> MpiResult<()> {
    let mut ghosts = vec![0.0; slots.len()];
    comm.recv_into(Some(src), tag, &mut ghosts)?;
    x.write()[slots].copy_from_slice(&ghosts);
    Ok(())
}
