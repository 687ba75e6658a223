//! MiniMD: a miniature of Sandia's molecular-dynamics mini-app.
//!
//! Lennard-Jones atoms on an FCC lattice, velocity-Verlet integration,
//! binned neighbor lists rebuilt every `neigh_every` steps, and 1-D slab
//! decomposition with atom migration and ghost halos. The timestep is
//! instrumented into the paper's Figure 6 phases:
//!
//! * **Force Compute** — LJ forces + integrator halves (compute-bound);
//! * **Neighboring** — binning and neighbor-list builds (mostly local);
//! * **Communicator** — ghost updates, atom exchange, border setup
//!   (communication-bound).
//!
//! All state lives in the [`views::ViewSet`] inventory (61 view objects: 39
//! checkpointed allocations, 3 swap-space aliases, 19 per-module duplicate
//! handles), reproducing the paper's Figure 7 statistics. Neighbor lists are
//! kept in canonical (atom-id) order so recovered runs are bitwise-identical
//! to uninterrupted ones.

pub mod atoms;
pub mod exchange;
pub mod force;
pub mod neighbor;
pub mod views;

use std::sync::Arc;

use kokkos::capture::Checkpointable;
use resilience::{Bookkeeper, IterativeApp, RankApp, RunMode};
use simmpi::{Comm, MpiResult, Phase, RankCtx};

use atoms::{generate_slab_atoms, lattice_constant, Slab, DENSITY};
use exchange::CommPlan;
use neighbor::BinGrid;
use views::{Capacities, ViewSet, ALIAS_LABELS};

/// MiniMD problem description.
#[derive(Clone, Debug)]
pub struct MiniMd {
    /// FCC unit cells per rank: `[x-layers, y, z]` (weak scaling keeps this
    /// fixed and adds ranks).
    pub cells: [usize; 3],
    /// Neighbor-list rebuild interval: 5, where MiniMD's default is 20.
    /// [`IterativeApp::checkpoint_filter`] rounds the checkpoint interval
    /// up to a multiple of it (a restored run must resume on a rebuild
    /// step), so it is also the finest checkpoint spacing: at 20 the 20-
    /// and 40-step runs of the tests and the benchmark would checkpoint at
    /// most once and twice.
    pub neigh_every: u64,
    pub dt: f64,
    pub mode: RunMode,
}

impl MiniMd {
    pub fn new(cells: [usize; 3], iterations: u64) -> Self {
        MiniMd {
            cells,
            neigh_every: 5,
            dt: 0.005,
            mode: RunMode::FixedIterations(iterations),
        }
    }

    /// Atoms each rank owns initially.
    pub fn atoms_per_rank(&self) -> usize {
        4 * self.cells[0] * self.cells[1] * self.cells[2]
    }
}

impl IterativeApp for MiniMd {
    fn name(&self) -> &str {
        "minimd"
    }

    fn mode(&self) -> RunMode {
        self.mode
    }

    fn alias_labels(&self) -> Vec<String> {
        ALIAS_LABELS.iter().map(|s| s.to_string()).collect()
    }

    /// Checkpoints must land so that the resume step (`version + 1`) is a
    /// neighbor-rebuild step: the rebuild reconstructs ghosts and the
    /// communication plan collectively, which is what makes the detection
    /// re-execution after a restore well-defined (message sizes are
    /// state-dependent between rebuilds). Production MD codes write restart
    /// files at reneighboring boundaries for the same reason.
    fn checkpoint_filter(&self, checkpoints: u64) -> kokkos_resilience::CheckpointFilter {
        let iters = self.mode.max_iterations();
        let raw = (iters / checkpoints.max(1)).max(1);
        let ne = self.neigh_every.max(1);
        // Round the interval up to a multiple of neigh_every; EveryN(k·ne)
        // fires at i with (i+1) divisible by ne.
        let aligned = raw.div_ceil(ne) * ne;
        kokkos_resilience::CheckpointFilter::EveryN(aligned)
    }

    fn init_rank(&self, _ctx: &RankCtx, comm: &Comm) -> Box<dyn RankApp> {
        Box::new(self.state_for(comm))
    }
}

impl MiniMd {
    /// Build one rank's concrete state (used directly by tests and the
    /// harness; `init_rank` wraps it as a trait object).
    pub fn state_for(&self, comm: &Comm) -> MiniMdState {
        let slab = Slab::new(comm.rank(), comm.size(), self.cells);
        let cutforce = 2.5f64;
        let skin = 0.3f64;
        let cutneigh = cutforce + skin;
        let grid = BinGrid::new(&slab, cutneigh);
        let bin_cap = grid.suggested_bin_cap(DENSITY) * 2; // ghosts double local density at edges
        let caps = Capacities::for_problem(self.atoms_per_rank(), grid.total_bins(), bin_cap);
        let vs = ViewSet::new(&caps);

        // Physical parameters.
        {
            vs.dt.write_uncaptured()[0] = self.dt;
            vs.cutsq_force.write_uncaptured()[0] = cutforce * cutforce;
            vs.cutsq_neigh.write_uncaptured()[0] = cutneigh * cutneigh;
            vs.skin.write_uncaptured()[0] = skin;
            vs.lattice.write_uncaptured()[0] = lattice_constant();
            vs.density.write_uncaptured()[0] = DENSITY;
            vs.mass.write_uncaptured()[0] = 1.0;
            vs.epsilon.write_uncaptured()[0] = 1.0;
            vs.sigma.write_uncaptured()[0] = 1.0;
            vs.lj1.write_uncaptured()[0] = 48.0;
            vs.lj2.write_uncaptured()[0] = 24.0;
            vs.temp_init.write_uncaptured()[0] = 1.44;
            vs.cut_buffer.write_uncaptured()[0] = skin * 0.5;
            vs.seed.write_uncaptured()[0] = 87_287;
            vs.neigh_every.write_uncaptured()[0] = self.neigh_every;
            vs.thermo_every.write_uncaptured()[0] = 10;
            {
                let mut lim = vs.limits.write_uncaptured();
                lim[0] = caps.maxneigh as u64;
                lim[1] = caps.bin_cap as u64;
            }
            {
                let mut nb = vs.nbins_dims.write_uncaptured();
                nb[0] = grid.nbx as u64;
                nb[1] = grid.nby as u64;
                nb[2] = grid.nbz as u64;
            }
            vs.natoms_global.write_uncaptured()[0] = (self.atoms_per_rank() * comm.size()) as u64;
            {
                let mut bb = vs.box_bounds.write_uncaptured();
                bb.copy_from_slice(&[
                    0.0,
                    slab.global[0],
                    0.0,
                    slab.global[1],
                    0.0,
                    slab.global[2],
                ]);
            }
        }

        // Atoms.
        let init = generate_slab_atoms(comm.rank(), comm.size(), self.cells);
        {
            let mut x = vs.x.write_uncaptured();
            let mut v = vs.v.write_uncaptured();
            let mut id = vs.id.write_uncaptured();
            for (i, a) in init.iter().enumerate() {
                x[3 * i..3 * i + 3].copy_from_slice(&a.pos);
                v[3 * i..3 * i + 3].copy_from_slice(&a.vel);
                id[i] = a.id;
            }
            vs.counts.write_uncaptured()[0] = init.len() as u64;
        }

        MiniMdState {
            vs,
            caps,
            slab,
            grid,
            cutneigh,
        }
    }
}

/// Per-rank MiniMD state.
pub struct MiniMdState {
    vs: ViewSet,
    caps: Capacities,
    slab: Slab,
    grid: BinGrid,
    cutneigh: f64,
}

impl MiniMdState {
    fn nlocal(&self) -> usize {
        self.vs.counts.read_uncaptured()[0] as usize
    }

    /// Public access to the view inventory (harness statistics).
    pub fn views(&self) -> &ViewSet {
        &self.vs
    }

    /// Acquire every view handle once, modelling the captures the C++
    /// compiler copies into the checkpoint lambda. This is what makes the
    /// full 61-object inventory visible to automatic detection, whichever
    /// iteration the detection pass lands on.
    fn capture_footprint(&self) {
        let vs = &self.vs;
        let _ = vs.x.read();
        let _ = vs.v.read();
        let _ = vs.f.read();
        let _ = vs.id.read();
        let _ = vs.counts.read();
        let _ = vs.x_swap.read();
        let _ = vs.v_swap.read();
        let _ = vs.f_swap.read();
        let _ = vs.bin_count.read();
        let _ = vs.bin_atoms.read();
        let _ = vs.neigh_count.read();
        let _ = vs.neigh_list.read();
        let _ = vs.border_left.read();
        let _ = vs.border_right.read();
        let _ = vs.border_counts.read();
        let _ = vs.shifts.read();
        let _ = vs.box_bounds.read();
        let _ = vs.dt.read();
        let _ = vs.cutsq_force.read();
        let _ = vs.cutsq_neigh.read();
        let _ = vs.skin.read();
        let _ = vs.lattice.read();
        let _ = vs.density.read();
        let _ = vs.mass.read();
        let _ = vs.epsilon.read();
        let _ = vs.sigma.read();
        let _ = vs.lj1.read();
        let _ = vs.lj2.read();
        let _ = vs.temp_init.read();
        let _ = vs.cut_buffer.read();
        let _ = vs.seed.read();
        let _ = vs.neigh_every.read();
        let _ = vs.thermo_every.read();
        let _ = vs.limits.read();
        let _ = vs.nbins_dims.read();
        let _ = vs.natoms_global.read();
        let _ = vs.timestep_count.read();
        let _ = vs.pe.read();
        let _ = vs.ke.read();
        let _ = vs.temp.read();
        let _ = vs.virial.read();
        let _ = vs.pressure.read();
        // Module-held duplicates.
        let _ = vs.force_x.read();
        let _ = vs.force_f.read();
        let _ = vs.force_neigh_count.read();
        let _ = vs.force_neigh_list.read();
        let _ = vs.force_cutsq.read();
        let _ = vs.force_lj1.read();
        let _ = vs.force_lj2.read();
        let _ = vs.neigh_x.read();
        let _ = vs.neigh_bin_count.read();
        let _ = vs.neigh_bin_atoms.read();
        let _ = vs.neigh_ncount.read();
        let _ = vs.neigh_nlist.read();
        let _ = vs.neigh_cutsq.read();
        let _ = vs.comm_x.read();
        let _ = vs.comm_border_left.read();
        let _ = vs.comm_border_right.read();
        let _ = vs.comm_border_counts.read();
        let _ = vs.comm_shifts.read();
        let _ = vs.integ_v.read();
    }

    /// Load the communication plan from its views.
    fn load_plan(&self) -> CommPlan {
        let counts = self.vs.comm_border_counts.read();
        let shifts = self.vs.comm_shifts.read();
        let bl = self.vs.comm_border_left.read();
        let br = self.vs.comm_border_right.read();
        CommPlan {
            send_left: bl[..counts[0] as usize].to_vec(),
            send_right: br[..counts[1] as usize].to_vec(),
            shift_left: shifts[0],
            shift_right: shifts[1],
            nghost_left: counts[2] as usize,
            nghost_right: counts[3] as usize,
        }
    }

    /// Store a freshly built plan into its views.
    fn store_plan(&self, plan: &CommPlan) {
        {
            let mut bl = self.vs.comm_border_left.write();
            bl[..plan.send_left.len()].copy_from_slice(&plan.send_left);
        }
        {
            let mut br = self.vs.comm_border_right.write();
            br[..plan.send_right.len()].copy_from_slice(&plan.send_right);
        }
        {
            let mut c = self.vs.comm_border_counts.write();
            c[0] = plan.send_left.len() as u64;
            c[1] = plan.send_right.len() as u64;
            c[2] = plan.nghost_left as u64;
            c[3] = plan.nghost_right as u64;
        }
        {
            let mut s = self.vs.comm_shifts.write();
            s[0] = plan.shift_left;
            s[1] = plan.shift_right;
        }
    }

    /// Rebuild step: migrate atoms, set up borders, rebuild neighbor lists.
    fn rebuild(&mut self, comm: &Comm, step: u64, bk: &Bookkeeper) -> MpiResult<()> {
        let nlocal = self.nlocal();
        bk.book(Phase::Communicator, || -> MpiResult<()> {
            // Stage into the swap space (the temporary buffers the paper's
            // alias views accommodate).
            {
                let x = self.vs.x.read();
                let mut xs = self.vs.x_swap.write();
                xs.copy_from_slice(&x);
            }
            {
                let v = self.vs.v.read();
                let mut vsw = self.vs.v_swap.write();
                vsw.copy_from_slice(&v);
            }
            {
                let f = self.vs.f.read();
                let mut fs = self.vs.f_swap.write();
                fs.copy_from_slice(&f);
            }

            let mut x = self.vs.comm_x.write();
            let mut v = self.vs.v.write();
            let mut id = self.vs.id.write();
            exchange::pbc(&self.slab, &mut x, nlocal);
            let new_nlocal =
                exchange::exchange_atoms(comm, &self.slab, &mut x, &mut v, &mut id, nlocal)?;
            assert!(new_nlocal <= self.caps.nmax, "owned capacity exceeded");
            let plan = exchange::setup_borders(
                comm,
                &self.slab,
                self.cutneigh,
                &mut x,
                &mut id,
                new_nlocal,
            )?;
            drop((x, v, id));
            self.store_plan(&plan);
            let mut counts = self.vs.counts.write();
            counts[0] = new_nlocal as u64;
            counts[1] = plan.nghost_left as u64;
            counts[2] = plan.nghost_right as u64;
            counts[3] = step;
            Ok(())
        })?;

        bk.book(Phase::Neighboring, || self.rebuild_neighbors());
        Ok(())
    }

    /// Re-bin all atoms and rebuild the neighbor lists from the current
    /// positions and communication plan.
    fn rebuild_neighbors(&mut self) {
        let nlocal = self.nlocal();
        let plan = self.load_plan();
        let nall = nlocal + plan.nghost();
        let x = self.vs.neigh_x.read();
        let id = self.vs.id.read();
        let cutsq = self.vs.neigh_cutsq.read()[0];
        let mut bc = self.vs.neigh_bin_count.write();
        let mut ba = self.vs.neigh_bin_atoms.write();
        neighbor::build_bins(&self.grid, &x, nall, &mut bc, &mut ba, self.caps.bin_cap);
        let mut ncount = self.vs.neigh_ncount.write();
        let mut nlist = self.vs.neigh_nlist.write();
        neighbor::build_neighbors(
            &self.slab,
            &x,
            &id,
            nlocal,
            nall,
            cutsq,
            &mut ncount,
            &mut nlist,
            self.caps.maxneigh,
        );
    }

    /// Recompute forces from current positions and neighbor lists.
    /// Does not touch velocities — also used to re-derive `f` after a
    /// checkpoint restore.
    fn compute_forces(&mut self) -> f64 {
        let nlocal = self.nlocal();
        let x = self.vs.force_x.read();
        let nc = self.vs.force_neigh_count.read();
        let nl = self.vs.force_neigh_list.read();
        let cutsq = self.vs.force_cutsq.read()[0];
        let _lj1 = self.vs.force_lj1.read()[0];
        let _lj2 = self.vs.force_lj2.read()[0];
        let mut f = self.vs.force_f.write();
        let pe = force::compute_lj(
            &self.slab,
            &x,
            nlocal,
            &nc,
            &nl,
            self.caps.maxneigh,
            cutsq,
            &mut f,
        );
        drop((x, nc, nl, f));
        self.vs.pe.write()[0] = pe;
        pe
    }

    /// Force computation + second Verlet half + thermo bookkeeping.
    fn forces(&mut self, step: u64, bk: &Bookkeeper) {
        bk.book(Phase::ForceCompute, || {
            let pe = self.compute_forces();
            let nlocal = self.nlocal();
            let dt = self.vs.dt.read()[0];
            let f = self.vs.f.read();
            let mut v = self.vs.integ_v.write();
            force::final_integrate(&mut v, &f, nlocal, dt);

            let thermo_every = self.vs.thermo_every.read()[0].max(1);
            if step.is_multiple_of(thermo_every) {
                let ke = force::kinetic_energy(&v, nlocal);
                self.vs.ke.write()[0] = ke;
                self.vs.temp.write()[0] = 2.0 * ke / (3.0 * nlocal.max(1) as f64);
                self.vs.virial.write()[0] = pe; // proxy diagnostic
                self.vs.pressure.write()[0] =
                    DENSITY * (2.0 * ke / (3.0 * nlocal.max(1) as f64)) + pe / 3.0;
            }
            self.vs.timestep_count.write()[0] = step + 1;
        });
    }
}

impl RankApp for MiniMdState {
    fn step(&mut self, comm: &Comm, iteration: u64, bk: &Bookkeeper) -> MpiResult<()> {
        self.capture_footprint();
        let dt = self.vs.dt.read()[0];
        let neigh_every = self.vs.neigh_every.read()[0].max(1);
        let nlocal = self.nlocal();

        // First Verlet half.
        bk.book(Phase::ForceCompute, || {
            let mut x = self.vs.x.write();
            let mut v = self.vs.integ_v.write();
            let f = self.vs.f.read();
            force::initial_integrate(&mut x, &mut v, &f, nlocal, dt);
        });

        if iteration.is_multiple_of(neigh_every) {
            self.rebuild(comm, iteration, bk)?;
        } else {
            bk.book(Phase::Communicator, || -> MpiResult<()> {
                let plan = self.load_plan();
                let mut x = self.vs.comm_x.write();
                exchange::communicate(comm, &plan, &mut x, self.nlocal())
            })?;
        }

        self.forces(iteration, bk);
        Ok(())
    }

    fn checkpoint_views(&self) -> Vec<Arc<dyn Checkpointable>> {
        vec![
            Arc::new(self.vs.x.clone()),
            Arc::new(self.vs.v.clone()),
            Arc::new(self.vs.id.clone()),
            Arc::new(self.vs.counts.clone()),
        ]
    }

    fn post_restore(&mut self, comm: &Comm, bk: &Bookkeeper) -> MpiResult<()> {
        // Manual-strategy restores reinstate x/v/id/counts only; ghosts,
        // neighbor lists, and forces are derived state rebuilt here.
        //
        // Positions are used exactly as restored — no wrapping and no atom
        // migration, because the reference timeline performs those only at
        // rebuild steps and early wrapping perturbs float bits. Checkpoints
        // are aligned so the *next* step is a rebuild step (like production
        // MD restart files, written at reneighboring boundaries); the skin
        // guarantees the fresh ghost shell and neighbor lists cover every
        // pair within the force cutoff. The restored velocities already
        // include both Verlet halves, so forces are recomputed *without*
        // integrating. All of it is recovery work.
        bk.set_phase_override(Some(Phase::DataRecovery));
        let result = (|| -> MpiResult<()> {
            let nlocal = self.nlocal();
            let plan = {
                let mut x = self.vs.comm_x.write();
                let mut id = self.vs.id.write();
                exchange::setup_borders(comm, &self.slab, self.cutneigh, &mut x, &mut id, nlocal)?
            };
            self.store_plan(&plan);
            {
                let mut counts = self.vs.counts.write();
                counts[1] = plan.nghost_left as u64;
                counts[2] = plan.nghost_right as u64;
            }
            self.rebuild_neighbors();
            self.compute_forces();
            Ok(())
        })();
        bk.set_phase_override(None);
        result
    }

    fn digest(&self) -> u64 {
        let nlocal = self.nlocal();
        let x = self.vs.x.read_uncaptured();
        let v = self.vs.v.read_uncaptured();
        let id = self.vs.id.read_uncaptured();
        let mut acc = 0u64;
        for i in 0..nlocal {
            let mut h = id[i].wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for k in 0..3 {
                h = h
                    .wrapping_mul(31)
                    .wrapping_add(x[3 * i + k].to_bits())
                    .wrapping_mul(31)
                    .wrapping_add(v[3 * i + k].to_bits());
            }
            acc = acc.wrapping_add(h); // order-independent
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_per_rank_counts_fcc() {
        let app = MiniMd::new([2, 3, 4], 10);
        assert_eq!(app.atoms_per_rank(), 96);
    }

    #[test]
    fn alias_labels_match_viewset() {
        let app = MiniMd::new([2, 2, 2], 10);
        assert_eq!(app.alias_labels().len(), 3);
    }
}
