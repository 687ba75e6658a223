//! Heatdis: the VeloC heat-distribution benchmark on Kokkos views.
//!
//! A 2-D grid with a hot strip along the top boundary relaxes by Jacobi
//! iteration. Rows are block-distributed across ranks; every iteration
//! exchanges one halo row with each neighbor and sweeps the local block.
//! Two full-size buffers are used (`heat_primary`, `heat_scratch`); only the
//! primary is checkpointed, so — like the paper's configuration — each
//! checkpoint is half the application's data. The scratch buffer is declared
//! a Kokkos Resilience *alias* so automatic capture excludes it.
//!
//! The sweep ([`jacobi_sweep_in_place`]) updates the primary in place and
//! needs only two rows of the scratch buffer, to carry the old rows it still
//! reads. The scratch buffer stays full size all the same: it is the second
//! half of the application data (the per-rank size, and so the row count,
//! counts both buffers), and writing it every step is what makes capture see
//! it and classify it as the alias, as the paper's Heatdis does.

mod stencil;

use std::sync::Arc;

use kokkos::capture::Checkpointable;
use kokkos::View;
use resilience::{Bookkeeper, IterativeApp, RankApp, RunMode};
use simmpi::{Comm, MpiResult, Phase, RankCtx, ReduceOp};

pub use stencil::{jacobi_sweep_in_place, jacobi_sweep_reference, SweepResult};

/// Temperature of the heat source along the global top edge.
pub const SOURCE_TEMP: f64 = 100.0;

/// Heatdis application descriptor.
#[derive(Clone, Debug)]
pub struct Heatdis {
    /// Application data per rank, in bytes (both buffers together), like
    /// the paper's "configurable per-node application data size".
    pub per_rank_bytes: usize,
    /// Grid columns (row length). Rows are derived from the data size.
    pub cols: usize,
    pub mode: RunMode,
    /// Convergence threshold on the global max cell change (converging
    /// variant only).
    pub eps: f64,
}

impl Heatdis {
    /// Fixed-iteration variant (the paper's default Heatdis).
    pub fn fixed(per_rank_bytes: usize, cols: usize, iterations: u64) -> Self {
        Heatdis {
            per_rank_bytes,
            cols,
            mode: RunMode::FixedIterations(iterations),
            eps: 5e-2,
        }
    }

    /// Converge-until-threshold variant ("modified … to run until data
    /// convergence", used for partial rollback).
    pub fn converging(per_rank_bytes: usize, cols: usize, max_iterations: u64) -> Self {
        Heatdis {
            per_rank_bytes,
            cols,
            mode: RunMode::Converge {
                check_every: 8,
                max_iterations,
            },
            eps: 5e-2,
        }
    }

    /// Adjust the convergence threshold.
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Rows each rank owns (excluding halo rows).
    pub fn rows_per_rank(&self) -> usize {
        // Two f64 buffers of rows×cols must fit in per_rank_bytes.
        (self.per_rank_bytes / (2 * 8 * self.cols)).max(2)
    }
}

impl IterativeApp for Heatdis {
    fn name(&self) -> &str {
        "heatdis"
    }

    fn mode(&self) -> RunMode {
        self.mode
    }

    fn alias_labels(&self) -> Vec<String> {
        // The swap buffer holds no independent state; checkpoints stay at
        // half the application data under automatic capture too.
        vec!["heat_scratch".into()]
    }

    fn init_rank(&self, _ctx: &RankCtx, comm: &Comm) -> Box<dyn RankApp> {
        Box::new(self.state_for(comm))
    }
}

impl Heatdis {
    /// Build one rank's concrete state (tests and harness use this
    /// directly; `init_rank` wraps it as a trait object).
    pub fn state_for(&self, comm: &Comm) -> HeatdisState {
        let rows = self.rows_per_rank();
        let cols = self.cols;
        // Owned rows plus one halo row on each side.
        let primary: View<f64> = View::new_2d("heat_primary", rows + 2, cols);
        let scratch: View<f64> = View::new_2d("heat_scratch", rows + 2, cols);
        let state = HeatdisState {
            primary,
            scratch,
            rows,
            cols,
            rank: comm.rank(),
            size: comm.size(),
            last_delta: f64::INFINITY,
            eps: self.eps,
        };
        state.apply_boundary();
        state
    }
}

/// Per-rank Heatdis state.
pub struct HeatdisState {
    /// Checkpointed temperature field (with halo rows 0 and rows+1).
    primary: View<f64>,
    /// Swap buffer — declared as an alias, never checkpointed.
    scratch: View<f64>,
    rows: usize,
    cols: usize,
    rank: usize,
    size: usize,
    last_delta: f64,
    eps: f64,
}

impl HeatdisState {
    /// The first global row this rank owns.
    fn first_global_row(&self) -> usize {
        self.rank * self.rows
    }

    /// Impose the heat source: the first two global rows are held at
    /// `SOURCE_TEMP` (matching the VeloC benchmark's hot strip).
    fn apply_boundary(&self) {
        if self.first_global_row() < 2 {
            let local_hot_rows = (2 - self.first_global_row()).min(self.rows);
            let mut p = self.primary.write_uncaptured();
            for r in 1..=local_hot_rows {
                for c in 0..self.cols {
                    p[r * self.cols + c] = SOURCE_TEMP;
                }
            }
        }
    }

    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }

    /// This rank's owned rows (halo rows excluded), row-major.
    pub fn owned_field(&self) -> Vec<f64> {
        let p = self.primary.read_uncaptured();
        p[self.cols..(self.rows + 1) * self.cols].to_vec()
    }

    /// Exchange halo rows with the neighbor above and below.
    fn halo_exchange(&self, comm: &Comm) -> MpiResult<()> {
        let cols = self.cols;
        let up = self.rank.checked_sub(1);
        let down = (self.rank + 1 < self.size).then_some(self.rank + 1);

        let (top_row, bottom_row) = {
            let p = self.primary.read();
            (
                p[cols..2 * cols].to_vec(),
                p[self.rows * cols..(self.rows + 1) * cols].to_vec(),
            )
        };

        // Two phases ordered so matching sends/recvs pair up: first send
        // down / receive from up, then send up / receive from down.
        let mut from_up = vec![0.0f64; cols];
        let mut from_down = vec![0.0f64; cols];
        if let Some(d) = down {
            comm.send(d, 11, &bottom_row)?;
        }
        if let Some(u) = up {
            comm.recv_into(Some(u), 11, &mut from_up)?;
            comm.send(u, 12, &top_row)?;
        }
        if let Some(d) = down {
            comm.recv_into(Some(d), 12, &mut from_down)?;
        }

        let mut p = self.primary.write();
        if up.is_some() {
            p[0..cols].copy_from_slice(&from_up);
        } else {
            // Physical boundary: mirror (insulated edge).
            let row1: Vec<f64> = p[cols..2 * cols].to_vec();
            p[0..cols].copy_from_slice(&row1);
        }
        if down.is_some() {
            p[(self.rows + 1) * cols..(self.rows + 2) * cols].copy_from_slice(&from_down);
        } else {
            let last: Vec<f64> = p[self.rows * cols..(self.rows + 1) * cols].to_vec();
            p[(self.rows + 1) * cols..(self.rows + 2) * cols].copy_from_slice(&last);
        }
        Ok(())
    }
}

impl RankApp for HeatdisState {
    fn step(&mut self, comm: &Comm, _iteration: u64, bk: &Bookkeeper) -> MpiResult<()> {
        bk.book(Phase::AppMpi, || self.halo_exchange(comm))?;

        let delta = bk.book(Phase::AppCompute, || {
            let result = {
                let mut p = self.primary.write();
                let mut s = self.scratch.write();
                jacobi_sweep_in_place(&mut p, &mut s[..2 * self.cols], self.rows, self.cols)
            };
            self.apply_boundary();
            result.max_delta
        });
        self.last_delta = delta;
        Ok(())
    }

    fn checkpoint_views(&self) -> Vec<Arc<dyn Checkpointable>> {
        // Only the primary buffer: checkpoints are half the app data.
        vec![Arc::new(self.primary.clone())]
    }

    fn converged(&mut self, comm: &Comm, bk: &Bookkeeper) -> MpiResult<bool> {
        let global = bk.book(Phase::AppMpi, || {
            comm.allreduce_scalar(self.last_delta, ReduceOp::Max)
        })?;
        Ok(global < self.eps)
    }

    fn digest(&self) -> u64 {
        self.primary.read_uncaptured().iter().fold(0u64, |acc, x| {
            acc.wrapping_mul(1099511628211).wrapping_add(x.to_bits())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_per_rank_from_bytes() {
        let app = Heatdis::fixed(2 * 8 * 128 * 50, 128, 10);
        assert_eq!(app.rows_per_rank(), 50);
    }

    #[test]
    fn rows_per_rank_has_floor() {
        let app = Heatdis::fixed(16, 128, 10);
        assert_eq!(app.rows_per_rank(), 2);
    }

    #[test]
    fn converging_mode_bounds() {
        let app = Heatdis::converging(1 << 16, 64, 500);
        assert_eq!(app.mode().max_iterations(), 500);
    }
}
