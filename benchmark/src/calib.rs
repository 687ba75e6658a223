//! How fast the machine is right now, measured beside every run.
//!
//! The container this benchmark runs in shares its cores with other
//! tenants. For minutes at a time the same pass, same seed, takes 30–70 %
//! longer, with the same context switches and page faults and no steal time:
//! code that keeps the core's execution ports busy (stencils, force loops,
//! thread hand-offs) runs up to twice as slow, while a dependent chain (a
//! table CRC) or a `memcpy` does not move — the signature of a busy sibling
//! hardware thread. No statistic over a run removes a phase that outlasts
//! the run, so the benchmark measures the phase instead: a fixed mix of five
//! small kernels (~55 ms) runs before and after every `try_run_experiment`
//! call, and a run's host time is divided by how much slower than
//! [`NOMINAL_S`] the mix ran around it. What the host metrics report is
//! therefore *seconds on the quiet container*; the raw seconds are printed
//! beside them.
//!
//! The mix is frozen with the benchmark (later changes may not edit this
//! directory) and shares no code with the repository's crates. Three of its
//! kernels slow down in a noisy phase and two do not, in equal shares of
//! time, because the workloads are such mixtures too: dividing by the
//! stencil alone over-corrects `heatdis_scale`, dividing by the CRC
//! corrects nothing (README, "Calibrated host time").

use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Seconds the mix takes on this container while it is quiet (lower
/// quartile of ~3,000 samples taken between runs of all four workloads).
/// Only ratios to it are used, so on another machine the host metrics read
/// as seconds of a quiet phase of *this* one, scaled by a constant.
pub const NOMINAL_S: f64 = 0.055;

/// Grid side of the stencil kernel: two arrays of 8 MiB, past the 2 MiB L2
/// like a Heatdis rank's grid.
const GRID: usize = 1024;
const SWEEPS: usize = 6;
/// Atoms and neighbours per atom of the force kernel (MiniMD's inner loop:
/// gather, distance, cutoff, Lennard-Jones).
const ATOMS: usize = 1 << 13;
const NEIGHBOURS: usize = 40;
const FORCE_ROUNDS: usize = 16;
/// Bytes of the table-driven CRC-32 kernel (one dependent chain) and
/// repetitions of the grid copy (`memcpy` bandwidth): the checkpoint path.
const CRC_BYTES: usize = 4 << 20;
const COPIES: usize = 16;
/// Condvar hand-offs between two threads, each way: the DES baton.
const HANDOFFS: u32 = 1500;

pub struct Calibrator {
    a: Vec<f64>,
    b: Vec<f64>,
    positions: Vec<[f64; 3]>,
    neighbours: Vec<u32>,
    bytes: Vec<u8>,
    crc_table: [u32; 256],
}

impl Calibrator {
    pub fn new() -> Self {
        // xorshift64: the inputs are the same in every process.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let coordinate = |r: u64| (r % 1000) as f64 * 0.01;
        let mut crc_table = [0u32; 256];
        for (i, entry) in crc_table.iter_mut().enumerate() {
            *entry = (0..8).fold(i as u32, |c, _| {
                if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            });
        }
        Calibrator {
            a: (0..GRID * GRID).map(|i| (i % 97) as f64).collect(),
            b: vec![1.0; GRID * GRID],
            positions: (0..ATOMS)
                .map(|_| [coordinate(next()), coordinate(next()), coordinate(next())])
                .collect(),
            neighbours: (0..ATOMS * NEIGHBOURS)
                .map(|_| (next() % ATOMS as u64) as u32)
                .collect(),
            bytes: (0..CRC_BYTES).map(|_| next() as u8).collect(),
            crc_table,
        }
    }

    fn stencil(&mut self, sweeps: usize) {
        for _ in 0..sweeps {
            for r in 1..GRID - 1 {
                for c in 1..GRID - 1 {
                    let i = r * GRID + c;
                    self.b[i] = 0.25
                        * (self.a[i - 1] + self.a[i + 1] + self.a[i - GRID] + self.a[i + GRID]);
                }
            }
            std::mem::swap(&mut self.a, &mut self.b);
        }
        black_box(&self.a);
    }

    fn force(&self, rounds: usize) {
        let mut total = 0.0f64;
        for _ in 0..rounds {
            for (i, p) in self.positions.iter().enumerate() {
                let mut f = [0.0f64; 3];
                for &j in &self.neighbours[i * NEIGHBOURS..(i + 1) * NEIGHBOURS] {
                    let q = self.positions[j as usize];
                    let d = [p[0] - q[0], p[1] - q[1], p[2] - q[2]];
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 0.01;
                    if r2 < 6.25 {
                        let s = 1.0 / r2;
                        let s6 = s * s * s;
                        let k = 48.0 * s6 * (s6 - 0.5) * s;
                        f[0] += d[0] * k;
                        f[1] += d[1] * k;
                        f[2] += d[2] * k;
                    }
                }
                total += f[0] + f[1] + f[2];
            }
        }
        black_box(total);
    }

    fn crc(&self) {
        let mut c = !0u32;
        for &b in &self.bytes {
            c = self.crc_table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        black_box(c);
    }

    fn copy(&mut self) {
        for _ in 0..COPIES {
            self.b.copy_from_slice(&self.a);
            black_box(&self.b);
        }
    }

    fn handoffs(rounds: u32) {
        let here = Arc::new((Mutex::new(0u32), Condvar::new()));
        let there = Arc::clone(&here);
        let partner = std::thread::spawn(move || {
            let (turn, changed) = &*there;
            let mut t = turn.lock().expect("calibration lock");
            for i in 0..rounds {
                while *t != 2 * i + 1 {
                    t = changed.wait(t).expect("calibration lock");
                }
                *t += 1;
                changed.notify_one();
            }
        });
        let (turn, changed) = &*here;
        let mut t = turn.lock().expect("calibration lock");
        for i in 0..rounds {
            *t += 1;
            changed.notify_one();
            while *t != 2 * i + 2 {
                t = changed.wait(t).expect("calibration lock");
            }
        }
        drop(t);
        partner.join().expect("calibration partner");
    }

    /// Seconds the mix takes now; each kernel is about a fifth of it.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        self.stencil(SWEEPS);
        self.force(FORCE_ROUNDS);
        self.crc();
        self.copy();
        Self::handoffs(HANDOFFS);
        t0.elapsed().as_secs_f64()
    }
}

/// How much slower than nominal the machine ran during an interval with a
/// mix sample taken at each end.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / (2.0 * NOMINAL_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_samples_mean_no_slowdown_and_slow_ones_scale() {
        assert_eq!(slowdown(NOMINAL_S, NOMINAL_S), 1.0);
        assert!((slowdown(NOMINAL_S, 2.0 * NOMINAL_S) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn the_mix_takes_tens_of_milliseconds_and_repeats() {
        let mut c = Calibrator::new();
        let first = c.sample();
        let second = c.sample();
        // An order of magnitude either side of nominal covers debug builds
        // and slower machines; the point is that it measures something.
        assert!(
            first > NOMINAL_S / 20.0 && first < NOMINAL_S * 200.0,
            "{first}"
        );
        assert!(second > 0.0);
        // The stencil converges instead of overflowing: values stay finite.
        assert!(c.a.iter().all(|v| v.is_finite()));
    }
}
