//! The paper's two evaluation applications.
//!
//! * [`heatdis`] — the VeloC heat-distribution benchmark, "modified to use
//!   Kokkos for parallelism control": a 2-D Jacobi stencil with row-block
//!   decomposition and halo exchange, in a fixed-iteration variant and a
//!   converge-until-threshold variant (for the partial-rollback
//!   demonstration). Checkpoints contain only the primary grid — half of
//!   the application's data, matching the paper's setup.
//! * [`minimd`] — a faithful miniature of Sandia's MiniMD molecular
//!   dynamics mini-app: FCC-lattice Lennard-Jones atoms, binned neighbor
//!   lists, velocity-Verlet integration, slab decomposition with atom
//!   exchange and ghost halos, instrumented into the paper's three phases
//!   (Force Compute / Neighboring / Communicator), plus the view inventory
//!   (checkpointed / alias / skipped) behind Figure 7.
//!
//! Both implement [`resilience::IterativeApp`], so they run unmodified under
//! every strategy in the matrix.
//!
//! Their three hot kernels — Heatdis's sweep, MiniMD's force loop and its
//! neighbor search — are compiled twice from one safe source: once for any
//! x86-64, and once under `#[target_feature(enable = "avx512f")]`, which
//! each entry point calls where [`kernel`] reads `"avx512f"`
//! (`two_compilations!`). Both produce the same bits; each module's unit
//! tests hold both to the kernel's `_reference` oracle.

// No host clock, threads or blocking waits (clippy.toml) and no hash-order
// iteration on a rank's path (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

/// Defines a kernel compiled twice from one `#[inline(always)]` body: the
/// public `$entry`, which calls the private `$wide`, the body under
/// `#[target_feature(enable = "avx512f")]`, where [`wide`] detects
/// `avx512f`, else the public `$portable`, the body compiled for any CPU.
/// The bodies may differ in a const parameter (the sweep's lane count).
/// For tests, `compilations()` lists every compilation this CPU can run.
macro_rules! two_compilations {
    (
        $(#[$doc:meta])*
        pub fn $entry:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty;
        $(#[$portable_doc:meta])*
        pub fn $portable:ident = $portable_body:path;
        fn $wide:ident = $wide_body:path;
    ) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        pub fn $entry($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            if crate::wide() {
                // SAFETY: `wide()` just confirmed at run time that this CPU
                // has `avx512f`, the one feature the wide body is compiled
                // for.
                return unsafe { $wide($($arg),*) };
            }
            $portable($($arg),*)
        }

        $(#[$portable_doc])*
        #[allow(clippy::too_many_arguments)]
        pub fn $portable($($arg: $ty),*) -> $ret {
            $portable_body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        fn $wide($($arg: $ty),*) -> $ret {
            $wide_body($($arg),*)
        }

        #[cfg(test)]
        #[allow(clippy::type_complexity)]
        fn compilations() -> Vec<(&'static str, fn($($ty),*) -> $ret)> {
            let mut all: Vec<(&'static str, fn($($ty),*) -> $ret)> =
                vec![("portable", $portable)];
            #[cfg(target_arch = "x86_64")]
            if crate::wide() {
                // SAFETY: listed only where `wide()` detected `avx512f`.
                all.push(("avx512f", |$($arg),*| unsafe { $wide($($arg),*) }));
            }
            all
        }
    };
}

pub mod heatdis;
pub mod minimd;

pub use heatdis::Heatdis;
pub use minimd::MiniMd;

/// Which compilation the kernels run on this host: `"avx512f"` or
/// `"portable"`. Recorded beside benchmark numbers.
pub fn kernel() -> &'static str {
    if wide() {
        "avx512f"
    } else {
        "portable"
    }
}

/// Whether this CPU runs the kernels' `avx512f` compilation.
/// `is_x86_feature_detected!` caches its answer, so this is a load and a
/// mask per call.
fn wide() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    return is_x86_feature_detected!("avx512f");
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    false
}
