//! Properties of the chain-walk restart: for any delta chain, restart of any
//! version restores exactly the state that version captured and accounts for
//! every region; when a frame in the chain is corrupted on both storage
//! tiers, the versions that chain through it fail with the typed error and
//! apply nothing, and the others restore as before.

use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, TimeScale};
use proptest::prelude::*;
use veloc::{Client, Config, Protected, VecRegion, VelocError};

const CHAIN_REGIONS: usize = 3;
const REGION_BYTES: usize = 32 * 1024;
const CHAIN_NAME: &str = "restart-prop";

/// Run `steps` checkpoints over `CHAIN_REGIONS` regions, dirtying the
/// subset given by each step's bool mask. Returns the client, the live
/// regions, and the model state captured after every version (index v-1).
#[allow(clippy::type_complexity)]
fn run_chain(c: &Cluster, steps: &[Vec<bool>]) -> (Client, Vec<VecRegion<u8>>, Vec<Vec<Vec<u8>>>) {
    let client = Client::init(c.clone(), 0, Config { async_flush: false });
    let regions: Vec<VecRegion<u8>> = (0..CHAIN_REGIONS)
        .map(|i| VecRegion::new(vec![i as u8; REGION_BYTES]))
        .collect();
    for (i, r) in regions.iter().enumerate() {
        client.protect(i as u32, Arc::new(r.clone()));
    }
    let mut model = Vec::new();
    for (step, dirty) in steps.iter().enumerate() {
        for (r, d) in regions.iter().zip(dirty) {
            if *d {
                let mut g = r.lock();
                if let Some(b) = g.first_mut() {
                    *b = b.wrapping_add(step as u8 + 1);
                }
            }
        }
        client
            .checkpoint(CHAIN_NAME, (step + 1) as u64)
            .expect("sync checkpoint");
        // `snapshot()` (not `lock()`): capturing the model must not stamp
        // the regions dirty, or every frame would degenerate to full.
        model.push(regions.iter().map(|r| r.snapshot().to_vec()).collect());
    }
    (client, regions, model)
}

fn chain_cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: 1,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    })
}

fn garble(regions: &[VecRegion<u8>]) {
    for r in regions {
        r.lock().fill(0xEE);
    }
}

fn state(regions: &[VecRegion<u8>]) -> Vec<Vec<u8>> {
    regions.iter().map(|r| r.lock().clone()).collect()
}

fn steps_strategy() -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), CHAIN_REGIONS),
        2usize..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Restart of any version of any chain restores that version's state
    /// and accounts for every region.
    #[test]
    fn restart_restores_the_version_it_names(steps in steps_strategy(), pick in 0.0f64..1.0) {
        let c = chain_cluster();
        let (client, regions, model) = run_chain(&c, &steps);
        let v = 1 + ((steps.len() as f64 - 1.0) * pick) as usize; // 1..=n

        garble(&regions);
        let report = client
            .restart_report(CHAIN_NAME, v as u64)
            .expect("restart");
        prop_assert_eq!(&state(&regions), &model[v - 1], "version {} state mismatch", v);
        prop_assert_eq!(report.regions, CHAIN_REGIONS);
        prop_assert_eq!(report.bytes_restored, (CHAIN_REGIONS * REGION_BYTES) as u64);
        prop_assert!((1..=v).contains(&report.frames_walked));
    }
}

#[cfg(not(feature = "chaos-mutants"))]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Corrupting one mid-chain frame on *both* tiers: the versions whose
    /// chain hits the victim fail with the typed error and apply nothing,
    /// the versions whose chain avoids it still restore their exact state.
    #[test]
    fn corrupted_mid_chain_frame_degrades_to_a_typed_error(
        steps in steps_strategy(),
        pick in 0.0f64..1.0,
        pos_frac in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        let c = chain_cluster();
        let (client, regions, model) = run_chain(&c, &steps);
        let n = steps.len() as u64;
        let victim = 1 + ((n as f64 - 1.0) * pick) as u64; // 1..=n
        let path = format!("{CHAIN_NAME}/v{victim}/r0");
        let (blob, _) = c.scratch().read(0, &path).expect("victim exists");
        // One-byte XOR somewhere in the frame: depending on position this
        // breaks the meta (parse fails) or a payload (verify fails) — both
        // must surface as the same Corrupt error.
        let pos = ((blob.len() as f64) * pos_frac) as usize % blob.len();
        let mut raw = blob.to_vec();
        raw[pos] ^= mask;
        let corrupted = bytes::Bytes::from(raw);
        c.scratch().write(0, &path, corrupted.clone());
        c.pfs().write(&path, corrupted);

        for v in 1..=n {
            garble(&regions);
            let outcome = client.restart_report(CHAIN_NAME, v);
            let restored = state(&regions);
            match outcome {
                Ok(report) => {
                    // Chain avoided the victim: full restore, exact state.
                    prop_assert_eq!(report.regions, CHAIN_REGIONS);
                    prop_assert_eq!(&restored, &model[v as usize - 1]);
                }
                Err(VelocError::Corrupt { .. }) => {
                    // Chain hit the victim: typed failure, and the garbled
                    // placeholder state proves no partial apply happened.
                    prop_assert!(restored
                        .iter()
                        .all(|r| r.iter().all(|&b| b == 0xEE)));
                }
                Err(other) => {
                    prop_assert!(false, "unexpected error variant for v{}: {:?}", v, other);
                }
            }
        }
    }
}
