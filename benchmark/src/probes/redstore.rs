//! `redstore`: the codec at one rank's frame size, in the mode a run on
//! this workload's communicator selects.

use std::hint::black_box;

use redstore::codec::{rs_decode, rs_encode, xor_decode, xor_encode};
use redstore::RedundancyMode;

use super::{reps_for, Probe};

pub fn run(p: &mut Probe, ckpt_bytes: usize) -> Result<(), String> {
    // The node of each active rank, as the resilient communicator sees it.
    let nodes: Vec<usize> = (0..p.w.active).map(|r| r / p.w.ranks_per_node).collect();
    let mode = RedundancyMode::auto(&nodes)
        .ok_or("redstore probe: no redundancy mode fits the workload's communicator")?;
    let payload: Vec<u8> = (0..ckpt_bytes).map(|i| (i * 31 + 7) as u8).collect();
    let reps = reps_for(ckpt_bytes);
    let codec_err = |e| format!("redstore probe ({}): {e}", mode.to_spec());

    // Encode once outside the timed loop to build the erased shard sets.
    let (encode, reconstruct) = match mode {
        // Mirroring has no codec: a replica is the payload itself, and the
        // store frames it on its way into simmpi, which the run spans hold.
        RedundancyMode::Replicate { .. } => (0.0, 0.0),
        RedundancyMode::XorParity { width } => {
            let n = width - 1;
            let mut shards: Vec<Option<Vec<u8>>> = xor_encode(&payload, n)
                .map_err(codec_err)?
                .into_iter()
                .map(Some)
                .collect();
            shards[0] = None;
            if xor_decode(&shards, n, ckpt_bytes).map_err(codec_err)? != payload {
                return Err(codec_err(redstore::CodecError::BadGeometry(
                    "decode returned other bytes".into(),
                )));
            }
            let enc = p.rate_mib_s("redstore.encode", ckpt_bytes, reps, || {
                black_box(xor_encode(black_box(&payload), n).ok());
            });
            let dec = p.rate_mib_s("redstore.reconstruct", ckpt_bytes, reps, || {
                black_box(xor_decode(black_box(&shards), n, ckpt_bytes).ok());
            });
            (enc, dec)
        }
        RedundancyMode::ReedSolomon { width, parity } => {
            let n = width - parity;
            let mut shards: Vec<Option<Vec<u8>>> = rs_encode(&payload, n, parity)
                .map_err(codec_err)?
                .into_iter()
                .map(Some)
                .collect();
            // The worst case the mode tolerates: `parity` data shards gone.
            for shard in shards.iter_mut().take(parity.min(n)) {
                *shard = None;
            }
            if rs_decode(&shards, n, parity, ckpt_bytes).map_err(codec_err)? != payload {
                return Err(codec_err(redstore::CodecError::BadGeometry(
                    "decode returned other bytes".into(),
                )));
            }
            let enc = p.rate_mib_s("redstore.encode", ckpt_bytes, reps, || {
                black_box(rs_encode(black_box(&payload), n, parity).ok());
            });
            let dec = p.rate_mib_s("redstore.reconstruct", ckpt_bytes, reps, || {
                black_box(rs_decode(black_box(&shards), n, parity, ckpt_bytes).ok());
            });
            (enc, dec)
        }
    };
    p.out.set("redstore.encode_host_mib_s", encode);
    p.out.set("redstore.reconstruct_host_mib_s", reconstruct);
    Ok(())
}
