//! Property tests for the checkpoint frame format (`veloc::serial`).
//!
//! The format is the last line of defense between storage-tier corruption
//! and silent wrong answers, so the properties are stated adversarially:
//! every well-formed frame round-trips exactly, and every corrupted or
//! truncated blob either fails *cleanly* (`None`) or is byte-identical to
//! the original — `unpack` never panics and never returns wrong data.

use std::mem::MaybeUninit;
use std::sync::Arc;

use bytes::Bytes;
use cluster::{Cluster, ClusterConfig, TimeScale};
use proptest::prelude::*;
use veloc::serial::{
    copy_crc, crc32, crc32_bitwise, crc32_slice16, pack_frame, unpack, Crc32, FrameBuilder,
};
use veloc::{Client, Config, Protected, VecRegion};

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in proptest::collection::vec(any::<u8>(), 0usize..128),
        framed in any::<bool>(),
    ) {
        // Fully adversarial input — half the cases behind a valid magic, so
        // the meta parser sees them: unpack must return, not panic. When it
        // does accept, re-packing must reproduce the input bit-for-bit —
        // acceptance implies the blob really was well-formed.
        let mut raw = raw;
        if framed && raw.len() >= 4 {
            raw[..4].copy_from_slice(b"VCF2");
        }
        let blob = Bytes::from(raw);
        if let Some(frame) = unpack(&blob) {
            prop_assert_eq!(pack_frame(frame.base_version, &frame.changed, &frame.unchanged), blob);
        }
    }
}

#[cfg(not(feature = "chaos-mutants"))]
proptest! {
    #[test]
    fn crc_detects_any_single_byte_flip(
        data in proptest::collection::vec(any::<u8>(), 1usize..256),
        pos_frac in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        let pos = ((data.len() as f64) * pos_frac) as usize % data.len();
        let mut flipped = data.clone();
        flipped[pos] ^= mask;
        prop_assert_ne!(crc32(&data), crc32(&flipped));
    }
}

// ---------------------------------------------------------------------------
// Both CRC kernels vs the bitwise oracle. `crc32` dispatches on the CPU
// (carry-less multiply where the host has it, else `crc32_slice16`, which
// also finishes every tail); `crc32_bitwise` is the direct IEEE 802.3
// recurrence kept solely as this oracle. All three must agree on every
// input — in particular at the boundaries where folding bugs hide: the
// table's 16-byte step, the hardware kernel's 64-byte block and its
// hand-over to the lane loop and the table tail, and at every alignment of
// the first byte (the hardware kernel loads unaligned). Naming
// `crc32_slice16` here is what exercises the portable kernel on hosts where
// `crc32` never reaches it for long inputs. The running `Crc32` must agree
// over any split of the same input, each piece starting a kernel from a
// register that is not the initial one, and `copy_crc` must copy exactly
// and return the same checksum.
// ---------------------------------------------------------------------------

/// `Crc32` fed `data` in the pieces `cuts` (positions, any order, clamped
/// to the input) split it into.
fn streamed(data: &[u8], cuts: &[usize]) -> u32 {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
    cuts.sort_unstable();
    let ends = cuts.into_iter().chain([data.len()]);
    let (crc, _) = ends.fold((Crc32::new(), 0), |(crc, at), end| {
        (crc.update(&data[at..end]), end)
    });
    crc.finish()
}

/// `copy_crc` of `data` into unwritten capacity: the checksum, and
/// whether the copy it returns is exact.
fn copied(data: &[u8]) -> (u32, bool) {
    let mut dst = vec![MaybeUninit::uninit(); data.len()];
    let (copy, crc) = copy_crc(&mut dst, data);
    (crc, copy == data)
}

/// Deterministic splitmix-style fill: `len` and `seed` shrink cheaply while
/// the bytes stay arbitrary-looking.
fn fill(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn crc_kernels_equal_bitwise(
        seed in any::<u64>(),
        long in 65_537usize..200_000,
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        prop_assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        prop_assert_eq!(crc32_slice16(b"123456789"), 0xCBF4_3926);
        // Every length 0..=1,024 (straddling 16, 64, 128 and 256 many
        // times over) at every start offset 0..16 of one buffer, streamed
        // in three pieces whose cuts move with the length.
        let buf = fill(1024 + 16, seed);
        for off in 0..16 {
            for len in 0..=1024 {
                let data = &buf[off..off + len];
                let want = crc32_bitwise(data);
                prop_assert_eq!(crc32(data), want, "dispatch, off {} len {}", off, len);
                prop_assert_eq!(crc32_slice16(data), want, "slice16, off {} len {}", off, len);
                let split = [seed as usize ^ len, (seed >> 32) as usize + 7 * len];
                prop_assert_eq!(streamed(data, &split), want, "streamed, off {} len {}", off, len);
                prop_assert_eq!(copied(data), (want, true), "copy_crc, off {} len {}", off, len);
            }
        }
        // Past 64 KiB (the size class of the parallel pack and restart
        // paths): many blocks, then whatever lanes and tail `long` leaves.
        let big = fill(long, seed ^ 0x5EED);
        for off in [0, 1, 15] {
            let data = &big[off..];
            let want = crc32_bitwise(data);
            prop_assert_eq!(crc32(data), want, "dispatch, off {} len {}", off, data.len());
            prop_assert_eq!(crc32_slice16(data), want, "slice16, off {} len {}", off, data.len());
            prop_assert_eq!(streamed(data, &cuts), want, "streamed, cuts {:?}", cuts);
            prop_assert_eq!(copied(data), (want, true), "copy_crc, off {} len {}", off, data.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// `copy_crc` into unwritten capacity equals its initialised-slice
    /// oracle, a plain copy into a written buffer and then `crc32` of it, at
    /// and around the boundaries of its 16 KiB copy blocks and at any start
    /// offset of the source.
    #[test]
    fn copy_crc_equals_copy_then_crc_at_block_boundaries(
        seed in any::<u64>(),
        off in 0usize..64,
        blocks in 0usize..4,
        step in 0usize..5,
    ) {
        // 0 to 3 blocks, from two bytes short of the boundary to two over.
        let len = (blocks * (16 << 10) + step).saturating_sub(2);
        let src = fill(off + len, seed);
        let src = &src[off..];
        let mut oracle = vec![0xA5u8; len];
        oracle.copy_from_slice(src);
        prop_assert_eq!(copied(src), (crc32(&oracle), true), "len {}", len);
    }
}

// ---------------------------------------------------------------------------
// VCF2 (incremental frames): structural round-trips, per-sub-frame
// corruption detection, and chain-walk degradation at the client level.
// ---------------------------------------------------------------------------

/// Changed-region strategy for VCF2 frames.
fn changed_strategy() -> impl Strategy<Value = Vec<(u32, Vec<u8>)>> {
    proptest::collection::vec(
        (
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0usize..64),
        ),
        0usize..4,
    )
}

/// Unchanged-id strategy for VCF2 frames.
fn unchanged_strategy() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), 0usize..4)
}

/// A well-formed frame shape: a base version must be present whenever
/// anything is marked unchanged (a full frame claiming unchanged regions
/// is structurally invalid).
fn shape_base(base_raw: u64, full: bool, unchanged: &[u32]) -> Option<u64> {
    if full && unchanged.is_empty() {
        None
    } else {
        Some(base_raw)
    }
}

fn pack_v2(base: Option<u64>, changed: &[(u32, Vec<u8>)], unchanged: &[u32]) -> Bytes {
    let changed: Vec<(u32, Bytes)> = changed
        .iter()
        .map(|(id, p)| (*id, Bytes::from(p.clone())))
        .collect();
    pack_frame(base, &changed, unchanged)
}

proptest! {
    #[test]
    fn vcf2_roundtrip_is_exact(
        base_raw in 0u64..1_000_000,
        changed in changed_strategy(),
        unchanged in unchanged_strategy(),
        full in any::<bool>(),
    ) {
        let base = shape_base(base_raw, full, &unchanged);
        let blob = pack_v2(base, &changed, &unchanged);
        let frame = unpack(&blob).expect("intact frame unpacks");
        prop_assert_eq!(frame.base_version, base);
        prop_assert_eq!(frame.unchanged, unchanged);
        let got: Vec<(u32, Vec<u8>)> = frame
            .changed
            .into_iter()
            .map(|(id, p)| (id, p.to_vec()))
            .collect();
        prop_assert_eq!(got, changed);
    }

    /// The zero-copy writer (slot-filling [`FrameBuilder`]) must emit frames
    /// byte-identical to the copying [`pack_frame`] oracle for the same
    /// inputs — the format is defined once, the obvious way, and the fast
    /// writer is held to it.
    #[test]
    fn frame_builder_matches_pack_frame(
        base_raw in 0u64..1_000_000,
        changed in changed_strategy(),
        unchanged in unchanged_strategy(),
        full in any::<bool>(),
    ) {
        let base = shape_base(base_raw, full, &unchanged);
        let plan: Vec<(u32, usize)> = changed.iter().map(|(id, p)| (*id, p.len())).collect();
        let cluster = Cluster::new(ClusterConfig::default());
        let mut b = FrameBuilder::new(cluster.pool(), base, &plan, &unchanged);
        for (_, p) in &changed {
            prop_assert!(b.put_payload(p));
        }
        prop_assert_eq!(b.seal(), pack_v2(base, &changed, &unchanged));
    }

    #[test]
    fn vcf2_truncation_fails_cleanly(
        base_raw in 0u64..1_000_000,
        changed in changed_strategy(),
        unchanged in unchanged_strategy(),
        full in any::<bool>(),
        frac in 0.0f64..1.0,
    ) {
        let base = shape_base(base_raw, full, &unchanged);
        let blob = pack_v2(base, &changed, &unchanged);
        let cut = ((blob.len() as f64) * frac) as usize;
        let truncated = blob.slice(0..cut.min(blob.len() - 1));
        prop_assert!(unpack(&truncated).is_none());
    }
}

#[cfg(not(feature = "chaos-mutants"))]
proptest! {
    #[test]
    fn vcf2_single_byte_corruption_is_detected(
        base_raw in 0u64..1_000_000,
        changed in changed_strategy(),
        unchanged in unchanged_strategy(),
        full in any::<bool>(),
        pos_frac in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        let base = shape_base(base_raw, full, &unchanged);
        // Every sub-frame is covered: the magic by its comparison, the meta
        // block (base ref, counts, id tables, per-payload CRCs) by the
        // meta CRC, and each payload by its own CRC — so a one-byte XOR
        // anywhere in the blob must be rejected.
        let blob = pack_v2(base, &changed, &unchanged);
        let pos = ((blob.len() as f64) * pos_frac) as usize % blob.len();
        let mut raw = blob.to_vec();
        raw[pos] ^= mask;
        prop_assert!(
            unpack(&Bytes::from(raw)).is_none(),
            "flip at {} undetected", pos
        );
    }
}

// --- chain-walk degradation (client level) ---------------------------------

const CHAIN_REGIONS: usize = 3;
const CHAIN_NAME: &str = "chain-prop";

/// Run `steps` checkpoints over `CHAIN_REGIONS` regions, dirtying the
/// subset given by each step's bool mask. Returns the client, the live
/// regions, and the model state captured after every version (index v-1).
#[allow(clippy::type_complexity)]
fn run_chain(c: &Cluster, steps: &[Vec<bool>]) -> (Client, Vec<VecRegion<u8>>, Vec<Vec<Vec<u8>>>) {
    let client = Client::init(c.clone(), 0, Config { async_flush: false });
    let regions: Vec<VecRegion<u8>> = (0..CHAIN_REGIONS)
        .map(|i| VecRegion::new(vec![i as u8; 16]))
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

/// Versions whose delta chain includes `victim` (including itself).
fn depends_on(c: &Cluster, versions: u64, victim: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for v in 1..=versions {
        let mut cur = v;
        loop {
            if cur == victim {
                out.push(v);
                break;
            }
            let path = format!("{CHAIN_NAME}/v{cur}/r0");
            let Some((blob, _)) = c.scratch().read(0, &path) else {
                break;
            };
            match unpack(&blob).and_then(|f| f.base_version) {
                Some(base) if base < cur => cur = base,
                _ => break,
            }
        }
    }
    out
}

fn steps_strategy() -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), CHAIN_REGIONS),
        2usize..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Delta round-trip equals full state: whatever mix of full and delta
    /// frames the dirty pattern produced, restarting from any version
    /// reproduces exactly the state the application had at that commit.
    #[test]
    fn delta_chain_restores_exact_state(steps in steps_strategy(), pick in 0.0f64..1.0) {
        let c = chain_cluster();
        let (client, regions, model) = run_chain(&c, &steps);
        let v = 1 + ((steps.len() as f64 - 1.0) * pick) as usize; // 1..=n
        for r in &regions {
            r.lock().fill(0xEE);
        }
        client.restart(CHAIN_NAME, v as u64).expect("restart");
        let got: Vec<Vec<u8>> = regions.iter().map(|r| r.lock().clone()).collect();
        prop_assert_eq!(&got, &model[v - 1], "version {} state mismatch", v);
    }
}

#[cfg(not(feature = "chaos-mutants"))]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating one version on both tiers invalidates exactly the
    /// versions whose chain passes through it; the client degrades to the
    /// newest version with an intact chain and restores its exact state.
    #[test]
    fn truncated_chain_degrades_to_newest_intact_base(
        steps in steps_strategy(),
        pick in 0.0f64..1.0,
        keep in 0usize..12,
    ) {
        let c = chain_cluster();
        let (client, regions, model) = run_chain(&c, &steps);
        let n = steps.len() as u64;
        let victim = 1 + ((n as f64 - 1.0) * pick) as u64; // 1..=n
        let broken = depends_on(&c, n, victim);
        let path = format!("{CHAIN_NAME}/v{victim}/r0");
        let (blob, _) = c.scratch().read(0, &path).expect("victim exists");
        let cut = blob.slice(0..keep.min(blob.len() - 1));
        c.scratch().write(0, &path, cut.clone());
        c.pfs().write(&path, cut);

        let expected = (1..=n).filter(|v| !broken.contains(v)).max();
        for v in 1..=n {
            prop_assert_eq!(
                client.version_intact(CHAIN_NAME, v),
                !broken.contains(&v),
                "version {} intactness", v
            );
        }
        prop_assert_eq!(client.latest_intact_version(CHAIN_NAME, u64::MAX), expected);
        if let Some(best) = expected {
            for r in &regions {
                r.lock().fill(0xEE);
            }
            client.restart(CHAIN_NAME, best).expect("degraded restart");
            let got: Vec<Vec<u8>> = regions.iter().map(|r| r.lock().clone()).collect();
            prop_assert_eq!(&got, &model[best as usize - 1]);
        }
    }
}
