//! DES-vs-threads differential regression (ISSUE 9 satellite): the
//! committed chaos reproducers — the directed failure shapes pinned down by
//! earlier issues' scenario tests — replayed on both execution backends.
//! The deterministic scheduler is only a valid oracle substrate if it
//! reaches the *same verdict* as the thread-per-rank backend on every
//! schedule the campaign has ever flagged: same completion digest, same
//! typed-error class, never a new hang or panic.
//!
//! Digests are comparable across backends because every workload here is a
//! fixed-iteration Heatdis whose answer is schedule-independent; error
//! *messages* may name a different rank (which victim observes exhaustion
//! first is schedule-dependent), so typed errors are compared by class.

use chaos::{ChaosSchedule, Oracle, RunOutcome, Violation};
use resilience::ExperimentError;
use simmpi::Backend;
use telemetry::export::to_jsonl;

/// The committed reproducer corpus: one spec per failure shape the directed
/// scenario tests (ISSUEs 4 and 6) pinned down.
const REPRODUCERS: &[&str] = &[
    // Single in-band failure, in-place Fenix/KR recovery.
    "strategy=FenixKokkosResilience spares=1 kill(rank=1,site=iter,at=5)",
    // Spare-pool exhaustion: two kills, one spare -> typed error.
    "strategy=FenixVeloc spares=1 kill(rank=1,site=iter,at=3) kill(rank=2,site=iter,at=6)",
    // Concurrent buddy-pair loss: unrecoverable for buddy IMR...
    "strategy=FenixImr spares=2 kill(rank=0,site=iter,at=5) kill(rank=1,site=iter,at=5)",
    // ...but recovered exactly by the redundancy tier.
    "strategy=FenixRedstore spares=2 kill(rank=0,site=iter,at=5) kill(rank=1,site=iter,at=5)",
    // Relaunch-based recovery (abort, teardown, restart from PFS).
    "strategy=VelocOnly spares=0 kill(rank=1,site=iter,at=4)",
    // Kill on the final commit: the restart agreement must not land on the
    // last iteration's version (relaunch and in-place entry of the KR body).
    "strategy=FenixKokkosResilience spares=1 kill(rank=1,site=commit,at=11)",
    "strategy=KokkosResilience spares=0 kill(rank=1,site=commit,at=11)",
    // Clean run: both backends must complete and agree with the baseline.
    "strategy=FenixKokkosResilience spares=1",
];

/// Verdict comparison key: completion digest exactly; typed errors by
/// variant; violations verbatim (any violation is already a failure). The
/// resume point is left out: the thread engine flushes in the background,
/// so the newest version on the PFS when a kill lands — and with it where
/// the job resumes — may legitimately differ from DES.
fn verdict_class(v: &Result<RunOutcome, Violation>) -> String {
    match v {
        Ok(RunOutcome::Completed { digest, .. }) => format!("completed:{digest}"),
        Ok(RunOutcome::TypedError(ExperimentError::RankFailed { .. })) => {
            "typed:rank-failed".into()
        }
        Ok(RunOutcome::TypedError(ExperimentError::RelaunchLimit { .. })) => {
            "typed:relaunch-limit".into()
        }
        Err(v) => format!("violation:{v}"),
    }
}

#[test]
fn des_and_threads_agree_on_every_committed_reproducer() {
    let threads = Oracle::new();
    let des = Oracle::with_backend(Backend::Des { seed: 0x5eed });
    for spec in REPRODUCERS {
        let sched = ChaosSchedule::parse(spec).expect("committed spec parses");
        let t = threads.run(&sched);
        let d = des.run(&sched);
        assert!(
            !matches!(d.verdict, Err(Violation::Hang) | Err(Violation::Panic(_))),
            "DES backend hung or panicked on committed reproducer {spec:?}: {:?}",
            d.verdict
        );
        assert_eq!(
            verdict_class(&t.verdict),
            verdict_class(&d.verdict),
            "backends disagree on {spec:?}\n  threads: {:?}\n  des: {:?}",
            t.verdict,
            d.verdict
        );
    }
}

/// The DES oracle itself is deterministic: the same seed replays the same
/// schedule to the same verdict *and* the same telemetry timeline, byte
/// for byte — this is what makes a chaos finding a reproducer at all.
#[test]
fn des_oracle_replay_is_bitwise_identical() {
    let spec =
        "strategy=FenixVeloc spares=1 kill(rank=1,site=iter,at=3) kill(rank=2,site=iter,at=6)";
    let sched = ChaosSchedule::parse(spec).expect("spec parses");
    let oracle = Oracle::with_backend(Backend::Des { seed: 42 });
    let a = oracle.run(&sched);
    let b = oracle.run(&sched);
    assert_eq!(verdict_class(&a.verdict), verdict_class(&b.verdict));
    assert_eq!(
        to_jsonl(&a.snapshot),
        to_jsonl(&b.snapshot),
        "same seed must replay an identical timeline"
    );
}
