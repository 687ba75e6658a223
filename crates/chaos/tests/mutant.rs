//! Campaign self-test against the seeded checkpoint-integrity bug.
//!
//! The `chaos-mutants` feature makes `veloc::serial` skip its CRC32
//! comparisons — re-enabling the exact silent-garbage-restore bug the
//! integrity frame was added to close. These tests prove the campaign
//! machinery would have caught that bug: under the mutant a
//! corruption-plus-kill schedule completes with a *wrong* digest (the
//! oracle's divergence verdict), and the shrinker reduces any padded
//! variant back to the two events that matter. The clean-build counterpart
//! proves the same schedule is survivable when the CRC check is in place.
//!
//! Run with: `cargo test -p chaos --features chaos-mutants`

/// The two-event reproducer: corrupt rank 0's scratch copy of version 7 at
/// write time, then kill rank 1 after that checkpoint exists. The job
/// aborts and relaunches; rank 0's node never failed, so its (corrupted)
/// scratch copy survives and is the restart's preferred tier. With CRC
/// verification the restart degrades to the intact PFS copy; with the
/// mutant it silently restores garbage. (Killing rank 0 itself would not
/// do: a rank's death takes its node's scratch with it, destroying the
/// corrupted copy before anything can read it.)
const REPRODUCER: &str =
    "strategy=VelocOnly spares=0 kill(rank=1,site=iter,at=9) corrupt(tier=scratch,version=7,rank=0,flip=192)";

#[cfg(feature = "chaos-mutants")]
mod mutant_build {
    use chaos::{shrink, ChaosSchedule, Oracle, Violation};
    use simmpi::Backend;

    /// The reproducer buried under two irrelevant service faults the
    /// shrinker must strip away.
    const PADDED: &str = "strategy=VelocOnly spares=0 kill(rank=1,site=iter,at=9) corrupt(tier=scratch,version=7,rank=0,flip=192) workerdeath(rank=2,after=2) spawnfail(rank=3)";

    /// A fixed seed verified to draw at least one schedule that exercises
    /// the corrupt-then-restore path under the mutant within 40 schedules
    /// (the first such draw is index 7).
    const CAMPAIGN_SEED: u64 = 0xC1A0_5CA8;
    const CAMPAIGN_SCHEDULES: usize = 40;

    #[test]
    fn mutant_is_caught_as_divergence_and_shrinks_to_two_events() {
        // The DES backend makes every shrink-candidate verdict a pure
        // function of the seed. Under the threaded backend, simplifying
        // the kill from at=9 to at=8 lands the abort inside version 7's
        // async-flush window, so whether rank 1's PFS copy exists at
        // restart — and with it the whole verdict — depends on OS thread
        // scheduling; a candidate accepted on a lucky draw then flips to
        // Completed on the re-check below. Threaded-backend coverage of
        // the mutant stays with the seeded campaign test.
        let oracle = Oracle::with_backend(Backend::Des { seed: 0x5eed });
        let padded = ChaosSchedule::parse(PADDED).expect("spec parses");
        let verdict = oracle.check(&padded);
        assert!(
            matches!(verdict, Err(Violation::Divergence { .. })),
            "the mutant should surface as a digest divergence, got {verdict:?}"
        );
        let minimal = shrink(&oracle, &padded);
        assert!(
            minimal.events.len() <= 2,
            "shrinker left {} events: {}",
            minimal.events.len(),
            minimal.to_spec()
        );
        // The minimum still fails for the same reason and still names both
        // halves of the bug: a corruption and a kill that restores it.
        let verdict = oracle.check(&minimal);
        assert!(
            matches!(verdict, Err(Violation::Divergence { .. })),
            "shrunk schedule changed failure class: {verdict:?} (spec: {})",
            minimal.to_spec()
        );
        let spec = minimal.to_spec();
        assert!(
            spec.contains("corrupt("),
            "shrunk away the corruption: {spec}"
        );
        assert!(spec.contains("kill("), "shrunk away the kill: {spec}");
    }

    #[test]
    fn seeded_campaign_finds_the_mutant() {
        // A short campaign at a fixed seed flags at least one divergence.
        // This is the end-to-end claim: the campaign generator itself, not
        // just a hand-written schedule, draws the bug class and the oracle
        // catches it.
        let report = chaos::run_campaign(CAMPAIGN_SEED, CAMPAIGN_SCHEDULES);
        let divergences = report
            .failures()
            .into_iter()
            .filter(|c| matches!(c.outcome, Err(Violation::Divergence { .. })))
            .count();
        assert!(
            divergences >= 1,
            "campaign of {CAMPAIGN_SCHEDULES} schedules at seed {CAMPAIGN_SEED:#x} missed the mutant"
        );
    }

    #[test]
    fn two_event_reproducer_diverges_under_the_mutant() {
        let oracle = Oracle::new();
        let sched = ChaosSchedule::parse(super::REPRODUCER).expect("spec parses");
        assert!(
            matches!(oracle.check(&sched), Err(Violation::Divergence { .. })),
            "the minimal reproducer should diverge under the mutant"
        );
    }
}

#[cfg(not(feature = "chaos-mutants"))]
mod clean_build {
    use chaos::{ChaosSchedule, Oracle, RunOutcome};

    #[test]
    fn clean_build_survives_the_mutant_reproducer() {
        // With CRC verification in place the same schedule must be
        // survivable: the corrupted copy is rejected and restart degrades
        // to an intact one.
        let oracle = Oracle::new();
        let sched = ChaosSchedule::parse(super::REPRODUCER).expect("spec parses");
        match oracle.check(&sched) {
            Ok(RunOutcome::Completed { .. }) => {}
            other => panic!("expected clean completion with CRC verification, got {other:?}"),
        }
    }
}
