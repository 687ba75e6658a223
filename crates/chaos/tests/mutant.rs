//! Campaign self-test against the seeded checkpoint-integrity bug.
//!
//! The `chaos-mutants` feature makes `veloc::serial` skip its CRC32
//! comparisons — re-enabling the exact silent-garbage-restore bug the
//! integrity frame was added to close. These tests prove the campaign
//! machinery would have caught that bug: under the mutant a
//! corruption-plus-kill schedule completes with a *wrong* digest (the
//! oracle's divergence verdict), and the shrinker reduces any padded
//! variant back to the two events that matter: line `crc-scratch` of
//! `crates/chaos/reproducers.txt`, whose clean-build verdict is a pass.
//!
//! Run with: `cargo test -p chaos --features chaos-mutants`

#[cfg(feature = "chaos-mutants")]
mod mutant_build {
    use chaos::{corpus, shrink, ChaosEvent, Oracle, Violation};
    use simmpi::Backend;

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
        // The reproducer buried under two irrelevant service faults the
        // shrinker must strip away.
        let mut padded = corpus::schedule("crc-scratch");
        padded.events.extend([
            ChaosEvent::WorkerDeath { rank: 2, after: 2 },
            ChaosEvent::SpawnFail { rank: 3 },
        ]);
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
        let sched = corpus::schedule("crc-scratch");
        assert!(
            matches!(oracle.check(&sched), Err(Violation::Divergence { .. })),
            "the minimal reproducer should diverge under the mutant"
        );
    }
}

#[cfg(not(feature = "chaos-mutants"))]
mod clean_build {
    use chaos::{corpus, Oracle, RunOutcome};

    #[test]
    fn clean_build_survives_the_mutant_reproducer() {
        // With CRC verification in place the same schedule must be
        // survivable: the corrupted copy is rejected and restart degrades
        // to an intact one.
        match corpus::line("crc-scratch").replay(&Oracle::new()) {
            Ok(RunOutcome::Completed { .. }) => {}
            other => panic!("expected clean completion with CRC verification, got {other:?}"),
        }
    }
}
