//! DES-vs-threads differential regression: every line of
//! `crates/chaos/reproducers.txt` replayed on both execution backends. The
//! deterministic scheduler is only a valid oracle substrate if it reaches
//! the *same verdict* as the thread-per-rank backend on every schedule the
//! repo has pinned down: same completion digest, same typed-error class,
//! never a new hang or panic.
//!
//! Digests are comparable across backends because every workload here is a
//! fixed-iteration Heatdis whose answer is schedule-independent; error
//! *messages* may name a different rank (which victim observes exhaustion
//! first is schedule-dependent), so typed errors are compared by class. The
//! resume point is left out: the thread engine flushes in the background,
//! so where the job resumes may legitimately differ from DES, whose resume
//! points `tests/corpus.rs` holds to the corpus.

use chaos::{corpus, Oracle};
use simmpi::Backend;
use telemetry::export::to_jsonl;

/// Gated out of `chaos-mutants` builds, where `crc-scratch` diverges on
/// both engines (`tests/mutant.rs`).
#[cfg(not(feature = "chaos-mutants"))]
#[test]
fn des_and_threads_agree_on_every_committed_reproducer() {
    use chaos::RunOutcome;
    /// What the engines must agree on: verdict class and completion digest.
    fn class(outcome: &RunOutcome) -> (&'static str, Option<u64>) {
        let digest = match outcome {
            RunOutcome::Completed { digest, .. } => Some(*digest),
            RunOutcome::TypedError(_) => None,
        };
        (corpus::verdict(outcome), digest)
    }

    let des = Oracle::with_backend(Backend::Des {
        seed: corpus::DES_SEED,
    });
    let threads = Oracle::new();
    let mut wrong = String::new();
    for line in corpus::lines() {
        let expected = match line.replay(&des) {
            Ok(outcome) => class(&outcome),
            Err(why) => {
                wrong += &format!("{} on DES: {why}\n", line.id);
                continue;
            }
        };
        // The thread engine's interleavings vary run to run.
        for n in 1..=line.threads_replays {
            let why = match line.replay(&threads) {
                Ok(t) if class(&t) != expected => {
                    format!("{:?} where DES has {expected:?}", class(&t))
                }
                Ok(_) => continue,
                Err(why) => why,
            };
            let of = line.threads_replays;
            wrong += &format!("{} on threads, replay {n} of {of}: {why}\n", line.id);
            break;
        }
    }
    assert!(wrong.is_empty(), "{wrong}");
}

/// The DES oracle itself is deterministic: the same seed replays the same
/// schedule to the same verdict *and* the same telemetry timeline, byte
/// for byte — this is what makes a chaos finding a reproducer at all.
#[test]
fn des_oracle_replay_is_bitwise_identical() {
    let sched = corpus::schedule("spare-exhaustion");
    let oracle = Oracle::with_backend(Backend::Des { seed: 42 });
    let a = oracle.run(&sched);
    let b = oracle.run(&sched);
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(
        to_jsonl(&a.snapshot),
        to_jsonl(&b.snapshot),
        "same seed must replay an identical timeline"
    );
}
