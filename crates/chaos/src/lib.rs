//! Seeded chaos campaigns over the three resilience layers.
//!
//! The paper's evaluation (§VI) injects one failure at a scripted instant
//! and checks the job completes. This crate generalizes that into a
//! *campaign*: a seeded stream of fault schedules that mix process faults
//! (rank kills at any fault point, including during recovery and at
//! checkpoint commit), data faults (checkpoint-blob corruption and
//! truncation at either storage tier), and service faults (flush-backend
//! spawn failure, flush-worker death) — each schedule checked against a
//! differential oracle and, on failure, shrunk to a minimal reproducer.
//!
//! The contract being fuzzed (see [`oracle`]): a resilient run either
//! produces the *bitwise-identical* answer of an uninterrupted run, with no
//! recovery resumed below its bound, or ends in a typed error — never a
//! panic, never a hang, never a causally-impossible failure timeline.
//!
//! Entry points: [`campaign::run_campaign`] (seeded campaign),
//! [`campaign::replay`] (one spec string), and the `chaos` harness binary
//! (`cargo run -p harness --bin chaos -- --schedules 200`). Every
//! committed reproducer is one line of `reproducers.txt`, read by
//! [`corpus`] and replayed on DES by `tests/corpus.rs` and on threads by
//! `tests/differential.rs`.
//!
//! The `chaos-mutants` feature re-seeds the checkpoint-integrity bug the
//! campaign was built to catch (VeloC unpack skips CRC verification);
//! `tests/mutant.rs` proves the campaign detects it and shrinks the
//! failure to a two-event reproducer.

pub mod campaign;
pub mod corpus;
pub mod oracle;
pub mod rng;
pub mod schedule;
pub mod shrink;

pub use campaign::{replay, run_campaign, CampaignReport, CaseResult};
pub use oracle::{check_timeline, CaseReport, Oracle, RunOutcome, Violation};
pub use rng::Rng;
pub use schedule::{ChaosEvent, ChaosSchedule, DEFAULT_SEED};
pub use shrink::shrink;
