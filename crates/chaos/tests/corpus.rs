//! Every line of `crates/chaos/reproducers.txt` on DES: its verdict class,
//! its resume points and the timeline rules of `Line::replay`. A line that
//! moved fails with its replacement line. (The thread engine's replays of
//! each line are `tests/differential.rs`.) Gated out of `chaos-mutants`
//! builds, where `crc-scratch` diverges (`tests/mutant.rs`).
#![cfg(not(feature = "chaos-mutants"))]

use chaos::{corpus, Oracle};
use simmpi::Backend;

#[test]
fn every_reproducer_replays_to_its_line_on_des() {
    let des = Oracle::with_backend(Backend::Des {
        seed: corpus::DES_SEED,
    });
    let (mut measured, mut wrong) = (Vec::new(), String::new());
    for line in corpus::lines() {
        match line.replay(&des) {
            Ok(outcome) => measured.push(line.measured(&outcome)),
            Err(why) => {
                let replay = corpus::replay_command(&line.schedule);
                wrong += &format!("{}: {why}\n  replay: {replay}\n", line.id);
            }
        }
    }
    let moved = corpus::check(&measured).err().unwrap_or_default();
    assert!(wrong.is_empty() && moved.is_empty(), "{wrong}{moved}");
}
