//! The reproducer corpus, `crates/chaos/reproducers.txt`: every committed
//! chaos schedule beside the verdict class it must reach and where each
//! recovery resumed on DES (a cold restart reproduces the digest; only the
//! resume point shows it). Like `bench::pins`, the file is compiled in and
//! read only here, and a line that moved fails with its replacement line.
//! A pass line whose resume points fall below the bound its spec sets
//! ([`check_resume`], no run needed on DES) does not load.

use resilience::ExperimentError;
use simmpi::Backend;

use crate::oracle::{check_resume, Oracle, RunOutcome};
use crate::schedule::ChaosSchedule;

const CORPUS: &str = include_str!("../reproducers.txt");
const CORPUS_PATH: &str = "crates/chaos/reproducers.txt";

/// The DES seed at which every line's verdict and resume point hold.
pub const DES_SEED: u64 = 0x5eed;

const VERDICTS: [&str; 3] = ["pass", "typed:rank-failed", "typed:relaunch-limit"];

/// One line: `id verdict resumed_at threads_replays spec`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Line {
    pub id: String,
    /// One of `pass`, `typed:rank-failed`, `typed:relaunch-limit`.
    pub verdict: &'static str,
    /// Per recovery, the iteration the job resumed from on DES, e.g. `[4]`;
    /// `-` on a typed line.
    pub resumed_at: String,
    /// Runs on the thread engine, whose interleavings vary run to run.
    pub threads_replays: usize,
    pub schedule: ChaosSchedule,
}

/// The verdict class of an accepted outcome.
pub fn verdict(outcome: &RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Completed { .. } => VERDICTS[0],
        RunOutcome::TypedError(ExperimentError::RankFailed { .. }) => VERDICTS[1],
        RunOutcome::TypedError(ExperimentError::RelaunchLimit { .. }) => VERDICTS[2],
    }
}

impl Line {
    /// Run this line on `oracle`: the accepted outcome, or why the run
    /// broke the oracle's contract or the timeline rules every line obeys
    /// (each rank the spec kills records `rank_killed`; a Fenix line with a
    /// kill records a `repair_end`).
    pub fn replay(&self, oracle: &Oracle) -> Result<RunOutcome, String> {
        let report = oracle.run(&self.schedule);
        let outcome = report.verdict.map_err(|v| v.to_string())?;
        let recorded = |kind: &str, rank: Option<u32>| {
            let events = &report.snapshot.events;
            let of_rank = |r| rank.is_none_or(|rank| r == rank);
            events
                .iter()
                .any(|e| e.event.kind() == kind && of_rank(e.rank))
        };
        let plan = self.schedule.build_plan();
        let kills = plan.kills();
        if let Some(k) = kills
            .iter()
            .find(|k| !recorded("rank_killed", Some(k.rank as u32)))
        {
            return Err(format!("rank {} records no rank_killed", k.rank));
        }
        if self.schedule.strategy.uses_fenix() && !kills.is_empty() && !recorded("repair_end", None)
        {
            return Err("a Fenix line with a kill records no repair_end".to_owned());
        }
        Ok(outcome)
    }

    /// This line as a DES run that ended in `outcome` writes it.
    pub fn measured(&self, outcome: &RunOutcome) -> Line {
        let resumed_at = match outcome {
            RunOutcome::Completed { resumed_at, .. } => format!("{resumed_at:?}").replace(' ', ""),
            RunOutcome::TypedError(_) => "-".to_owned(),
        };
        Line {
            verdict: verdict(outcome),
            resumed_at,
            ..self.clone()
        }
    }
}

impl std::fmt::Display for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (id, verdict, spec) = (&self.id, self.verdict, self.schedule.to_spec());
        let (resumed_at, replays) = (&self.resumed_at, self.threads_replays);
        write!(f, "{id} {verdict} {resumed_at} {replays} {spec}")
    }
}

/// The command that replays `sched` on the engine and seed of the corpus.
pub fn replay_command(sched: &ChaosSchedule) -> String {
    let spec = sched.to_spec();
    format!("SIMMPI_BACKEND=des SIMMPI_SEED={DES_SEED} cargo run -p harness --bin chaos -- --schedule \"{spec}\"")
}

/// Parse a corpus: `#` comments and blank lines aside, one [`Line`] per
/// line, ids unique, specs canonical (so a printed line pastes exactly).
fn parse(text: &str) -> Result<Vec<Line>, String> {
    let mut lines: Vec<Line> = Vec::new();
    for (n, line) in text.lines().map(str::trim).enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line = parse_line(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if lines.iter().any(|l| l.id == line.id) {
            return Err(format!("line {}: duplicate id `{}`", n + 1, line.id));
        }
        lines.push(line);
    }
    Ok(lines)
}

fn parse_line(line: &str) -> Result<Line, String> {
    let fields: Vec<&str> = line.splitn(5, ' ').collect();
    let &[id, verdict, resumed_at, replays, spec] = fields.as_slice() else {
        return Err("expected `id verdict resumed_at threads_replays spec`".into());
    };
    let verdict = *VERDICTS
        .iter()
        .find(|v| **v == verdict)
        .ok_or_else(|| format!("unknown verdict `{verdict}`"))?;
    if (verdict == "pass") == (resumed_at == "-") {
        return Err(format!("resumed_at `{resumed_at}` on a `{verdict}` line"));
    }
    let threads_replays = replays
        .parse()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("threads_replays `{replays}` is not a positive count"))?;
    let schedule = ChaosSchedule::parse(spec)?;
    if verdict == "pass" {
        let list = resumed_at
            .strip_prefix('[')
            .and_then(|r| r.strip_suffix(']'));
        let points: Option<Vec<u64>> = list.and_then(|l| {
            let points = l.split(',').filter(|p| !p.is_empty());
            points.map(|p| p.parse().ok()).collect()
        });
        let points = points.ok_or_else(|| format!("resumed_at `{resumed_at}` is not a list"))?;
        let des = Backend::Des { seed: DES_SEED };
        check_resume(&schedule, des, None, &points)
            .map_err(|v| format!("resumed_at `{resumed_at}`: {v}"))?;
    }
    match schedule.to_spec() {
        canonical if canonical != spec => Err(format!("spec not canonical: `{canonical}`")),
        _ => Ok(Line {
            id: id.to_owned(),
            resumed_at: resumed_at.to_owned(),
            verdict,
            threads_replays,
            schedule,
        }),
    }
}

/// The committed corpus.
pub fn lines() -> Vec<Line> {
    parse(CORPUS).unwrap_or_else(|e| panic!("{CORPUS_PATH}: {e}"))
}

/// The committed line `id`.
pub fn line(id: &str) -> Line {
    let line = lines().into_iter().find(|l| l.id == id);
    line.unwrap_or_else(|| panic!("{CORPUS_PATH} has no line `{id}`"))
}

/// The schedule of the committed line `id`.
pub fn schedule(id: &str) -> ChaosSchedule {
    line(id).schedule
}

/// Compare each measured line with the committed line of the same id. The
/// error covers every line that moved, each with its replacement line.
pub fn check(measured: &[Line]) -> Result<(), String> {
    let committed = lines();
    let mut moved = String::new();
    for m in measured {
        let line = match committed.iter().find(|c| c.id == m.id) {
            Some(c) if c == m => continue,
            Some(c) => c.to_string(),
            None => "nothing".to_owned(),
        };
        moved += &format!("{}:\n  committed: {line}\n  measured:  {m}\n", m.id);
        moved += &format!("  replay:    {}\n", replay_command(&m.schedule));
    }
    if moved.is_empty() {
        return Ok(());
    }
    Err(format!(
        "reproducers off their lines:\n{moved}\
         A deliberate change replaces each committed line of {CORPUS_PATH} with its measured line."
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reader_rejects_what_would_make_a_replacement_line_inexact() {
        let spec = "strategy=VelocOnly spares=0 kill(rank=1,site=iter,at=4)";
        let good = format!("a pass [4] 1 {spec}");
        assert_eq!(parse(&good).unwrap()[0].to_string(), good);
        let typed = format!("a typed:rank-failed [4] 1 {spec}");
        let not_canonical = "a pass [4] 1 strategy=VelocOnly kill(rank=1,site=iter,at=4)";
        let cold = format!("a pass [0] 1 {}", schedule("fkr-iter").to_spec());
        for (text, why) in [
            (format!("{good}\n{good}"), "duplicate id `a`"),
            (format!("a typed:spare-gone - 1 {spec}"), "unknown verdict"),
            (typed, "on a `typed:rank-failed` line"),
            (not_canonical.to_owned(), "not canonical"),
            (cold, "below its bound 4"),
        ] {
            let err = parse(&text).unwrap_err();
            assert!(err.contains(why), "{text:?}: {err}");
        }
        // A committed line that moves prints its replacement and replay.
        let committed = lines().swap_remove(0);
        assert_eq!(check(std::slice::from_ref(&committed)), Ok(()));
        let moved = Line {
            resumed_at: "[0]".into(),
            ..committed.clone()
        };
        let why = check(std::slice::from_ref(&moved)).unwrap_err();
        let replay = replay_command(&moved.schedule);
        for part in [
            format!("  committed: {committed}"),
            format!("  measured:  {moved}"),
            format!("  replay:    {replay}"),
        ] {
            assert!(why.lines().any(|l| l == part), "{part:?}:\n{why}");
        }
    }
}
