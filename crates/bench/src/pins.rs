//! The pin file, `crates/bench/pins.json`: every modelled number the
//! workspace holds at zero tolerance, one entry per (shape, seed) and one
//! entry per line. Under the DES backend virtual time, digests and
//! scheduler counts are pure functions of the seed, so a test (or the
//! `ci.sh` stage that runs each `benchmark/` workload once) measures an
//! entry and [`check`] compares it with the pinned one field for field.
//!
//! A fail run's entry also pins where each recovery resumed ([`resumed_at`]),
//! so a recovery that wastes work fails its test even when it still
//! reproduces the digest.
//!
//! A mismatch names the shape and prints the complete measured entry. That
//! line is how a deliberate change re-records: paste it over the pinned
//! one, so a modelled-time change is one reviewed diff of one file.

use std::time::Duration;

use telemetry::Json;

/// The committed table, compiled in: editing it rebuilds what reads it.
const PINS: &str = include_str!("../pins.json");
const PINS_PATH: &str = "crates/bench/pins.json";

/// A measured entry: `shape` and `seed`, then `fields` in the order the
/// pinned line lists them.
pub fn entry<'a>(
    shape: &str,
    seed: u64,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
) -> Json {
    let key = [("shape", Json::from(shape)), ("seed", Json::from(seed))];
    Json::obj(key.into_iter().chain(fields))
}

/// The two fields every pinned run has: its modelled wall in nanoseconds
/// and its digest, in hex (a JSON number is an `f64`).
pub fn wall_and_digest(wall: Duration, digest: u64) -> [(&'static str, Json); 2] {
    [
        ("wall_ns", Json::from(wall.as_nanos() as u64)),
        ("digest", Json::from(format!("{digest:#018x}"))),
    ]
}

/// The field a pinned fail run adds: per recovery, the iteration the job
/// resumed from (`RunRecord::resumed_at`). A recovery that restarts further
/// back than its run used to, from an older version or from iteration 0,
/// moves this field while the digest stays the same.
pub fn resumed_at(iterations: &[u64]) -> (&'static str, Json) {
    let iterations = iterations.iter().map(|&i| Json::from(i));
    ("resumed_at", Json::arr(iterations))
}

fn key(e: &Json) -> (Option<&str>, Option<u64>) {
    (
        e.get("shape").and_then(Json::as_str),
        e.get("seed").and_then(Json::as_u64),
    )
}

fn pinned() -> Result<Vec<Json>, String> {
    match Json::parse(PINS).map_err(|e| format!("{PINS_PATH}: {e}"))? {
        Json::Arr(entries) => Ok(entries),
        _ => Err(format!("{PINS_PATH} is not an array of entries")),
    }
}

/// Compare each measured entry with the pinned entry of the same (shape,
/// seed). The error covers every entry that moved or has no pin, each
/// with its complete replacement line.
pub fn check(measured: &[Json]) -> Result<(), String> {
    let pins = pinned()?;
    let mut moved = String::new();
    for m in measured {
        let pinned = match pins.iter().find(|p| key(p) == key(m)) {
            Some(p) if p == m => continue,
            Some(p) => p.to_json(),
            None => "nothing".to_owned(),
        };
        let (shape, seed) = key(m);
        let (shape, seed) = (shape.unwrap_or("?"), seed.unwrap_or(0));
        moved += &format!("{shape} at seed {seed}:\n  pinned:   {pinned}\n");
        moved += &format!("  measured: {}\n", m.to_json());
    }
    if moved.is_empty() {
        return Ok(());
    }
    Err(format!(
        "modelled numbers off their pins:\n{moved}\
         A deliberate change replaces each pinned line of {PINS_PATH} with its measured line."
    ))
}

/// [`check`] for a test: panics with the message.
pub fn assert_pinned(measured: &[Json]) {
    if let Err(why) = check(measured) {
        panic!("{why}");
    }
}

/// What one `benchmark --workload` run printed that every reader holds it
/// to: the last line is the result object, which must say `correct` with
/// no failed operation, and the table's `virtual_fingerprint` line joins
/// the scenarios' fingerprints. Returns the result and the fingerprint.
pub fn benchmark_result(log: &str) -> Result<(Json, &str), String> {
    let result = log
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or("no result line")?;
    let result = Json::parse(result).map_err(|e| format!("result line: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true))
        || result.get("failed").and_then(Json::as_u64) != Some(0)
    {
        return Err("the run failed its own checks".into());
    }
    let fingerprint = log
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("virtual_fingerprint "))
        .ok_or("no virtual_fingerprint line")?;
    Ok((result, fingerprint.trim()))
}

/// The entry of one `benchmark --workload NAME --seed N --trace 0` run,
/// read from what it printed: the header line names the workload and the
/// seed, and [`benchmark_result`] gives the modelled numbers.
pub fn benchmark_entry(log: &str) -> Result<Json, String> {
    let header = log.lines().find_map(|l| l.strip_prefix("benchmark "));
    let (workload, rest) = header
        .and_then(|h| h.split_once(": "))
        .ok_or("no `benchmark NAME: … seed=N` header line")?;
    let seed = rest
        .split_whitespace()
        .find_map(|w| w.strip_prefix("seed=")?.parse::<u64>().ok())
        .ok_or_else(|| format!("{workload}: the header names no seed"))?;
    let (result, fingerprint) = benchmark_result(log).map_err(|e| format!("{workload}: {e}"))?;
    let metric = |name| -> Result<(&str, Json), String> {
        let value = result
            .get("metrics")
            .and_then(|m| m.get(name)?.get("value"));
        let missing = || format!("{workload}: the result line has no {name}");
        Ok((name, value.ok_or_else(missing)?.clone()))
    };
    Ok(entry(
        &format!("benchmark/{workload}"),
        seed,
        [
            metric("virtual_ckpt_overhead_s")?,
            metric("virtual_wall_fail_s")?,
            ("virtual_fingerprint", Json::from(fingerprint)),
        ],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pin_file_is_one_entry_per_line_with_unique_keys() {
        let pins = pinned().unwrap();
        let lines: Vec<&str> = PINS.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(lines.len(), pins.len(), "one entry per line");
        for (line, pin) in lines.iter().zip(&pins) {
            // A replacement line pastes over its pin unchanged.
            assert_eq!(line.trim_end_matches(','), pin.to_json());
            let (shape, seed) = key(pin);
            assert!(shape.is_some() && seed.is_some(), "{line}");
            assert_eq!(pins.iter().filter(|p| key(p) == key(pin)).count(), 1);
        }
    }

    #[test]
    fn every_fail_run_pins_where_it_resumed() {
        let pins = pinned().unwrap();
        let fail_runs: Vec<&Json> = pins
            .iter()
            .filter(|p| {
                let shape = key(p).0.unwrap_or("");
                shape.ends_with("/one_failure")
                    || shape.ends_with("/fail")
                    || shape.starts_with("scale_smoke/")
            })
            .collect();
        assert_eq!(fail_runs.len(), 10);
        for pin in fail_runs {
            let resumed = pin.get("resumed_at").and_then(Json::as_array);
            let points = resumed.map(|r| r.iter().filter_map(Json::as_u64).count());
            assert_eq!(points, Some(1), "one recovery, one resume point: {pin:?}");
        }
        let (name, value) = resumed_at(&[20]);
        assert_eq!((name, value.to_json().as_str()), ("resumed_at", "[20]"));
    }

    #[test]
    fn a_moved_or_unpinned_entry_prints_its_replacement_line() {
        let pin = pinned().unwrap().swap_remove(0);
        assert_eq!(check(std::slice::from_ref(&pin)), Ok(()));
        let Json::Obj(mut fields) = pin.clone() else {
            panic!("an entry is an object")
        };
        fields.push(("extra".into(), Json::from(1u64)));
        let moved = Json::Obj(fields);
        let unpinned = entry("no/such", 3, wall_and_digest(Duration::from_nanos(5), 0xab));
        let why = check(&[moved.clone(), unpinned]).unwrap_err();
        let (shape, seed) = key(&pin);
        let (shape, seed) = (shape.unwrap(), seed.unwrap());
        for line in [
            format!("{shape} at seed {seed}:"),
            format!("  pinned:   {}", pin.to_json()),
            format!("  measured: {}", moved.to_json()),
            "no/such at seed 3:".to_owned(),
            "  pinned:   nothing".to_owned(),
            r#"  measured: {"shape":"no/such","seed":3,"wall_ns":5,"digest":"0x00000000000000ab"}"#
                .to_owned(),
        ] {
            assert!(why.lines().any(|l| l == line), "{line:?} in\n{why}");
        }
    }

    const LOG: &str = r#"benchmark heatdis_ckpt: nproc=2 seed=7 seconds=1 (closed loop, …)
  HeatdisCkpt, 8 active + 1 spare ranks
    virtual_ckpt_overhead_s          0.25 s      all samples: median 0.25
    virtual_fingerprint        00ff+00fe
{"correct": true, "attempted": 9, "failed": 0, "metrics": {"host_pass_s": {"value": 3.1, "unit": "s"}, "virtual_ckpt_overhead_s": {"value": 0.3074213, "unit": "s"}, "virtual_wall_fail_s": {"value": 2.5, "unit": "s"}}}
"#;

    #[test]
    fn a_benchmark_log_reads_as_its_entry() {
        let e = benchmark_entry(LOG).unwrap();
        assert_eq!(
            e.to_json(),
            r#"{"shape":"benchmark/heatdis_ckpt","seed":7,"virtual_ckpt_overhead_s":0.3074213,"virtual_wall_fail_s":2.5,"virtual_fingerprint":"00ff+00fe"}"#
        );
        let failed = LOG.replace("\"correct\": true", "\"correct\": false");
        let lost = LOG.replace("\"failed\": 0", "\"failed\": 1");
        let unprinted = LOG.replace("virtual_fingerprint ", "fingerprint ");
        for (log, why) in [
            (failed, "the run failed its own checks"),
            (lost, "the run failed its own checks"),
            (unprinted, "no virtual_fingerprint line"),
        ] {
            assert_eq!(benchmark_entry(&log), Err(format!("heatdis_ckpt: {why}")));
        }
        let missing = LOG.replace("virtual_wall_fail_s", "other");
        assert!(benchmark_entry(&missing)
            .unwrap_err()
            .contains("no virtual_wall_fail_s"));
        assert!(benchmark_entry("").is_err());
    }
}
