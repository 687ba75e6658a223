//! Chaos schedules: the campaign's unit of work.
//!
//! A [`ChaosSchedule`] is a strategy + spare budget + a list of fault
//! events, generated deterministically from a seed. It serializes to a
//! one-line spec string (printed for every failing schedule and accepted
//! back via `--schedule`), so any campaign finding is replayable without
//! the seed that produced it.

use resilience::Strategy;
use simmpi::{BackendFault, CorruptKind, CorruptTier, FaultSchedule};

use crate::rng::Rng;

/// Documented default campaign seed (CI and `cargo run -p harness --bin
/// chaos` both start here).
pub const DEFAULT_SEED: u64 = 0xC1A0_5CA7;

/// Active (non-spare) ranks every campaign run uses.
pub const ACTIVE_RANKS: usize = 4;

/// Iterations of the campaign app (small enough to keep a 200-schedule
/// campaign in seconds, large enough for kills before/after checkpoints).
pub const ITERATIONS: u64 = 12;

/// Checkpoints requested over the run. With 12 iterations the filter
/// checkpoints after iterations 3, 7 and 11 — those are the versions
/// corruption events target.
pub const CHECKPOINTS: u64 = 3;

/// Checkpoint versions the default filter produces (see [`CHECKPOINTS`]).
pub const CHECKPOINT_VERSIONS: [u64; 3] = [3, 7, 11];

/// Strategies the campaign draws from. `Unprotected` is excluded (it has
/// no recovery semantics to falsify) and `PartialRollback` is excluded
/// because its survivors keep in-progress data, so bitwise equivalence
/// with the uninterrupted run is not its contract.
pub const STRATEGY_POOL: [Strategy; 6] = [
    Strategy::VelocOnly,
    Strategy::KokkosResilience,
    Strategy::FenixVeloc,
    Strategy::FenixKokkosResilience,
    Strategy::FenixImr,
    Strategy::FenixRedstore,
];

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Kill `rank` the `at`-th time it passes fault point `site`.
    Kill { rank: usize, site: String, at: u64 },
    /// Kill *every* rank hosted on modeled node `node` (a whole-node
    /// failure: power loss, kernel panic) the `at`-th time each passes
    /// fault point `site`. Lowered via the schedule's `rpn` — at one rank
    /// per node it degenerates to a single `Kill`.
    NodeKill { node: usize, site: String, at: u64 },
    /// Corrupt the checkpoint blob of `(version, rank)` on write.
    Corrupt {
        tier: CorruptTier,
        version: u64,
        rank: usize,
        kind: CorruptKind,
    },
    /// The async flush backend of `rank` fails to spawn.
    SpawnFail { rank: usize },
    /// The flush worker of `rank` dies after `after` completed flushes.
    WorkerDeath { rank: usize, after: u64 },
}

/// A complete, replayable campaign case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosSchedule {
    pub strategy: Strategy,
    pub spares: usize,
    /// Ranks per modeled node of the campaign cluster (1 = the historical
    /// flat layout; 2 co-locates rank pairs so node failures take both).
    pub rpn: usize,
    pub events: Vec<ChaosEvent>,
}

fn tier_name(t: CorruptTier) -> &'static str {
    match t {
        CorruptTier::Scratch => "scratch",
        CorruptTier::Pfs => "pfs",
        CorruptTier::Both => "both",
    }
}

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Unprotected => "Unprotected",
        Strategy::VelocOnly => "VelocOnly",
        Strategy::KokkosResilience => "KokkosResilience",
        Strategy::FenixVeloc => "FenixVeloc",
        Strategy::FenixKokkosResilience => "FenixKokkosResilience",
        Strategy::FenixImr => "FenixImr",
        Strategy::FenixRedstore => "FenixRedstore",
        Strategy::PartialRollback => "PartialRollback",
    }
}

fn parse_strategy(name: &str) -> Result<Strategy, String> {
    Strategy::ALL
        .into_iter()
        .find(|s| strategy_name(*s) == name)
        .ok_or_else(|| format!("unknown strategy `{name}`"))
}

/// `key=value` fields of one event call, in written order.
type Fields<'a> = Vec<(&'a str, &'a str)>;

/// Split `kill(rank=1,site=iter,at=3)` into ("kill", {"rank":"1",...}).
fn parse_call(tok: &str) -> Result<(&str, Fields<'_>), String> {
    let open = tok.find('(').ok_or_else(|| format!("malformed `{tok}`"))?;
    let close = tok
        .strip_suffix(')')
        .ok_or_else(|| format!("missing `)` in `{tok}`"))?;
    let head = &tok[..open];
    let mut fields = Vec::new();
    for field in close[open + 1..].split(',').filter(|f| !f.is_empty()) {
        let (k, v) = field
            .split_once('=')
            .ok_or_else(|| format!("malformed field `{field}` in `{tok}`"))?;
        fields.push((k, v));
    }
    Ok((head, fields))
}

fn field<'a>(fields: &[(&str, &'a str)], key: &str, tok: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("missing `{key}` in `{tok}`"))
}

fn num(fields: &[(&str, &str)], key: &str, tok: &str) -> Result<u64, String> {
    field(fields, key, tok)?
        .parse()
        .map_err(|_| format!("non-numeric `{key}` in `{tok}`"))
}

impl ChaosEvent {
    fn to_spec(&self) -> String {
        match self {
            ChaosEvent::Kill { rank, site, at } => format!("kill(rank={rank},site={site},at={at})"),
            ChaosEvent::NodeKill { node, site, at } => {
                format!("nodekill(node={node},site={site},at={at})")
            }
            ChaosEvent::Corrupt {
                tier,
                version,
                rank,
                kind,
            } => {
                let kind = match kind {
                    CorruptKind::FlipBack { back } => format!("flip={back}"),
                    CorruptKind::FlipFront { front } => format!("front={front}"),
                    CorruptKind::Truncate { keep } => format!("trunc={keep}"),
                };
                format!(
                    "corrupt(tier={},version={version},rank={rank},{kind})",
                    tier_name(*tier)
                )
            }
            ChaosEvent::SpawnFail { rank } => format!("spawnfail(rank={rank})"),
            ChaosEvent::WorkerDeath { rank, after } => {
                format!("workerdeath(rank={rank},after={after})")
            }
        }
    }

    fn parse(tok: &str) -> Result<ChaosEvent, String> {
        let (head, fields) = parse_call(tok)?;
        match head {
            "kill" => Ok(ChaosEvent::Kill {
                rank: num(&fields, "rank", tok)? as usize,
                site: field(&fields, "site", tok)?.to_owned(),
                at: num(&fields, "at", tok)?,
            }),
            "nodekill" => Ok(ChaosEvent::NodeKill {
                node: num(&fields, "node", tok)? as usize,
                site: field(&fields, "site", tok)?.to_owned(),
                at: num(&fields, "at", tok)?,
            }),
            "corrupt" => {
                let tier = match field(&fields, "tier", tok)? {
                    "scratch" => CorruptTier::Scratch,
                    "pfs" => CorruptTier::Pfs,
                    "both" => CorruptTier::Both,
                    other => return Err(format!("unknown tier `{other}` in `{tok}`")),
                };
                let kind = if fields.iter().any(|(k, _)| *k == "flip") {
                    CorruptKind::FlipBack {
                        back: num(&fields, "flip", tok)? as usize,
                    }
                } else if fields.iter().any(|(k, _)| *k == "front") {
                    CorruptKind::FlipFront {
                        front: num(&fields, "front", tok)? as usize,
                    }
                } else {
                    CorruptKind::Truncate {
                        keep: num(&fields, "trunc", tok)? as usize,
                    }
                };
                Ok(ChaosEvent::Corrupt {
                    tier,
                    version: num(&fields, "version", tok)?,
                    rank: num(&fields, "rank", tok)? as usize,
                    kind,
                })
            }
            "spawnfail" => Ok(ChaosEvent::SpawnFail {
                rank: num(&fields, "rank", tok)? as usize,
            }),
            "workerdeath" => Ok(ChaosEvent::WorkerDeath {
                rank: num(&fields, "rank", tok)? as usize,
                after: num(&fields, "after", tok)?,
            }),
            other => Err(format!("unknown event `{other}`")),
        }
    }
}

impl ChaosSchedule {
    /// Draw one schedule from the generator stream.
    pub fn generate(rng: &mut Rng) -> ChaosSchedule {
        let strategy = *rng.pick(&STRATEGY_POOL);
        // A quarter of the cases co-locate ranks two-per-node, exercising
        // topology-aware placement and whole-node failures; spares then
        // come in node units so the world stays evenly divisible.
        let rpn = if rng.chance(25) { 2 } else { 1 };
        let spares = if !strategy.uses_fenix() {
            0
        } else if rpn == 2 {
            2
        } else {
            1 + rng.below(2) as usize
        };
        let n_events = rng.below(4) as usize; // 0..=3: empty schedules are sanity cases
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let roll = rng.below(100);
            let ev = if roll < 45 {
                // Kill sites cover the whole protocol: mid-iteration,
                // immediately before a checkpoint, at checkpoint commit,
                // and inside a recovery epoch (cascading failure).
                let site = *rng.pick(&["iter", "ckpt", "commit", "recovery"]);
                let at = if site == "recovery" {
                    1 + rng.below(2)
                } else {
                    rng.below(ITERATIONS)
                };
                if rpn == 2 && rng.chance(30) {
                    ChaosEvent::NodeKill {
                        node: rng.below((ACTIVE_RANKS / rpn) as u64) as usize,
                        site: site.to_owned(),
                        at,
                    }
                } else {
                    ChaosEvent::Kill {
                        rank: rng.below(ACTIVE_RANKS as u64) as usize,
                        site: site.to_owned(),
                        at,
                    }
                }
            } else if roll < 80 {
                let tier = if rng.chance(50) {
                    CorruptTier::Scratch
                } else if rng.chance(50) {
                    CorruptTier::Pfs
                } else {
                    CorruptTier::Both
                };
                let kind = if rng.chance(60) {
                    // Offsets deep enough to reach *interior* grid rows:
                    // the last cols*8 bytes of a Heatdis blob are a halo
                    // row the next step overwrites, so a flip there heals
                    // on replay and falsifies nothing.
                    CorruptKind::FlipBack {
                        back: rng.below(512) as usize,
                    }
                } else if rng.chance(50) {
                    // Front flips land in the VCF2 header/metadata — the
                    // magic, meta CRC, counts, or id tables of the frame —
                    // exercising delta-chain integrity rather than payload
                    // integrity.
                    CorruptKind::FlipFront {
                        front: rng.below(64) as usize,
                    }
                } else {
                    CorruptKind::Truncate {
                        keep: rng.below(16) as usize,
                    }
                };
                ChaosEvent::Corrupt {
                    tier,
                    version: *rng.pick(&CHECKPOINT_VERSIONS),
                    rank: rng.below(ACTIVE_RANKS as u64) as usize,
                    kind,
                }
            } else if roll < 90 {
                ChaosEvent::SpawnFail {
                    rank: rng.below(ACTIVE_RANKS as u64) as usize,
                }
            } else {
                ChaosEvent::WorkerDeath {
                    rank: rng.below(ACTIVE_RANKS as u64) as usize,
                    after: 1 + rng.below(2),
                }
            };
            events.push(ev);
        }
        ChaosSchedule {
            strategy,
            spares,
            rpn,
            events,
        }
    }

    /// One-line replayable spec.
    pub fn to_spec(&self) -> String {
        let mut parts = vec![
            format!("strategy={}", strategy_name(self.strategy)),
            format!("spares={}", self.spares),
        ];
        if self.rpn != 1 {
            parts.push(format!("rpn={}", self.rpn));
        }
        parts.extend(self.events.iter().map(ChaosEvent::to_spec));
        parts.join(" ")
    }

    /// Parse a spec produced by [`ChaosSchedule::to_spec`].
    pub fn parse(spec: &str) -> Result<ChaosSchedule, String> {
        let mut strategy = None;
        let mut spares = 0usize;
        let mut rpn = 1usize;
        let mut events = Vec::new();
        for tok in spec.split_whitespace() {
            if let Some(name) = tok.strip_prefix("strategy=") {
                strategy = Some(parse_strategy(name)?);
            } else if let Some(v) = tok.strip_prefix("spares=") {
                spares = v.parse().map_err(|_| format!("non-numeric spares `{v}`"))?;
            } else if let Some(v) = tok.strip_prefix("rpn=") {
                rpn = v.parse().map_err(|_| format!("non-numeric rpn `{v}`"))?;
                if rpn == 0 {
                    return Err("rpn must be at least 1".into());
                }
            } else {
                events.push(ChaosEvent::parse(tok)?);
            }
        }
        Ok(ChaosSchedule {
            strategy: strategy.ok_or("spec missing `strategy=`")?,
            spares,
            rpn,
            events,
        })
    }

    /// Total communicator ranks a run of this schedule uses.
    pub fn total_ranks(&self) -> usize {
        ACTIVE_RANKS
            + if self.strategy.uses_fenix() {
                self.spares
            } else {
                0
            }
    }

    /// Total simulated nodes a run of this schedule needs (the world is
    /// `nodes() * rpn` ranks — rounded up when spares don't fill a node).
    pub fn nodes(&self) -> usize {
        self.total_ranks().div_ceil(self.rpn)
    }

    /// Lower the schedule to the simulator's injectable form. A `NodeKill`
    /// becomes one kill per rank the node hosts (rank `r` lives on node
    /// `r / rpn` — the cluster model's fixed layout).
    pub fn build_plan(&self) -> FaultSchedule {
        let mut plan = FaultSchedule::none();
        for ev in &self.events {
            plan = match ev {
                ChaosEvent::Kill { rank, site, at } => plan.and_kill(*rank, site.clone(), *at),
                ChaosEvent::NodeKill { node, site, at } => {
                    let mut p = plan;
                    for rank in node * self.rpn..(node + 1) * self.rpn {
                        p = p.and_kill(rank, site.clone(), *at);
                    }
                    p
                }
                ChaosEvent::Corrupt {
                    tier,
                    version,
                    rank,
                    kind,
                } => plan.and_corrupt(*tier, *version, *rank, *kind),
                ChaosEvent::SpawnFail { rank } => plan.and_backend(BackendFault::spawn_fail(*rank)),
                ChaosEvent::WorkerDeath { rank, after } => {
                    plan.and_backend(BackendFault::worker_death(*rank, *after))
                }
            };
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let mut rng = Rng::new(DEFAULT_SEED);
        for _ in 0..200 {
            let s = ChaosSchedule::generate(&mut rng);
            let spec = s.to_spec();
            let back = ChaosSchedule::parse(&spec).expect("own spec must parse");
            assert_eq!(back, s, "round-trip of `{spec}`");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<String> = {
            let mut rng = Rng::new(7);
            (0..50)
                .map(|_| ChaosSchedule::generate(&mut rng).to_spec())
                .collect()
        };
        let b: Vec<String> = {
            let mut rng = Rng::new(7);
            (0..50)
                .map(|_| ChaosSchedule::generate(&mut rng).to_spec())
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(ChaosSchedule::parse("strategy=NoSuch").is_err());
        assert!(ChaosSchedule::parse("kill(rank=1)").is_err()); // missing strategy + fields
        assert!(ChaosSchedule::parse("strategy=VelocOnly frob(x=1)").is_err());
        assert!(ChaosSchedule::parse("strategy=VelocOnly kill(rank=1,site=iter,at=x)").is_err());
    }

    #[test]
    fn build_plan_lowers_every_event_kind() {
        let s = ChaosSchedule::parse(
            "strategy=FenixVeloc spares=1 kill(rank=1,site=iter,at=3) \
             corrupt(tier=scratch,version=7,rank=0,flip=0) spawnfail(rank=2) \
             workerdeath(rank=3,after=1)",
        )
        .expect("spec parses");
        let plan = s.build_plan();
        assert_eq!(plan.kills().len(), 1);
        assert_eq!(plan.corruptions().len(), 1);
        assert_eq!(plan.backend_faults().len(), 2);
        assert!(plan.has_injections());
        assert_eq!(s.nodes(), ACTIVE_RANKS + 1);
    }

    #[test]
    fn nodekill_lowers_to_one_kill_per_hosted_rank() {
        let s = ChaosSchedule::parse(
            "strategy=FenixRedstore spares=2 rpn=2 nodekill(node=1,site=iter,at=4)",
        )
        .expect("spec parses");
        assert_eq!(s.rpn, 2);
        // 4 active + 2 spares over 2 ranks/node = 3 nodes.
        assert_eq!(s.nodes(), 3);
        let plan = s.build_plan();
        let mut killed: Vec<usize> = plan.kills().iter().map(|k| k.rank).collect();
        killed.sort_unstable();
        assert_eq!(killed, vec![2, 3], "node 1 hosts exactly ranks 2 and 3");
        // At one rank per node the same event is a single kill.
        let flat =
            ChaosSchedule::parse("strategy=FenixRedstore spares=1 nodekill(node=1,site=iter,at=4)")
                .expect("spec parses");
        assert_eq!(flat.build_plan().kills().len(), 1);
    }

    #[test]
    fn rpn_field_round_trips_and_defaults() {
        let spec = "strategy=FenixImr spares=2 rpn=2 kill(rank=0,site=iter,at=1)";
        let s = ChaosSchedule::parse(spec).expect("spec parses");
        assert_eq!(s.rpn, 2);
        assert_eq!(s.to_spec(), spec);
        // An absent field keeps the historical default, and to_spec omits
        // it so pre-existing golden specs stay byte-identical.
        let old = ChaosSchedule::parse("strategy=VelocOnly spares=0").expect("parses");
        assert_eq!(old.rpn, 1);
        assert_eq!(old.to_spec(), "strategy=VelocOnly spares=0");
        assert!(ChaosSchedule::parse("strategy=VelocOnly rpn=0").is_err());
        // Unknown `key=value` fields are rejected, not ignored.
        assert!(ChaosSchedule::parse("strategy=FenixImr imr=pair").is_err());
    }
}
