//! The redundancy dial: how many peers hold what for each rank.

use crate::placement;

/// How a placement group protects its members' payloads.
///
/// `width()` is the minimum group size the mode needs; groups may be
/// larger (the remainder of an uneven partition), in which case the coded
/// modes simply use more data shards at the same parity count — tolerance
/// per group is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedundancyMode {
    /// `k` full copies per payload (the owner plus `k-1` peers). Survives
    /// any `k-1` failures inside a group. Memory: `k×` payload.
    Replicate { k: usize },
    /// Single XOR parity over `width-1` data shards. Survives 1 failure
    /// per group at `width/(width-1)×` memory.
    XorParity { width: usize },
    /// Reed–Solomon over GF(256): `width-parity` data + `parity` Cauchy
    /// shards. Survives any `parity` failures per group at
    /// `width/(width-parity)×` memory.
    ReedSolomon { width: usize, parity: usize },
}

impl RedundancyMode {
    /// Minimum members a placement group needs.
    pub fn width(self) -> usize {
        match self {
            RedundancyMode::Replicate { k } => k,
            RedundancyMode::XorParity { width } => width,
            RedundancyMode::ReedSolomon { width, .. } => width,
        }
    }

    /// Concurrent in-group failures the mode survives.
    pub fn tolerance(self) -> usize {
        match self {
            RedundancyMode::Replicate { k } => k - 1,
            RedundancyMode::XorParity { .. } => 1,
            RedundancyMode::ReedSolomon { parity, .. } => parity,
        }
    }

    /// Parity shards in a group of `size` members (coded modes).
    pub fn parity_of(self) -> usize {
        match self {
            RedundancyMode::Replicate { .. } => 0,
            RedundancyMode::XorParity { .. } => 1,
            RedundancyMode::ReedSolomon { parity, .. } => parity,
        }
    }

    /// Is the shape sane? (Validated at store time; a bad explicit config
    /// must be a typed error, not a panic in a rank thread.)
    pub fn validate(self) -> Result<(), String> {
        match self {
            RedundancyMode::Replicate { k } if k < 2 => {
                Err(format!("replication needs k ≥ 2, got {k}"))
            }
            RedundancyMode::XorParity { width } if width < 2 => {
                Err(format!("xor needs width ≥ 2, got {width}"))
            }
            RedundancyMode::ReedSolomon { width, parity } if parity < 1 || width < parity + 1 => {
                Err(format!("rs needs width > parity ≥ 1, got {width}/{parity}"))
            }
            RedundancyMode::Replicate { .. }
            | RedundancyMode::XorParity { .. }
            | RedundancyMode::ReedSolomon { .. } => Ok(()),
        }
    }

    /// Pick the strongest mode the communicator shape supports: RS(n+2)
    /// over width-4 groups when four-way distinct-node groups are
    /// feasible, XOR n+1 at three, plain mirroring at two. Deterministic
    /// from the node map, so every rank picks the same mode collectively.
    pub fn auto(nodes: &[usize]) -> Option<RedundancyMode> {
        [
            RedundancyMode::ReedSolomon {
                width: 4,
                parity: 2,
            },
            RedundancyMode::XorParity { width: 3 },
            RedundancyMode::Replicate { k: 2 },
        ]
        .into_iter()
        .find(|&mode| placement::feasible(nodes, mode.width()))
    }

    /// Compact spec form (`k2`, `xor3`, `rs4.2`) used by config flags and
    /// chaos schedule specs.
    pub fn to_spec(self) -> String {
        match self {
            RedundancyMode::Replicate { k } => format!("k{k}"),
            RedundancyMode::XorParity { width } => format!("xor{width}"),
            RedundancyMode::ReedSolomon { width, parity } => format!("rs{width}.{parity}"),
        }
    }

    /// Parse [`RedundancyMode::to_spec`] output.
    pub fn parse(spec: &str) -> Result<RedundancyMode, String> {
        let mode = if let Some(k) = spec.strip_prefix('k') {
            RedundancyMode::Replicate {
                k: k.parse()
                    .map_err(|_| format!("bad replica count `{spec}`"))?,
            }
        } else if let Some(w) = spec.strip_prefix("xor") {
            RedundancyMode::XorParity {
                width: w.parse().map_err(|_| format!("bad xor width `{spec}`"))?,
            }
        } else if let Some(rest) = spec.strip_prefix("rs") {
            let (w, p) = rest
                .split_once('.')
                .ok_or_else(|| format!("rs spec `{spec}` wants rs<width>.<parity>"))?;
            RedundancyMode::ReedSolomon {
                width: w.parse().map_err(|_| format!("bad rs width `{spec}`"))?,
                parity: p.parse().map_err(|_| format!("bad rs parity `{spec}`"))?,
            }
        } else {
            return Err(format!("unknown redundancy mode `{spec}`"));
        };
        mode.validate()?;
        Ok(mode)
    }

    /// Human label for tables.
    pub fn label(self) -> String {
        match self {
            RedundancyMode::Replicate { k } => format!("{k}-replica"),
            RedundancyMode::XorParity { width } => format!("XOR n+1 (w={width})"),
            RedundancyMode::ReedSolomon { width, parity } => {
                format!("RS n+{parity} (w={width})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        for mode in [
            RedundancyMode::Replicate { k: 2 },
            RedundancyMode::Replicate { k: 3 },
            RedundancyMode::XorParity { width: 3 },
            RedundancyMode::ReedSolomon {
                width: 4,
                parity: 2,
            },
        ] {
            assert_eq!(RedundancyMode::parse(&mode.to_spec()), Ok(mode));
        }
        assert!(RedundancyMode::parse("k1").is_err());
        assert!(RedundancyMode::parse("rs2.2").is_err());
        assert!(RedundancyMode::parse("frob").is_err());
    }

    #[test]
    fn auto_degrades_with_the_node_count() {
        let four: Vec<usize> = (0..4).collect();
        assert_eq!(
            RedundancyMode::auto(&four),
            Some(RedundancyMode::ReedSolomon {
                width: 4,
                parity: 2
            })
        );
        // 4 ranks over 2 nodes: only pairs are feasible.
        let two = [0, 0, 1, 1];
        assert_eq!(
            RedundancyMode::auto(&two),
            Some(RedundancyMode::Replicate { k: 2 })
        );
        // Everything on one node: nothing is feasible.
        assert_eq!(RedundancyMode::auto(&[0, 0, 0, 0]), None);
    }

    #[test]
    fn tolerance_matches_the_coverage_matrix() {
        assert_eq!(RedundancyMode::Replicate { k: 2 }.tolerance(), 1);
        assert_eq!(RedundancyMode::Replicate { k: 3 }.tolerance(), 2);
        assert_eq!(RedundancyMode::XorParity { width: 3 }.tolerance(), 1);
        assert_eq!(
            RedundancyMode::ReedSolomon {
                width: 4,
                parity: 2
            }
            .tolerance(),
            2
        );
    }
}
