//! View-classification statistics — the data behind the paper's Figure 7.

use kokkos::ViewMeta;

/// How a captured view was classified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewClass {
    /// Primary view for its allocation: serialized into the checkpoint.
    Checkpointed,
    /// User-declared alias (e.g. a swap-space view): intentionally excluded.
    Alias,
    /// Additional view object over an already-checkpointed allocation
    /// (a duplicate "copied into the checkpoint lambda by the compiler"):
    /// automatically excluded so data is stored once and only once.
    Skipped,
}

/// One captured view with its classification.
#[derive(Clone, Debug)]
pub struct ViewStat {
    pub meta: ViewMeta,
    pub class: ViewClass,
}

/// Classification summary for one checkpoint region.
#[derive(Clone, Debug, Default)]
pub struct RegionStats {
    pub views: Vec<ViewStat>,
}

impl RegionStats {
    pub fn count(&self, class: ViewClass) -> usize {
        self.views.iter().filter(|v| v.class == class).count()
    }

    pub fn bytes(&self, class: ViewClass) -> usize {
        self.views
            .iter()
            .filter(|v| v.class == class)
            .map(|v| v.meta.bytes)
            .sum()
    }

    /// Total bytes across all captured view objects (the "% of total"
    /// denominator in Figure 7).
    pub fn total_bytes(&self) -> usize {
        self.views.iter().map(|v| v.meta.bytes).sum()
    }

    pub fn total_views(&self) -> usize {
        self.views.len()
    }

    /// Fraction of total view bytes in a class (0.0 when empty).
    pub fn fraction(&self, class: ViewClass) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.bytes(class) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64, bytes: usize) -> ViewMeta {
        ViewMeta {
            view_id: id,
            alloc_id: id,
            label: format!("v{id}").into(),
            extents: [bytes, 1, 1],
            rank: 1,
            bytes,
        }
    }

    #[test]
    fn counts_and_bytes_by_class() {
        let stats = RegionStats {
            views: vec![
                ViewStat {
                    meta: meta(1, 100),
                    class: ViewClass::Checkpointed,
                },
                ViewStat {
                    meta: meta(2, 50),
                    class: ViewClass::Skipped,
                },
                ViewStat {
                    meta: meta(3, 25),
                    class: ViewClass::Alias,
                },
                ViewStat {
                    meta: meta(4, 25),
                    class: ViewClass::Checkpointed,
                },
            ],
        };
        assert_eq!(stats.count(ViewClass::Checkpointed), 2);
        assert_eq!(stats.bytes(ViewClass::Checkpointed), 125);
        assert_eq!(stats.total_bytes(), 200);
        assert!((stats.fraction(ViewClass::Skipped) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_fraction_is_zero() {
        let stats = RegionStats::default();
        assert_eq!(stats.fraction(ViewClass::Checkpointed), 0.0);
        assert_eq!(stats.total_views(), 0);
    }
}
