//! Order statistics for timing samples.

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartile cut points by the rule Python's `statistics.quantiles(v, n=4)`
/// uses (exclusive method), so spreads computed here and by an external
/// checker agree. A single sample is its own quartiles; an empty one is 0.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    match m {
        0 => Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        },
        1 => Summary {
            median: v[0],
            q1: v[0],
            q3: v[0],
            n: 1,
        },
        _ => {
            let cut = |i: usize| {
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                if v[j - 1] == v[j] {
                    // Interpolating between equal values must not round.
                    return v[j];
                }
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Summary {
                median: cut(2),
                q1: cut(1),
                q3: cut(3),
                n: m,
            }
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
    }

    #[test]
    fn even_sample() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.25, 2.5, 3.75, 4));
    }

    #[test]
    fn ten_samples_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn short_samples() {
        assert_eq!(summarize(&[]).n, 0);
        assert_eq!(summarize(&[]).median, 0.0);
        let one = summarize(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let two = summarize(&[3.0, 1.0]);
        assert_eq!((two.q1, two.median, two.q3), (0.5, 2.0, 3.5));
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn equal_samples_come_back_bit_for_bit() {
        let s = summarize(&[63.47479741, 63.47479741]);
        assert_eq!(
            (s.q1, s.median, s.q3),
            (63.47479741, 63.47479741, 63.47479741)
        );
    }

    #[test]
    fn spread_of_zero_median_is_zero() {
        assert_eq!(summarize(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
