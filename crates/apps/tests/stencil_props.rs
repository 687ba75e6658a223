//! Heatdis's in-place sweep against the two-buffer sweep it replaces:
//! every cell and the largest change equal bit for bit, and the halo rows
//! left as they were, over grids of 1 to 7 owned rows and 1 to 19 columns
//! (one and two columns, where both edges are one-sided, and every width
//! modulo the four lanes) whose cells mix ordinary values with `NaN`, ±∞,
//! −0.0, subnormals and `f64::MAX`.
//!
//! A `NaN` cell compares equal to any `NaN`: which operand's `NaN` a sum of
//! two returns is not fixed once the compiler may commute the addition, so
//! its sign and payload can differ between two builds of the same sum (the
//! optimised build of this test shows it). The halo rows, which no sum
//! writes, compare bit for bit, `NaN`s included.

use apps::heatdis::{jacobi_sweep_in_place, jacobi_sweep_reference};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const SPECIALS: [f64; 9] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    f64::MAX,
    5e-324,
    -2.5e-320,
    f64::MIN_POSITIVE,
];

/// A `(rows+2) × cols` grid; one cell in `special_every` (never, for 0) is
/// drawn from [`SPECIALS`], the rest from `[-100, 100)`.
fn random_grid(rows: usize, cols: usize, special_every: u64, rng: &mut TestRng) -> Vec<f64> {
    (0..(rows + 2) * cols)
        .map(|_| {
            if special_every > 0 && rng.below(special_every) == 0 {
                SPECIALS[rng.below(SPECIALS.len() as u64) as usize]
            } else {
                200.0 * rng.unit_f64() - 100.0
            }
        })
        .collect()
}

/// Each value's bits, every `NaN` as the canonical one.
fn bits(v: &[f64]) -> Vec<u64> {
    let canonical = |x: &f64| if x.is_nan() { f64::NAN } else { *x };
    v.iter().map(|x| canonical(x).to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn in_place_sweep_equals_reference(
        rows in 1usize..8,
        cols in 1usize..20,
        special_every in 0u64..6,
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::for_case(seed, 0);
        let start = random_grid(rows, cols, special_every, &mut rng);
        let mut fast = start.clone();
        let mut reference = start.clone();
        let got = jacobi_sweep_in_place(&mut fast, &mut vec![f64::NAN; 2 * cols], rows, cols);
        let want = jacobi_sweep_reference(
            &mut reference,
            &mut vec![f64::NAN; start.len()],
            rows,
            cols,
        );
        prop_assert_eq!(got.max_delta.to_bits(), want.max_delta.to_bits());
        prop_assert_eq!(bits(&fast), bits(&reference), "{} × {}", rows, cols);
        let halo = |g: &[f64]| {
            let rows = [&g[..cols], &g[(rows + 1) * cols..]];
            rows.concat().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        prop_assert_eq!(halo(&fast), halo(&start), "halo rows moved");
    }
}
