//! Trend removal — the paper's `Das_detrend(X)`, which "removes the best
//! straight-line fit" (MATLAB `detrend` semantics).
//!
//! Both fits are sequential sums over the row — one floating-point
//! dependency chain each — so a block of equal-length rows
//! ([`detrend_block_in_place`], [`detrend_constant_block_in_place`])
//! advances [`LANES`] rows' sums through one loop, a sum per lane, each
//! row's values computed by its own operations in the one-row order: a
//! row's output has the same bits whichever lane it rode in, whatever
//! rode beside it, and as [`detrend_in_place`] alone (the block of one).

use crate::filter::LANES;

/// Remove the least-squares straight-line fit from `x`.
pub fn detrend(x: &[f64]) -> Vec<f64> {
    if x.len() < 2 {
        return vec![0.0; x.len()];
    }
    let [(slope, intercept)] = fit_lines([x]);
    x.iter()
        .enumerate()
        .map(|(i, &v)| v - (slope * i as f64 + intercept))
        .collect()
}

/// [`detrend`] overwriting its input.
pub fn detrend_in_place(x: &mut [f64]) {
    detrend_lanes([x]);
}

/// [`detrend_in_place`] on every row of `rows`: [`LANES`] rows at a time
/// in lockstep, the last `len % LANES` one by one. Bit-identical to
/// [`detrend_in_place`] on each row.
///
/// # Panics
/// Panics when rows that share a lockstep block differ in length.
pub fn detrend_block_in_place(rows: &mut [Vec<f64>]) {
    by_lanes(rows, detrend_lanes::<LANES>, detrend_lanes::<1>);
}

/// Remove the mean (MATLAB `detrend(x, 'constant')`).
pub fn detrend_constant(x: &[f64]) -> Vec<f64> {
    let mut out = x.to_vec();
    detrend_constant_in_place(&mut out);
    out
}

/// [`detrend_constant`] overwriting its input.
pub fn detrend_constant_in_place(x: &mut [f64]) {
    demean_lanes([x]);
}

/// [`detrend_constant_in_place`] on every row of `rows`, in lockstep
/// like [`detrend_block_in_place`] and bit-identical to it row by row.
///
/// # Panics
/// Panics when rows that share a lockstep block differ in length.
pub fn detrend_constant_block_in_place(rows: &mut [Vec<f64>]) {
    by_lanes(rows, demean_lanes::<LANES>, demean_lanes::<1>);
}

/// `rows` through `block` [`LANES`] at a time, the remainder through
/// `one`.
fn by_lanes(rows: &mut [Vec<f64>], block: fn([&mut [f64]; LANES]), one: fn([&mut [f64]; 1])) {
    let mut blocks = rows.chunks_exact_mut(LANES);
    for rows in &mut blocks {
        let rows: &mut [Vec<f64>; LANES] = rows.try_into().expect("chunks_exact_mut(LANES)");
        block(rows.each_mut().map(|row| row.as_mut_slice()));
    }
    for row in blocks.into_remainder() {
        one([row]);
    }
}

/// The common length of `rows`.
fn lane_len<const L: usize>(rows: [&[f64]; L]) -> usize {
    let n = rows[0].len();
    assert!(
        rows.iter().all(|row| row.len() == n),
        "rows detrended in lockstep must have one length"
    );
    n
}

/// The rows' samples position by position: `[row 0, row 1, …]` at
/// sample 0, then at sample 1, and so on to `n`.
fn columns<const L: usize>(rows: [&[f64]; L], n: usize) -> impl Iterator<Item = [f64; L]> + '_ {
    let rows = rows.map(|row| &row[..n]);
    (0..n).map(move |i| rows.map(|row| row[i]))
}

/// Each row's mean: a sum per lane, samples ascending from `Sum`'s
/// `-0.0`, then divided by the length.
fn lane_means<const L: usize>(rows: [&[f64]; L]) -> [f64; L] {
    let n = lane_len(rows);
    let mut sum = [-0.0; L];
    for column in columns(rows, n) {
        for (sum, v) in sum.iter_mut().zip(column) {
            *sum += v;
        }
    }
    sum.map(|s| s / n as f64)
}

/// Slope and intercept of each row's least-squares line over
/// `t = 0..n−1`, in closed form. Needs two samples or more.
fn fit_lines<const L: usize>(rows: [&[f64]; L]) -> [(f64, f64); L] {
    let n = lane_len(rows);
    let nf = n as f64;
    let t_mean = (nf - 1.0) / 2.0;
    let x_mean = lane_means(rows);
    let (mut cov, mut var) = ([0.0; L], 0.0);
    for (i, column) in columns(rows, n).enumerate() {
        let dt = i as f64 - t_mean;
        for ((cov, v), x_mean) in cov.iter_mut().zip(column).zip(x_mean) {
            *cov += dt * (v - x_mean);
        }
        var += dt * dt;
    }
    std::array::from_fn(|lane| {
        let slope = cov[lane] / var;
        (slope, x_mean[lane] - slope * t_mean)
    })
}

/// Remove each row's least-squares line; rows shorter than two samples
/// become zeros.
fn detrend_lanes<const L: usize>(rows: [&mut [f64]; L]) {
    if lane_len(rows.each_ref().map(|row| &**row)) < 2 {
        return rows.into_iter().for_each(|row| row.fill(0.0));
    }
    let lines = fit_lines(rows.each_ref().map(|row| &**row));
    for (row, (slope, intercept)) in rows.into_iter().zip(lines) {
        for (i, v) in row.iter_mut().enumerate() {
            *v -= slope * i as f64 + intercept;
        }
    }
}

/// Subtract each row's mean.
fn demean_lanes<const L: usize>(rows: [&mut [f64]; L]) {
    let mean = lane_means(rows.each_ref().map(|row| &**row));
    for (row, mean) in rows.into_iter().zip(mean) {
        for v in row {
            *v -= mean;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slope and intercept of the least-squares line: the one-row fit
    /// the lanes replaced, kept as the bit-exact reference.
    fn fit_line_reference(x: &[f64]) -> (f64, f64) {
        let nf = x.len() as f64;
        let t_mean = (nf - 1.0) / 2.0;
        let x_mean = x.iter().sum::<f64>() / nf;
        let mut cov = 0.0;
        let mut var = 0.0;
        for (i, &v) in x.iter().enumerate() {
            let dt = i as f64 - t_mean;
            cov += dt * (v - x_mean);
            var += dt * dt;
        }
        let slope = cov / var;
        (slope, x_mean - slope * t_mean)
    }

    fn detrend_reference(x: &[f64]) -> Vec<f64> {
        if x.len() < 2 {
            return vec![0.0; x.len()];
        }
        let (slope, intercept) = fit_line_reference(x);
        x.iter()
            .enumerate()
            .map(|(i, &v)| v - (slope * i as f64 + intercept))
            .collect()
    }

    fn detrend_constant_reference(x: &[f64]) -> Vec<f64> {
        let mut x = x.to_vec();
        if x.is_empty() {
            return x;
        }
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        for v in &mut x {
            *v -= mean;
        }
        x
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Row `r` of length `n`: a trend plus a wobble, distinct per row,
    /// with a few rows holding a NaN, an infinity of either sign, or
    /// nothing but negative zeros.
    fn row(r: usize, n: usize) -> Vec<f64> {
        let mut x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                (0.37 * t + r as f64).sin() * (1.0 + r as f64) + 0.013 * t * (r as f64 - 2.5)
            })
            .collect();
        match r % 7 {
            3 if n > 0 => x[n / 2] = f64::NAN,
            4 if n > 0 => x[n - 1] = f64::INFINITY,
            5 if n > 0 => x[0] = f64::NEG_INFINITY,
            6 => x.fill(-0.0),
            _ => {}
        }
        x
    }

    /// Every block size up to a full lockstep block and beyond, every
    /// short length and a long one, NaN and ±inf rows beside finite
    /// ones: each row of a block has the bits its reference gives alone.
    #[test]
    fn blocks_equal_the_one_row_references() {
        type Kernel = (fn(&mut [Vec<f64>]), fn(&[f64]) -> Vec<f64>);
        let kernels: [Kernel; 2] = [
            (detrend_block_in_place, detrend_reference),
            (detrend_constant_block_in_place, detrend_constant_reference),
        ];
        for (block, reference) in kernels {
            for n in [0usize, 1, 2, 3, 5000] {
                for first in 0..7 {
                    for size in 1..=2 * LANES + 1 {
                        let raw: Vec<Vec<f64>> = (first..first + size).map(|r| row(r, n)).collect();
                        let want: Vec<Vec<f64>> = raw.iter().map(|x| reference(x)).collect();
                        let mut got = raw.clone();
                        block(&mut got);
                        assert_eq!(bits(&got), bits(&want), "{size} rows of {n} from {first}");
                    }
                }
            }
        }
    }

    #[test]
    fn in_place_variants_have_the_same_bits() {
        for n in [0usize, 1, 2, 3, 100, 5000] {
            for r in 0..7 {
                let x = row(r, n);
                let mut y = x.clone();
                detrend_in_place(&mut y);
                assert_eq!(bits(&[y]), bits(&[detrend_reference(&x)]), "row {r} of {n}");
                assert_eq!(bits(&[detrend(&x)]), bits(&[detrend_reference(&x)]));
                let mut y = x.clone();
                detrend_constant_in_place(&mut y);
                assert_eq!(bits(&[y]), bits(&[detrend_constant_reference(&x)]));
                assert_eq!(
                    bits(&[detrend_constant(&x)]),
                    bits(&[detrend_constant_reference(&x)])
                );
            }
        }
    }

    /// Changing one row of a lockstep block, to a different finite row
    /// or to one holding a NaN, leaves the other rows' bits unchanged.
    #[test]
    fn lanes_are_isolated() {
        for block in [detrend_block_in_place, detrend_constant_block_in_place] {
            for n in [2usize, 3, 5000] {
                let raw: Vec<Vec<f64>> = (0..LANES).map(|r| row(7 * r, n)).collect();
                let mut base = raw.clone();
                block(&mut base);
                for lane in 0..LANES {
                    for other in [7 * LANES + 1, 3] {
                        let mut rows = raw.clone();
                        rows[lane] = row(other, n);
                        block(&mut rows);
                        for r in (0..LANES).filter(|&r| r != lane) {
                            assert_eq!(bits(&rows[r..=r]), bits(&base[r..=r]), "lane {lane}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one length")]
    fn unequal_rows_in_a_block_are_refused() {
        let mut rows = vec![vec![1.0; 8], vec![1.0; 8], vec![1.0; 8], vec![1.0; 9]];
        detrend_block_in_place(&mut rows);
    }

    #[test]
    fn removes_pure_line_exactly() {
        let x: Vec<f64> = (0..100).map(|i| 3.0 * i as f64 - 7.0).collect();
        for v in detrend(&x) {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn preserves_signal_on_top_of_line() {
        let n = 200;
        let signal: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).sin()).collect();
        let with_trend: Vec<f64> = signal
            .iter()
            .enumerate()
            .map(|(i, &s)| s + 0.05 * i as f64 + 2.0)
            .collect();
        let out = detrend(&with_trend);
        // The sine has tiny least-squares line content; allow slack.
        for (a, b) in out.iter().zip(&signal) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn output_has_zero_mean_and_zero_slope() {
        let x: Vec<f64> = (0..64)
            .map(|i| ((i * i) as f64).sin() + i as f64 * 0.2)
            .collect();
        let y = detrend(&x);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!(mean.abs() < 1e-10);
        let t_mean = (y.len() as f64 - 1.0) / 2.0;
        let slope_num: f64 = y
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 - t_mean) * v)
            .sum();
        assert!(slope_num.abs() < 1e-8);
    }

    #[test]
    fn constant_detrend_zeroes_mean_only() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = detrend_constant(&x);
        assert_eq!(y, vec![-1.5, -0.5, 0.5, 1.5]);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(detrend(&[]).is_empty());
        assert_eq!(detrend(&[5.0]), vec![0.0]);
        assert!(detrend_constant(&[]).is_empty());
        assert_eq!(detrend_constant(&[2.0]), vec![0.0]);
    }
}
